"""The test session itself: a failing property is reported, not fatal."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 100))
def test_property(x):
    assert x < 50


def test_plain():
    pass
"""


def test_failing_property_lets_the_session_go_on(tmp_path):
    # the repository's warning filters and conftest, on a file of its own
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest",
         "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(TESTS), *sys.path])},
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
