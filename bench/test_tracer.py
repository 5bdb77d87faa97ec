"""Checks of the benchmark's tracer.

    python3 -m pytest bench/test_tracer.py

Tracing must not change what fuselab computes, and its counts must match
what the code does on a case small enough to count by hand.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fuselab  # noqa: E402
from fuselab import activations, cca, cli, matching  # noqa: E402
from scipy import optimize  # noqa: E402

from tracer import Tracer, per_op_totals  # noqa: E402


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 2-model, 2-hidden-layer pool on disk."""
    root = tmp_path_factory.mktemp("tiny")
    ds = fuselab.generate(4, 20, 6, seed=3)
    fuselab.save_dataset(ds, root / "train.ds")
    paths = []
    for seed in (0, 1):
        init_seed, shuffle_seed = fuselab.seeds_for(seed)
        cfg = fuselab.TrainConfig(
            hidden_widths=(8, 8), epochs=2,
            init_seed=init_seed, shuffle_seed=shuffle_seed,
        )
        path = root / f"m{seed}.model"
        fuselab.save_model(fuselab.train(ds, cfg), path)
        paths.append(str(path))
    return root, paths


def merge(root, paths, out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(
            ["merge", *paths, "--method", "permute",
             "--probes", str(root / "train.ds"), "--out", str(root / out)]
        )
    assert code == 0
    model = (root / out / "merged.model").read_bytes()
    report = (root / out / "merge_report.txt").read_text().splitlines()
    return model, [line for line in report if not line.startswith("timestamp:")]


def traced_merge(root, paths, out):
    tracer = Tracer().install(fuselab)
    try:
        token = tracer.begin(7)
        result = merge(root, paths, out)
        tracer.end("op", token)
    finally:
        tracer.uninstall()
    return tracer, result


def test_counts_match_hand_derived_values(tiny):
    root, paths = tiny
    tracer, _ = traced_merge(root, paths, "counted")
    totals, keys = per_op_totals(tracer.spans)
    op = totals[7]
    # one assignment per hidden layer for the single non-reference model
    assert op["matching.linear_sum_assignment"][0] == 2
    # permute_plan captures both models; the report's CCA summaries capture
    # both again
    assert op["activations.capture"][0] == 4
    assert len(keys[7]["activations.capture"]) == 2
    assert op["matching.solver"][0] >= 2
    assert op["cli.main"][0] == 1
    assert op["op"][0] == 1


def test_spans_share_the_op_and_nest(tiny):
    root, paths = tiny
    tracer, _ = traced_merge(root, paths, "nested")
    by_id = {span[0]: span for span in tracer.spans}
    assert {span[2] for span in tracer.spans} == {7}
    roots = [span for span in tracer.spans if span[1] is None]
    assert [span[3] for span in roots] == ["op"]
    for sid, parent, _, name, start, end, _ in tracer.spans:
        if parent is not None:
            outer = by_id[parent]
            assert outer[4] <= start <= end <= outer[5]
    parents = {by_id[s[1]][3] for s in tracer.spans if s[3] == "matching.solver"}
    assert parents == {"matching.linear_sum_assignment"}


def test_traced_outputs_are_byte_identical(tiny):
    root, paths = tiny
    plain = merge(root, paths, "plain")
    _, traced = traced_merge(root, paths, "traced")
    assert traced == plain


def test_every_binding_is_wrapped_and_restored(tiny):
    originals = (fuselab.capture, activations.capture, cca.capture,
                 matching.capture, optimize.linear_sum_assignment)
    tracer = Tracer().install(fuselab)
    try:
        wrapped = {fuselab.capture, activations.capture, cca.capture,
                   matching.capture}
        assert len(wrapped) == 1 and wrapped.isdisjoint(originals)
        assert optimize.linear_sum_assignment is not originals[-1]
    finally:
        tracer.uninstall()
    assert (fuselab.capture, activations.capture, cca.capture,
            matching.capture, optimize.linear_sum_assignment) == originals
