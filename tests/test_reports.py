"""The flat key: value report format."""

import math

import pytest

from fuselab import ParseError, ValidationError, format_report, parse_report, strip_timestamp, write_report
from fuselab.reports import REPORT_FORMAT_VERSION, format_value


class TestFormatValue:
    def test_scalars(self):
        assert format_value(None) == "-"
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(3) == "3"
        assert format_value("plain") == "plain"

    def test_floats_round_trip_through_repr(self):
        for x in (0.1, 1.0 / 3.0, 1e-17, 123456.789, -0.0):
            assert float(format_value(x)) == x

    def test_infinities(self):
        assert format_value(math.inf) == "inf"
        assert format_value(-math.inf) == "-inf"

    def test_lists_comma_joined(self):
        assert format_value([1, 2, 3]) == "1,2,3"
        assert format_value((0.5, None)) == "0.5,-"


class TestFormatReport:
    def test_header_lines_first(self):
        text = format_report([("alpha", 1)], timestamp="NOW")
        lines = text.splitlines()
        assert lines[0] == f"format_version: {REPORT_FORMAT_VERSION}"
        assert lines[1] == "timestamp: NOW"
        assert lines[2] == "alpha: 1"
        assert text.endswith("\n")

    def test_default_timestamp_present(self):
        text = format_report([])
        assert text.splitlines()[1].startswith("timestamp: ")

    def test_bad_keys_rejected(self):
        with pytest.raises(ParseError):
            format_report([("has space", 1)])
        with pytest.raises(ParseError):
            format_report([("has:colon", 1)])

    def test_fixed_timestamp_makes_bytes_reproducible(self):
        items = [("a", 0.1), ("b", None), ("c", [1, 2])]
        assert format_report(items, timestamp="T") == format_report(items, timestamp="T")


class TestParseReport:
    def test_round_trip(self):
        items = [("alpha", 0.25), ("beta", None), ("gamma_list", [1, 2])]
        parsed = parse_report(format_report(items, timestamp="T"))
        assert parsed["format_version"] == str(REPORT_FORMAT_VERSION)
        assert parsed["timestamp"] == "T"
        assert float(parsed["alpha"]) == 0.25
        assert parsed["beta"] == "-"
        assert parsed["gamma_list"] == "1,2"

    def test_blank_lines_ignored(self):
        assert parse_report("a: 1\n\nb: 2\n") == {"a": "1", "b": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_report("a: 1\na: 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError):
            parse_report("not a report line\n")


class TestStripTimestamp:
    def test_only_timestamp_removed(self):
        a = format_report([("x", 1)], timestamp="EARLY")
        b = format_report([("x", 1)], timestamp="LATE")
        assert a != b
        assert strip_timestamp(a) == strip_timestamp(b)
        assert "timestamp" not in strip_timestamp(a)
        assert "x: 1" in strip_timestamp(a)


class TestWriteReport:
    def test_file_matches_returned_text(self, tmp_path):
        path = tmp_path / "r.txt"
        text = write_report(path, [("k", "v")], timestamp="T")
        assert path.read_text() == text

    def test_non_ascii_value_leaves_existing_file(self, tmp_path):
        path = tmp_path / "r.txt"
        write_report(path, [("k", "v")], timestamp="T")
        before = path.read_bytes()
        with pytest.raises(ValidationError, match="\u00e9"):
            write_report(path, [("k", "caf\u00e9")], timestamp="T")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.txt"]
