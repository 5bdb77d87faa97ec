"""Flat "key: value" text reports.

One line per entry, insertion order preserved, floats written with repr so
re-running a deterministic pipeline reproduces the bytes exactly. The
timestamp is the single intentionally non-reproducible line; helpers here
can strip it for comparisons.
"""

from __future__ import annotations

import math
import time

from .errors import ParseError, ValidationError
from .model import _write_atomic

REPORT_FORMAT_VERSION = 1


def format_value(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def format_report(items, timestamp=None):
    """Render (key, value) pairs; format_version first, timestamp second."""
    if timestamp is None:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    lines = [
        f"format_version: {REPORT_FORMAT_VERSION}",
        f"timestamp: {timestamp}",
    ]
    for key, value in items:
        if " " in key or ":" in key:
            raise ParseError(f"bad report key {key!r}")
        lines.append(f"{key}: {format_value(value)}")
    return "\n".join(lines) + "\n"


def write_report(path, items, timestamp=None):
    text = format_report(items, timestamp)
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"report text is not ASCII: {exc.object[exc.start:exc.end]!r}"
        ) from None
    _write_atomic(path, data)
    return text


def parse_report(text):
    """Report text back to a dict of raw string values."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition(": ")
        if not sep or not key or " " in key:
            raise ParseError(f"line {lineno} is not 'key: value': {line!r}")
        if key in out:
            raise ParseError(f"duplicate report key {key!r}")
        out[key] = value
    return out


def strip_timestamp(text):
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("timestamp: ")
    ) + "\n"
