"""Output checks of the benchmark and the reference outputs they compare to.

An operation fails when it raises, exits nonzero, writes a report that is not
`key: value` text, or scores a merged model at or below chance. Separately,
its outputs are digested (model and dataset bytes; the numeric report values
without the timestamp) and compared with `reference.json`, recorded by
`run.py --record` for each workload, seed and input set.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class OpFailed(Exception):
    """An operation exited nonzero or produced output that fails a check."""


def report_values(text):
    """`key: value` report text to a dict; anything else fails the op."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or not key or " " in key or key in values:
            raise OpFailed(f"unparseable report line {line!r}")
        values[key] = value
    if not values:
        raise OpFailed("empty report")
    return values


def numeric_values(values):
    """The report entries whose value is a number or a list of numbers."""
    out = {}
    for key, value in values.items():
        if key == "timestamp":
            continue
        try:
            [float(v) for v in value.split(",")]
        except ValueError:
            continue
        out[key] = value
    return out


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_op(workload, k, op_dir, outputs, chance):
    """Output checks of one operation; returns its accuracies and outputs."""
    values = {name: report_values(t) for name, t in outputs.reports.items()}
    workload.score(k, op_dir, outputs, values)
    for method, acc in outputs.acc.items():
        if not acc > chance:
            raise OpFailed(f"{method} accuracy {acc} is at or below chance")
    return {
        "acc": outputs.acc,
        "files": {n: sha256(p.read_bytes()) for n, p in outputs.files.items()},
        "reports": {n: numeric_values(v) for n, v in values.items()},
    }


def reference_digest(result, report_keys):
    """Digest of an op's outputs over the reference's report keys.

    Keys added to a report later do not change the digest; a changed or
    missing value does.
    """
    reports = {}
    for name, keys in report_keys.items():
        items = result["reports"].get(name, {})
        text = "\n".join(f"{k}: {items.get(k, '<missing>')}" for k in keys)
        reports[name] = sha256(text.encode())
    return {"files": result["files"], "reports": reports}


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference(workload, key, result):
    ref = load_reference()
    entry = ref.setdefault(workload, {})
    keys = entry.setdefault(
        "report_keys", {n: list(v) for n, v in result["reports"].items()}
    )
    entry.setdefault("seeds", {})[key] = reference_digest(result, keys)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
