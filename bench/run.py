"""fuselab benchmark: one workload in one process, as a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; fuselab is imported from `src/`. The run
builds the workload's input sets from the seed (one timed set-up round
each), then runs its operation back to back for S seconds, checking every
operation's outputs. It prints each
metric by name with its unit, a JSON line with the details (sample counts,
fail rate, outputs changed, accuracies, environment), and, as the last line,
the result: `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json. With
`--trace 1` every other operation runs with every public fuselab function
wrapped (see tracer.py) and the metrics are the per-layer ones; the spans are
written to `.bench_out/` when the run ends.

`--record` runs one operation per input set and stores the digests of its
outputs as the reference for this workload and seed in `reference.json`.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from checks import check_op, load_reference, record_reference, reference_digest
from tracer import SOLVER, Tracer, per_op_totals, read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "FUSELAB_THREADS")


def parse_args(spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as the reference")
    return parser.parse_args()


# --- environment -----------------------------------------------------------


def importtime_breakdown(work, modules=("fuselab", "scipy.optimize")):
    """Median cumulative import time (s) per module, from -X importtime.

    A module's time is the sum over its shallowest entries, itself or its
    submodules: `from scipy import optimize` logs the submodules of
    scipy.optimize but no line for the package itself.
    """
    samples = {m: [] for m in modules}
    for _ in range(IMPORTTIME_SAMPLES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fuselab"],
            cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True,
        ).stderr
        entries = []
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = len(name) - len(name.lstrip())
                entries.append((depth, name.strip(), int(parts[1]) / 1e6))
        for m in modules:
            mine = [(d, t) for d, n, t in entries if n == m or n.startswith(m + ".")]
            top = min((d for d, _ in mine), default=None)
            samples[m].append(sum(t for d, t in mine if d == top))
    return {m: statistics.median(v) for m, v in samples.items()}


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


# --- metrics ---------------------------------------------------------------


def first_set_accuracies(ops):
    """Accuracy per method on input set 0, which every run reaches first."""
    return next((op["acc"] for op in ops if op["set"] == 0 and "error" not in op), {})


def end_to_end(workload, ops, setup_s):
    ok = [op for op in ops if "error" not in op]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-pipeline":
        usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    acc = first_set_accuracies(ops)
    return {
        "setup_s": setup_s,
        "op_s": statistics.median(op["wall"] for op in (ok or ops)),
        "peak_rss_mb": usage / 1024.0,
        "merged_acc": statistics.fmean(acc.values()) if acc else 0.0,
    }


def per_layer(names, tracer, ops, work):
    """Per-layer metrics from the traced ops (every other op).

    Counts come from the first op, which runs on input set 0, so they are
    exact and repeat for a seed; self times are medians over traced ops.
    """
    traced = [i for i, op in enumerate(ops) if op["traced"] and "error" not in op]
    untraced = [op["wall"] for op in ops if not op["traced"] and "error" not in op]
    if not traced or traced[0] != 0:
        return {name: 0.0 for name in names}
    totals, keys = per_op_totals(tracer.spans)

    def calls(name):
        return totals[0][name][0] if name in totals[0] else 0

    def self_s(base):
        return statistics.median(
            sum(
                entry[1]
                for name, entry in totals[i].items()
                if name == base or name.startswith(base + ".")
            )
            for i in traced
        )

    capture = "activations.capture"
    distinct = len(keys[0][capture])
    imports = importtime_breakdown(work)
    traced_s = statistics.median(ops[i]["wall"] for i in traced)
    special = {
        "matching.solver_calls_per_assign": (
            calls(SOLVER) / max(1, calls("matching.linear_sum_assignment"))
        ),
        "activations.capture.redundancy": calls(capture) / max(1, distinct),
        "import.fuselab_s": imports["fuselab"],
        "import.scipy.optimize_s": imports["scipy.optimize"],
        "trace.op_s": traced_s,
        "trace.overhead": (
            traced_s / statistics.median(untraced) if untraced else 0.0
        ),
    }
    metrics = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif kind == "calls":
            metrics[name] = calls(base)
        elif kind == "self_s":
            metrics[name] = self_s(base)
        else:
            raise SystemExit(f"error: no rule for per-layer metric {name}")
    return metrics


# --- the run ---------------------------------------------------------------


def run_ops(args, workload, tracer):
    """The closed loop: one op after another until the time is up."""
    import fuselab

    from workloads import CHANCE, INPUT_SETS

    op_dir = args.work / "op"
    ops = []
    min_ops = INPUT_SETS if args.record else 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    while len(ops) < min_ops or (not args.record and time.perf_counter() < deadline):
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir()
        k = len(ops) % INPUT_SETS
        traced = tracer is not None and len(ops) % 2 == 0
        if traced:
            tracer.install(fuselab)
            token = tracer.begin(len(ops))
        start = time.perf_counter()
        outputs = error = None
        try:
            outputs = workload.op(k, op_dir, traced)
        except (Exception, SystemExit) as exc:
            error = exc
        op = {"wall": time.perf_counter() - start, "traced": traced, "set": k}
        if traced:
            tracer.end("op", token)
            tracer.uninstall()
            for path in outputs.child_spans if outputs else ():
                tracer.adopt(read_spans(path), token[0], len(ops))
        if error is None:
            try:
                op.update(check_op(workload, k, op_dir, outputs, CHANCE))
            except Exception as exc:
                error = exc
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            op["error"] = repr(error)
        ops.append(op)

    first = {}
    for op in ops:
        if "error" not in op:
            outputs = (op["files"], op["reports"])
            if first.setdefault(op["set"], outputs) != outputs:
                op["error"] = "outputs differ from an earlier op on the same inputs"
    return ops


def compare_with_reference(args, ops):
    """Number of ops whose outputs differ from the recorded reference."""
    ok = [op for op in ops if "error" not in op]
    ref = load_reference().get(args.workload, {})
    changed = 0
    missing = set()
    for op in ok:
        expected = ref.get("seeds", {}).get(f"{args.seed}/{op['set']}")
        if expected is None:
            missing.add(op["set"])
        else:
            changed += reference_digest(op, ref["report_keys"]) != expected
    if missing:
        print(f"note: no reference outputs for {args.workload} seed "
              f"{args.seed} input sets {sorted(missing)}; only run-internal "
              "checks apply to them", file=sys.stderr)
    return changed, not missing


def run(args, spec, import_s_in_process):
    from workloads import INPUT_SETS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.work)
    rounds = []
    for k in range(INPUT_SETS):
        start = time.perf_counter()
        workload.setup(k)
        rounds.append(time.perf_counter() - start)
    setup_s = import_s_in_process + statistics.median(rounds)

    tracer = Tracer() if args.trace else None
    ops = run_ops(args, workload, tracer)
    ok = [op for op in ops if "error" not in op]
    failed = len(ops) - len(ok)
    if args.record:
        if failed:
            print(f"not recorded: {failed} of {len(ops)} ops failed",
                  file=sys.stderr)
            return 1
        for op in ops:
            record_reference(args.workload, f"{args.seed}/{op['set']}", op)
        print(f"recorded {args.workload} seed {args.seed}")
        return 0
    changed, referenced = compare_with_reference(args, ops)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        metrics = per_layer(list(units), tracer, ops, args.work)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(args.workload, ops, setup_s)

    acc = first_set_accuracies(ops)
    samples = {"op_s": len(ok or ops), "setup_s": len(rounds),
               "trace.op_s": sum(op["traced"] for op in ok)}
    for name, value in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name}: {value:.6g} {units[name]}{n}")
    print(f"fail_rate: {failed / len(ops):.6g} ratio  ({failed} of {len(ops)} ops)")
    print(f"outputs_changed: {changed} count"
          + ("" if referenced else "  (some inputs have no reference)"))
    for method, value in acc.items():
        print(f"acc.{method}: {value:.6g} ratio")
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "samples": {n: samples[n] for n in metrics if n in samples},
        "op_walls_s": [op["wall"] for op in ops],
        "fail_rate": failed / len(ops),
        "outputs_changed": changed,
        "reference": "compared" if referenced else "incomplete",
        "acc": acc,
        "errors": [op["error"] for op in ops if "error" in op],
        "env": environment(args.seed),
    }))
    print(json.dumps({
        "correct": failed == 0 and changed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec)
    if not (SRC / "fuselab" / "__init__.py").is_file():
        print("error: fuselab sources not found under src/", file=sys.stderr)
        return 2
    os.environ.pop("FUSELAB_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    sys.path.insert(0, str(SRC))
    import fuselab

    if Path(fuselab.__file__).resolve().parent != SRC / "fuselab":
        print(f"error: imported fuselab from {fuselab.__file__}, not src/",
              file=sys.stderr)
        return 2
    import workloads  # noqa: F401  (imports fuselab.cli, part of set-up)

    import_s_in_process = time.perf_counter() - START
    args.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    args.work.mkdir(parents=True)
    try:
        return run(args, spec, import_s_in_process)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
