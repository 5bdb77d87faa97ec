"""The benchmark's workloads: inputs from the seed, one operation, its outputs.

Every workload is a closed loop with one caller: `run.py` starts the next
operation when the last one returns. The workload seed yields INPUT_SETS
independent input sets (data seed and model seeds); set-up round k builds
set k, and operation i runs on set i mod INPUT_SETS. Rotating the sets
averages out how much the work depends on the data, which a single set
cannot. The program sees only the generated data, models and arguments.
Sizes are the README defaults (16 classes, 125 training points per class,
dimension 32, 250 test points per class) unless a workload says otherwise.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path

import fuselab
from fuselab import cli

from checks import OpFailed

INPUT_SETS = 3
CLASSES, PER_CLASS, DIM, TEST_PER_CLASS = 16, 125, 32, 250
CHANCE = 1.0 / CLASSES
CHILD = Path(__file__).resolve().parent / "child.py"
COMMAND_TIMEOUT_S = 150


def derive_seeds(workload, seed, input_set, count):
    """(data seed, `count` model seeds), a pure function of the arguments."""
    rng = random.Random(f"{workload}:{seed}:{input_set}")
    return rng.randrange(2**31), rng.sample(range(2**31), count)


def run_cli(argv):
    """`fuselab <argv>` in this process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"fuselab {argv[0]} exited with {code}")
    return out.getvalue()


class Outputs:
    """What one operation produced: files, report texts, accuracies."""

    def __init__(self):
        self.files = {}
        self.reports = {}
        self.acc = {}
        self.child_spans = []


class ExperimentDefault:
    name = "experiment-default"

    def __init__(self, seed, work):
        self.seeds = [derive_seeds(self.name, seed, k, 2) for k in range(INPUT_SETS)]

    def setup(self, k):
        pass

    def op(self, k, out_dir, traced):
        data_seed, (seed_a, seed_b) = self.seeds[k]
        run_cli(
            [
                "experiment",
                "--data-seed", data_seed,
                "--seeds", f"{seed_a},{seed_b}",
                "--out", out_dir,
            ]
        )
        outputs = Outputs()
        outputs.reports["experiment"] = (out_dir / "experiment_report.txt").read_text()
        return outputs

    def score(self, k, out_dir, outputs, report_values):
        for method in ("direct", "permute", "cca"):
            key = f"method.{method}.merged_accuracy"
            if key not in report_values["experiment"]:
                raise OpFailed(f"experiment report lacks {key}")
            outputs.acc[method] = float(report_values["experiment"][key])


class MergeWorkload:
    """`fuselab merge` of models trained and saved during set-up."""

    def __init__(self, seed, work):
        self.seed = seed
        self.dirs = [work / f"set{k}" for k in range(INPUT_SETS)]
        self.tests = [None] * INPUT_SETS

    def setup(self, k):
        data_seed, model_seeds = derive_seeds(self.name, self.seed, k, self.num_models)
        self.dirs[k].mkdir(exist_ok=True)
        train = fuselab.generate(CLASSES, PER_CLASS, DIM, data_seed)
        fuselab.save_dataset(train, self.dirs[k] / "train.ds")
        self.tests[k] = fuselab.generate(
            CLASSES, TEST_PER_CLASS, DIM, data_seed, sample_salt=1
        )
        for i, seed in enumerate(model_seeds):
            init_seed, shuffle_seed = fuselab.seeds_for(seed)
            cfg = fuselab.TrainConfig(
                hidden_widths=self.widths,
                epochs=self.epochs,
                init_seed=init_seed,
                shuffle_seed=shuffle_seed,
            )
            fuselab.save_model(fuselab.train(train, cfg), self.dirs[k] / f"m{i}.model")

    def op(self, k, out_dir, traced):
        models = [self.dirs[k] / f"m{i}.model" for i in range(self.num_models)]
        run_cli(
            [
                "merge", *models,
                "--method", self.method, *self.flags,
                "--probes", self.dirs[k] / "train.ds",
                "--out", out_dir,
            ]
        )
        outputs = Outputs()
        outputs.files["merged.model"] = out_dir / "merged.model"
        outputs.reports["merge"] = (out_dir / "merge_report.txt").read_text()
        return outputs

    def score(self, k, out_dir, outputs, report_values):
        merged = fuselab.load_model(out_dir / "merged.model")
        outputs.acc[self.method] = fuselab.accuracy(merged, self.tests[k])


class MergeWide(MergeWorkload):
    name = "merge-wide"
    num_models, widths, epochs = 3, (128, 128), 30
    method, flags = "permute", ["--repair"]


class GammaSearch(MergeWorkload):
    name = "gamma-search"
    num_models, widths, epochs = 5, (256, 256), 3
    method, flags = "cca", ["--gamma-search", "auto", "--repair"]


class CliPipeline:
    """The README's hand-built pipeline, one fresh interpreter per command."""

    name = "cli-pipeline"
    # commands whose stdout is a report
    REPORTING = ("merge", "eval", "barrier", "analyze")
    FILES = ("train.ds", "test.ds", "m0.model", "m1.model", "m2.model",
             "merged_cca/merged.model", "merged_permute/merged.model")

    def __init__(self, seed, work):
        self.seeds = [derive_seeds(self.name, seed, k, 3) for k in range(INPUT_SETS)]

    def setup(self, k):
        pass

    def commands(self, k):
        data_seed, seeds = self.seeds[k]
        d = ["--classes", CLASSES, "--dim", DIM, "--seed", data_seed]
        return [
            ("gen-train", ["gen-data", *d, "--per-class", PER_CLASS, "--out", "train.ds"]),
            ("gen-test", ["gen-data", *d, "--per-class", TEST_PER_CLASS,
                          "--salt", 1, "--out", "test.ds"]),
            *(
                (f"train{i}", ["train", "--data", "train.ds", "--seed", s,
                               "--out", f"m{i}.model"])
                for i, s in enumerate(seeds)
            ),
            ("merge-cca", ["merge", "m0.model", "m1.model", "--method", "cca",
                           "--probes", "train.ds", "--out", "merged_cca"]),
            ("merge-permute", ["merge", "m0.model", "m1.model", "m2.model",
                               "--method", "permute", "--probes", "train.ds",
                               "--out", "merged_permute"]),
            ("eval", ["eval", "merged_cca/merged.model", "m0.model", "m1.model",
                      "--data", "test.ds"]),
            ("barrier", ["barrier", "m0.model", "m1.model", "--data", "test.ds"]),
            ("analyze", ["analyze", "m0.model", "m1.model", "m2.model",
                         "--probes", "train.ds"]),
        ]

    def op(self, k, out_dir, traced):
        outputs = Outputs()
        for label, argv in self.commands(k):
            cmd = [sys.executable, str(CHILD)]
            if traced:
                spans = out_dir / f"spans-{label}.jsonl"
                cmd += ["--trace", str(spans)]
                outputs.child_spans.append(spans)
            cmd += ["--", *(str(a) for a in argv)]
            proc = subprocess.run(
                cmd, cwd=out_dir, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise OpFailed(
                    f"fuselab {label} exited with {proc.returncode}: "
                    f"{proc.stderr.strip()[-400:]}"
                )
            if argv[0] in self.REPORTING:
                outputs.reports[label] = proc.stdout
        outputs.files = {name: out_dir / name for name in self.FILES}
        return outputs

    def score(self, k, out_dir, outputs, report_values):
        test = fuselab.load_dataset(out_dir / "test.ds")
        for method in ("cca", "permute"):
            merged = fuselab.load_model(out_dir / f"merged_{method}" / "merged.model")
            outputs.acc[method] = fuselab.accuracy(merged, test)


WORKLOADS = {w.name: w for w in (ExperimentDefault, MergeWide, GammaSearch, CliPipeline)}
