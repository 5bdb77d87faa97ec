"""End-to-end command line coverage, in-process through main() except
where a test needs the stderr a user sees."""

import os
import subprocess
import sys

import numpy as np
import pytest

from fuselab import (
    DenseLayer,
    MlpModel,
    evaluate_merge,
    evaluation,
    generate,
    load_dataset,
    load_model,
    merge,
    parse_report,
    save_dataset,
    strip_timestamp,
    trainer,
)
from fuselab.cli import METHOD_NAMES, build_parser, main, parse_args
from fuselab.reports import format_value

from _helpers import count_calls

TINY_TRAIN = [
    "--classes", "4", "--per-class", "25", "--dim", "6",
    "--widths", "8", "--epochs", "2",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A dataset and two trained models shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.ds"
    test = root / "test.ds"
    assert main(["gen-data", "--classes", "4", "--per-class", "25",
                 "--dim", "6", "--seed", "3", "--out", str(data)]) == 0
    assert main(["gen-data", "--classes", "4", "--per-class", "10",
                 "--dim", "6", "--seed", "3", "--salt", "1",
                 "--out", str(test)]) == 0
    models = []
    for seed in ("0", "1", "2"):
        path = root / f"m{seed}.model"
        code = main(["train", "--data", str(data), "--seed", seed,
                     "--widths", "8", "--epochs", "2", "--out", str(path)])
        assert code == 0
        models.append(path)
    return root, data, test, models


@pytest.fixture(scope="module")
def deeper_model(workdir):
    """A model with one hidden layer more than workdir's."""
    root, data, _, _ = workdir
    path = root / "deeper.model"
    assert main(["train", "--data", str(data), "--widths", "8,8",
                 "--epochs", "1", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("argv", [
    ["analyze", "0", "deeper"],
    ["analyze", "0", "1", "deeper"],
    ["merge", "0", "deeper", "--method", "cca", "--gamma-search", "auto",
     "--out", "merged"],
])
def test_models_of_different_depths_are_refused(
    workdir, deeper_model, tmp_path, capsys, argv
):
    # pairing the captures layer by layer would drop the extra layer
    _, data, _, models = workdir
    paths = {"0": models[0], "1": models[1], "deeper": deeper_model,
             "merged": tmp_path / "merged"}
    capsys.readouterr()
    code = main([str(paths.get(a, a)) for a in argv] + ["--probes", str(data)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {argv[0]}: hidden layer counts differ: 1 != 2\n"
    )
    assert not (tmp_path / "merged").exists()


class TestGenData:
    def test_writes_requested_shape(self, tmp_path, capsys):
        out = tmp_path / "d.ds"
        code = main(["gen-data", "--classes", "3", "--per-class", "7",
                     "--dim", "5", "--seed", "9", "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert (ds.m, ds.dim, ds.num_classes) == (21, 5, 3)
        assert "m=21" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.ds", tmp_path / "b.ds"
        argv = ["gen-data", "--classes", "2", "--per-class", "5",
                "--dim", "3", "--seed", "4"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_model_written_and_metrics_printed(self, workdir, capsys):
        root, data, _, _ = workdir
        out = root / "fresh.model"
        code = main(["train", "--data", str(data), "--seed", "7",
                     "--widths", "8", "--epochs", "1", "--out", str(out)])
        assert code == 0
        model = load_model(out)
        assert model.hidden_widths == (8,)
        assert model.seed_tag == "init7.shuf1000010"
        printed = capsys.readouterr().out
        assert "train_loss: " in printed
        assert "train_accuracy: " in printed

    def test_training_set_scored_once(self, workdir, tmp_path, monkeypatch,
                                      capsys):
        # the printed loss and accuracy are the divergence check's own
        _, data, _, _ = workdir
        counts = count_calls(monkeypatch, ["cross_entropy_accuracy"])
        assert main(["train", "--data", str(data), "--widths", "8",
                     "--epochs", "1", "--out", str(tmp_path / "m")]) == 0
        assert counts == {"cross_entropy_accuracy": 1}
        capsys.readouterr()

    def test_deterministic_bytes(self, workdir, tmp_path):
        _, data, _, _ = workdir
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        argv = ["train", "--data", str(data), "--seed", "5",
                "--widths", "8", "--epochs", "1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--lr", "-0.5", "learning_rate"),
            ("--lr", "0", "learning_rate"),
            ("--lr", "inf", "learning_rate"),
            ("--momentum", "5", "momentum"),
            ("--momentum", "1", "momentum"),
            ("--momentum", "-0.1", "momentum"),
        ],
    )
    def test_bad_step_sizes_exit_1(
        self, workdir, tmp_path, capsys, flag, value, field
    ):
        _, data, _, _ = workdir
        out = tmp_path / "m.model"
        code = main(["train", "--data", str(data), flag, value,
                     "--widths", "8", "--epochs", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train:")
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "epochs, message",
        [
            # the loop's own batch check catches the divergence
            ("30", "non-finite loss at epoch 3, batch 0"),
            # only the check after the last step sees it
            ("3", "non-finite training loss after epoch 2"),
        ],
    )
    def test_divergence_prints_only_the_error(self, tmp_path, epochs, message):
        data = tmp_path / "d.ds"
        save_dataset(generate(4, 10, 4, seed=0), data)
        out = tmp_path / "m.model"
        run = subprocess.run(
            [sys.executable, "-m", "fuselab.cli", "train", "--data", str(data),
             "--lr", "1e6", "--epochs", epochs, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert run.returncode == 1
        assert run.stderr == f"error: train: {message}\n"
        assert run.stdout == ""
        assert not out.exists()


NEGATIVE_SEEDS = [
    ("gen-data", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("gen-data", ["--salt", "-1"], "sample_salt must be >= 0, got -1"),
    ("train", ["--seed", "-1"], "init_seed must be >= 0, got -1"),
    ("train", ["--shuffle-seed", "-1"], "shuffle_seed must be >= 0, got -1"),
    ("experiment", ["--data-seed", "-2"], "seed must be >= 0, got -2"),
    ("experiment", ["--split", "eighty-twenty", "--split-seed", "-5"],
     "split seed must be >= 0, got -5"),
    ("experiment", ["--seeds=-1,2"], "init_seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("command, flags, message", NEGATIVE_SEEDS)
def test_negative_seed_is_a_named_error(
    workdir, tmp_path, capsys, command, flags, message
):
    _, data, _, _ = workdir
    needs = {"gen-data": [], "train": ["--data", str(data)],
             "experiment": TINY_TRAIN}
    out = tmp_path / "out"
    code = main([command, *needs[command], *flags, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {command}: {message}\n"
    assert not out.exists()


DASH_VALUES = [
    ("experiment", ["--seeds", "-1,2"], "init_seed must be >= 0, got -1"),
    ("experiment", ["--split", "dirichlet", "--alpha", "-1,2"],
     "dirichlet split needs two positive concentrations"),
    ("experiment", ["--gamma-search", "-1,2"],
     "--gamma-search candidate must be finite and >= 0, got -1.0"),
    ("train", ["--widths", "-3,4"], "hidden width must be >= 1, got -3"),
]


@pytest.mark.parametrize("command, flags, message", DASH_VALUES)
def test_value_starting_with_a_dash_reads_as_the_equals_form(
    workdir, tmp_path, capsys, command, flags, message
):
    # argparse alone reads -1,2 as an option and exits 2 with a usage error
    _, data, _, _ = workdir
    needs = {"train": ["--data", str(data)], "experiment": TINY_TRAIN}
    equals = [*flags[:-2], f"{flags[-2]}={flags[-1]}"]
    for form in (flags, equals):
        out = tmp_path / "out"
        code = main([command, *needs[command], *form, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {command}: {message}\n"
        assert not out.exists()


def test_option_names_and_tokens_after_double_dash_are_not_joined(capsys):
    with pytest.raises(SystemExit):  # --repair is an option, not --out's value
        parse_args(["experiment", "--out", "--repair"])
    capsys.readouterr()
    args = parse_args(["merge", "--out", "o", "--", "--reference", "-1"])
    assert args.models == ["--reference", "-1"]


def _weights(model):
    return b"".join(layer.weights.tobytes() for layer in model.layers)


def _record_search(monkeypatch):
    """Replace the gamma search by one that records the models of its
    pair statistics and, given a method, merges them at gamma 0.01."""
    seen = []

    def search(candidates, pairs, eval_ds, method=None):
        pairs = list(pairs)
        seen.append([(_weights(p.a.model), _weights(p.b.model)) for p in pairs])
        if method is None:
            return 0.01, None
        models = [pairs[0].a.model, *(p.b.model for p in pairs)]
        return 0.01, evaluation._merge(models, method, None, 0.01, 0, pairs)

    monkeypatch.setattr(merge, "_search", search)
    return seen


class TestMerge:
    def test_gamma_search_pairs_use_the_reference(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        _, data, _, models = workdir
        seen = _record_search(monkeypatch)
        out = tmp_path / "merged"
        code = main(["merge", *map(str, models), "--method", "cca",
                     "--probes", str(data), "--reference", "1",
                     "--gamma-search", "auto", "--out", str(out)])
        assert code == 0
        m0, m1, m2 = (_weights(load_model(p)) for p in models)
        assert seen == [[(m1, m0), (m1, m2)]]
        report = parse_report((out / "merge_report.txt").read_text())
        assert report["reference"] == "1"
        assert report["gamma_selected"] == "0.01"
        capsys.readouterr()

    @pytest.mark.parametrize("reference", ["-1", "3"])
    def test_reference_out_of_range_rejected_before_search(
        self, workdir, tmp_path, capsys, monkeypatch, reference
    ):
        _, data, _, models = workdir
        seen = _record_search(monkeypatch)
        code = main(["merge", *map(str, models), "--method", "cca",
                     "--probes", str(data), "--reference", reference,
                     "--gamma-search", "auto", "--out", str(tmp_path / "x")])
        assert code == 1
        assert seen == []
        err = capsys.readouterr().err
        assert err.startswith("error: merge: --reference must be in 0..2")

    @pytest.mark.parametrize("method", ["permute", "cca"])
    @pytest.mark.parametrize("search", [[], ["--gamma-search", "auto"]],
                             ids=["merge", "search"])
    def test_out_through_a_file_is_rejected_before_any_capture(
        self, workdir, tmp_path, capsys, monkeypatch, method, search
    ):
        _, data, _, models = workdir
        afile = tmp_path / "afile"
        afile.write_text("a file, not a directory\n")
        counts = count_calls(monkeypatch, ["capture"])
        code = main(["merge", *map(str, models), "--method", method,
                     "--probes", str(data), *search, "--out", str(afile)])
        assert code == 1
        assert "cannot create directory" in capsys.readouterr().err
        assert counts["capture"] == 0

    @pytest.mark.parametrize("flags, message", [
        (["--method", "permute"], "--method permute needs --probes"),
        (["--method", "cca"], "--method cca needs --probes"),
        (["--repair"], "--repair needs --probes"),
    ])
    def test_probes_required_before_the_out_directory(
        self, workdir, tmp_path, capsys, flags, message
    ):
        _, _, _, models = workdir
        out = tmp_path / "x"
        code = main(["merge", *map(str, models), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: merge: {message}\n"
        assert not out.exists()

    def test_writes_model_and_report(self, workdir, tmp_path, capsys):
        _, data, _, models = workdir
        out = tmp_path / "merged"
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "cca", "--probes", str(data),
                     "--out", str(out)])
        assert code == 0
        merged = load_model(out / "merged.model")
        assert merged.hidden_widths == (8,)
        report = parse_report((out / "merge_report.txt").read_text())
        assert report["report"] == "merge"
        assert report["method"] == "cca"
        assert report["models"] == "2"
        assert "layer.0.corr_mean" in report
        assert "format_version: " in capsys.readouterr().out

    def test_repair_flag_recorded(self, workdir, tmp_path, capsys):
        _, data, _, models = workdir
        out = tmp_path / "merged"
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "permute", "--probes", str(data),
                     "--repair", "--out", str(out)])
        assert code == 0
        report = parse_report((out / "merge_report.txt").read_text())
        assert report["repair"] == "true"
        capsys.readouterr()

    def test_gamma_search_records_selection(self, workdir, tmp_path, capsys):
        _, data, _, models = workdir
        out = tmp_path / "merged"
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "cca", "--probes", str(data),
                     "--gamma-search", "0.001,0.01", "--out", str(out)])
        assert code == 0
        report = parse_report((out / "merge_report.txt").read_text())
        assert float(report["gamma_selected"]) in (0.001, 0.01)
        assert report["gamma_requested"] == report["gamma_selected"]
        capsys.readouterr()

    def test_gamma_and_search_exclusive(self, workdir, tmp_path, capsys):
        _, data, _, models = workdir
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "cca", "--probes", str(data),
                     "--gamma", "0.1", "--gamma-search", "auto",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: merge:")

    def test_single_model_rejected(self, workdir, tmp_path, capsys):
        _, _, _, models = workdir
        code = main(["merge", str(models[0]), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: merge:" in capsys.readouterr().err

    def test_nan_gamma_rejected(self, workdir, tmp_path, capsys):
        _, data, _, models = workdir
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "cca", "--probes", str(data),
                     "--gamma", "nan", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "gamma must be finite" in capsys.readouterr().err

    def test_negative_probe_limit_rejected(self, workdir, tmp_path, capsys):
        _, data, _, models = workdir
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "permute", "--probes", str(data),
                     "--probe-limit", "-70", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "probe limit" in capsys.readouterr().err

    def test_probe_method_without_probes_fails(self, workdir, tmp_path, capsys):
        _, _, _, models = workdir
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "permute", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: merge:" in capsys.readouterr().err


class TestEval:
    def test_single_model_report(self, workdir, capsys):
        _, _, test, models = workdir
        assert main(["eval", str(models[0]), "--data", str(test)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["report"] == "eval"
        assert report["models"] == "1"
        assert 0.0 <= float(report["model.0.accuracy"]) <= 1.0
        assert "base_models_avg" not in report

    def test_multi_model_adds_summary_rows(self, workdir, capsys):
        _, _, test, models = workdir
        assert main(["eval", str(models[0]), str(models[1]),
                     "--data", str(test)]) == 0
        report = parse_report(capsys.readouterr().out)
        avg = (float(report["model.0.accuracy"])
               + float(report["model.1.accuracy"])) / 2.0
        assert float(report["base_models_avg"]) == pytest.approx(avg)
        assert "ensemble_accuracy" in report

    def test_each_model_forwarded_once(self, workdir, monkeypatch, capsys):
        # one set of logits per model gives its loss, its accuracy and the
        # ensemble's; scoring each model and then the ensemble made 6
        _, _, test, models = workdir
        counts = count_calls(monkeypatch, ["forward"])
        assert main(["eval", *map(str, models), "--data", str(test)]) == 0
        assert counts == {"forward": 3}
        capsys.readouterr()

    def test_out_file_written(self, workdir, tmp_path, capsys):
        _, _, test, models = workdir
        out = tmp_path / "eval.txt"
        assert main(["eval", str(models[0]), "--data", str(test),
                     "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_class_count_mismatch_fails_cleanly(self, workdir, tmp_path, capsys):
        _, _, _, models = workdir
        wide = tmp_path / "wide.ds"
        assert main(["gen-data", "--classes", "16", "--per-class", "2",
                     "--dim", "6", "--out", str(wide)]) == 0
        capsys.readouterr()
        assert main(["eval", str(models[0]), "--data", str(wide)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eval:")
        assert "4 output classes" in err and "16" in err


class TestBarrier:
    def test_curve_rows(self, workdir, capsys):
        _, _, test, models = workdir
        assert main(["barrier", str(models[0]), str(models[1]),
                     "--data", str(test), "--grid", "5"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["report"] == "barrier"
        assert report["grid"] == "5"
        lambdas = [float(v) for v in report["lambdas"].split(",")]
        assert lambdas == pytest.approx(list(np.linspace(0, 1, 5)))
        assert len(report["losses"].split(",")) == 5
        assert float(report["barrier"]) >= 0.0

    def test_self_barrier_is_zero(self, workdir, capsys):
        _, _, test, models = workdir
        assert main(["barrier", str(models[0]), str(models[0]),
                     "--data", str(test), "--grid", "3"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["barrier"]) == pytest.approx(0.0, abs=1e-12)


class TestAnalyze:
    def test_two_models(self, workdir, capsys):
        _, data, _, models = workdir
        assert main(["analyze", str(models[0]), str(models[1]),
                     "--probes", str(data)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["report"] == "analysis"
        assert report["models"] == "2"
        assert "layer.0.non_optimal_pct" in report
        assert "mean.non_optimal_pct" in report

    def test_three_models_add_consistency_rows(self, workdir, capsys):
        _, data, _, models = workdir
        assert main(["analyze", str(models[0]), str(models[1]), str(models[2]),
                     "--probes", str(data), "--probe-limit", "60"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert "mean.permute.mismatch_pct" in report
        assert "mean.cca.frobenius_normalized" in report

    def test_four_models_rejected(self, workdir, capsys):
        _, data, _, models = workdir
        code = main(["analyze", str(models[0]), str(models[1]),
                     str(models[2]), str(models[0]), "--probes", str(data)])
        assert code == 1
        assert "error: analyze:" in capsys.readouterr().err


EXPERIMENT_ARGS = TINY_TRAIN + [
    "--seeds", "0,1", "--test-per-class", "10", "--grid", "5",
]
# small data and short training, default widths: 2 hidden layers
SIZE_ARGS = [
    "--classes", "4", "--per-class", "25", "--dim", "6", "--epochs", "2",
    "--test-per-class", "10", "--grid", "3",
]


class TestExperiment:
    def test_report_structure(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", *EXPERIMENT_ARGS, "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        assert report["report"] == "experiment"
        assert report["split"] == "full"
        assert report["models"] == "2"
        assert report["seeds"] == "0,1"
        for method in ("direct", "permute", "cca"):
            assert f"method.{method}.merged_accuracy" in report
            assert f"method.{method}.barrier" in report
        assert "method.cca.layer.0.corr_mean" in report
        assert "model.0.accuracy" in report
        assert "ensemble_accuracy" in report
        capsys.readouterr()

    def test_deterministic_up_to_timestamp(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", *EXPERIMENT_ARGS, "--out", str(a)]) == 0
        assert main(["experiment", *EXPERIMENT_ARGS, "--out", str(b)]) == 0
        capsys.readouterr()
        ra = strip_timestamp((a / "experiment_report.txt").read_text())
        rb = strip_timestamp((b / "experiment_report.txt").read_text())
        assert ra == rb

    def test_split_protocol_recorded(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", *EXPERIMENT_ARGS, "--split", "dirichlet",
                     "--alpha", "0.4,0.6", "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        assert report["split"] == "dirichlet"
        assert report["alpha"] == "0.4,0.6"
        capsys.readouterr()

    def test_reference_out_of_range_rejected_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def train_many(*args):
            raise AssertionError("trained before checking --reference")

        # every training call, pooled or single, goes through train_many
        monkeypatch.setattr(trainer, "train_many", train_many)
        code = main(["experiment", *EXPERIMENT_ARGS, "--reference", "2",
                     "--gamma-search", "auto", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment: --reference must be in 0..1")

    @pytest.mark.parametrize("flags, message", [
        (["--out", "afile/sub"], "cannot create directory"),
        (["--gamma", "-1", "--out", "x"], "gamma must be finite and >= 0"),
    ])
    def test_out_and_gamma_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def train_many(*args):
            raise AssertionError("trained before checking --out and --gamma")

        # every training call, pooled or single, goes through train_many
        monkeypatch.setattr(trainer, "train_many", train_many)
        (tmp_path / "afile").write_text("a file, not a directory\n")
        flags = flags[:-1] + [str(tmp_path / flags[-1])]
        code = main(["experiment", *EXPERIMENT_ARGS, *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment: " + message)
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_grid_below_two_rejected_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def train_many(*args):
            raise AssertionError("trained before checking --grid")

        monkeypatch.setattr(trainer, "train_many", train_many)
        code = main(["experiment", *EXPERIMENT_ARGS, "--grid", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: experiment: grid_size must be >= 2, got 1\n"
        )

    def test_non_full_split_needs_two_models(self, tmp_path, capsys):
        code = main(["experiment", *TINY_TRAIN, "--seeds", "0,1,2",
                     "--split", "disjoint", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: experiment:" in capsys.readouterr().err

    def test_endpoints_and_ensemble_scored_once(
        self, tmp_path, monkeypatch, capsys
    ):
        trained, calls = [], []
        train_many = trainer.train_many

        def keep(*args):
            trained.extend(train_many(*args))
            return list(trained)

        monkeypatch.setattr(trainer, "train_many", keep)
        count_calls(monkeypatch, ["forward"], calls)
        out = tmp_path / "exp"
        assert main(["experiment", *EXPERIMENT_ARGS, "--out", str(out)]) == 0
        # 2 models, 3 methods: each model's test logits give its accuracy
        # and the ensemble's; 4 classes, 10 test rows each
        test_rows = 4 * 10
        scored = [args for _, args in calls
                  if any(args[0] is m for m in trained)
                  and len(args[1]) == test_rows]
        assert len(trained) == 2 and len(scored) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra, captures",
        [([], 2), (["--gamma-search", "auto"], 2), (["--seeds", "0,1,2"], 3)],
    )
    def test_each_model_captured_once(
        self, tmp_path, monkeypatch, capsys, extra, captures
    ):
        # the search and every method's merge read one set of pair
        # statistics, formed from one capture per model
        counts = count_calls(monkeypatch, ["capture", "inv_sqrt"])
        assert main(["experiment", *SIZE_ARGS, *extra,
                     "--out", str(tmp_path / "exp")]) == 0
        assert counts["capture"] == captures
        if not extra:
            # 2 layers x (reference + partner), for the one summary solve
            # all three methods share; the cca merge reuses its solutions
            assert counts["inv_sqrt"] == 4
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--seeds", "0,1,2", "--repair", "--reference", "1"],
            ["--gamma-search", "auto", "--repair"],
            ["--split", "dirichlet", "--gamma", "0.5"],
            ["--gamma-search", "auto", "--methods", "cca"],
            ["--seeds", "0,1,2", "--gamma-search", "1e-3,0.1",
             "--methods", "cca,direct"],
        ],
    )
    def test_method_lines_match_separate_evaluate_merge(
        self, tmp_path, monkeypatch, capsys, extra
    ):
        # each method's lines from the shared pair statistics are what the
        # public per-method evaluate_merge gives on the same models
        trained = []
        train_many = trainer.train_many

        def recording(*args, **kwargs):
            models = train_many(*args, **kwargs)
            trained.extend(models)
            return models

        monkeypatch.setattr(trainer, "train_many", recording)
        out = tmp_path / "exp"
        assert main(["experiment", *SIZE_ARGS, *extra, "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        n = {k: int(report[k]) for k in ("classes", "per_class", "dim",
                                         "data_seed", "test_per_class")}
        train_ds = generate(n["classes"], n["per_class"], n["dim"],
                            n["data_seed"])
        test_ds = generate(n["classes"], n["test_per_class"], n["dim"],
                           n["data_seed"], sample_salt=1)
        gamma = None if report["gamma"] == "-" else float(report["gamma"])
        names = "direct,permute,cca"
        if "--methods" in extra:
            names = extra[extra.index("--methods") + 1]
        for name in names.split(","):
            _, rep = evaluate_merge(
                METHOD_NAMES[name], trained, train_ds, test_ds, gamma,
                report["repair"] == "true", None, int(report["grid"]),
                int(report["reference"]),
            )
            p = f"method.{name}"
            expect = {
                f"{p}.merged_accuracy": rep.merged_accuracy,
                f"{p}.merged_loss": rep.merged_loss,
                f"{p}.barrier": rep.barrier,
            }
            for s in rep.layer_summaries:
                expect[f"{p}.layer.{s.layer_index}.gamma"] = s.gamma
                expect[f"{p}.layer.{s.layer_index}.corr_mean"] = s.corr_mean
            got = {k: v for k, v in report.items() if k.startswith(p + ".")}
            assert got == {k: format_value(v) for k, v in expect.items()}
        capsys.readouterr()

    def test_repair_skips_are_reported_per_method(
        self, tmp_path, monkeypatch, capsys
    ):
        # hidden neuron 0 of every model is constant, so the direct merge's
        # neuron 0 has no spread and the reset leaves it alone
        train_many = trainer.train_many

        def with_dead_neuron(*args, **kwargs):
            models = []
            for m in train_many(*args, **kwargs):
                first = m.layers[0]
                w, b = first.weights.copy(), first.bias.copy()
                w[0], b[0] = 0.0, 0.0
                layers = (DenseLayer(w, b, first.activation), *m.layers[1:])
                models.append(MlpModel(layers, m.input_dim, m.seed_tag))
            return models

        monkeypatch.setattr(trainer, "train_many", with_dead_neuron)
        out = tmp_path / "exp"
        assert main(["experiment", *EXPERIMENT_ARGS, "--methods", "direct",
                     "--repair", "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        assert report["method.direct.repair_skipped"] == "0:0"
        capsys.readouterr()

    def test_empty_training_part_is_rejected(self, tmp_path, capsys):
        # with these concentrations part 0 draws neither of the two rows
        out = tmp_path / "x"
        code = main(["experiment", "--classes", "2", "--per-class", "1",
                     "--dim", "4", "--split", "dirichlet", "--alpha",
                     "0.01,0.01", "--split-seed", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: experiment: training set has no rows\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan,1", "inf,1"])
    def test_non_finite_concentration_is_rejected(self, tmp_path, capsys, alpha):
        out = tmp_path / "x"
        code = main(["experiment", *EXPERIMENT_ARGS, "--split", "dirichlet",
                     "--alpha", alpha, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: experiment: dirichlet concentrations contain non-finite "
            "entries\n"
        )
        assert not out.exists()

    def test_one_seed_is_rejected(self, tmp_path, capsys):
        code = main(["experiment", *TINY_TRAIN, "--seeds", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: experiment: experiments need at least 2 models\n"
        )

    def test_diverging_pool_names_its_model(self, tmp_path, capsys):
        code = main(["experiment", "--classes", "4", "--per-class", "10",
                     "--dim", "4", "--seeds", "1,2", "--lr", "1e6",
                     "--epochs", "3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: experiment: model 0 (init1.shuf1000004): "
            "non-finite loss at epoch 2, batch 1\n"
        )

    def test_model_count_is_the_seed_count(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["experiment", *TINY_TRAIN, "--seeds", "0,1",
                  "--models", "3", "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        cfg = tmp_path / "models.cfg"
        cfg.write_text("models = 2\n")
        code = main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "y")])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "error: config: unknown key 'models' for experiment\n"
        )


class TestConfigPrecedence:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("# comment\nepochs = 3\nper-class = 30\n")
        out = tmp_path / "exp"
        assert main(["experiment", "--classes", "4", "--dim", "6",
                     "--widths", "8", "--seeds", "0,1",
                     "--test-per-class", "10", "--grid", "5",
                     "--config", str(cfg), "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        assert report["epochs"] == "3"
        assert report["per_class"] == "30"
        capsys.readouterr()

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("epochs = 3\n")
        out = tmp_path / "exp"
        assert main(["experiment", *EXPERIMENT_ARGS,
                     "--config", str(cfg), "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        assert report["epochs"] == "2"
        capsys.readouterr()

    def test_bad_config_line_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("this is wrong\n")
        code = main(["experiment", *EXPERIMENT_ARGS, "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: config:" in capsys.readouterr().err

    def test_bad_config_value_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("epochs = soon\n")
        code = main(["experiment", "--classes", "4", "--per-class", "25",
                     "--dim", "6", "--widths", "8", "--seeds", "0,1",
                     "--test-per-class", "10", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: experiment:" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("epoch = 3\n")
        code = main(["experiment", *EXPERIMENT_ARGS, "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown key 'epoch'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["false", "0", "no", "No"])
    def test_false_config_value_leaves_repair_off(self, tmp_path, value):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(f"repair = {value}\n")
        args = parse_args(["merge", "m0.model", "m1.model", "--config",
                           str(cfg), "--out", "x"])
        assert args.repair is False

    def test_invalid_boolean_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("repair = maybe\n")
        code = main(["merge", "m0.model", "m1.model", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: merge: config value for repair is invalid: 'maybe'\n"
        )

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_is_named(self, tmp_path, capsys, kind):
        cfg = tmp_path / "opt.cfg"
        if kind == "directory":
            cfg.mkdir()
        code = main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d.ds")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read config {cfg}: ")
        assert err.count("\n") == 1

    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys):
        # gamma is a merge option; gen-data has no use for it
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("gamma = 0.5\n")
        code = main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d.ds")])
        assert code == 1
        assert "unknown key 'gamma' for gen-data" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen-data", "--nonsense", "1", "--out", "x"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        capsys.readouterr()

    def test_missing_file_reports_stage(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.ds"),
                     "--out", str(tmp_path / "m.model")])
        assert code == 1
        assert "error: train:" in capsys.readouterr().err


# --- satellites of the one-declaration parser -------------------------------


class TestGammaChecks:
    def test_search_needs_probes(self, workdir, tmp_path, capsys):
        _, _, _, models = workdir
        out = tmp_path / "x"
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "cca", "--gamma-search", "auto",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: merge: --gamma-search needs probes\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["-1", "nan"])
    def test_gamma_checked_without_a_cca_solve(
        self, workdir, tmp_path, capsys, gamma
    ):
        _, _, _, models = workdir
        out = tmp_path / "x"
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "direct", "--gamma", gamma,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: merge: gamma must be finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "search, bad", [("nan,0.1", "nan"), ("nan", "nan"),
                        ("-1,0.1", "-1"), ("0.1,inf", "inf")],
    )
    def test_bad_search_candidates_rejected_before_search(
        self, workdir, tmp_path, capsys, monkeypatch, search, bad
    ):
        _, data, _, models = workdir
        seen = _record_search(monkeypatch)
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "cca", "--probes", str(data),
                     f"--gamma-search={search}", "--out", str(tmp_path / "x")])
        assert code == 1
        assert seen == []
        err = capsys.readouterr().err
        assert err == (
            "error: merge: --gamma-search candidate must be finite and >= 0, "
            f"got {float(bad)}\n"
        )

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_search_list_rejected_before_any_capture(
        self, workdir, tmp_path, capsys, monkeypatch, via
    ):
        _, data, _, models = workdir
        out = tmp_path / "x"
        counts = count_calls(monkeypatch, ["capture"])
        code = main(["merge", *map(str, models), "--method", "cca",
                     "--probes", str(data), *_empty_search(tmp_path, via),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: merge: --gamma-search lists no candidates\n"
        )
        assert counts["capture"] == 0
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_search_list_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, via
    ):
        def train_many(*args):
            raise AssertionError("trained before checking --gamma-search")

        monkeypatch.setattr(trainer, "train_many", train_many)
        out = tmp_path / "x"
        code = main(["experiment", *EXPERIMENT_ARGS,
                     *_empty_search(tmp_path, via), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: experiment: --gamma-search lists no candidates\n"
        )
        assert not out.exists()


def _empty_search(tmp_path, via):
    """Arguments asking for a search over an empty candidate list."""
    if via == "flag":
        return ["--gamma-search", ","]
    cfg = tmp_path / "search.cfg"
    cfg.write_text("gamma_search = ,\n")
    return ["--config", str(cfg)]


class TestFileErrors:
    def test_bad_model_file_is_named(self, workdir, tmp_path, capsys):
        _, _, _, models = workdir
        bad = tmp_path / "bad.model"
        bad.write_bytes(b"garbage\n")
        code = main(["merge", str(models[0]), str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: merge: model {bad}: bad magic line")


@pytest.mark.parametrize("command, out, message", [
    ("gen-data", "afile/t.ds", "cannot write"),
    ("train", "afile/m.model", "cannot write"),
    ("eval", "afile/r.txt", "cannot write"),
    ("merge", "afile", "cannot create directory"),
    ("experiment", "afile/sub", "cannot create directory"),
])
def test_out_through_a_regular_file_is_a_named_error(
    workdir, tmp_path, capsys, command, out, message
):
    _, data, _, models = workdir
    needs = {
        "gen-data": ["--classes", "2", "--per-class", "3", "--dim", "2"],
        "train": ["--data", str(data), "--widths", "8", "--epochs", "1"],
        "eval": [str(models[0]), "--data", str(data)],
        "merge": [str(models[0]), str(models[1])],
        "experiment": EXPERIMENT_ARGS,
    }
    afile = tmp_path / "afile"
    afile.write_text("a file, not a directory\n")
    code = main([command, *needs[command], "--out", str(tmp_path / out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {command}: {message} {tmp_path / out}: "
    )
    assert captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert afile.read_text() == "a file, not a directory\n"


@pytest.fixture(scope="module")
def ill_posed_pair(tmp_path_factory):
    """Default-width models on the default data whose 3-probe CCA merge
    cannot be inverted at gamma 0."""
    root = tmp_path_factory.mktemp("ill_posed")
    data = root / "train.ds"
    assert main(["gen-data", "--out", str(data)]) == 0
    models = []
    for seed in ("1", "2"):
        path = root / f"m{seed}.model"
        assert main(["train", "--data", str(data), "--seed", seed,
                     "--epochs", "10", "--out", str(path)]) == 0
        models.append(str(path))
    return data, models


@pytest.mark.parametrize("case, message", [
    ("gamma", "too ill-conditioned to invert"),
    ("search", "every candidate gamma failed during merging"),
    ("diverging", "non-finite loss at epoch 2, batch 1"),
])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_run_leaves_no_directory_it_made(
    ill_posed_pair, tmp_path, capsys, case, message, existing
):
    data, models = ill_posed_pair
    cca = ["merge", *models, "--method", "cca", "--probes", str(data),
           "--probe-limit", "3"]
    argv = {
        "gamma": cca + ["--gamma", "0"],
        "search": cca + ["--gamma-search", "0"],
        "diverging": ["experiment", "--classes", "4", "--per-class", "10",
                      "--dim", "4", "--seeds", "1,2", "--lr", "1e6",
                      "--epochs", "3"],
    }[case]
    out = tmp_path / "made" / "out"
    if existing:
        out.mkdir(parents=True)
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: ") and message in err
    assert err.count("\n") == 1
    # a directory that was there before the run stays, even when empty
    assert out.is_dir() == existing
    assert [p.name for p in tmp_path.iterdir()] == (["made"] if existing else [])


class TestMethodList:
    def test_empty_methods_rejected_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def train_many(*args):
            raise AssertionError("trained before checking --methods")

        # every training call, pooled or single, goes through train_many
        monkeypatch.setattr(trainer, "train_many", train_many)
        code = main(["experiment", *EXPERIMENT_ARGS, "--methods", "",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment: no methods given")

    def test_unknown_method_is_named(self, tmp_path, capsys, monkeypatch):
        def train_many(*args):
            raise AssertionError("trained before checking --methods")

        monkeypatch.setattr(trainer, "train_many", train_many)
        code = main(["experiment", *EXPERIMENT_ARGS, "--methods",
                     "direct,bogus", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: experiment: unknown method 'bogus'; "
            "choose from direct, permute, cca\n"
        )

    def test_rejected_methods_leave_no_directory(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["experiment", *EXPERIMENT_ARGS, "--methods", "bogus",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: experiment: unknown method 'bogus'"
        )
        assert not out.exists()

    def test_trailing_comma_ignored(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", *EXPERIMENT_ARGS, "--methods", "permute,",
                     "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        assert "method.permute.merged_accuracy" in report
        assert "method.direct.merged_accuracy" not in report
        capsys.readouterr()


# --- one declaration per option ---------------------------------------------

SUBCOMMANDS = build_parser()._subparsers._group_actions[0].choices


def _settable(command):
    """Every long option of the subcommand that a config file may set."""
    return [
        a for a in SUBCOMMANDS[command]._actions
        if a.option_strings and not a.required
        and a.dest not in ("help", "config")
    ]


def _required_args(command):
    """Placeholder values for the subcommand's positionals and required flags."""
    argv = []
    for a in SUBCOMMANDS[command]._actions:
        if not a.option_strings:
            argv += ["m0.model", "m1.model"]
        elif a.required:
            argv += [a.option_strings[-1], "x"]
    return argv


def _sample(action):
    """(flag arguments, config value) that differ from the built-in default."""
    if action.nargs == 0:
        return [], "true"
    if action.choices:
        value = list(action.choices)[-1]
    else:
        value = {int: "7", float: "0.25"}.get(action.type, "7,8")
    return [value], value


SETTABLE = [
    (command, action.option_strings[-1], *_sample(action))
    for command in SUBCOMMANDS
    for action in _settable(command)
]
WITH_CHOICES = [
    (command, option) for command, option, _, _ in SETTABLE
    if SUBCOMMANDS[command]._option_string_actions[option].choices
]


class TestOneDeclaration:
    @pytest.mark.parametrize(
        "command, option, flag_args, value", SETTABLE,
        ids=[f"{c}{o}" for c, o, _, _ in SETTABLE],
    )
    def test_config_value_parses_like_the_flag(
        self, tmp_path, command, option, flag_args, value
    ):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(f"{option.lstrip('-')} = {value}\n")
        base = [command, *_required_args(command)]
        by_flag = vars(parse_args([*base, option, *flag_args]))
        by_config = vars(parse_args([*base, "--config", str(cfg)]))
        by_flag.pop("config")
        by_config.pop("config")
        assert by_config == by_flag
        default = vars(parse_args(base))
        default.pop("config")
        assert by_flag != default

    @pytest.mark.parametrize(
        "command, option", WITH_CHOICES,
        ids=[f"{c}{o}" for c, o in WITH_CHOICES],
    )
    def test_config_value_outside_the_choices_is_rejected(
        self, tmp_path, capsys, command, option
    ):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(f"{option.lstrip('-')} = bogus\n")
        code = main([command, *_required_args(command), "--config", str(cfg)])
        assert code == 1
        key = option.lstrip("-").replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: {command}: config value for {key} is invalid: 'bogus'\n"
        )

    @pytest.mark.parametrize("command", list(SUBCOMMANDS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_required_flag_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("out = elsewhere\n")
        code = main(["merge", "m0.model", "m1.model", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: config: unknown key 'out' for merge" in err

    def test_config_turns_repair_on(self, workdir, tmp_path, capsys):
        _, data, _, models = workdir
        cfg = tmp_path / "opt.cfg"
        cfg.write_text("repair = true\n")
        out = tmp_path / "merged"
        code = main(["merge", str(models[0]), str(models[1]),
                     "--method", "permute", "--probes", str(data),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = parse_report((out / "merge_report.txt").read_text())
        assert report["repair"] == "true"
        capsys.readouterr()
