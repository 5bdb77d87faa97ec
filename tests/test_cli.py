"""End-to-end command line coverage, all in-process through main()."""

import numpy as np
import pytest

from fuselab import load_dataset, load_model, parse_report, strip_timestamp
from fuselab.cli import main

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

    def test_deterministic_bytes(self, workdir, tmp_path):
        _, data, _, _ = workdir
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        argv = ["train", "--data", str(data), "--seed", "5",
                "--widths", "8", "--epochs", "1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMerge:
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

    def test_threaded_training_matches_serial(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "serial", tmp_path / "threaded"
        assert main(["experiment", *EXPERIMENT_ARGS, "--out", str(a)]) == 0
        monkeypatch.setenv("FUSELAB_THREADS", "2")
        assert main(["experiment", *EXPERIMENT_ARGS, "--out", str(b)]) == 0
        capsys.readouterr()
        assert strip_timestamp((a / "experiment_report.txt").read_text()) == \
            strip_timestamp((b / "experiment_report.txt").read_text())

    def test_split_protocol_recorded(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", *EXPERIMENT_ARGS, "--split", "dirichlet",
                     "--alpha", "0.4,0.6", "--out", str(out)]) == 0
        report = parse_report((out / "experiment_report.txt").read_text())
        assert report["split"] == "dirichlet"
        assert report["alpha"] == "0.4,0.6"
        capsys.readouterr()

    def test_non_full_split_needs_two_models(self, tmp_path, capsys):
        code = main(["experiment", *TINY_TRAIN, "--seeds", "0,1,2",
                     "--split", "disjoint", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: experiment:" in capsys.readouterr().err

    def test_seed_count_must_match_models(self, tmp_path, capsys):
        code = main(["experiment", *TINY_TRAIN, "--seeds", "0,1",
                     "--models", "3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: experiment:" in capsys.readouterr().err


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
