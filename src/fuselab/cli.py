"""Command line interface.

Subcommands: gen-data, train, merge, eval, barrier, analyze, experiment.
Option precedence is flags, then an optional --config file of key=value
lines (keys are the long option names), then built-in defaults. All reports
are deterministic text except for their timestamp line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, cca, datagen, evaluation, reports, trainer
from .datagen import SplitKind, SplitSpec, generate, load_dataset, save_dataset, split
from .errors import ConfigurationError, FuselabError, ParseError
from .evaluation import evaluate_merge, merge_and_report
from .model import MethodTag, load_model, save_model
from .trainer import TrainConfig, seeds_for

DEFAULT_CLASSES = 16
DEFAULT_PER_CLASS = 125
DEFAULT_DIM = 32
DEFAULT_TEST_PER_CLASS = 250

METHOD_NAMES = {"direct": MethodTag.IDENTITY, "permute": MethodTag.PERMUTE,
                "cca": MethodTag.CCA}
CLI_NAME = {tag: name for name, tag in METHOD_NAMES.items()}


def _parse_list(text, name, cast=int):
    try:
        return [cast(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise ParseError(f"{name} wants comma-separated {kind}") from None


def _parse_bool(text, name):
    t = str(text).strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ParseError(f"{name} wants true or false, got {text!r}")


def load_config(path):
    mapping = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ParseError(
                f"config line {lineno} is not key=value: {raw!r}"
            )
        mapping[key.strip().replace("-", "_")] = value.strip()
    return mapping


class Options:
    """Resolves flag > config > default, casting config strings."""

    def __init__(self, args, config):
        self.args = args
        self.config = config

    def get(self, name, default, cast=str):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            raw = self.config[name]
            if cast is bool:
                return _parse_bool(raw, name)
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise ParseError(
                    f"config value for {name} is invalid: {raw!r}"
                ) from None
        return default


def _method_list(text):
    methods = []
    for name in str(text).split(","):
        name = name.strip()
        if name not in METHOD_NAMES:
            raise ConfigurationError(
                f"unknown method {name!r}; choose from direct, permute, cca"
            )
        methods.append(METHOD_NAMES[name])
    if not methods:
        raise ConfigurationError("no methods given")
    return methods


# --- handlers -------------------------------------------------------------


def cmd_gen_data(args, config):
    opt = Options(args, config)
    ds = generate(
        opt.get("classes", DEFAULT_CLASSES, int),
        opt.get("per_class", DEFAULT_PER_CLASS, int),
        opt.get("dim", DEFAULT_DIM, int),
        opt.get("seed", 0, int),
        sample_salt=opt.get("salt", 0, int),
    )
    save_dataset(ds, args.out)
    print(f"wrote {args.out} (m={ds.m}, d={ds.dim}, k={ds.num_classes})")
    return 0


def _train_config(opt, seed):
    init_seed, shuffle_seed = seeds_for(seed)
    override = opt.get("shuffle_seed", None, int)
    if override is not None:
        shuffle_seed = override
    widths = opt.get("widths", None, str)
    widths = (
        tuple(_parse_list(widths, "--widths"))
        if widths is not None
        else trainer.DEFAULT_HIDDEN_WIDTHS
    )
    return TrainConfig(
        hidden_widths=widths,
        epochs=opt.get("epochs", trainer.DEFAULT_EPOCHS, int),
        batch_size=opt.get("batch_size", trainer.DEFAULT_BATCH_SIZE, int),
        learning_rate=opt.get("lr", trainer.DEFAULT_LEARNING_RATE, float),
        momentum=opt.get("momentum", trainer.DEFAULT_MOMENTUM, float),
        init_seed=init_seed,
        shuffle_seed=shuffle_seed,
    )


def cmd_train(args, config):
    opt = Options(args, config)
    ds = load_dataset(args.data)
    cfg = _train_config(opt, opt.get("seed", 0, int))
    model = trainer.train(ds, cfg)
    loss, acc = trainer.cross_entropy_accuracy(model, ds)
    save_model(model, args.out)
    print(f"wrote {args.out}")
    print(f"train_loss: {reports.format_value(loss)}")
    print(f"train_accuracy: {reports.format_value(acc)}")
    return 0


def _reference(opt, count):
    """The --reference index, checked against the number of models."""
    reference = opt.get("reference", 0, int)
    if not 0 <= reference < count:
        raise ConfigurationError(
            f"--reference must be in 0..{count - 1}, got {reference}"
        )
    return reference


def _resolve_gamma(opt, models, probes, probes_ds, reference):
    """Returns (gamma or None, selected-by-search flag)."""
    gamma = opt.get("gamma", None, float)
    search = opt.get("gamma_search", None, str)
    if search is None:
        return gamma, False
    if gamma is not None:
        raise ConfigurationError("--gamma and --gamma-search are exclusive")
    if probes is None:
        raise ConfigurationError("--gamma-search needs probes")
    # auto: select_gamma walks the grid of the first pair
    candidates = (
        None if search == "auto"
        else _parse_list(search, "--gamma-search", float)
    )
    pairs = [
        (models[reference], m) for i, m in enumerate(models) if i != reference
    ]
    chosen = cca.select_gamma(candidates, pairs, probes, probes_ds)
    return chosen, True


def cmd_merge(args, config):
    opt = Options(args, config)
    models = [load_model(p) for p in args.models]
    if len(models) < 2:
        raise ConfigurationError("merge needs at least 2 model files")
    method = _method_list(opt.get("method", "direct", str))
    if len(method) != 1:
        raise ConfigurationError("merge takes exactly one --method")
    method = method[0]
    probes_ds = None
    probes = None
    probes_path = opt.get("probes", None, str)
    if probes_path is not None:
        probes_ds = load_dataset(probes_path)
        probes = evaluation.limit_probes(
            probes_ds.features, opt.get("probe_limit", None, int)
        )
    reference = _reference(opt, len(models))
    repair = bool(opt.get("repair", False, bool))
    gamma, searched = _resolve_gamma(opt, models, probes, probes_ds, reference)
    merged, report, _ = merge_and_report(
        models, method, probes, gamma, repair, reference
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(merged, out_dir / "merged.model")
    items = report.to_items()
    if searched:
        items.append(("gamma_selected", gamma))
    text = reports.write_report(out_dir / "merge_report.txt", items)
    sys.stdout.write(text)
    return 0


def _emit(opt, items):
    """Print the report, writing it to --out first when that is given."""
    out = opt.get("out", None, str)
    text = (
        reports.write_report(out, items)
        if out
        else reports.format_report(items)
    )
    sys.stdout.write(text)
    return 0


def cmd_eval(args, config):
    opt = Options(args, config)
    models = [load_model(p) for p in args.models]
    ds = load_dataset(args.data)
    items = [("report", "eval"), ("models", len(models))]
    accs = []
    for i, model in enumerate(models):
        loss, acc = trainer.cross_entropy_accuracy(model, ds)
        items.append((f"model.{i}.loss", loss))
        items.append((f"model.{i}.accuracy", acc))
        accs.append(acc)
    if len(models) > 1:
        items.append(("base_models_avg", float(np.mean(accs))))
        items.append(
            ("ensemble_accuracy", evaluation.ensemble_accuracy(models, ds))
        )
    return _emit(opt, items)


def cmd_barrier(args, config):
    opt = Options(args, config)
    model_a = load_model(args.models[0])
    model_b = load_model(args.models[1])
    ds = load_dataset(args.data)
    curve = evaluation.interpolation_curve(
        model_a, model_b, ds, opt.get("grid", evaluation.DEFAULT_GRID_SIZE, int)
    )
    items = [
        ("report", "barrier"),
        ("grid", curve.lambdas.size),
        ("lambdas", [float(v) for v in curve.lambdas]),
        ("losses", [float(v) for v in curve.losses]),
        ("accuracies", [float(v) for v in curve.accuracies]),
        ("barrier", curve.barrier),
    ]
    return _emit(opt, items)


def cmd_analyze(args, config):
    opt = Options(args, config)
    models = [load_model(p) for p in args.models]
    probes_ds = load_dataset(args.probes)
    probes = evaluation.limit_probes(
        probes_ds.features, opt.get("probe_limit", None, int)
    )
    report = analysis.analyze(models, probes, opt.get("gamma", None, float))
    return _emit(opt, report.to_items())


def cmd_experiment(args, config):
    opt = Options(args, config)
    classes = opt.get("classes", DEFAULT_CLASSES, int)
    per_class = opt.get("per_class", DEFAULT_PER_CLASS, int)
    dim = opt.get("dim", DEFAULT_DIM, int)
    data_seed = opt.get("data_seed", 0, int)
    test_per_class = opt.get("test_per_class", DEFAULT_TEST_PER_CLASS, int)
    train_ds = generate(classes, per_class, dim, data_seed)
    test_ds = generate(classes, test_per_class, dim, data_seed, sample_salt=1)

    split_name = opt.get("split", "full", str)
    try:
        kind = SplitKind(split_name)
    except ValueError:
        raise ConfigurationError(f"unknown split {split_name!r}") from None
    alpha = tuple(
        _parse_list(opt.get("alpha", "0.5,0.5", str), "--alpha", float)
    )
    spec = SplitSpec(kind, opt.get("split_seed", data_seed, int), alpha)
    parts = split(train_ds, spec)

    seeds = _parse_list(opt.get("seeds", "0,1", str), "--seeds")
    num_models = opt.get("models", len(seeds), int)
    if num_models != len(seeds):
        raise ConfigurationError(
            f"--models says {num_models} but --seeds lists {len(seeds)}"
        )
    if num_models < 2:
        raise ConfigurationError("experiments need at least 2 models")
    if kind is not SplitKind.FULL and num_models != 2:
        raise ConfigurationError("data splits are two-way; use --models 2")
    reference = _reference(opt, num_models)

    cfgs = [_train_config(opt, s) for s in seeds]
    train_sets = [parts[min(i, 1)] for i in range(num_models)]
    models = [trainer.train(d, c) for d, c in zip(train_sets, cfgs)]

    methods = _method_list(opt.get("methods", "direct,permute,cca", str))
    probe_limit = opt.get("probe_limit", None, int)
    probes = evaluation.limit_probes(train_ds.features, probe_limit)
    repair = bool(opt.get("repair", False, bool))
    grid = opt.get("grid", evaluation.DEFAULT_GRID_SIZE, int)
    gamma, searched = _resolve_gamma(opt, models, probes, train_ds, reference)

    items = [
        ("report", "experiment"),
        ("split", kind.value),
        ("alpha", alpha if kind is SplitKind.DIRICHLET else None),
        ("split_seed", spec.seed),
        ("classes", classes),
        ("per_class", per_class),
        ("dim", dim),
        ("data_seed", data_seed),
        ("test_per_class", test_per_class),
        ("models", num_models),
        ("seeds", seeds),
        ("reference", reference),
        ("widths", list(cfgs[0].hidden_widths)),
        ("epochs", cfgs[0].epochs),
        ("batch_size", cfgs[0].batch_size),
        ("learning_rate", cfgs[0].learning_rate),
        ("momentum", cfgs[0].momentum),
        ("probe_limit", probe_limit),
        ("grid", grid),
        ("gamma", gamma),
        ("gamma_selected", gamma if searched else None),
        ("repair", repair),
    ]
    for k, method in enumerate(methods):
        _, rep = evaluate_merge(
            method, models, train_ds, test_ds, gamma, repair, probe_limit,
            grid, reference,
        )
        if k == 0:
            for i, a in enumerate(rep.endpoint_accuracies):
                items.append((f"model.{i}.accuracy", a))
            items.append(("base_models_avg", rep.base_models_avg))
            items.append(("ensemble_accuracy", rep.ensemble))
        p = f"method.{CLI_NAME[method]}"
        items.append((f"{p}.merged_accuracy", rep.merged_accuracy))
        items.append((f"{p}.merged_loss", rep.merged_loss))
        items.append((f"{p}.barrier", rep.barrier))
        for s in rep.layer_summaries:
            items.append((f"{p}.layer.{s.layer_index}.gamma", s.gamma))
            items.append(
                (f"{p}.layer.{s.layer_index}.corr_mean", s.corr_mean)
            )
        if rep.repair_skipped:
            skipped = evaluation._skipped_text(rep.repair_skipped)
            items.append((f"{p}.repair_skipped", skipped))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = reports.write_report(out_dir / "experiment_report.txt", items)
    sys.stdout.write(text)
    return 0


# --- parser ---------------------------------------------------------------


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--config", help="key=value file supplying option defaults"
    )

    parser = argparse.ArgumentParser(
        prog="fuselab",
        description="Merge independently trained MLPs by aligning their "
        "hidden features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[shared],
                       help="write a synthetic mixture dataset")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int, dest="per_class")
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--salt", type=int,
                   help="fresh sample from the same mixture (test sets)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[shared], help="train one MLP")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--shuffle-seed", type=int, dest="shuffle_seed")
    p.add_argument("--widths")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", parents=[shared],
                       help="merge model files into one")
    p.add_argument("models", nargs="+")
    p.add_argument("--method", choices=sorted(METHOD_NAMES))
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma-search", dest="gamma_search",
                   help="'auto' or comma-separated ridge candidates")
    p.add_argument("--repair", action="store_const", const=True,
                   default=None, help="reset hidden statistics afterwards")
    p.add_argument("--probes", help="dataset file for activation probes")
    p.add_argument("--probe-limit", type=int, dest="probe_limit")
    p.add_argument("--reference", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", parents=[shared],
                       help="accuracy of model files on a dataset")
    p.add_argument("models", nargs="+")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("barrier", parents=[shared],
                       help="loss along the straight path between two models")
    p.add_argument("models", nargs=2)
    p.add_argument("--data", required=True)
    p.add_argument("--grid", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_barrier)

    p = sub.add_parser("analyze", parents=[shared],
                       help="matching diagnostics for 2 or 3 models")
    p.add_argument("models", nargs="+")
    p.add_argument("--probes", required=True)
    p.add_argument("--probe-limit", type=int, dest="probe_limit")
    p.add_argument("--gamma", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", parents=[shared],
                       help="generate, split, train, merge, and report")
    p.add_argument("--methods", help="comma list of direct, permute, cca")
    p.add_argument("--models", type=int)
    p.add_argument("--seeds", help="comma list, one per model")
    p.add_argument("--split", choices=[k.value for k in SplitKind])
    p.add_argument("--alpha", help="dirichlet concentrations a,b")
    p.add_argument("--split-seed", type=int, dest="split_seed")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int, dest="per_class")
    p.add_argument("--test-per-class", type=int, dest="test_per_class")
    p.add_argument("--dim", type=int)
    p.add_argument("--data-seed", type=int, dest="data_seed")
    p.add_argument("--widths")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma-search", dest="gamma_search")
    p.add_argument("--repair", action="store_const", const=True, default=None)
    p.add_argument("--probe-limit", type=int, dest="probe_limit")
    p.add_argument("--grid", type=int)
    p.add_argument("--reference", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment)

    # the keys a --config file may set: each subcommand's own long options
    for p in sub.choices.values():
        p.set_defaults(
            options=frozenset(
                a.dest for a in p._actions if a.option_strings
            ) - {"help", "config"}
        )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    if getattr(args, "config", None):
        try:
            config = load_config(args.config)
            for key in config:
                if key not in args.options:
                    raise ConfigurationError(
                        f"unknown key {key!r} for {args.command}"
                    )
        except FuselabError as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return 1
    try:
        return args.func(args, config)
    except FuselabError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
