"""Command line interface.

Subcommands: gen-data, train, merge, eval, barrier, analyze, experiment.
build_parser declares every option once, with its type and default; options
used by several subcommands come from shared parent parsers. An optional
--config file of key=value lines (keys are the long option names) may set
any option the subcommand does not require: each value is cast by that
option's own type, held to its choices and becomes a parser default, so
flags win over the file and the file wins over built-in defaults. All
reports are deterministic text except for their timestamp line.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import analysis, evaluation, merge, reports, trainer
from .datagen import SplitKind, SplitSpec, generate, load_dataset, save_dataset, split
from .activations import _check_gamma, _pair_stats
from .errors import ConfigurationError, FuselabError, ParseError
from .model import MethodTag, _check_number, load_model, save_model
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
        return [cast(v) for v in text.split(",") if v != ""]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise ParseError(f"{name} wants comma-separated {kind}") from None


def _parse_bool(text):
    """The config form of a store_true option."""
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


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


def _method_list(text):
    methods = []
    for name in _parse_list(text, "--methods", str):
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


def cmd_gen_data(args):
    ds = generate(
        args.classes, args.per_class, args.dim, args.seed,
        sample_salt=args.salt,
    )
    save_dataset(ds, args.out)
    print(f"wrote {args.out} (m={ds.m}, d={ds.dim}, k={ds.num_classes})")
    return 0


def _train_config(args, seed, shuffle_seed=None):
    init_seed, seeded_shuffle = seeds_for(seed)
    return TrainConfig(
        hidden_widths=tuple(_parse_list(args.widths, "--widths")),
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        momentum=args.momentum,
        init_seed=init_seed,
        shuffle_seed=seeded_shuffle if shuffle_seed is None else shuffle_seed,
    )


def cmd_train(args):
    ds = load_dataset(args.data)
    cfg = _train_config(args, args.seed, args.shuffle_seed)
    model, (loss, acc) = trainer.train_scored(ds, [cfg])[0]
    save_model(model, args.out)
    print(f"wrote {args.out}")
    print(f"train_loss: {reports.format_value(loss)}")
    print(f"train_accuracy: {reports.format_value(acc)}")
    return 0


def _search_candidates(args, probes):
    """--gamma-search's candidates (None for auto or for no search), checked
    with --gamma before any capture or training."""
    search = args.gamma_search
    if search is None:
        if args.gamma is not None:
            _check_gamma(args.gamma)
        return None
    if args.gamma is not None:
        raise ConfigurationError("--gamma and --gamma-search are exclusive")
    if probes is None:
        raise ConfigurationError("--gamma-search needs probes")
    if search == "auto":
        return None
    candidates = _parse_list(search, "--gamma-search", float)
    if not candidates:
        raise ConfigurationError("--gamma-search lists no candidates")
    for g in candidates:
        _check_number("--gamma-search candidate", g, 0, real=True)
    return candidates


def cmd_merge(args):
    models = [load_model(p) for p in args.models]
    if len(models) < 2:
        raise ConfigurationError("merge needs at least 2 model files")
    method = METHOD_NAMES[args.method]
    probes_ds = None
    probes = None
    if args.probes is not None:
        probes_ds = load_dataset(args.probes)
        probes = evaluation.limit_probes(probes_ds.features, args.probe_limit)
    reference = _check_number("--reference", args.reference, 0, len(models) - 1)
    candidates = _search_candidates(args, probes)
    if probes is None and method is not MethodTag.IDENTITY:
        raise ConfigurationError(f"--method {args.method} needs --probes")
    if probes is None and args.repair:
        raise ConfigurationError("--repair needs --probes")
    out_dir = _out_dir(args.out)
    gamma = args.gamma
    if args.gamma_search is None:
        made = evaluation._merge(models, method, probes, gamma, reference)
    else:
        # one capture per model: the search makes the merge it picks
        pairs = _pair_stats(models, reference, probes, method is MethodTag.PERMUTE)
        gamma, made = merge._search(candidates, pairs, probes_ds, method)
    merged, report = evaluation._report(
        models, method, made, probes, gamma, args.repair, reference
    )
    save_model(merged, out_dir / "merged.model")
    items = report.to_items()
    if args.gamma_search is not None:
        items.append(("gamma_selected", gamma))
    text = reports.write_report(out_dir / "merge_report.txt", items)
    sys.stdout.write(text)
    return 0


def _out_dir(path):
    """The output directory at path, made with its parents if need be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create directory {path}: {exc.strerror or exc}"
        ) from exc
    return Path(path)


def _emit(args, items):
    """Print the report, writing it to --out first when that is given."""
    text = (
        reports.write_report(args.out, items)
        if args.out
        else reports.format_report(items)
    )
    sys.stdout.write(text)
    return 0


def cmd_eval(args):
    models = [load_model(p) for p in args.models]
    ds = load_dataset(args.data)
    items = [("report", "eval"), ("models", len(models))]
    logits = evaluation._logits(models, ds)
    accs = []
    for i, z in enumerate(logits):
        loss, acc = trainer._scores(z, ds.labels)
        items += [(f"model.{i}.loss", loss), (f"model.{i}.accuracy", acc)]
        accs.append(acc)
    if len(models) > 1:
        items.append(("base_models_avg", float(np.mean(accs))))
        ensemble = evaluation._ensemble_accuracy(logits, ds.labels)
        items.append(("ensemble_accuracy", ensemble))
    return _emit(args, items)


def cmd_barrier(args):
    model_a = load_model(args.models[0])
    model_b = load_model(args.models[1])
    ds = load_dataset(args.data)
    curve = evaluation.interpolation_curve(model_a, model_b, ds, args.grid)
    items = [
        ("report", "barrier"),
        ("grid", curve.lambdas.size),
        ("lambdas", [float(v) for v in curve.lambdas]),
        ("losses", [float(v) for v in curve.losses]),
        ("accuracies", [float(v) for v in curve.accuracies]),
        ("barrier", curve.barrier),
    ]
    return _emit(args, items)


def cmd_analyze(args):
    models = [load_model(p) for p in args.models]
    probes_ds = load_dataset(args.probes)
    probes = evaluation.limit_probes(probes_ds.features, args.probe_limit)
    report = analysis.analyze(models, probes, args.gamma)
    return _emit(args, report.to_items())


def cmd_experiment(args):
    train_ds = generate(args.classes, args.per_class, args.dim, args.data_seed)
    test_ds = generate(
        args.classes, args.test_per_class, args.dim, args.data_seed,
        sample_salt=1,
    )

    kind = SplitKind(args.split)
    alpha = tuple(_parse_list(args.alpha, "--alpha", float))
    split_seed = args.data_seed if args.split_seed is None else args.split_seed
    parts = split(train_ds, SplitSpec(kind, split_seed, alpha))

    seeds = _parse_list(args.seeds, "--seeds")
    num_models = len(seeds)
    if num_models < 2:
        raise ConfigurationError("experiments need at least 2 models")
    if kind is not SplitKind.FULL and num_models != 2:
        raise ConfigurationError("data splits are two-way; give 2 --seeds")
    reference = _check_number("--reference", args.reference, 0, num_models - 1)
    methods = _method_list(args.methods)
    _check_number("grid_size", args.grid, 2)
    cfgs = [_train_config(args, s) for s in seeds]
    probes = evaluation.limit_probes(train_ds.features, args.probe_limit)
    candidates = _search_candidates(args, probes)
    for part in parts:
        trainer._check_rows(part)
    out_dir = _out_dir(args.out)

    if kind is SplitKind.FULL:
        models = trainer.train_many(train_ds, cfgs)
    else:
        models = [trainer.train(d, c) for d, c in zip(parts, cfgs)]

    # one capture per model: the search and every method read these pairs
    pairs = list(_pair_stats(models, reference, probes))
    gamma = args.gamma
    if args.gamma_search is not None:
        gamma = merge._search(candidates, pairs, train_ds)[0]

    items = [
        ("report", "experiment"),
        ("split", kind.value),
        ("alpha", alpha if kind is SplitKind.DIRICHLET else None),
        ("split_seed", split_seed),
        ("classes", args.classes),
        ("per_class", args.per_class),
        ("dim", args.dim),
        ("data_seed", args.data_seed),
        ("test_per_class", args.test_per_class),
        ("models", num_models),
        ("seeds", seeds),
        ("reference", reference),
        ("widths", list(cfgs[0].hidden_widths)),
        ("epochs", cfgs[0].epochs),
        ("batch_size", cfgs[0].batch_size),
        ("learning_rate", cfgs[0].learning_rate),
        ("momentum", cfgs[0].momentum),
        ("probe_limit", args.probe_limit),
        ("grid", args.grid),
        ("gamma", gamma),
        ("gamma_selected", None if args.gamma_search is None else gamma),
        ("repair", args.repair),
    ]
    logits = evaluation._logits(models, test_ds)
    accs = [trainer._scores(z, test_ds.labels)[1] for z in logits]
    items += [(f"model.{i}.accuracy", a) for i, a in enumerate(accs)]
    items.append(("base_models_avg", float(np.mean(accs))))
    ensemble = evaluation._ensemble_accuracy(logits, test_ds.labels)
    items.append(("ensemble_accuracy", ensemble))
    for method in methods:
        made = evaluation._merge(models, method, probes, gamma, reference, pairs)
        _, rep = evaluation._evaluate(models, method, made, test_ds, probes, gamma,
                                      args.repair, args.grid, reference)
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
    text = reports.write_report(out_dir / "experiment_report.txt", items)
    sys.stdout.write(text)
    return 0


# --- parser ---------------------------------------------------------------


def build_parser():
    def parent():
        return argparse.ArgumentParser(add_help=False)

    config = parent()
    config.add_argument(
        "--config", help="key=value file setting defaults for any option "
        "the subcommand does not require"
    )
    mixture = parent()
    mixture.add_argument("--classes", type=int, default=DEFAULT_CLASSES)
    mixture.add_argument("--per-class", type=int, default=DEFAULT_PER_CLASS)
    mixture.add_argument("--dim", type=int, default=DEFAULT_DIM)
    training = parent()
    training.add_argument(
        "--widths", default=",".join(map(str, trainer.DEFAULT_HIDDEN_WIDTHS)),
        help="comma list of hidden widths",
    )
    training.add_argument("--epochs", type=int, default=trainer.DEFAULT_EPOCHS)
    training.add_argument(
        "--batch-size", type=int, default=trainer.DEFAULT_BATCH_SIZE
    )
    training.add_argument(
        "--lr", type=float, default=trainer.DEFAULT_LEARNING_RATE
    )
    training.add_argument(
        "--momentum", type=float, default=trainer.DEFAULT_MOMENTUM
    )
    probing = parent()
    probing.add_argument("--probe-limit", type=int,
                         help="use only the first N probe rows")
    probing.add_argument("--gamma", type=float, help="CCA ridge strength")
    merging = parent()
    merging.add_argument("--gamma-search",
                         help="'auto' or comma-separated ridge candidates")
    merging.add_argument("--repair", action="store_true",
                         help="reset hidden statistics afterwards")
    merging.add_argument("--reference", type=int, default=0,
                         help="index of the model the others align to")
    grid = parent()
    grid.add_argument("--grid", type=int, default=evaluation.DEFAULT_GRID_SIZE,
                      help="points on the interpolation path")
    dataset = parent()
    dataset.add_argument("--data", required=True, help="dataset file")
    report = parent()
    report.add_argument("--out", help="also write the report to this file")

    parser = argparse.ArgumentParser(
        prog="fuselab",
        description="Merge independently trained MLPs by aligning their "
        "hidden features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents=()):
        p = sub.add_parser(name, parents=[config, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("gen-data", cmd_gen_data, "write a synthetic mixture dataset",
                [mixture])
    p.add_argument("--seed", type=int, default=0, help="mixture seed")
    p.add_argument("--salt", type=int, default=0,
                   help="fresh sample from the same mixture (test sets)")
    p.add_argument("--out", required=True, help="dataset file")

    p = command("train", cmd_train, "train one MLP", [dataset, training])
    p.add_argument("--seed", type=int, default=0,
                   help="derives the init and shuffle seeds")
    p.add_argument("--shuffle-seed", type=int,
                   help="override the derived shuffle seed")
    p.add_argument("--out", required=True, help="model file")

    p = command("merge", cmd_merge, "merge model files into one",
                [probing, merging])
    p.add_argument("models", nargs="+")
    p.add_argument("--method", choices=sorted(METHOD_NAMES), default="direct")
    p.add_argument("--probes", help="dataset file for activation probes")
    p.add_argument("--out", required=True, help="output directory")

    p = command("eval", cmd_eval, "accuracy of model files on a dataset",
                [dataset, report])
    p.add_argument("models", nargs="+")

    p = command("barrier", cmd_barrier,
                "loss along the straight path between two models",
                [dataset, grid, report])
    p.add_argument("models", nargs=2)

    p = command("analyze", cmd_analyze,
                "matching diagnostics for 2 or 3 models", [probing, report])
    p.add_argument("models", nargs="+")
    p.add_argument("--probes", required=True, help="dataset file")

    p = command("experiment", cmd_experiment,
                "generate, split, train, merge, and report",
                [mixture, training, probing, merging, grid])
    p.add_argument("--methods", default="direct,permute,cca",
                   help="comma list of direct, permute, cca")
    p.add_argument("--seeds", default="0,1", help="comma list, one per model")
    p.add_argument("--split", choices=[k.value for k in SplitKind],
                   default="full")
    p.add_argument("--alpha", default="0.5,0.5",
                   help="dirichlet concentrations a,b")
    p.add_argument("--split-seed", type=int,
                   help="defaults to the data seed")
    p.add_argument("--test-per-class", type=int,
                   default=DEFAULT_TEST_PER_CLASS)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _join_dash_values(command, argv):
    """argv with `--option -1,2` joined into `--option=-1,2`.

    argparse takes a token that starts with '-' for an option, so a
    single-value option followed by one that names none of the
    subcommand's options stops with a usage error; joined, the value
    reaches the option's own check. Tokens after `--` are left alone.
    """
    known = command._option_string_actions
    joined = []
    for i, token in enumerate(argv):
        if token == "--":
            return joined + argv[i:]
        last = known.get(joined[-1]) if joined else None
        if (
            last and last.nargs is None
            and token.startswith("-") and token not in known
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def parse_args(argv=None):
    """Parse argv; a --config file's values become the subcommand's defaults.

    Raises FuselabError with the stage leading its message: 'config:' for an
    unreadable file, a bad line or an unknown key, and the command for a
    value that the option's own type rejects or its choices exclude.
    """
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in commands:
        argv = _join_dash_values(commands[argv[0]], argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    command = commands[args.command]
    settable = {
        a.dest: a for a in command._actions
        if a.option_strings and not a.required
        and a.dest not in ("help", "config")
    }
    try:
        config = load_config(args.config)
        for key in config:
            if key not in settable:
                raise ConfigurationError(
                    f"unknown key {key!r} for {args.command}"
                )
    except FuselabError as exc:
        raise type(exc)(f"config: {exc}") from None
    defaults = {}
    for key, raw in config.items():
        action = settable[key]
        cast = _parse_bool if action.nargs == 0 else action.type or str
        try:
            defaults[key] = cast(raw)
            if action.choices and defaults[key] not in action.choices:
                raise ValueError(raw)
        except ValueError:
            raise ParseError(
                f"{args.command}: config value for {key} is invalid: {raw!r}"
            ) from None
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = parse_args(argv)
    except FuselabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(getattr(args, "out", None) or ".").absolute()
    fresh = [p for p in (out, *out.parents) if not p.exists()]  # run may make
    try:
        return args.func(args)
    except FuselabError as exc:
        for path in fresh:  # rmdir spares directories with files, and files
            with contextlib.suppress(OSError):
                path.rmdir()
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
