"""The package's public names, pinned, and its input contract.

Adding a name to `fuselab` or removing one must be a deliberate edit of
PUBLIC below (and a CHANGES.md note), not a side effect.
"""

import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuselab
from fuselab import (
    ConfigurationError, FuselabError, ParseError, ShapeError, ValidationError,
)

PUBLIC = [
    "Activation",
    "ActivationMatrix",
    "AlignmentPlan",
    "AnalysisReport",
    "Assignment",
    "BarrierCurve",
    "CcaSolution",
    "ConfigurationError",
    "CorrelationMatrix",
    "Dataset",
    "DenseLayer",
    "FuselabError",
    "GammaSelectionError",
    "LayerAlignmentSummary",
    "LayerTransform",
    "MergeReport",
    "MethodTag",
    "MlpModel",
    "NumericalError",
    "ParseError",
    "ScatterStats",
    "ShapeError",
    "SkippedNeuron",
    "SplitKind",
    "SplitSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "ValidationError",
    "accuracy",
    "align",
    "analyze",
    "apply_plan",
    "average_models",
    "build_transform",
    "capture",
    "cca_plan",
    "coefficient_distribution_ratio",
    "correlations",
    "cross_entropy_accuracy",
    "default_gamma",
    "ensemble_accuracy",
    "evaluate_merge",
    "format_report",
    "forward",
    "generate",
    "identity_plan",
    "indirect_matching_diagnostics",
    "init_model",
    "interpolation_curve",
    "inv_sqrt",
    "linear_sum_assignment",
    "load_dataset",
    "load_model",
    "merge_and_report",
    "merge_many",
    "merge_pair",
    "non_optimal_matches",
    "parse_report",
    "permute_plan",
    "repair_reset",
    "save_dataset",
    "save_model",
    "scatter",
    "seeds_for",
    "select_gamma",
    "solve_cca",
    "solve_layers",
    "split",
    "strip_timestamp",
    "topk_coefficient_coverage",
    "train",
    "train_many",
    "wasserstein_1d",
    "write_report",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(fuselab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


# --- hostile inputs ----------------------------------------------------------
#
# Every public entry point that takes a number, an array, a model, a dataset,
# a plan or a config either returns or raises a FuselabError: a wrong kind, a
# value out of range, a wrong ndim or a non-finite entry never ends in a raw
# numpy or Python error.

DS = fuselab.generate(4, 3, 3, seed=0)
A, B = (fuselab.init_model(3, (4,), 4, seed) for seed in (0, 1))
C = np.eye(3)
ACTS = fuselab.capture(A, DS.features)[0]
IDENTITY = fuselab.MethodTag.IDENTITY
RELU = fuselab.Activation.RELU
DIRICHLET = fuselab.SplitKind.DIRICHLET
FULL = fuselab.SplitSpec(fuselab.SplitKind.FULL)
PLAN = fuselab.identity_plan(A)
CONFIG = fuselab.TrainConfig(hidden_widths=(2,), epochs=1)
NO_DIR = "no-such-directory/out"  # a write that got this far would fail

# (call, the FuselabError it raises); each raised a raw error, or returned
# a silently wrong result, before the inputs went through one checker
PINNED = {
    "TrainConfig(hidden_widths=5)": (
        lambda: fuselab.TrainConfig(hidden_widths=5), ConfigurationError),
    "TrainConfig(learning_rate='x')": (
        lambda: fuselab.TrainConfig(learning_rate="x"), ConfigurationError),
    "TrainConfig(momentum='x')": (
        lambda: fuselab.TrainConfig(momentum="x"), ConfigurationError),
    "TrainConfig(learning_rate=10**400)": (
        lambda: fuselab.TrainConfig(learning_rate=10**400), ConfigurationError),
    "TrainConfig(epochs=True)": (
        lambda: fuselab.TrainConfig(epochs=True), ConfigurationError),
    "SplitSpec(alpha=('a', 1))": (
        lambda: fuselab.SplitSpec(DIRICHLET, 0, ("a", 1)), ConfigurationError),
    "SplitSpec(alpha=5)": (
        lambda: fuselab.SplitSpec(DIRICHLET, 0, 5), ShapeError),
    "topk_coefficient_coverage(k_corr=1.5)": (
        lambda: fuselab.topk_coefficient_coverage(C, C, 1.5, 1), ValidationError),
    "coefficient_distribution_ratio(k=1.5)": (
        lambda: fuselab.coefficient_distribution_ratio(C, C, 1.5), ValidationError),
    "merge_and_report(reference_index=0.5)": (
        lambda: fuselab.merge_and_report([A, B], IDENTITY, reference_index=0.5),
        ConfigurationError),
    "merge_and_report(gamma='x')": (
        lambda: fuselab.merge_and_report([A, B], IDENTITY, gamma="x"),
        ValidationError),
    "inv_sqrt(gamma='x')": (
        lambda: fuselab.inv_sqrt(np.eye(2), "x"), ValidationError),
    "select_gamma(['x'])": (
        lambda: fuselab.select_gamma(["x"], [(A, B)], DS.features, DS),
        ValidationError),
    "evaluate_merge(probe_limit='a')": (
        lambda: fuselab.evaluate_merge(IDENTITY, [A, B], DS, DS, probe_limit="a"),
        ConfigurationError),
    "evaluate_merge(probe_limit=2.5)": (
        lambda: fuselab.evaluate_merge(IDENTITY, [A, B], DS, DS, probe_limit=2.5),
        ConfigurationError),
    "Dataset(num_classes='a')": (
        lambda: fuselab.Dataset(DS.features, DS.labels, "a", 0), ValidationError),
    "Dataset(num_classes=2.5)": (
        lambda: fuselab.Dataset([[0.0], [1.0]], [0, 1], 2.5, 0), ValidationError),
    "Dataset(features=[['a']])": (
        lambda: fuselab.Dataset([["a"]], [0], 2, 0), ValidationError),
    "Dataset(labels=[nan])": (
        lambda: fuselab.Dataset([[1.0]], [np.nan], 2, 0), ValidationError),
    "init_model(hidden_widths=(0,))": (
        lambda: fuselab.init_model(3, (0,), 4, 0), ConfigurationError),
    "init_model(init_seed=-1)": (
        lambda: fuselab.init_model(3, (2,), 4, -1), ConfigurationError),
    "capture(non-numeric probes)": (
        lambda: fuselab.capture(A, [["a", "b", "c"]] * 3), ValidationError),
    "forward(ragged inputs)": (
        lambda: fuselab.forward(A, [[1, 2, 3], [1, 2]]), ValidationError),
    "DenseLayer([['a']])": (
        lambda: fuselab.DenseLayer([["a"]], [0.0], RELU), ValidationError),
    "LayerTransform.general([['a']])": (
        lambda: fuselab.LayerTransform.general([["a"]], 0), ValidationError),
    "linear_sum_assignment([['a']])": (
        lambda: fuselab.linear_sum_assignment([["a"]]), ValidationError),
    "wasserstein_1d(['a'])": (
        lambda: fuselab.wasserstein_1d(["a"], [1.0]), ValidationError),
    "ActivationMatrix([['a']])": (
        lambda: fuselab.ActivationMatrix([["a"]], [0.0], 0, 1), ValidationError),
    "default_gamma(2x2, 3x3)": (
        lambda: fuselab.default_gamma(np.eye(2), np.eye(3)), ShapeError),
    "Assignment([1.5, 0.2])": (
        lambda: fuselab.Assignment([1.5, 0.2], 0.0), ValidationError),
    "Assignment(['a'])": (lambda: fuselab.Assignment(["a"], 0), ValidationError),
    "Assignment([5, 1, 2])": (
        lambda: fuselab.Assignment([5, 1, 2], 0.0), ValidationError),
    "Assignment([0, 0, 0])": (
        lambda: fuselab.Assignment([0, 0, 0], 0.0), ValidationError),
    "LayerTransform.from_mapping([[0], [0, 1]])": (
        lambda: fuselab.LayerTransform.from_mapping([[0], [0, 1]], 0),
        ValidationError),
    "seeds_for(1.5)": (lambda: fuselab.seeds_for(1.5), ConfigurationError),
    "seeds_for(True)": (lambda: fuselab.seeds_for(True), ConfigurationError),
    "seeds_for('x')": (lambda: fuselab.seeds_for("x"), ConfigurationError),
    "forward(complex inputs)": (
        lambda: fuselab.forward(A, np.array([[1 + 2j, 0, 0], [0, 0, 0]])),
        ValidationError),
    # counts too large for numpy to make the array they size
    "generate(num_classes=10**20)": (
        lambda: fuselab.generate(10**20, 3, 3, 0), ConfigurationError),
    "generate(per_class=10**20)": (
        lambda: fuselab.generate(4, 10**20, 3, 0), ConfigurationError),
    "generate(dim=10**20)": (
        lambda: fuselab.generate(4, 3, 10**20, 0), ConfigurationError),
    "init_model(hidden_widths=(10**20,))": (
        lambda: fuselab.init_model(3, (10**20,), 4, 0), ConfigurationError),
    "init_model(num_classes=10**20)": (
        lambda: fuselab.init_model(3, (4,), 10**20, 0), ConfigurationError),
    "train(hidden_widths=(4, 10**20))": (
        lambda: fuselab.train(DS, fuselab.TrainConfig(hidden_widths=(4, 10**20))),
        ConfigurationError),
    "interpolation_curve(grid_size=10**20)": (
        lambda: fuselab.interpolation_curve(A, B, DS, 10**20),
        ConfigurationError),
    "DenseLayer.apply(non-numeric inputs)": (
        lambda: A.layers[0].apply([["a", "b", "c"]]), ValidationError),
    "DenseLayer.apply(ragged inputs)": (
        lambda: A.layers[0].apply([[1, 2, 3], [1, 2]]), ValidationError),
    "DenseLayer.apply(complex inputs)": (
        lambda: A.layers[0].apply(np.array([[1 + 2j, 0, 0]])), ValidationError),
    "DenseLayer.apply(nan row)": (
        lambda: A.layers[0].apply([[np.nan, 0.0, 0.0]]), ValidationError),
    "average_models([])": (lambda: fuselab.average_models([]), ValidationError),
    "average_models(None)": (lambda: fuselab.average_models(None), ValidationError),
    "load_model(None)": (lambda: fuselab.load_model(None), ValidationError),
    "load_dataset(None)": (lambda: fuselab.load_dataset(None), ValidationError),
    "save_model(path=None)": (lambda: fuselab.save_model(A, None), ValidationError),
    "save_dataset(path=5.5)": (
        lambda: fuselab.save_dataset(DS, 5.5), ValidationError),
    "Dataset.subset(['a'])": (lambda: DS.subset(["a"]), ValidationError),
    "Dataset.subset([1.5])": (lambda: DS.subset([1.5]), ValidationError),
    "Dataset.subset([10**9])": (lambda: DS.subset([10**9]), ValidationError),
    "Dataset.subset([-1])": (lambda: DS.subset([-1]), ValidationError),
    # a field of the wrong kind was kept, or failed far from its check
    "DenseLayer(activation='relu')": (
        lambda: fuselab.DenseLayer(np.eye(2), np.zeros(2), "relu"), ValidationError),
    "LayerTransform(layer_index='a')": (
        lambda: fuselab.LayerTransform(np.eye(2), np.eye(2), "a"), ValidationError),
    "LayerTransform(layer_index=-1)": (
        lambda: fuselab.LayerTransform(np.eye(2), np.eye(2), -1), ValidationError),
    "MlpModel(input_dim='x')": (
        lambda: fuselab.MlpModel(A.layers, "x"), ValidationError),
    # a list argument that is not a list
    "MlpModel(None)": (lambda: fuselab.MlpModel(None, 3), ValidationError),
    "AlignmentPlan(None)": (lambda: fuselab.AlignmentPlan(None), ValidationError),
    "analyze(None)": (lambda: fuselab.analyze(None, DS.features), ValidationError),
    "merge_and_report(None)": (
        lambda: fuselab.merge_and_report(None, IDENTITY), ValidationError),
    "evaluate_merge(models=None)": (
        lambda: fuselab.evaluate_merge(IDENTITY, None, DS, DS), ValidationError),
    "ensemble_accuracy(3)": (
        lambda: fuselab.ensemble_accuracy(3, DS), ValidationError),
    "merge_many(others=3)": (
        lambda: fuselab.merge_many(A, 3, IDENTITY), ValidationError),
    "train_many(cfgs=3)": (lambda: fuselab.train_many(DS, 3), ValidationError),
    "select_gamma(model_pairs=None)": (
        lambda: fuselab.select_gamma([0.1], None, DS.features, DS), ValidationError),
    "select_gamma([(A,)])": (
        lambda: fuselab.select_gamma([0.1], [(A,)], DS.features, DS),
        ValidationError),
    "select_gamma(candidate_gammas=0.1)": (
        lambda: fuselab.select_gamma(0.1, [(A, B)], DS.features, DS),
        ValidationError),
    "select_gamma(candidate_gammas='0.1')": (
        lambda: fuselab.select_gamma("0.1", [(A, B)], DS.features, DS),
        ValidationError),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_hostile_call_raises_its_fuselab_error(name):
    call, error = PINNED[name]
    with pytest.raises(error):
        call()


# the argument that each of these pinned calls' messages starts with
NAMED = {
    **{f"DenseLayer.apply({what} inputs)": "inputs"
       for what in ("non-numeric", "ragged", "complex")},
    "DenseLayer.apply(nan row)": "inputs",
    "average_models([])": "models",
    "average_models(None)": "models",
    **{name: "path" for name in ("load_model(None)", "load_dataset(None)",
                                 "save_model(path=None)", "save_dataset(path=5.5)")},
    **{f"Dataset.subset({v})": "indices"
       for v in ("['a']", "[1.5]", "[10**9]", "[-1]")},
    "DenseLayer(activation='relu')": "activation",
    "LayerTransform(layer_index='a')": "layer_index",
    "LayerTransform(layer_index=-1)": "layer_index",
    "MlpModel(input_dim='x')": "input_dim",
    "MlpModel(None)": "layers",
    "AlignmentPlan(None)": "transforms",
    **{name: "models" for name in (
        "analyze(None)", "merge_and_report(None)", "evaluate_merge(models=None)",
        "ensemble_accuracy(3)")},
    "merge_many(others=3)": "others",
    "train_many(cfgs=3)": "cfgs",
    "select_gamma(model_pairs=None)": "model_pairs",
    "select_gamma([(A,)])": "model_pairs",
    "select_gamma(candidate_gammas=0.1)": "candidate_gammas",
    "select_gamma(candidate_gammas='0.1')": "candidate_gammas",
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_pinned_error_names_its_argument(name):
    with pytest.raises(FuselabError, match=f"^{NAMED[name]} "):
        PINNED[name][0]()


def _loaded(directory, manifest):
    path = directory / "m.model"
    path.write_bytes(manifest)
    return fuselab.load_model(path)


# public input checks that no other test reaches: (call given a scratch
# directory, the error it raises, the end of its message)
CHECKS = {
    "DenseLayer.apply(2x5)": (
        lambda d: A.layers[0].apply(np.zeros((2, 5))),
        ShapeError, "layer expects 3 input columns, got (2, 5)"),
    "MlpModel(non-layer entry)": (
        lambda d: fuselab.MlpModel((A.layers[0], "x"), 3),
        ValidationError, "layer 1 is not a DenseLayer"),
    "MlpModel(ReLU last layer)": (
        lambda d: fuselab.MlpModel(
            (A.layers[0], fuselab.DenseLayer(np.ones((2, 4)), np.zeros(2), RELU)), 3),
        ValidationError, "the final layer must be linear (Identity)"),
    "AlignmentPlan(())": (
        lambda d: fuselab.AlignmentPlan(()),
        ValidationError, "a plan needs at least one transform"),
    "AlignmentPlan(('x',))": (
        lambda d: fuselab.AlignmentPlan(("x",)),
        ValidationError, "plan entry 0 is not a LayerTransform"),
    "apply_plan(width 3 on width 4)": (
        lambda d: fuselab.apply_plan(A, fuselab.AlignmentPlan(
            (fuselab.LayerTransform.from_mapping([0, 1, 2], 0),))),
        ShapeError, "transform 0 has width 3, layer 0 is 4 wide"),
    "LayerTransform(2x3, 3x2)": (
        lambda d: fuselab.LayerTransform(np.ones((2, 3)), np.ones((3, 2)), 0),
        ShapeError, "transform must be square, got (2, 3) and (3, 2)"),
    "ActivationMatrix(m=5, 2 rows)": (
        lambda d: fuselab.ActivationMatrix(np.zeros((2, 3)), np.zeros(3), 0, 5),
        ShapeError, "row count disagrees with m"),
    "non_optimal_matches(0x0)": (
        lambda d: fuselab.non_optimal_matches(
            np.zeros((0, 0)), fuselab.Assignment(np.array([], dtype=int), 0.0)),
        ShapeError, "score matrix is empty"),
    "load_model(manifest without end)": (
        lambda d: _loaded(d, b"fuselab-model 1\ninput_dim 3\n"),
        ParseError, "manifest ended before 'end'"),
    "load_model(2-field layer line)": (
        lambda d: _loaded(
            d, b"fuselab-model 1\ninput_dim 3\nlayers 1\nlayer 4 3\nend\n"),
        ParseError, "layer line needs 3 fields: '4 3'"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_input_check_raises_its_error(tmp_path, name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=re.escape(message) + "$"):
        call(tmp_path)


def test_blank_manifest_line_is_accepted(tmp_path):
    fuselab.save_model(A, tmp_path / "a.model")
    magic, _, rest = (tmp_path / "a.model").read_bytes().partition(b"\n")
    loaded = _loaded(tmp_path, magic + b"\n\n" + rest)
    for x, y in zip(loaded.layers, A.layers, strict=True):
        assert x.weights.tobytes() + x.bias.tobytes() == (
            y.weights.tobytes() + y.bias.tobytes())


def _with(args, slot, value):
    return args[:slot] + (value,) + args[slot + 1:]


# entry -> (kind of hostile value, call taking it); every other argument is a
# tiny valid one, so a value that passes starts no large work
ENTRIES = {
    **{f"TrainConfig.{field}": (
        "number", lambda v, f=field: fuselab.TrainConfig(**{f: v}))
       for field in ("epochs", "batch_size", "learning_rate", "momentum",
                     "init_seed", "shuffle_seed")},
    "TrainConfig.hidden_widths": (
        "widths", lambda v: fuselab.TrainConfig(hidden_widths=v)),
    **{f"generate.{slot}": ("number", lambda v, s=slot: fuselab.generate(
        *_with((3, 2, 2, 0, 0), s, v))) for slot in range(5)},
    **{f"init_model.{slot}": ("widths" if slot == 1 else "number", lambda v, s=slot:
        fuselab.init_model(*_with((3, (2,), 2, 0), s, v))) for slot in range(4)},
    "SplitSpec.seed": ("number", lambda v: fuselab.SplitSpec(DIRICHLET, v)),
    "SplitSpec.alpha": ("array", lambda v: fuselab.SplitSpec(DIRICHLET, 0, v)),
    "Dataset.features": ("array", lambda v: fuselab.Dataset(v, [0], 2, 0)),
    "Dataset.labels": ("array", lambda v: fuselab.Dataset([[0.0]], v, 2, 0)),
    "Dataset.num_classes": (
        "number", lambda v: fuselab.Dataset(DS.features, DS.labels, v, 0)),
    "Dataset.seed": ("number", lambda v: fuselab.Dataset([[0.0]], [0], 2, v)),
    "topk_coefficient_coverage.k_corr": (
        "number", lambda v: fuselab.topk_coefficient_coverage(C, C, v, 1)),
    "topk_coefficient_coverage.k_coeff": (
        "number", lambda v: fuselab.topk_coefficient_coverage(C, C, 1, v)),
    "topk_coefficient_coverage.c": (
        "array", lambda v: fuselab.topk_coefficient_coverage(v, C, 1, 1)),
    "coefficient_distribution_ratio.k": (
        "number", lambda v: fuselab.coefficient_distribution_ratio(C, C, v)),
    "coefficient_distribution_ratio.t": (
        "array", lambda v: fuselab.coefficient_distribution_ratio(C, v, 1)),
    "merge_and_report.reference_index": ("number", lambda v: fuselab.merge_and_report(
        [A, B], IDENTITY, reference_index=v)),
    "merge_and_report.gamma": (
        "number", lambda v: fuselab.merge_and_report([A, B], IDENTITY, gamma=v)),
    "evaluate_merge.probe_limit": ("number", lambda v: fuselab.evaluate_merge(
        IDENTITY, [A, B], DS, DS, probe_limit=v, grid_size=3)),
    "interpolation_curve.grid_size": (
        "number", lambda v: fuselab.interpolation_curve(A, B, DS, v)),
    "select_gamma.candidate": ("number", lambda v: fuselab.select_gamma(
        [v], [(A, B)], DS.features, DS)),
    "select_gamma.probes": (
        "array", lambda v: fuselab.select_gamma([0.1], [(A, B)], v, DS)),
    "inv_sqrt.gamma": ("number", lambda v: fuselab.inv_sqrt(C, v)),
    "inv_sqrt.s": ("array", lambda v: fuselab.inv_sqrt(v)),
    "scatter.gamma": ("number", lambda v: fuselab.scatter(ACTS, ACTS, v)),
    "default_gamma": ("array", lambda v: fuselab.default_gamma(v, C)),
    "capture.probes": ("array", lambda v: fuselab.capture(A, v)),
    "forward.inputs": ("array", lambda v: fuselab.forward(A, v)),
    "permute_plan": ("array", lambda v: fuselab.permute_plan(A, B, v)),
    "cca_plan": ("array", lambda v: fuselab.cca_plan(A, B, v)),
    "repair_reset": ("array", lambda v: fuselab.repair_reset(A, A, v)),
    "analyze.probes": ("array", lambda v: fuselab.analyze([A, B], v)),
    "DenseLayer.weights": (
        "array", lambda v: fuselab.DenseLayer(v, [0.0], RELU)),
    "DenseLayer.bias": (
        "array", lambda v: fuselab.DenseLayer([[1.0]], v, RELU)),
    "DenseLayer.apply": ("array", lambda v: A.layers[0].apply(v)),
    "Dataset.subset": ("array", lambda v: DS.subset(v)),
    "LayerTransform": ("array", lambda v: fuselab.LayerTransform(v, v, 0)),
    "LayerTransform.general": (
        "array", lambda v: fuselab.LayerTransform.general(v, 0)),
    "linear_sum_assignment": (
        "array", lambda v: fuselab.linear_sum_assignment(v)),
    "Assignment": ("array", lambda v: fuselab.Assignment(v, 0.0)),
    "wasserstein_1d": ("array", lambda v: fuselab.wasserstein_1d(v, [1.0])),
    "ActivationMatrix.values": (
        "array", lambda v: fuselab.ActivationMatrix(v, [0.0], 0, 1)),
    "ActivationMatrix.column_means": (
        "array", lambda v: fuselab.ActivationMatrix([[0.0]], v, 0, 1)),
    # every argument that takes a list, given a hostile list of models
    "analyze.models": ("models", lambda v: fuselab.analyze(v, DS.features)),
    "merge_and_report.models": (
        "models", lambda v: fuselab.merge_and_report(v, IDENTITY)),
    "evaluate_merge.models": ("models", lambda v: fuselab.evaluate_merge(
        IDENTITY, v, DS, DS, grid_size=3)),
    "average_models.models": ("models", lambda v: fuselab.average_models(v)),
    "ensemble_accuracy.models list": (
        "models", lambda v: fuselab.ensemble_accuracy(v, DS)),
    "merge_many.others list": ("models", lambda v: fuselab.merge_many(
        A, v, fuselab.MethodTag.PERMUTE, DS.features)),
    "select_gamma.model_pairs": ("models", lambda v: fuselab.select_gamma(
        [0.1], v, DS.features, DS)),
    "select_gamma.pair": ("models", lambda v: fuselab.select_gamma(
        [0.1], [v], DS.features, DS)),
    "train_many.cfgs": ("models", lambda v: fuselab.train_many(DS, v)),
    "MlpModel.layers": ("models", lambda v: fuselab.MlpModel(v, 3)),
    "AlignmentPlan.transforms": ("models", lambda v: fuselab.AlignmentPlan(v)),
}

# entry -> (kind, the argument its error names, call taking an object of
# another kind); a str in any of these slots once ended in a raw Python error
KIND_ENTRIES = {
    "forward": ("model", "model", lambda v: fuselab.forward(v, DS.features)),
    "capture": ("model", "model", lambda v: fuselab.capture(v, DS.features)),
    "apply_plan.model": ("model", "model", lambda v: fuselab.apply_plan(v, PLAN)),
    "apply_plan.plan": ("plan", "plan", lambda v: fuselab.apply_plan(A, v)),
    "merge_pair.plan": ("plan", "plan", lambda v: fuselab.merge_pair(A, B, v)),
    "save_model": ("model", "model", lambda v: fuselab.save_model(v, NO_DIR)),
    "accuracy.model": ("model", "model", lambda v: fuselab.accuracy(v, DS)),
    "accuracy.ds": ("dataset", "dataset", lambda v: fuselab.accuracy(A, v)),
    "ensemble_accuracy.models": (
        "model", "model 1", lambda v: fuselab.ensemble_accuracy([A, v], DS)),
    "ensemble_accuracy.ds": (
        "dataset", "dataset", lambda v: fuselab.ensemble_accuracy([A], v)),
    "interpolation_curve.model_a": (
        "model", "model_a", lambda v: fuselab.interpolation_curve(v, B, DS, 3)),
    "interpolation_curve.model_b": (
        "model", "model_b", lambda v: fuselab.interpolation_curve(A, v, DS, 3)),
    "interpolation_curve.ds": (
        "dataset", "dataset", lambda v: fuselab.interpolation_curve(A, B, v, 3)),
    "merge_many.reference": (
        "model", "model 0", lambda v: fuselab.merge_many(v, [B], IDENTITY)),
    "merge_many.others": (
        "model", "model", lambda v: fuselab.merge_many(A, [v], IDENTITY)),
    "merge_many.others with probes": ("model", "model", lambda v: fuselab.merge_many(
        A, [v], fuselab.MethodTag.PERMUTE, DS.features)),
    "average_models": ("model", "model 1", lambda v: fuselab.average_models([A, v])),
    "merge_and_report": (
        "model", "model", lambda v: fuselab.merge_and_report([A, v], IDENTITY)),
    "repair_reset.merged": (
        "model", "merged", lambda v: fuselab.repair_reset(v, A, DS.features)),
    "repair_reset.reference": (
        "model", "reference", lambda v: fuselab.repair_reset(A, v, DS.features)),
    "train.ds": ("dataset", "dataset", lambda v: fuselab.train(v, CONFIG)),
    "train.config": ("config", "config 0", lambda v: fuselab.train(DS, v)),
    "split.ds": ("dataset", "dataset", lambda v: fuselab.split(v, FULL)),
    "save_dataset": ("dataset", "dataset", lambda v: fuselab.save_dataset(v, NO_DIR)),
    "evaluate_merge.train_ds": ("dataset", "train_ds", lambda v: fuselab.evaluate_merge(
        IDENTITY, [A, B], v, DS, grid_size=3)),
    "select_gamma.eval_ds": ("dataset", "eval_ds", lambda v: fuselab.select_gamma(
        [0.1], [(A, B)], DS.features, v)),
    "analyze": ("model", "model", lambda v: fuselab.analyze([A, v], DS.features)),
}

NUMBERS = st.one_of(
    st.integers(-3, 5),
    st.floats(-5.0, 5.0),
    st.sampled_from([
        True, False, None, "x", "", "2", 1.5, 2.5, -0.0, 1e300, -1e300,
        math.nan, math.inf, -math.inf, np.int64(2), np.uint8(3),
        np.float32(0.5), np.float64(math.nan), [2], (), object(),
    ]),
)
ENTRY_VALUES = st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf])
)
ARRAYS = st.one_of(
    st.lists(st.integers(0, 4), max_size=3).flatmap(
        lambda shape: st.lists(
            ENTRY_VALUES, min_size=math.prod(shape), max_size=math.prod(shape)
        ).map(lambda xs: np.array(xs, dtype=np.float64).reshape(shape))
    ),
    st.sampled_from([
        None, "x", 3, 2.5, True, [], [[]], [["a", "b", "c"]] * 2,
        [[1.0, 2.0, 3.0], [1.0, 2.0]], [[1.0, None, 3.0]] * 2, [[[1.0]]],
        {"a": 1}, np.zeros((2, 3), dtype=np.int64), np.ones((3, 3), dtype=bool),
        np.array([2, 0, 1]), np.array([[1 + 2j, 0, 0]] * 3), [1j],
    ]),
)
# objects of every kind but the slot's own
OBJECTS = [None, "x", 3, 2.5, [], (), {"a": 1}, object(), np.zeros((2, 3)),
           A.layers[0], ACTS, [A], (A, B)]
OTHERS = {"model": [DS, PLAN, CONFIG], "dataset": [A, PLAN, CONFIG],
          "plan": [A, DS, CONFIG], "config": [A, DS, PLAN]}
# models of other widths, input counts and depths, and things that are not
# models, for the items of a list
ITEMS = [A, B, fuselab.init_model(3, (5,), 4, 2), fuselab.init_model(2, (4,), 4, 3),
         fuselab.init_model(3, (4, 4), 4, 4), DS, PLAN, CONFIG, None, "x",
         A.layers[0]]
HOSTILE = {
    "number": NUMBERS,
    "widths": st.one_of(NUMBERS, st.lists(NUMBERS, max_size=3).map(tuple)),
    "array": ARRAYS,
    **{kind: st.sampled_from(OBJECTS + others) for kind, others in OTHERS.items()},
    "models": st.one_of(
        st.sampled_from(OBJECTS + [DS, PLAN, CONFIG]),
        st.lists(st.sampled_from(ITEMS), max_size=4),
        st.lists(st.sampled_from(ITEMS), max_size=4).map(tuple),
    ),
}
ENTRIES.update({name: (kind, call) for name, (kind, _, call) in KIND_ENTRIES.items()})


@settings(max_examples=620, deadline=None)
@given(st.data())
def test_hostile_numbers_and_arrays_raise_fuselab_errors(data):
    kind, call = ENTRIES[data.draw(st.sampled_from(sorted(ENTRIES)), "entry")]
    value = data.draw(HOSTILE[kind], "value")
    try:
        call(value)
    except FuselabError:
        pass


@pytest.mark.parametrize("name", sorted(KIND_ENTRIES))
def test_wrong_kind_object_is_named(name):
    _, argument, call = KIND_ENTRIES[name]
    with pytest.raises(
        ValidationError, match=f"^{argument} must be of type [A-Za-z]+, got str$"
    ):
        call("x")
