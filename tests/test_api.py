"""The package's public names, pinned, and its input contract.

Adding a name to `fuselab` or removing one must be a deliberate edit of
PUBLIC below (and a CHANGES.md note), not a side effect.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuselab
from fuselab import ConfigurationError, FuselabError, ShapeError, ValidationError

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
# Every public entry point that takes a number or an array either returns or
# raises a FuselabError: a wrong kind, a value out of range, a wrong ndim or a
# non-finite entry never ends in a raw numpy or Python error.

DS = fuselab.generate(4, 3, 3, seed=0)
A, B = (fuselab.init_model(3, (4,), 4, seed) for seed in (0, 1))
C = np.eye(3)
ACTS = fuselab.capture(A, DS.features)[0]
IDENTITY = fuselab.MethodTag.IDENTITY
RELU = fuselab.Activation.RELU
DIRICHLET = fuselab.SplitKind.DIRICHLET

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
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_hostile_call_raises_its_fuselab_error(name):
    call, error = PINNED[name]
    with pytest.raises(error):
        call()


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
    "capture": ("array", lambda v: fuselab.capture(A, v)),
    "forward": ("array", lambda v: fuselab.forward(A, v)),
    "permute_plan": ("array", lambda v: fuselab.permute_plan(A, B, v)),
    "cca_plan": ("array", lambda v: fuselab.cca_plan(A, B, v)),
    "repair_reset": ("array", lambda v: fuselab.repair_reset(A, A, v)),
    "analyze": ("array", lambda v: fuselab.analyze([A, B], v)),
    "DenseLayer.weights": (
        "array", lambda v: fuselab.DenseLayer(v, [0.0], RELU)),
    "DenseLayer.bias": (
        "array", lambda v: fuselab.DenseLayer([[1.0]], v, RELU)),
    "LayerTransform": ("array", lambda v: fuselab.LayerTransform(v, v, 0)),
    "LayerTransform.general": (
        "array", lambda v: fuselab.LayerTransform.general(v, 0)),
    "linear_sum_assignment": (
        "array", lambda v: fuselab.linear_sum_assignment(v)),
    "wasserstein_1d": ("array", lambda v: fuselab.wasserstein_1d(v, [1.0])),
    "ActivationMatrix.values": (
        "array", lambda v: fuselab.ActivationMatrix(v, [0.0], 0, 1)),
    "ActivationMatrix.column_means": (
        "array", lambda v: fuselab.ActivationMatrix([[0.0]], v, 0, 1)),
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
    ]),
)
HOSTILE = {
    "number": NUMBERS,
    "widths": st.one_of(NUMBERS, st.lists(NUMBERS, max_size=3).map(tuple)),
    "array": ARRAYS,
}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_hostile_numbers_and_arrays_raise_fuselab_errors(data):
    kind, call = ENTRIES[data.draw(st.sampled_from(sorted(ENTRIES)), "entry")]
    value = data.draw(HOSTILE[kind], "value")
    try:
        call(value)
    except FuselabError:
        pass
