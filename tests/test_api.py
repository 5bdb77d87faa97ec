"""The package's public names, pinned.

Adding a name to `fuselab` or removing one must be a deliberate edit of
PUBLIC below (and a CHANGES.md note), not a side effect.
"""

import types

import fuselab

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
    "TransformKind",
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
