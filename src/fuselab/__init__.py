"""fuselab: merge independently trained MLPs by aligning hidden features.

The pieces: synthetic data generation and split protocols, an SGD trainer,
activation statistics, three alignment methods (identity, permutation
matching, canonical correlation), parameter-average merging with an
optional statistics reset, interpolation-barrier evaluation, and matching
diagnostics. The `fuselab` CLI stitches them into experiments.
"""

from .activations import (
    ActivationMatrix,
    CorrelationMatrix,
    ScatterStats,
    capture,
    correlations,
    scatter,
)
from .analysis import (
    AnalysisReport,
    analyze,
    coefficient_distribution_ratio,
    indirect_matching_diagnostics,
    non_optimal_matches,
    topk_coefficient_coverage,
    wasserstein_1d,
)
from .cca import (
    CcaSolution,
    LayerAlignmentSummary,
    build_transform,
    cca_plan,
    default_gamma,
    inv_sqrt,
    solve_cca,
    solve_layers,
)
from .datagen import (
    Dataset,
    SplitKind,
    SplitSpec,
    generate,
    load_dataset,
    save_dataset,
    split,
)
from .errors import (
    ConfigurationError,
    FuselabError,
    GammaSelectionError,
    NumericalError,
    ParseError,
    ShapeError,
    TrainingDivergedError,
    ValidationError,
)
from .evaluation import (
    BarrierCurve,
    MergeReport,
    accuracy,
    ensemble_accuracy,
    evaluate_merge,
    interpolation_curve,
    merge_and_report,
)
from .matching import Assignment, identity_plan, linear_sum_assignment, permute_plan
from .merge import (
    SkippedNeuron,
    align,
    average_models,
    merge_many,
    merge_pair,
    repair_reset,
    select_gamma,
)
from .reports import format_report, parse_report, strip_timestamp, write_report
from .model import (
    Activation,
    AlignmentPlan,
    DenseLayer,
    LayerTransform,
    MethodTag,
    MlpModel,
    apply_plan,
    forward,
    load_model,
    save_model,
)
from .trainer import (TrainConfig, cross_entropy_accuracy, init_model,
                      seeds_for, train, train_many)

__version__ = "0.1.0"
