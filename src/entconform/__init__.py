"""Conformal prediction sets from sparse activations.

Calibrates rank-gap non-conformity scores so that split conformal
prediction sets coincide with the support of temperature-scaled
gamma-entmax transformations, and evaluates them against standard
baselines (inverse probability, RAPS) on coverage, efficiency, and
adaptiveness.
"""

from .activations import entmax
from .conformal import (
    CalibratedPredictor,
    LabeledLogitDataset,
    PredictionSet,
    calibrate,
    conformal_quantile,
    predict_sets,
    set_masks,
    support_sets_via_entmax,
)
from .errors import (
    DimensionMismatch,
    EmptyCalibration,
    EmptyRun,
    EntconformError,
    InconsistentWidth,
    InsufficientData,
    InvalidFractions,
    InvalidGamma,
    InvalidInput,
    IoError,
    LabelOutOfRange,
    NonConvergence,
    ParseError,
    ValidationError,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    MethodSpec,
    emit_plot_data,
    load_dataset,
    run_experiment,
    run_sweep,
    write_report,
)
from .metrics import (
    EvaluationRun,
    MetricsReport,
    SizeBins,
    avg_set_size,
    compute_report,
    empirical_coverage,
    singleton_stats,
    size_stratified_coverage,
)
from .scores import (
    RapsParams,
    ScoreKind,
    all_label_scores,
    true_label_scores,
)
from .tuning import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_K_GRID,
    DEFAULT_LAMBDA_GRID,
    SplitSpec,
    TuningResult,
    split,
    tune_gamma,
    tune_raps,
)

__version__ = "0.1.0"
