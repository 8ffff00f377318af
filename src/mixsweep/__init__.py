"""mixsweep: planner and analyzer for low-resource-language LLM pretraining sweeps.

Enumerates a factor-parametrized grid of training setups, derives concrete
training plans and token-mixture schedules, ingests measured validation
losses, and fits the models used to recommend setups for a given compute
and corpus budget.
"""

from .budget import (
    DerivedSetup,
    FactorTuple,
    ReferenceConstants,
    StageSplit,
    derive_single_stage,
    reference_constants,
    stage_split,
)
from .space import (
    SearchRanges,
    SetupSpec,
    default_ranges,
    enumerate_all,
    enumerate_single_stage,
    enumerate_two_stage,
)
from .trainplan import (
    BatchConfig,
    ModelShape,
    StageTokenBudget,
    TrainingPlan,
    batch_config,
    build_training_plan,
    learning_rate,
    model_scale,
    shape_for_factor,
    stage_budgets,
)
from .schedule import (
    InterleavePattern,
    ScheduleSpec,
    build_schedule,
    epoch_seeds,
    interleave_pattern,
)
from .analysis import (
    CategoryMinima,
    ComputeOptimalEstimate,
    LossRecord,
    ResultSet,
    ThresholdReport,
    category_minima,
    detect_threshold,
    estimate_compute_optimal,
    ingest,
    optimal_scale_table,
)
from .fitting import (
    KStarModel,
    QuadraticEpochFit,
    RatioPowerLawFit,
    fit_epoch_quadratic,
    fit_kstar_model,
    fit_ratio_power_law,
    predict_kstar,
)
from .surrogate import SurrogateParams, composite_loss, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "BatchConfig",
    "CategoryMinima",
    "ComputeOptimalEstimate",
    "DerivedSetup",
    "FactorTuple",
    "InterleavePattern",
    "KStarModel",
    "LossRecord",
    "ModelShape",
    "QuadraticEpochFit",
    "RatioPowerLawFit",
    "ReferenceConstants",
    "ResultSet",
    "ScheduleSpec",
    "SearchRanges",
    "SetupSpec",
    "StageSplit",
    "StageTokenBudget",
    "SurrogateParams",
    "ThresholdReport",
    "TrainingPlan",
    "batch_config",
    "build_schedule",
    "build_training_plan",
    "category_minima",
    "composite_loss",
    "default_ranges",
    "derive_single_stage",
    "detect_threshold",
    "enumerate_all",
    "enumerate_single_stage",
    "enumerate_two_stage",
    "epoch_seeds",
    "estimate_compute_optimal",
    "fit_epoch_quadratic",
    "fit_kstar_model",
    "fit_ratio_power_law",
    "generate_dataset",
    "ingest",
    "interleave_pattern",
    "learning_rate",
    "model_scale",
    "optimal_scale_table",
    "predict_kstar",
    "reference_constants",
    "shape_for_factor",
    "stage_budgets",
    "stage_split",
]
