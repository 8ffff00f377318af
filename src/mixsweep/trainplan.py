"""Concrete training plans: model shape, learning rate, batch size, LR schedule.

The shape ladder, the learning-rate and batch-size power laws, the
multi-step decay schedule and the optimizer constants together turn a
derived setup into an executable plan. All rounding rules are fixed and
documented so plans are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import schedule as schedule_mod
from .budget import DerivedSetup, StageSplit
from .errors import (
    MinimumBatchError,
    UnsupportedModelError,
    UnsupportedScaleError,
    ValidationError,
)

#: Fixed sequence length in tokens.
SEQ_LEN = 4096

#: Default number of training devices. The batch-sizing rule below
#: reproduces an 8-device recipe; override per deployment.
DEFAULT_DEVICES = 8

#: Learning-rate power law: eta_max = coeff * compute^exponent.
LR_COEFF = 0.3118
LR_EXPONENT = -0.1250

#: Batch-size power law (sequences across all devices before rounding):
#: optimal = coeff * compute^exponent / (seq_len * devices).
BATCH_COEFF = 0.292
BATCH_EXPONENT = 0.3271

#: Per-device batch by model complexity (n_layers * d_model^2): the rule is
#: undefined at or above the last threshold.
COMPLEXITY_THRESHOLDS = (0.1e8, 0.5e8, 1.1e8)
LOCAL_BATCH_BY_THRESHOLD = (4, 2, 1)

#: LR schedule: decay multipliers applied after these fractions of a stage.
MILESTONES = ((0.8, 0.316), (0.9, 0.1))
WARMUP_STEPS = 500

#: Optimizer and initialization constants shared by every plan.
ADAM_BETAS = (0.9, 0.95)
ADAM_EPSILON = 1e-8
WEIGHT_DECAY = 0.1
GRADIENT_CLIP_NORM = 1.0
INIT_STD = 0.006


def model_scale(n_layers: int, d_model: int, seq_len: int) -> int:
    """Non-embedding FLOPs per token: 72*n*d^2 + 12*n*d*seq_len (exact integer)."""
    return 72 * n_layers * d_model * d_model + 12 * n_layers * d_model * seq_len


@dataclass(frozen=True, slots=True)
class ModelShape:
    """Transformer shape.

    Construction only checks positivity and head divisibility. The
    aspect-ratio bound [30, 150] is a property of the built-in ladder, not
    of the type, so exotic shapes can still be constructed to probe the
    batch-sizing rule's error branches.
    """

    n_layers: int
    n_heads: int
    d_model: int
    seq_len: int = SEQ_LEN

    def __post_init__(self) -> None:
        if min(self.n_layers, self.n_heads, self.d_model, self.seq_len) <= 0:
            raise ValidationError("shape dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValidationError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def flops_per_token(self) -> int:
        return model_scale(self.n_layers, self.d_model, self.seq_len)

    @property
    def aspect_ratio(self) -> float:
        return self.d_model / self.n_layers

    @property
    def complexity(self) -> int:
        """Batch-rule complexity measure: n_layers * d_model^2."""
        return self.n_layers * self.d_model * self.d_model


#: Shape ladder keyed by the model-scale factor f_M; each step roughly
#: halves FLOPs/token while keeping the aspect ratio inside [30, 150].
SHAPE_LADDER: dict[int, ModelShape] = {
    -1: ModelShape(n_layers=16, n_heads=39, d_model=624),
    0: ModelShape(n_layers=8, n_heads=39, d_model=624),
    1: ModelShape(n_layers=8, n_heads=12, d_model=384),
    2: ModelShape(n_layers=4, n_heads=12, d_model=384),
    3: ModelShape(n_layers=4, n_heads=7, d_model=224),
    4: ModelShape(n_layers=4, n_heads=4, d_model=128),
    5: ModelShape(n_layers=2, n_heads=4, d_model=128),
}


def shape_for_factor(f_M: int) -> ModelShape:
    """Ladder shape for a model-scale factor; errors outside the ladder."""
    try:
        return SHAPE_LADDER[f_M]
    except KeyError:
        supported = sorted(SHAPE_LADDER)
        raise UnsupportedScaleError(
            f"f_M={f_M} outside the shape ladder [{supported[0]}, {supported[-1]}]"
        ) from None


def learning_rate(compute: float) -> float:
    """Maximum learning rate for a compute budget (power law in FLOPs)."""
    if compute <= 0:
        raise ValidationError(f"compute must be positive, got {compute}")
    return LR_COEFF * compute**LR_EXPONENT


def round_half_away(value: float) -> int:
    """Round to nearest with halves away from zero (fixed rule: 1.5 -> 2, -1.5 -> -2)."""
    if value >= 0:
        return math.floor(value + 0.5)
    return math.ceil(value - 0.5)


@dataclass(frozen=True, slots=True)
class BatchConfig:
    """Sequences per device, accumulation steps and the resulting global batch."""

    local_batch: int
    devices: int
    accumulation: int
    global_batch_seqs: int
    global_batch_tokens: int


def batch_config(compute: float, shape: ModelShape, devices: int = DEFAULT_DEVICES) -> BatchConfig:
    """Batch sizing rule.

    Complexity thresholds pick the per-device batch that fits in memory;
    the power law picks the throughput-optimal per-device batch; the gap
    between the two becomes gradient accumulation. With the default device
    count this reproduces the 8-device recipe exactly.
    """
    if isinstance(devices, bool) or not isinstance(devices, int) or devices < 1:
        raise ValidationError(f"devices must be a positive integer, got {devices!r}")
    complexity = shape.complexity
    local_batch = 0
    for threshold, local in zip(COMPLEXITY_THRESHOLDS, LOCAL_BATCH_BY_THRESHOLD):
        if complexity < threshold:
            local_batch = local
            break
    else:
        raise UnsupportedModelError(
            f"complexity {complexity:.3g} >= {COMPLEXITY_THRESHOLDS[-1]:.3g}: "
            "batch rule undefined for this shape"
        )
    optimal_local = round_half_away(
        BATCH_COEFF * compute**BATCH_EXPONENT / (shape.seq_len * devices)
    )
    if optimal_local < 1:
        raise MinimumBatchError(
            f"optimal per-device batch rounds to {optimal_local} at compute {compute:.3g}"
        )
    if optimal_local < local_batch:
        local_batch = optimal_local
        accumulation = 1
    else:
        accumulation = round_half_away(optimal_local / local_batch)
    seqs = local_batch * devices * accumulation
    return BatchConfig(
        local_batch=local_batch,
        devices=devices,
        accumulation=accumulation,
        global_batch_seqs=seqs,
        global_batch_tokens=seqs * shape.seq_len,
    )


@dataclass(frozen=True, slots=True)
class LRSchedule:
    """Warmup plus multi-step decay, instantiated per stage.

    The decay points and multipliers are part of the recipe and fixed:
    31.6% after 80% of the stage's steps, 10% after 90%.
    """

    eta_max: float
    warmup_steps: int = WARMUP_STEPS
    milestones: tuple[tuple[float, float], ...] = MILESTONES
    per_stage: bool = True

    def __post_init__(self) -> None:
        if self.milestones != MILESTONES:
            raise ValidationError(f"milestones are fixed to {MILESTONES}")


@dataclass(frozen=True, slots=True)
class StagePlan:
    """Token budget, step count and LR schedule for one training stage."""

    index: int
    ratio: float
    total_tokens: float
    target_tokens: float
    high_tokens: float
    steps: int
    lr: LRSchedule
    warmup_exceeds_stage: bool


@dataclass(frozen=True, slots=True)
class TrainingPlan:
    """Everything needed to launch one training setup.

    ``eta_max`` is shared by all stages (each stage re-warms to the same
    peak). Steps round up so budgeted tokens are never dropped; the final
    partial batch is kept.
    """

    setup_id: str
    shape: ModelShape
    eta_max: float
    batch: BatchConfig
    stages: tuple[StagePlan, ...]
    adam_betas: tuple[float, float] = ADAM_BETAS
    adam_epsilon: float = ADAM_EPSILON
    weight_decay: float = WEIGHT_DECAY
    gradient_clip_norm: float = GRADIENT_CLIP_NORM
    init_std: float = INIT_STD
    warnings: tuple[str, ...] = ()


def build_training_plan(
    setup: DerivedSetup,
    split: StageSplit | None = None,
    *,
    devices: int = DEFAULT_DEVICES,
    setup_id: str = "",
    high_available: float | None = None,
) -> TrainingPlan:
    """Assemble the full plan for a derived setup (optionally two-stage).

    Stage token budgets come from the mixture-schedule module; a stage
    shorter than the warmup is still emitted but flagged.
    """
    shape = shape_for_factor(setup.factors.f_M)
    eta_max = learning_rate(setup.compute)
    batch = batch_config(setup.compute, shape, devices=devices)
    budgets = schedule_mod.stage_budgets(setup, split, high_available=high_available)
    stages: list[StagePlan] = []
    warnings: list[str] = []
    for budget in budgets:
        steps = math.ceil(budget.total_tokens / batch.global_batch_tokens)
        short = steps < WARMUP_STEPS
        if short:
            warnings.append(
                f"stage {budget.stage_index}: warmup-exceeds-stage "
                f"({steps} steps < {WARMUP_STEPS} warmup)"
            )
        stages.append(
            StagePlan(
                index=budget.stage_index,
                ratio=float(budget.ratio),
                total_tokens=budget.total_tokens,
                target_tokens=budget.target_tokens,
                high_tokens=budget.high_tokens,
                steps=steps,
                lr=LRSchedule(eta_max=eta_max),
                warmup_exceeds_stage=short,
            )
        )
    return TrainingPlan(
        setup_id=setup_id,
        shape=shape,
        eta_max=eta_max,
        batch=batch,
        stages=tuple(stages),
        warnings=tuple(warnings),
    )


def plan_to_wire(plan: TrainingPlan) -> dict:
    """JSON-ready dict for a plan (schema_version 1)."""
    return {
        "schema_version": 1,
        "setup_id": plan.setup_id,
        "model_shape": {
            "n_layers": plan.shape.n_layers,
            "n_heads": plan.shape.n_heads,
            "d_model": plan.shape.d_model,
            "seq_len": plan.shape.seq_len,
            "flops_per_token": plan.shape.flops_per_token,
        },
        "optimizer": {
            "eta_max": plan.eta_max,
            "adam_betas": list(plan.adam_betas),
            "adam_epsilon": plan.adam_epsilon,
            "weight_decay": plan.weight_decay,
            "gradient_clip_norm": plan.gradient_clip_norm,
            "init_std": plan.init_std,
        },
        "batch": {
            "local_batch": plan.batch.local_batch,
            "devices": plan.batch.devices,
            "accumulation": plan.batch.accumulation,
            "global_batch_seqs": plan.batch.global_batch_seqs,
            "global_batch_tokens": plan.batch.global_batch_tokens,
        },
        "stages": [
            {
                "index": stage.index,
                "ratio": stage.ratio,
                "total_tokens": stage.total_tokens,
                "target_tokens": stage.target_tokens,
                "high_tokens": stage.high_tokens,
                "steps": stage.steps,
                "lr_schedule": {
                    "eta_max": stage.lr.eta_max,
                    "warmup_steps": stage.lr.warmup_steps,
                    "milestones": [list(m) for m in stage.lr.milestones],
                    "per_stage": stage.lr.per_stage,
                },
                "warmup_exceeds_stage": stage.warmup_exceeds_stage,
            }
            for stage in plan.stages
        ],
        "warnings": list(plan.warnings),
    }
