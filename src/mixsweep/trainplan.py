"""Concrete training plans: model shape, learning rate, batch size, stage budgets.

The shape ladder, the learning-rate and batch-size power laws, the
multi-step decay schedule and the optimizer constants together turn a
setup (a ``SetupSpec``) into an executable plan; a two-stage setup's stage
budgets follow its ``first_stage_share``. All rounding rules are fixed and
documented so plans are bit-reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .budget import cell_budgets
from .errors import ValidationError
from .space import SetupSpec

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


class _ShapeFields(NamedTuple):
    n_layers: int
    n_heads: int
    d_model: int
    seq_len: int


class ModelShape(_ShapeFields):
    """Transformer shape.

    Construction only checks positivity and head divisibility. The
    aspect-ratio bound [30, 150] is a property of the built-in ladder, not
    of the type, so exotic shapes can still be constructed to probe the
    batch-sizing rule's error branches.
    """

    __slots__ = ()

    def __new__(cls, n_layers: int, n_heads: int, d_model: int,
                seq_len: int = SEQ_LEN) -> ModelShape:
        if min(n_layers, n_heads, d_model, seq_len) <= 0:
            raise ValidationError("shape dimensions must be positive")
        if d_model % n_heads != 0:
            raise ValidationError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        return tuple.__new__(cls, (n_layers, n_heads, d_model, seq_len))

    @classmethod
    def _make(cls, iterable) -> ModelShape:
        return cls(*iterable)  # so ``_replace`` re-runs the checks

    @property
    def flops_per_token(self) -> int:
        return model_scale(self.n_layers, self.d_model, self.seq_len)

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
        raise ValidationError(
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


class BatchConfig(NamedTuple):
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
        raise ValidationError(
            f"complexity {complexity:.3g} >= {COMPLEXITY_THRESHOLDS[-1]:.3g}: "
            "batch rule undefined for this shape"
        )
    optimal_local = round_half_away(
        BATCH_COEFF * compute**BATCH_EXPONENT / (shape.seq_len * devices)
    )
    if optimal_local < 1:
        raise ValidationError(
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


class StageTokenBudget(NamedTuple):
    """Token budget for one stage; target + high == total by construction."""

    total_tokens: float
    target_tokens: float
    high_tokens: float
    ratio: Fraction


def _quantized_share(share, total: float) -> float:
    """``share * total`` snapped to a multiple of ulp(total).

    Snapping makes ``total - result`` exact in floating point (both
    operands are multiples of the same power-of-two quantum), which is
    what lets the complements below sum back exactly. A share in [0, 1]
    gives a result in [0, total].
    """
    quantum = math.ulp(total)
    return round(float(share) * total / quantum) * quantum


def _stage(raw_total: float, target: float, ratio: Fraction) -> StageTokenBudget:
    # a target-only stage holds no high tokens, whichever way its float total rounds;
    # another stage's total can round below its target only by a residue: clamp it
    high = 0.0 if ratio == 1 else max(raw_total - target, 0.0)
    # store the re-summed total so target + high == total holds exactly
    return StageTokenBudget(
        total_tokens=target + high,
        target_tokens=target,
        high_tokens=high,
        ratio=ratio,
    )


def stage_budgets(spec: SetupSpec, *,
                  high_available: float | None = None) -> list[StageTokenBudget]:
    """Split a setup's total tokens into per-stage target/high budgets.

    A two-stage setup gets two stages, at its ratios r1 and r2, and stage 1 takes
    ``spec.first_stage_share`` of the tokens; any other setup gets one stage.
    The sum of target tokens across stages equals epochs * target_tokens
    exactly: stage 1 takes its fractional share snapped to the budget's
    floating-point quantum and stage 2 the exact complement. Stage totals
    land within an ulp of their ideal share. High-resource tokens are
    never repeated; if ``high_available`` is given and the schedule needs
    more, this raises.
    """
    setup = spec.derived()
    f = setup.factors
    # epochs * target corpus: the D_T of f_D + f_k, scaled exactly from the reference constant
    _, target_total = cell_budgets(f.f_C, f.f_D + f.f_k)
    total = setup.total_tokens
    s1, r1, r2 = spec.first_stage_share, spec.first_stage_ratio, spec.second_stage_ratio
    if s1 is None:
        budgets = [_stage(total, target_total, setup.ratio)]
    else:
        # stage 1's exact share of the target-token budget
        target_1 = _quantized_share(s1 * r1 / setup.ratio, target_total)
        total_1 = float(s1) * total
        budgets = [
            _stage(total_1, target_1, r1),
            _stage(total - total_1, target_total - target_1, r2),
        ]
    if high_available is not None:
        if math.isnan(high_available):
            raise ValidationError("high_available must be a number, got nan")
        if high_available < 0:
            raise ValidationError(f"high_available must be >= 0, got {high_available:.6g}")
        needed = sum(b.high_tokens for b in budgets)
        if needed > high_available:
            raise ValidationError(
                f"schedule needs {needed:.6g} high-resource tokens, "
                f"only {high_available:.6g} declared available"
            )
    return budgets


class TrainingPlan(NamedTuple):
    """Everything needed to launch one training setup.

    ``stages`` are the per-stage token budgets, numbered from 1 by their
    position, and ``steps`` their step counts at the global batch. Steps round up so budgeted tokens are never
    dropped; the final partial batch is kept. Every stage runs the same LR
    schedule: warmup (``WARMUP_STEPS``) to the shared ``eta_max`` (each
    stage re-warms to the same peak), then the fixed ``MILESTONES`` decay.
    The stages' target tokens make ``epochs`` passes over the target corpus.
    """

    setup_id: str
    shape: ModelShape
    eta_max: float
    batch: BatchConfig
    stages: tuple[StageTokenBudget, ...]
    steps: tuple[int, ...]
    epochs: int
    warnings: tuple[str, ...] = ()


def build_training_plan(spec: SetupSpec, *, devices: int = DEFAULT_DEVICES,
                        high_available: float | None = None) -> TrainingPlan:
    """Assemble the full plan for a setup, two-stage if it has stage ratios.

    A stage shorter than the warmup is still emitted but flagged.
    """
    setup = spec.derived()
    shape = shape_for_factor(setup.factors.f_M)
    eta_max = learning_rate(setup.compute)
    batch = batch_config(setup.compute, shape, devices=devices)
    stages = tuple(stage_budgets(spec, high_available=high_available))
    steps = tuple(math.ceil(b.total_tokens / batch.global_batch_tokens) for b in stages)
    warnings = tuple(
        f"stage {index}: warmup-exceeds-stage ({n} steps < {WARMUP_STEPS} warmup)"
        for index, n in enumerate(steps, 1)
        if n < WARMUP_STEPS
    )
    return TrainingPlan(
        setup_id=spec.id,
        shape=shape,
        eta_max=eta_max,
        batch=batch,
        stages=stages,
        steps=steps,
        epochs=setup.epochs,
        warnings=warnings,
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
            "adam_betas": list(ADAM_BETAS),
            "adam_epsilon": ADAM_EPSILON,
            "weight_decay": WEIGHT_DECAY,
            "gradient_clip_norm": GRADIENT_CLIP_NORM,
            "init_std": INIT_STD,
        },
        "batch": plan.batch._asdict(),
        "stages": [
            {
                "index": index,
                "ratio": float(stage.ratio),
                "total_tokens": stage.total_tokens,
                "target_tokens": stage.target_tokens,
                "high_tokens": stage.high_tokens,
                "steps": steps,
                "lr_schedule": {
                    "eta_max": plan.eta_max,
                    "warmup_steps": WARMUP_STEPS,
                    "milestones": [list(m) for m in MILESTONES],
                    "per_stage": True,
                },
                "warmup_exceeds_stage": steps < WARMUP_STEPS,
            }
            for index, (stage, steps) in enumerate(zip(plan.stages, plan.steps), 1)
        ],
        "warnings": list(plan.warnings),
    }
