"""Deterministic token-mixture schedules.

Produces per-stage target/high-resource token budgets, per-epoch reshuffle
seeds for the repeated target corpus, and an exact-ratio batch
interleaving pattern. Budgets use complement arithmetic (stage 2 = total
minus stage 1) so the accounting identities hold exactly in floating
point, not just approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice, repeat
from typing import TYPE_CHECKING, Iterator

from .budget import DerivedSetup, StageSplit, as_fraction, reference_constants
from .errors import InsufficientCorpusError, ValidationError
from .seeds import mix64

if TYPE_CHECKING:  # trainplan imports this module
    from .trainplan import TrainingPlan


@dataclass(frozen=True, slots=True)
class StageTokenBudget:
    """Token budget for one stage; target + high == total by construction."""

    stage_index: int
    total_tokens: float
    target_tokens: float
    high_tokens: float
    ratio: Fraction


def _quantized_share(share, total: float) -> float:
    """``share * total`` snapped to a multiple of ulp(total).

    Snapping makes ``total - result`` exact in floating point (both
    operands are multiples of the same power-of-two quantum), which is
    what lets the complements below sum back exactly.
    """
    if total == 0.0:
        return 0.0
    quantum = math.ulp(total)
    steps = round(float(share) * total / quantum)
    return min(max(steps, 0), round(total / quantum)) * quantum


def _stage(index: int, raw_total: float, target: float, ratio: Fraction) -> StageTokenBudget:
    high = raw_total - target
    # store the re-summed total so target + high == total holds exactly
    return StageTokenBudget(
        stage_index=index,
        total_tokens=target + high,
        target_tokens=target,
        high_tokens=high,
        ratio=ratio,
    )


def stage_budgets(
    setup: DerivedSetup,
    split: StageSplit | None = None,
    *,
    high_available: float | None = None,
) -> list[StageTokenBudget]:
    """Split a setup's total tokens into per-stage target/high budgets.

    The sum of target tokens across stages equals epochs * target_tokens
    exactly: stage 1 takes its fractional share snapped to the budget's
    floating-point quantum and stage 2 the exact complement. Stage totals
    land within an ulp of their ideal share. High-resource tokens are
    never repeated; if ``high_available`` is given and the schedule needs
    more, this raises.
    """
    ref = reference_constants()
    f = setup.factors
    # epochs * target corpus, scaled exactly from the reference constant
    target_total = math.ldexp(ref.target_tokens, f.f_D + f.f_k)
    total = setup.total_tokens
    if split is None:
        budgets = [_stage(1, total, target_total, setup.ratio)]
    else:
        # stage 1's exact share of the target-token budget
        share = split.first_length * split.first_ratio / setup.ratio
        target_1 = _quantized_share(share, target_total)
        target_2 = target_total - target_1
        total_1 = float(split.first_length) * total
        budgets = [
            _stage(1, total_1, target_1, split.first_ratio),
            _stage(2, total - total_1, target_2, split.second_ratio),
        ]
    if high_available is not None:
        if math.isnan(high_available):
            raise ValidationError("high_available must be a number, got nan")
        needed = sum(b.high_tokens for b in budgets)
        if needed > high_available:
            raise InsufficientCorpusError(
                f"schedule needs {needed:.6g} high-resource tokens, "
                f"only {high_available:.6g} declared available"
            )
    return budgets


def epoch_seeds(epochs: int, base_seed: int) -> list[int]:
    """One reshuffle seed per epoch of the repeated target corpus.

    seed_i = mix64(base_seed, i) for i = 1..epochs. For a fixed base seed
    the values are pairwise distinct (the mixer is a bijection in the
    index); different base seeds collide with probability ~2^-64 per pair.
    """
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    return [mix64(base_seed, i) for i in range(1, epochs + 1)]


@dataclass(frozen=True, slots=True)
class InterleavePattern:
    """Error-diffusion interleaving of target and high-resource batches.

    Conceptually an accumulator gains ``ratio`` per batch and emits a
    target batch whenever it reaches 1/2 (then pays 1 back). That keeps
    the running deficit in (-1/2, 1/2], so any prefix of n batches holds
    within one batch of ratio*n target batches. The closed form below
    evaluates any position independently in exact integer arithmetic.
    """

    ratio: Fraction
    batch_tokens: int

    def targets_before(self, n_batches: int) -> int:
        """Number of target batches among the first ``n_batches``."""
        p, q = self.ratio.numerator, self.ratio.denominator
        return (2 * n_batches * p + q) // (2 * q)

    def source_at(self, batch_index: int) -> str:
        """'target' or 'high' for the 0-based batch index (stateless)."""
        if self.targets_before(batch_index + 1) > self.targets_before(batch_index):
            return "target"
        return "high"


def interleave_pattern(stage_ratio, global_batch_tokens: int) -> InterleavePattern:
    """Pattern descriptor for one stage's ratio at batch granularity."""
    ratio = as_fraction(stage_ratio)
    if not 0 <= ratio <= 1:
        raise ValidationError(f"stage ratio must be in [0, 1], got {ratio}")
    if global_batch_tokens <= 0:
        raise ValidationError("global_batch_tokens must be positive")
    return InterleavePattern(ratio=ratio, batch_tokens=global_batch_tokens)


@dataclass(frozen=True, slots=True)
class ScheduleSpec:
    """Complete mixture schedule for one setup.

    Fully determined by (training plan, epochs, base seed); re-building
    with the same inputs yields byte-identical serializations.
    """

    setup_id: str
    budgets: tuple[StageTokenBudget, ...]
    epochs: int
    base_seed: int
    seeds: tuple[int, ...]
    patterns: tuple[InterleavePattern, ...]
    trailing_partial_epoch: bool


def build_schedule(plan: TrainingPlan, *, epochs: int, base_seed: int = 0) -> ScheduleSpec:
    """Epoch seeds and per-stage interleave patterns over the plan's stage budgets."""
    batch_tokens = plan.batch.global_batch_tokens
    patterns = tuple(interleave_pattern(b.ratio, batch_tokens) for b in plan.stages)
    batches = sum(b.target_tokens for b in plan.stages) / batch_tokens
    partial = abs(batches - round(batches)) > 1e-9 * max(batches, 1.0)
    return ScheduleSpec(
        setup_id=plan.setup_id,
        budgets=plan.stages,
        epochs=epochs,
        base_seed=base_seed,
        seeds=tuple(epoch_seeds(epochs, base_seed)),
        patterns=patterns,
        trailing_partial_epoch=partial,
    )


def schedule_rows(spec: ScheduleSpec) -> Iterator[tuple[int, int, str, float]]:
    """Expanded (batch_index, stage, source, tokens) rows.

    The final batch of each stage may be partial; tokens are never
    dropped, so per-stage token sums reproduce the budgets exactly.

    A stage's sources repeat with period q, the denominator of its ratio
    p/q: ``targets_before(n + q) == targets_before(n) + p``, so
    ``source_at(i + q) == source_at(i)``. Each stage therefore evaluates
    at most q sources and cycles them over its full batches.
    """
    index = 0
    for budget, pattern in zip(spec.budgets, spec.patterns):
        batch = pattern.batch_tokens
        n_batches = math.ceil(budget.total_tokens / batch)
        if n_batches == 0:
            continue
        period = [
            pattern.source_at(i) for i in range(min(pattern.ratio.denominator, n_batches))
        ]
        full = n_batches - 1
        yield from zip(
            range(index, index + full),
            repeat(budget.stage_index),
            islice(cycle(period), full),
            repeat(float(batch)),
        )
        index += full
        yield (
            index,
            budget.stage_index,
            period[full % len(period)],
            budget.total_tokens - batch * full,
        )
        index += 1


def schedule_to_wire(spec: ScheduleSpec) -> dict:
    """JSON-ready dict for a schedule (schema_version 1)."""
    return {
        "schema_version": 1,
        "setup_id": spec.setup_id,
        "epochs": spec.epochs,
        "base_seed": spec.base_seed,
        "epoch_seeds": list(spec.seeds),
        "trailing_partial_epoch": spec.trailing_partial_epoch,
        "stages": [
            {
                "index": budget.stage_index,
                "total_tokens": budget.total_tokens,
                "target_tokens": budget.target_tokens,
                "high_tokens": budget.high_tokens,
                "ratio": float(budget.ratio),
                "ratio_frac": str(budget.ratio),
                "interleave": {
                    "ratio": float(pattern.ratio),
                    "ratio_frac": str(pattern.ratio),
                    "batch_tokens": pattern.batch_tokens,
                },
            }
            for budget, pattern in zip(spec.budgets, spec.patterns)
        ],
    }
