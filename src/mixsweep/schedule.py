"""Deterministic token-mixture schedules, read from a training plan.

A schedule is plan.json's ``schedule`` section plus the batch rows of the
schedule CSV. Both read the plan's stage budgets and step counts directly:
per-epoch reshuffle seeds for the repeated target corpus, and an
exact-ratio batch interleaving per stage.
"""

from __future__ import annotations

import io
from fractions import Fraction
from itertools import cycle, islice, repeat
from typing import Iterator

from .errors import ValidationError
from .seeds import mix64
from .trainplan import TrainingPlan


def epoch_seeds(epochs: int, base_seed: int) -> list[int]:
    """One reshuffle seed per epoch of the repeated target corpus.

    seed_i = mix64(base_seed, i) for i = 1..epochs. For a fixed base seed
    the values are pairwise distinct (the mixer is a bijection in the
    index); different base seeds collide with probability ~2^-64 per pair.
    """
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    return [mix64(base_seed, i) for i in range(1, epochs + 1)]


def targets_before(ratio: Fraction, n_batches: int) -> int:
    """Number of target batches among the first ``n_batches`` of a stage with this ratio.

    Error-diffusion interleaving of target and high-resource batches.
    Conceptually an accumulator gains ``ratio`` per batch and emits a
    target batch whenever it reaches 1/2 (then pays 1 back). That keeps
    the running deficit in (-1/2, 1/2], so any prefix of n batches holds
    within one batch of ratio*n target batches. This closed form
    evaluates any position independently in exact integer arithmetic.
    """
    p, q = ratio.numerator, ratio.denominator
    return (2 * n_batches * p + q) // (2 * q)


def source_at(ratio: Fraction, batch_index: int) -> str:
    """'target' or 'high' for the 0-based batch index (stateless)."""
    if targets_before(ratio, batch_index + 1) > targets_before(ratio, batch_index):
        return "target"
    return "high"


def build_schedule(plan: TrainingPlan, *, base_seed: int = 0) -> dict:
    """plan.json's ``schedule`` section (schema_version 1): epoch seeds over the plan's stages.

    Fully determined by (training plan, base seed).
    """
    batch = plan.batch.global_batch_tokens
    batches = sum(b.target_tokens for b in plan.stages) / batch
    return {
        "schema_version": 1,
        "setup_id": plan.setup_id,
        "epochs": plan.epochs,
        "base_seed": base_seed,
        "epoch_seeds": epoch_seeds(plan.epochs, base_seed),
        "trailing_partial_epoch": abs(batches - round(batches)) > 1e-9 * max(batches, 1.0),
        "stages": [
            {
                "index": index,
                "total_tokens": budget.total_tokens,
                "target_tokens": budget.target_tokens,
                "high_tokens": budget.high_tokens,
                "ratio": float(budget.ratio),
                "ratio_frac": str(budget.ratio),
                "interleave": {
                    "ratio": float(budget.ratio),
                    "ratio_frac": str(budget.ratio),
                    "batch_tokens": batch,
                },
            }
            for index, budget in enumerate(plan.stages, 1)
        ],
    }


def _stage_runs(plan: TrainingPlan) -> Iterator[tuple[int, int, list[str], int, str, float]]:
    """Per stage with batches: (first index, stage, period, full, last source, last tokens).

    Each stage runs for its ``plan.steps`` batches: ``full`` whole batches,
    then one last row that holds the rest of the stage's tokens, so per-stage
    token sums reproduce the budgets exactly. A zero-token stage has no run.
    A stage's number is its 1-based position in ``plan.stages``.

    A stage's sources repeat with period q, the denominator of its ratio
    p/q: ``targets_before(n + q) == targets_before(n) + p``, so
    ``source_at(i + q) == source_at(i)``. Each stage therefore evaluates
    at most q sources, and batch i takes ``period[i % len(period)]``.
    """
    batch = plan.batch.global_batch_tokens
    index = 0
    for stage, (budget, n_batches) in enumerate(zip(plan.stages, plan.steps), 1):
        if n_batches == 0:
            continue
        ratio = budget.ratio
        period = [source_at(ratio, i) for i in range(min(ratio.denominator, n_batches))]
        full = n_batches - 1
        yield (
            index,
            stage,
            period,
            full,
            period[full % len(period)],
            budget.total_tokens - batch * full,
        )
        index += n_batches


def schedule_rows(plan: TrainingPlan) -> Iterator[tuple[int, int, str, float]]:
    """Expanded (batch_index, stage, source, tokens) rows.

    Each stage's full batches cycle its source period; its last batch may be
    partial (see ``_stage_runs``).
    """
    batch = float(plan.batch.global_batch_tokens)
    for first, stage, period, full, last_source, last_tokens in _stage_runs(plan):
        yield from zip(
            range(first, first + full), repeat(stage), islice(cycle(period), full), repeat(batch)
        )
        yield (first + full, stage, last_source, last_tokens)


def schedule_csv(plan: TrainingPlan) -> str:
    """``schedule_rows`` as CSV text under a header, byte for byte as csv.writer writes it.

    csv.writer writes an int as ``str`` and a float as its ``repr``, and quotes
    none of these cells. So each stage builds its q line tails once, and a
    full row is its index joined to the next tail.
    """
    batch = repr(float(plan.batch.global_batch_tokens))
    buf = io.StringIO()
    buf.write("batch_index,stage,source,tokens\n")
    for first, stage, period, full, last_source, last_tokens in _stage_runs(plan):
        tails = [f",{stage},{source},{batch}\n" for source in period]
        buf.writelines(
            map(str.__add__, map(str, range(first, first + full)), islice(cycle(tails), full))
        )
        buf.write(f"{first + full},{stage},{last_source},{last_tokens!r}\n")
    return buf.getvalue()
