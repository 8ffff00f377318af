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
from math import gcd
from operator import add
from typing import Iterator

from .errors import ValidationError
from .seeds import MASK64, mix64
from .trainplan import TrainingPlan


def epoch_seeds(epochs: int, base_seed: int) -> list[int]:
    """One reshuffle seed per epoch of the repeated target corpus.

    seed_i = mix64(base_seed, i) for i = 1..epochs. For a fixed base seed
    the values are pairwise distinct (the mixer is a bijection in the
    index); different base seeds in [0, 2**64) collide with probability ~2^-64
    per pair. A base seed outside that range would alias one inside it, so it
    raises ValidationError.
    """
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    if not 0 <= base_seed <= MASK64:
        raise ValidationError(f"base_seed must be in [0, 2**64), got {base_seed}")
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

    Fully determined by (training plan, base seed). A plan of more epochs than
    batches raises ValidationError before any seed is listed: its epochs are
    shorter than a batch, so no batch boundary could apply their seeds.
    """
    if plan.epochs > sum(plan.steps):
        raise ValidationError(
            f"{plan.epochs} epochs over {sum(plan.steps)} batches: an epoch is shorter"
            " than a batch, so no batch boundary can apply its reshuffle seed"
        )
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


_BLOCK_ROWS = 100
_SUFFIXES = [f"{k:02d}" for k in range(_BLOCK_ROWS)]


def schedule_csv(plan: TrainingPlan) -> str:
    """``schedule_rows`` as CSV text under a header, byte for byte as csv.writer writes it.

    csv.writer writes an int as ``str`` and a float as its ``repr``, and quotes
    none of these cells. A stage's source period gives it q row tails
    ``,stage,source,batch``. Its full rows are written in aligned blocks of
    ``_BLOCK_ROWS`` = 100: the indices 100·m … 100·m + 99, for m ≥ 1, all
    print as ``str(m)`` and then a two-digit suffix. A block's template is
    an empty piece, then its 100 rows without their prefix,
    ``NN,stage,source,batch``, so the block is ``str(m).join(template)``, one
    join per 100 rows. The template depends only on the phase of the period
    that the block starts at, and a stage's blocks take q / gcd(q, 100)
    phases in turn. When those are at most 100 the stage builds each
    template once, when a block first needs it, and keeps it for the later
    blocks: a grid stage (q ≤ 32) builds at most 8. A stage of more phases
    (off grid only) builds one template per block and keeps none.

    The full rows that no block holds are written one by one: the indices
    below 100 (block 0 would print ``00``) and a stage's unaligned head and
    tail, at most 199 rows per stage. A stage's last, partial row is written
    on its own.
    """
    batch = repr(float(plan.batch.global_batch_tokens))
    buf = io.StringIO()
    buf.write("batch_index,stage,source,tokens\n")
    for first, stage, period, full, last_source, last_tokens in _stage_runs(plan):
        q = len(period)
        end = first + full
        tails = [f",{stage},{source},{batch}\n" for source in period]
        # the blocks 100·m … 100·m + 99 that lie in first … end - 1, from index 100 on
        lo = min(max(_BLOCK_ROWS, -(-first // _BLOCK_ROWS) * _BLOCK_ROWS), end)
        hi = max(lo, end - end % _BLOCK_ROWS)
        blocks = range(lo // _BLOCK_ROWS, hi // _BLOCK_ROWS)
        ring = list(islice(cycle(tails), q + _BLOCK_ROWS))
        templates = (
            ["", *map(add, _SUFFIXES, ring[phase % q : phase % q + _BLOCK_ROWS])]
            for phase in range(lo - first, hi - first, _BLOCK_ROWS)
        )
        # the blocks take q / gcd(q, 100) phases in turn; keep at most 100 templates
        turns = q // gcd(q, _BLOCK_ROWS)
        if turns <= _BLOCK_ROWS:
            templates = cycle(islice(templates, turns))
        buf.writelines(f"{i}{tails[(i - first) % q]}" for i in range(first, lo))
        buf.writelines(map(str.join, map(str, blocks), templates))
        buf.writelines(f"{i}{tails[(i - first) % q]}" for i in range(hi, end))
        buf.write(f"{end},{stage},{last_source},{last_tokens!r}\n")
    return buf.getvalue()
