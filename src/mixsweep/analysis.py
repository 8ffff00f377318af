"""Ingestion of loss measurements and the sweep analyses built on them.

Analyses: per-budget category minima over the nested approach categories,
the compute-optimal corpus estimate, the approach-switch threshold scan,
the optimal-model-scale table, and the epoch and ratio fits' input points.
Everything is a deterministic function of the validated result set; ties
break toward fewer epochs, then the smaller model-scale factor, then the
lexicographically smaller id.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Callable, Hashable, Iterable, Iterator

from .budget import reference_constants
from .errors import (INPUT_ERRORS, FileFormatError, InsufficientDataError, ValidationError,
                     input_message)
from .space import (
    APPROACH_MONO_1STAGE,
    APPROACH_MULTI_1STAGE,
    APPROACH_MULTI_2STAGE,
    APPROACHES,
    SetupSpec,
    in_category,
)

RESULTS_HEADER = ("setup_id", "language_pair", "val_loss")


@dataclass(frozen=True, slots=True)
class LossRecord:
    """One measured validation loss (nats/token) for a setup and language pair."""

    setup_id: str
    language_pair: str
    val_loss: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.val_loss) or self.val_loss <= 0:
            raise ValidationError(
                f"val_loss must be positive and finite, got {self.val_loss!r}"
            )


def read_results_csv(fp: IO[str]) -> Iterator[LossRecord]:
    """Parse a results CSV with header 'setup_id,language_pair,val_loss'.

    Malformed rows (a field past the csv module's size limit too) and non-positive
    losses raise with the file line number.
    """
    reader = csv.reader(fp)
    try:
        header = next(reader)
    except StopIteration:
        raise FileFormatError("empty results file (missing header)") from None
    if tuple(h.strip() for h in header) != RESULTS_HEADER:
        raise FileFormatError(
            f"bad header {header!r}, expected {','.join(RESULTS_HEADER)}"
        )
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise FileFormatError(f"expected 3 fields, got {len(row)}")
            setup_id, pair, raw_loss = (field.strip() for field in row)
            try:
                loss = float(raw_loss)
            except ValueError:
                raise FileFormatError(f"val_loss {raw_loss!r} is not a number") from None
            yield LossRecord(setup_id=setup_id, language_pair=pair, val_loss=loss)
    except UnicodeDecodeError:  # raised while decoding a block of lines: no line to name
        raise
    except (*INPUT_ERRORS, csv.Error) as exc:
        raise FileFormatError(f"line {reader.line_num}: {input_message(exc)}") from exc


@dataclass(frozen=True)
class IngestSummary:
    """What happened during ingestion.

    ``rejected_unknown`` holds (position, setup_id) pairs where position is
    the 1-based record index in the input stream; for CSV input the file
    line is position + 1 (header). ``duplicates`` maps (setup_id, pair) to
    the number of extra measurements reduced away (minimum kept).
    """

    n_input: int
    n_records: int
    rejected_unknown: tuple[tuple[int, str], ...]
    duplicates: tuple[tuple[tuple[str, str], int], ...]


@dataclass(frozen=True)
class ResultSet:
    """Validated measurements bound to their setups (immutable snapshot)."""

    losses: dict[tuple[str, str], float]
    setups: dict[str, SetupSpec]
    summary: IngestSummary

    def pairs(self) -> tuple[str, ...]:
        return tuple(sorted({pair for _, pair in self.losses}))

    def resolve_pair(self, pair: str | None = None) -> str:
        """``pair`` if it has results, or the only pair held when ``pair`` is None."""
        pairs = self.pairs()
        if pair is not None:
            if pair not in pairs:
                raise InsufficientDataError(f"no results for language pair {pair!r}")
            return pair
        if len(pairs) != 1:
            raise InsufficientDataError(
                f"result set has pairs {pairs}; specify which one to analyze"
            )
        return pairs[0]

    def for_pair(self, pair: str | None = None) -> dict[str, float]:
        """Losses keyed by setup id for one language pair.

        ``pair=None`` is allowed only when the set holds exactly one pair.
        """
        pair = self.resolve_pair(pair)
        return {
            setup_id: loss
            for (setup_id, rec_pair), loss in self.losses.items()
            if rec_pair == pair
        }


def ingest(records: Iterable[LossRecord], setups: Iterable[SetupSpec]) -> ResultSet:
    """Validate records against known setups and reduce duplicates.

    Unknown setup ids are rejected (reported with positions, not fatal);
    duplicate (setup_id, pair) measurements keep the minimum loss with the
    extra count reported.
    """
    setups_by_id = {spec.id: spec for spec in setups}
    losses: dict[tuple[str, str], float] = {}
    rejected: list[tuple[int, str]] = []
    duplicates: dict[tuple[str, str], int] = {}
    n_input = 0
    for position, record in enumerate(records, start=1):
        n_input += 1
        if record.setup_id not in setups_by_id:
            rejected.append((position, record.setup_id))
            continue
        key = (record.setup_id, record.language_pair)
        if key in losses:
            duplicates[key] = duplicates.get(key, 0) + 1
            losses[key] = min(losses[key], record.val_loss)
        else:
            losses[key] = record.val_loss
    summary = IngestSummary(
        n_input=n_input,
        n_records=len(losses),
        rejected_unknown=tuple(rejected),
        duplicates=tuple(sorted(duplicates.items())),
    )
    return ResultSet(losses=losses, setups=setups_by_id, summary=summary)


def _argmin(
    results: ResultSet, pair: str | None, keys: Callable[[SetupSpec], Iterable[Hashable]]
) -> dict:
    """Minimum-loss ``(loss, spec)`` per key over the setups measured for ``pair``.

    ``keys(spec)`` lists the keys a setup competes under; an empty list
    leaves it out. Ties break on (f_k, f_M, id): epochs = 2**f_k with
    f_k >= 0, so f_k orders like the epoch count without deriving the
    setup. The result is sorted by key.
    """
    best: dict = {}
    for setup_id, loss in results.for_pair(pair).items():
        spec = results.setups[setup_id]
        rank = (loss, spec.factors.f_k, spec.factors.f_M, setup_id)
        for key in keys(spec):
            incumbent = best.get(key)
            if incumbent is None or rank < incumbent[0]:
                best[key] = (rank, spec)
    return {key: (rank[0], spec) for key, (rank, spec) in sorted(best.items())}


@dataclass(frozen=True, slots=True)
class BestEntry:
    loss: float
    setup_id: str


@dataclass(frozen=True)
class CategoryMinima:
    """Minimum loss per nested category within one (f_C, f_D) budget cell."""

    f_C: int
    f_D: int
    compute: float
    target_tokens: float
    best: dict[str, BestEntry]


def category_minima(results: ResultSet, pair: str | None = None) -> list[CategoryMinima]:
    """Per-budget minima over the nested categories.

    A category with no measured member is absent from ``best`` (not zero).
    The nesting inequality multi-2stage <= multi-1stage <= mono-1stage is
    structural; a violation would signal a membership bug, so it is
    re-checked here.
    """
    best = _argmin(
        results,
        pair,
        lambda s: [(s.factors.f_C, s.factors.f_D, c) for c in APPROACHES if in_category(s, c)],
    )
    cells: dict[tuple[int, int], dict[str, BestEntry]] = {}
    for (f_C, f_D, category), (loss, spec) in best.items():
        cells.setdefault((f_C, f_D), {})[category] = BestEntry(loss=loss, setup_id=spec.id)
    out: list[CategoryMinima] = []
    ref = reference_constants()
    for (f_C, f_D), cell in cells.items():
        chain = [APPROACH_MULTI_2STAGE, APPROACH_MULTI_1STAGE, APPROACH_MONO_1STAGE]
        present = [cell[c].loss for c in chain if c in cell]
        if any(a > b for a, b in zip(present, present[1:])):
            raise AssertionError(
                f"category nesting violated at (f_C={f_C}, f_D={f_D}); membership bug"
            )
        out.append(CategoryMinima(f_C=f_C, f_D=f_D, compute=math.ldexp(ref.compute, f_C),
                                  target_tokens=math.ldexp(ref.target_tokens, f_D), best=cell))
    return out


def epoch_minima(
    results: ResultSet, approach: str, pair: str | None = None
) -> dict[tuple[int, int], list[tuple[int, float]]]:
    """Minimum loss per epoch factor, as (f_k, loss) ascending, in each (f_C, f_D) cell.

    Only setups in the nested ``approach`` category take part.
    """
    def keys(s: SetupSpec) -> list:
        return [(s.factors.f_C, s.factors.f_D, s.factors.f_k)] if in_category(s, approach) else []

    best = _argmin(results, pair, keys)
    cells: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for (f_C, f_D, f_k), (loss, _) in best.items():
        cells.setdefault((f_C, f_D), []).append((f_k, loss))
    return cells


def ratio_points(
    results: ResultSet, pair: str | None = None
) -> Iterator[tuple[str, float, float, float, float]]:
    """The ratio power law's input: every measured single-stage, f_k = 0 setup.

    Yields (setup id, model scale, total tokens, ratio, loss) in measurement order.
    """
    for setup_id, loss in results.for_pair(pair).items():
        spec = results.setups[setup_id]
        if not spec.is_two_stage and spec.factors.f_k == 0:
            derived = spec.derived()
            yield setup_id, derived.model_scale, derived.total_tokens, float(derived.ratio), loss


_NO_MONO = "no mono-1stage measurements at compute factor f_C={}"


@dataclass(frozen=True, slots=True)
class ComputeOptimalEstimate:
    """Effective corpus (epochs * target tokens) of the best mono setup at a budget."""

    compute: float
    d_star: float
    setup_id: str


def _compute_optimal_by_budget(
    results: ResultSet, pair: str | None
) -> dict[int, ComputeOptimalEstimate]:
    """D*(C) for every compute factor with a mono-1stage measurement."""
    best = _argmin(
        results, pair, lambda s: [s.factors.f_C] if s.approach == APPROACH_MONO_1STAGE else []
    )
    estimates = {}
    for f_C, (_, spec) in best.items():
        derived = spec.derived()
        estimates[f_C] = ComputeOptimalEstimate(
            compute=derived.compute,
            d_star=derived.epochs * derived.target_tokens,
            setup_id=spec.id,
        )
    return estimates


def estimate_compute_optimal(
    results: ResultSet, compute: float, pair: str | None = None
) -> ComputeOptimalEstimate:
    """D*(C): effective corpus of the minimum-loss mono-1stage setup at budget C."""
    ref = reference_constants()
    if compute <= 0:
        raise ValidationError(f"compute must be positive, got {compute}")
    f_C = round(math.log2(compute / ref.compute))
    if not math.isclose(math.ldexp(ref.compute, f_C), compute, rel_tol=1e-9):
        raise ValidationError(f"compute {compute:.6g} is not on the power-of-two grid")
    estimates = _compute_optimal_by_budget(results, pair)
    if f_C not in estimates:
        raise InsufficientDataError(_NO_MONO.format(f_C))
    return estimates[f_C]


@dataclass(frozen=True, slots=True)
class ThresholdReport:
    """Where the winning approach switches between mono-1stage and multi-2stage.

    The crossing is reported as a grid interval (never interpolated to a
    point): ``lower_target_tokens`` is the largest corpus size where
    multi-2stage strictly wins and ``upper_target_tokens`` the adjacent
    grid size where it does not. ``open_upper`` flags the case where
    multi-2stage wins everywhere measured (no upper crossing). Ties go to
    mono-1stage.
    """

    compute: float
    d_star: float
    crossed: bool
    lower_target_tokens: float | None
    upper_target_tokens: float | None
    open_upper: bool
    ratio_lower: float | None
    ratio_upper: float | None


def _check_epsilon(epsilon: float) -> None:
    if not 0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")


def detect_threshold(
    minima: Iterable[CategoryMinima], d_star: float, epsilon: float = 0.0
) -> ThresholdReport:
    """Scan one budget's minima (ascending f_D) for the approach switch.

    ``epsilon`` is an optional noise margin (finite, >= 0): multi-2stage
    must win by more than epsilon to count. Defaults to raw comparison.
    """
    _check_epsilon(epsilon)
    cells = sorted(minima, key=lambda m: m.f_D)
    if not cells:
        raise InsufficientDataError("no minima to scan for a threshold")
    compared = (APPROACH_MONO_1STAGE, APPROACH_MULTI_2STAGE)
    eligible = [m for m in cells if all(category in m.best for category in compared)]
    wins = [
        m.best[APPROACH_MULTI_2STAGE].loss < m.best[APPROACH_MONO_1STAGE].loss - epsilon
        for m in eligible
    ]
    lower = upper = None
    if any(wins):
        last_win = len(wins) - 1 - wins[::-1].index(True)
        lower = eligible[last_win].target_tokens
        if last_win + 1 < len(eligible):
            upper = eligible[last_win + 1].target_tokens
    return ThresholdReport(
        compute=cells[0].compute,
        d_star=d_star,
        crossed=lower is not None,
        lower_target_tokens=lower,
        upper_target_tokens=upper,
        open_upper=lower is not None and upper is None,
        ratio_lower=None if lower is None else lower / d_star,
        ratio_upper=None if upper is None else upper / d_star,
    )


@dataclass(frozen=True, slots=True)
class ScaleWinner:
    """Best model scale for one (f_C, f_D) cell."""

    f_C: int
    f_D: int
    compute: float
    target_tokens: float
    f_M: int
    model_scale: float
    loss: float
    setup_id: str


@dataclass(frozen=True)
class ScaleTable:
    """Winning model scale per budget cell plus per-budget fold change.

    ``fold_change`` maps f_C to max/min of the winning scales across the
    corpus-size axis: 1.0 means the optimum never moved.
    """

    winners: tuple[ScaleWinner, ...]
    fold_change: dict[int, float]


def _scale_winner(loss: float, spec: SetupSpec) -> ScaleWinner:
    ref = reference_constants()
    return ScaleWinner(
        f_C=spec.factors.f_C,
        f_D=spec.factors.f_D,
        compute=math.ldexp(ref.compute, spec.factors.f_C),
        target_tokens=math.ldexp(ref.target_tokens, spec.factors.f_D),
        f_M=spec.factors.f_M,
        model_scale=spec.derived().model_scale,
        loss=loss,
        setup_id=spec.id,
    )


def _scale_winner_to_wire(w: ScaleWinner) -> dict:
    return {"f_C": w.f_C, "f_D": w.f_D, "C": w.compute, "D_T": w.target_tokens,
            "f_M": w.f_M, "M": w.model_scale, "loss": w.loss, "setup_id": w.setup_id}


def per_scale_minima(
    results: ResultSet, pair: str | None = None
) -> list[ScaleWinner]:
    """Minimum loss per (f_C, f_D, f_M) triple, for loss-vs-corpus plots by scale."""
    best = _argmin(results, pair, lambda s: [(s.factors.f_C, s.factors.f_D, s.factors.f_M)])
    return [_scale_winner(loss, spec) for loss, spec in best.values()]


def _scale_table(results: ResultSet, minima: Iterable[CategoryMinima]) -> ScaleTable:
    # every setup is in multi-2stage, so that column is the per-cell minimum
    winners = []
    for cell in minima:
        entry = cell.best[APPROACH_MULTI_2STAGE]
        winners.append(_scale_winner(entry.loss, results.setups[entry.setup_id]))
    fold_change: dict[int, float] = {}
    for f_C in sorted({w.f_C for w in winners}):
        scales = [w.model_scale for w in winners if w.f_C == f_C]
        fold_change[f_C] = max(scales) / min(scales)
    return ScaleTable(winners=tuple(winners), fold_change=fold_change)


def optimal_scale_table(results: ResultSet, pair: str | None = None) -> ScaleTable:
    """Argmin over the model-scale factor of the per-cell minimum loss."""
    return _scale_table(results, category_minima(results, pair))


def build_report(
    results: ResultSet, pair: str | None = None, epsilon: float = 0.0
) -> dict:
    """Full analysis report as a JSON-ready dict.

    Budgets without mono-1stage measurements get a null compute-optimal
    entry (with a reason) instead of failing the whole report.
    """
    _check_epsilon(epsilon)  # also when no budget reaches detect_threshold
    pair = results.resolve_pair(pair)
    minima = category_minima(results, pair)
    estimates = _compute_optimal_by_budget(results, pair)
    by_budget: dict[int, list[CategoryMinima]] = {}
    for cell in minima:
        by_budget.setdefault(cell.f_C, []).append(cell)

    groups_obj = [
        {
            "f_C": cell.f_C,
            "f_D": cell.f_D,
            "C": cell.compute,
            "D_T": cell.target_tokens,
            "minima": {
                category: {"loss": entry.loss, "setup_id": entry.setup_id}
                for category, entry in sorted(cell.best.items())
            },
        }
        for cell in minima
    ]
    compute_optimal_obj = []
    thresholds_obj = []
    for f_C, cells in sorted(by_budget.items()):
        estimate = estimates.get(f_C)
        if estimate is None:
            note = _NO_MONO.format(f_C)
            compute_optimal_obj.append(
                {"f_C": f_C, "C": cells[0].compute, "D_star": None, "setup_id": None, "note": note}
            )
            continue
        compute_optimal_obj.append(
            {
                "f_C": f_C,
                "C": estimate.compute,
                "D_star": estimate.d_star,
                "setup_id": estimate.setup_id,
            }
        )
        report = detect_threshold(cells, estimate.d_star, epsilon)
        thresholds_obj.append(
            {
                "f_C": f_C,
                "C": report.compute,
                "D_star": report.d_star,
                "crossed": report.crossed,
                "lower_D_T": report.lower_target_tokens,
                "upper_D_T": report.upper_target_tokens,
                "open_upper": report.open_upper,
                "ratio_lower": report.ratio_lower,
                "ratio_upper": report.ratio_upper,
            }
        )
    table = _scale_table(results, minima)
    summary = results.summary
    return {
        "schema_version": 1,
        "language_pair": pair,
        "epsilon": epsilon,
        "ingest": {
            "n_input": summary.n_input,
            "n_records": summary.n_records,
            "rejected_unknown": [
                {"position": pos, "setup_id": sid} for pos, sid in summary.rejected_unknown
            ],
            "duplicates": [
                {"setup_id": sid, "language_pair": rec_pair, "extra": count}
                for (sid, rec_pair), count in summary.duplicates
            ],
        },
        "groups": groups_obj,
        "compute_optimal": compute_optimal_obj,
        "thresholds": thresholds_obj,
        "optimal_scale": {
            "winners": [_scale_winner_to_wire(w) for w in table.winners],
            "fold_change": {str(f_C): value for f_C, value in sorted(table.fold_change.items())},
        },
        "scale_minima": [_scale_winner_to_wire(w) for w in per_scale_minima(results, pair)],
    }
