"""Ingestion of loss measurements and the sweep analyses built on them.

Analyses: ``build_report`` builds each section of ``report.json`` as a
plain dict (per-budget category minima over the nested approach categories,
the compute-optimal corpus, the approach-switch thresholds, the optimal
model scale and per-scale minima), and ``epoch_minima`` and
``ratio_points`` give the epoch and ratio fits' input points. Everything is
a deterministic function of the validated result set; ties break toward
fewer epochs, then the smaller model-scale factor, then the
lexicographically smaller id.
"""

from __future__ import annotations

import csv
import math
from typing import IO, Callable, Hashable, Iterable, Iterator, NamedTuple

from .budget import cell_budgets
from .errors import INPUT_ERRORS, FileFormatError, ValidationError, input_message
from .space import (
    APPROACH_MONO_1STAGE,
    APPROACH_MULTI_2STAGE,
    CATEGORIES_BY_APPROACH,
    SetupSpec,
    number_parser,
)

RESULTS_HEADER = ("setup_id", "language_pair", "val_loss")

_parse_float = number_parser(float)


class _LossFields(NamedTuple):
    setup_id: str
    language_pair: str
    val_loss: float


class LossRecord(_LossFields):
    """One measured validation loss (nats/token) for a setup and language pair."""

    __slots__ = ()

    def __new__(cls, setup_id: str, language_pair: str, val_loss: float) -> LossRecord:
        if not math.isfinite(val_loss) or val_loss <= 0:
            raise ValidationError(f"val_loss must be positive and finite, got {val_loss!r}")
        return tuple.__new__(cls, (setup_id, language_pair, val_loss))

    @classmethod
    def _make(cls, iterable) -> LossRecord:
        return cls(*iterable)  # so ``_replace`` re-runs the check


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
    if header and header[0].startswith("\ufeff"):
        raise FileFormatError("Unexpected UTF-8 BOM before the header")
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
                loss = _parse_float(raw_loss)
            except ValueError:
                raise FileFormatError(f"val_loss {raw_loss!r} is not a number") from None
            yield LossRecord(setup_id=setup_id, language_pair=pair, val_loss=loss)
    except UnicodeDecodeError:  # raised while decoding a block of lines: no line to name
        raise
    except (*INPUT_ERRORS, csv.Error) as exc:
        raise FileFormatError(f"line {reader.line_num}: {input_message(exc)}") from exc


class IngestSummary(NamedTuple):
    """What happened during ingestion.

    ``rejected_unknown`` holds (position, setup_id) pairs where position is
    the 1-based record index in the input stream; for CSV input the file
    line is position + 1 (header). ``duplicates`` maps (setup_id, pair) to
    the number of extra measurements reduced away (minimum kept).
    perfbench's tracer sums ``ingest(...).summary.duplicates`` by these pairs.
    """

    n_input: int
    n_records: int
    rejected_unknown: tuple[tuple[int, str], ...]
    duplicates: tuple[tuple[tuple[str, str], int], ...]


class ResultSet(NamedTuple):
    """Validated measurements bound to their setups (immutable snapshot).

    ``losses`` maps each language pair to its losses keyed by setup id, both
    in the order they were first measured.
    """

    losses: dict[str, dict[str, float]]
    setups: dict[str, SetupSpec]
    summary: IngestSummary

    def pairs(self) -> tuple[str, ...]:
        return tuple(sorted(self.losses))

    def resolve_pair(self, pair: str | None = None) -> str:
        """``pair`` if it has results, or the only pair held when ``pair`` is None."""
        if not self.losses:
            raise ValidationError(
                f"no accepted results: {self.summary.n_input} record(s) read, "
                f"{len(self.summary.rejected_unknown)} with an unknown setup id"
            )
        pairs = self.pairs()
        if pair is not None:
            if pair not in pairs:
                raise ValidationError(f"no results for language pair {pair!r}")
            return pair
        if len(pairs) != 1:
            raise ValidationError(
                f"result set has pairs {pairs}; specify which one to analyze"
            )
        return pairs[0]

    def for_pair(self, pair: str | None = None) -> dict[str, float]:
        """Losses keyed by setup id for one language pair.

        ``pair=None`` is allowed only when the set holds exactly one pair.
        """
        return self.losses[self.resolve_pair(pair)]


def ingest(records: Iterable[LossRecord], setups: Iterable[SetupSpec]) -> ResultSet:
    """Validate records against known setups and reduce duplicates.

    Unknown setup ids are rejected (reported with positions, not fatal);
    duplicate (setup_id, pair) measurements keep the minimum loss with the
    extra count reported.
    """
    setups_by_id = {spec.id: spec for spec in setups}
    losses: dict[str, dict[str, float]] = {}
    rejected: list[tuple[int, str]] = []
    duplicates: dict[tuple[str, str], int] = {}
    position = 0
    for position, record in enumerate(records, start=1):
        setup_id = record.setup_id
        if setup_id not in setups_by_id:
            rejected.append((position, setup_id))
            continue
        by_id = losses.setdefault(record.language_pair, {})
        if setup_id in by_id:
            key = (setup_id, record.language_pair)
            duplicates[key] = duplicates.get(key, 0) + 1
            by_id[setup_id] = min(by_id[setup_id], record.val_loss)
        else:
            by_id[setup_id] = record.val_loss
    summary = IngestSummary(
        n_input=position,
        n_records=sum(map(len, losses.values())),
        rejected_unknown=tuple(rejected),
        duplicates=tuple(sorted(duplicates.items())),
    )
    return ResultSet(losses=losses, setups=setups_by_id, summary=summary)


def _argmin(
    results: ResultSet, pair: str | None, keys: Callable[[SetupSpec], Iterable[Hashable]]
) -> dict:
    """The best ``(rank, spec)`` per key over the setups measured for ``pair``.

    ``keys(spec)`` lists the keys a setup competes under; an empty list
    leaves it out. The rank is (loss, f_k, f_M, id), so ties break on f_k,
    f_M and id: epochs = 2**f_k with f_k >= 0, so f_k orders like the epoch
    count without deriving the setup. The result is sorted by key.
    """
    best: dict = {}
    setups = results.setups
    for setup_id, loss in results.for_pair(pair).items():
        spec = setups[setup_id]
        _, f_M, f_k, _ = spec.factors
        rank = (loss, f_k, f_M, setup_id)
        for key in keys(spec):
            incumbent = best.get(key)
            if incumbent is None or rank < incumbent[0]:
                best[key] = (rank, spec)
    return dict(sorted(best.items()))


def _cell(f_C: int, f_D: int) -> dict:
    """The keys every row of a budget cell starts with: its factors, C and D_T."""
    C, D_T = cell_budgets(f_C, f_D)
    return {"f_C": f_C, "f_D": f_D, "C": C, "D_T": D_T}


def _scale_row(loss: float, spec: SetupSpec) -> dict:
    """A model-scale row: the setup's cell, f_M, M, the loss and the setup id."""
    return {**_cell(spec.factors.f_C, spec.factors.f_D), "f_M": spec.factors.f_M,
            "M": spec.derived().model_scale, "loss": loss, "setup_id": spec.id}


def _category_minima(results: ResultSet, pair: str | None) -> tuple[dict, list[dict]]:
    """``_argmin`` per (f_C, f_D, category), and its minima as ``category_minima``'s groups."""
    def keys(s: SetupSpec) -> list:
        factors = s.factors
        f_C, f_D = factors.f_C, factors.f_D
        return [(f_C, f_D, c) for c in CATEGORIES_BY_APPROACH[s.approach]]

    best = _argmin(results, pair, keys)
    groups: dict[tuple[int, int], dict] = {}
    for (f_C, f_D, category), (rank, spec) in best.items():
        if (f_C, f_D) not in groups:
            groups[f_C, f_D] = {**_cell(f_C, f_D), "minima": {}}
        groups[f_C, f_D]["minima"][category] = {"loss": rank[0], "setup_id": spec.id}
    return best, list(groups.values())


def category_minima(results: ResultSet, pair: str | None = None) -> list[dict]:
    """``report.json``'s ``groups``: the minimum loss per nested category in each budget cell.

    A group is a ``_cell`` plus ``minima``, which maps each category to its
    ``loss`` and ``setup_id``. A category with no measured member is absent
    (not zero). A setup competes in the categories ``CATEGORIES_BY_APPROACH``
    gives its approach, so multi-2stage <= multi-1stage <= mono-1stage holds
    by construction.
    """
    return _category_minima(results, pair)[1]


def epoch_minima(
    results: ResultSet, approach: str, pair: str | None = None
) -> dict[tuple[int, int], list[tuple[int, float]]]:
    """Minimum loss per epoch factor, as (f_k, loss) ascending, in each (f_C, f_D) cell.

    Only setups in the nested ``approach`` category take part.
    """
    if approach not in CATEGORIES_BY_APPROACH:
        raise ValueError(f"unknown category {approach!r}")

    def keys(s: SetupSpec) -> list:
        if approach not in CATEGORIES_BY_APPROACH[s.approach]:
            return []
        factors = s.factors
        return [(factors.f_C, factors.f_D, factors.f_k)]

    best = _argmin(results, pair, keys)
    cells: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for (f_C, f_D, f_k), (rank, _) in best.items():
        cells.setdefault((f_C, f_D), []).append((f_k, rank[0]))
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


def _check_epsilon(epsilon: float) -> None:
    if not 0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")


def detect_threshold(groups: Iterable[dict], d_star: float, epsilon: float = 0.0) -> dict:
    """One ``thresholds`` entry: where one budget's winning approach switches.

    ``groups`` are one budget's ``category_minima`` groups, scanned by
    ascending f_D wherever both mono-1stage and multi-2stage were measured.
    The crossing is reported as a grid interval (never interpolated to a
    point): ``lower_D_T`` is the largest corpus size where multi-2stage
    strictly wins and ``upper_D_T`` the adjacent grid size where it does
    not. ``open_upper`` flags the case where multi-2stage wins everywhere
    measured (no upper crossing). Ties go to mono-1stage. ``epsilon`` is an
    optional noise margin (finite, >= 0): multi-2stage must win by more than
    epsilon to count. Defaults to raw comparison.
    """
    _check_epsilon(epsilon)
    cells = sorted(groups, key=lambda g: g["f_D"])
    if not cells:
        raise ValidationError("no minima to scan for a threshold")
    compared = (APPROACH_MONO_1STAGE, APPROACH_MULTI_2STAGE)
    eligible = [g for g in cells if all(category in g["minima"] for category in compared)]
    wins = [
        g["minima"][APPROACH_MULTI_2STAGE]["loss"]
        < g["minima"][APPROACH_MONO_1STAGE]["loss"] - epsilon
        for g in eligible
    ]
    lower = upper = None
    if any(wins):
        last_win = len(wins) - 1 - wins[::-1].index(True)
        lower = eligible[last_win]["D_T"]
        if last_win + 1 < len(eligible):
            upper = eligible[last_win + 1]["D_T"]
    return {
        "f_C": cells[0]["f_C"],
        "C": cells[0]["C"],
        "D_star": d_star,
        "crossed": lower is not None,
        "lower_D_T": lower,
        "upper_D_T": upper,
        "open_upper": lower is not None and upper is None,
        "ratio_lower": None if lower is None else lower / d_star,
        "ratio_upper": None if upper is None else upper / d_star,
    }


def build_report(
    results: ResultSet, pair: str | None = None, epsilon: float = 0.0
) -> dict:
    """Full analysis report as a JSON-ready dict.

    ``compute_optimal`` holds D*(C), the effective corpus (epochs * target
    tokens) of the best mono-1stage setup at each budget; a budget without
    mono-1stage measurements gets a null entry (with a reason) instead of
    failing the whole report, and no threshold scan. ``optimal_scale`` holds
    each cell's winning model scale and, per budget, the fold change max/min
    of those scales across corpus sizes: 1.0 means the optimum never moved.
    ``scale_minima`` holds the minimum loss per (f_C, f_D, f_M) triple.
    """
    _check_epsilon(epsilon)  # also when no budget reaches detect_threshold
    pair = results.resolve_pair(pair)
    best, groups = _category_minima(results, pair)
    by_budget: dict[int, list[dict]] = {}
    for group in groups:
        by_budget.setdefault(group["f_C"], []).append(group)
    compute_optimal = []
    thresholds = []
    for f_C, cells in by_budget.items():
        entry = {"f_C": f_C, "C": cells[0]["C"]}
        # the budget's best mono-1stage setup is the best of its cells' minima
        ranked = [best[key] for group in cells
                  if (key := (f_C, group["f_D"], APPROACH_MONO_1STAGE)) in best]
        if not ranked:
            note = f"no mono-1stage measurements at compute factor f_C={f_C}"
            compute_optimal.append(entry | {"D_star": None, "setup_id": None, "note": note})
            continue
        spec = min(ranked)[1]
        derived = spec.derived()
        d_star = derived.epochs * derived.target_tokens
        compute_optimal.append(entry | {"D_star": d_star, "setup_id": spec.id})
        thresholds.append(detect_threshold(cells, d_star, epsilon))
    # every setup is in multi-2stage, so that category is the per-cell minimum
    winners = [_scale_row(rank[0], spec) for (_, _, category), (rank, spec) in best.items()
               if category == APPROACH_MULTI_2STAGE]
    scales: dict[int, list[float]] = {}
    for row in winners:
        scales.setdefault(row["f_C"], []).append(row["M"])
    scale_minima = _argmin(
        results, pair, lambda s: [(s.factors.f_C, s.factors.f_D, s.factors.f_M)]
    )
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
        "groups": groups,
        "compute_optimal": compute_optimal,
        "thresholds": thresholds,
        "optimal_scale": {
            "winners": winners,
            "fold_change": {str(f_C): max(m) / min(m) for f_C, m in scales.items()},
        },
        "scale_minima": [_scale_row(rank[0], spec) for rank, spec in scale_minima.values()],
    }
