import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsweep import analysis, space, surrogate
from mixsweep.budget import FactorTuple, reference_constants
from mixsweep.errors import FileFormatError, InsufficientDataError, ValidationError

MONO = "mono-1stage"
MULTI1 = "multi-1stage"
MULTI2 = "multi-2stage"


def _record(setup_id, loss, pair="test"):
    return analysis.LossRecord(setup_id=setup_id, language_pair=pair, val_loss=loss)


# ---------------------------------------------------------------------------
# CSV reading
# ---------------------------------------------------------------------------


def test_read_results_csv():
    text = "setup_id,language_pair,val_loss\nabc,test,2.5\ndef,test,3.0\n"
    records = list(analysis.read_results_csv(io.StringIO(text)))
    assert records == [_record("abc", 2.5), _record("def", 3.0)]


def test_read_results_csv_rejects_bad_header():
    with pytest.raises(FileFormatError, match="header"):
        list(analysis.read_results_csv(io.StringIO("id,pair,loss\nabc,test,2.5\n")))


def test_read_results_csv_rejects_empty_file():
    with pytest.raises(FileFormatError, match="empty"):
        list(analysis.read_results_csv(io.StringIO("")))


@pytest.mark.parametrize(
    "row,match",
    [
        ("abc,test\n", "line 2"),
        ("abc,test,not-a-number\n", "not a number"),
        ("abc,test,-2.0\n", "positive"),
        ("abc,test,0\n", "positive"),
    ],
)
def test_read_results_csv_reports_line(row, match):
    text = "setup_id,language_pair,val_loss\n" + row
    with pytest.raises(FileFormatError, match=match):
        list(analysis.read_results_csv(io.StringIO(text)))


def test_loss_record_validation():
    with pytest.raises(ValidationError):
        _record("abc", -1.0)
    with pytest.raises(ValidationError):
        _record("abc", float("nan"))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _small_setups():
    return [
        space.SetupSpec(FactorTuple(0, 0, 0, 0)),
        space.SetupSpec(FactorTuple(1, 1, 0, 0)),
        space.SetupSpec(FactorTuple(1, 1, 0, 0), Fraction(0), Fraction(1)),
        space.SetupSpec(FactorTuple(0, 1, 1, 0)),
    ]


def test_ingest_rejects_unknown_ids():
    setups = _small_setups()
    records = [_record(setups[0].id, 2.0), _record("nope", 1.0), _record(setups[1].id, 2.1)]
    results = analysis.ingest(records, setups)
    assert results.summary.rejected_unknown == ((2, "nope"),)
    assert results.summary.n_records == 2
    assert results.summary.n_input == 3


def test_ingest_reduces_duplicates_to_minimum():
    setups = _small_setups()
    records = [_record(setups[0].id, 2.0), _record(setups[0].id, 1.9)]
    results = analysis.ingest(records, setups)
    assert results.losses[(setups[0].id, "test")] == 1.9
    assert results.summary.duplicates == (((setups[0].id, "test"), 1),)


def test_ingest_empty_stream():
    results = analysis.ingest([], _small_setups())
    assert results.summary.n_input == 0
    assert results.summary.rejected_unknown == ()
    assert results.losses == {}


def test_for_pair_requires_disambiguation():
    setups = _small_setups()
    records = [_record(setups[0].id, 2.0, "a"), _record(setups[0].id, 2.1, "b")]
    results = analysis.ingest(records, setups)
    assert results.pairs() == ("a", "b")
    with pytest.raises(InsufficientDataError):
        results.for_pair()
    assert results.for_pair("b") == {setups[0].id: 2.1}
    with pytest.raises(InsufficientDataError, match="no results for language pair 'c'"):
        results.for_pair("c")


# ---------------------------------------------------------------------------
# category minima
# ---------------------------------------------------------------------------


def test_category_minima_planted_winner():
    setups = _small_setups()
    losses = {setups[0].id: 2.5, setups[1].id: 2.4, setups[2].id: 2.2, setups[3].id: 2.6}
    results = analysis.ingest([_record(k, v) for k, v in losses.items()], setups)
    cells = analysis.category_minima(results)
    # brute-force oracle over the (0, 0) cell
    cell = next(c for c in cells if (c.f_C, c.f_D) == (0, 0))
    members = [s for s in setups if (s.factors.f_C, s.factors.f_D) == (0, 0)]
    for category in (MONO, MULTI1, MULTI2):
        eligible = [s for s in members if space.in_category(s, category)]
        expected = min(losses[s.id] for s in eligible)
        assert cell.best[category].loss == expected
    assert cell.best[MULTI2].setup_id == setups[2].id
    assert cell.best[MONO].setup_id == setups[0].id


def test_category_minima_singleton_group():
    setups = [space.SetupSpec(FactorTuple(0, 0, 0, 0))]
    results = analysis.ingest([_record(setups[0].id, 3.0)], setups)
    (cell,) = analysis.category_minima(results)
    assert cell.best[MONO].loss == cell.best[MULTI1].loss == cell.best[MULTI2].loss == 3.0


def test_category_minima_mono_absent_not_zero():
    setups = [space.SetupSpec(FactorTuple(1, 1, 0, 0))]
    results = analysis.ingest([_record(setups[0].id, 3.0)], setups)
    (cell,) = analysis.category_minima(results)
    assert MONO not in cell.best
    assert cell.best[MULTI1].loss == 3.0


def test_category_nesting_on_surrogate(surrogate_results):
    for cell in analysis.category_minima(surrogate_results):
        chain = [cell.best[c].loss for c in (MULTI2, MULTI1, MONO) if c in cell.best]
        assert all(a <= b for a, b in zip(chain, chain[1:]))


# ---------------------------------------------------------------------------
# compute-optimal estimate
# ---------------------------------------------------------------------------


def test_compute_optimal_singleton():
    spec = space.SetupSpec(FactorTuple(0, 1, 1, 0))  # k=2
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    estimate = analysis.estimate_compute_optimal(results, 1e18)
    derived = spec.derived()
    assert estimate.d_star == 2 * derived.target_tokens
    assert estimate.setup_id == spec.id


def test_compute_optimal_tie_prefers_fewer_epochs():
    few = space.SetupSpec(FactorTuple(0, 0, 0, 0))  # k=1
    many = space.SetupSpec(FactorTuple(0, 1, 1, 0))  # k=2, same (C, D_T)
    results = analysis.ingest([_record(few.id, 2.0), _record(many.id, 2.0)], [few, many])
    estimate = analysis.estimate_compute_optimal(results, 1e18)
    assert estimate.setup_id == few.id


def test_compute_optimal_requires_mono():
    spec = space.SetupSpec(FactorTuple(1, 1, 0, 0))
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    with pytest.raises(InsufficientDataError):
        analysis.estimate_compute_optimal(results, 1e18)


def test_compute_optimal_rejects_off_grid_budget():
    spec = space.SetupSpec(FactorTuple(0, 0, 0, 0))
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    with pytest.raises(ValidationError):
        analysis.estimate_compute_optimal(results, 3.3e17)


def test_compute_optimal_matches_brute_force_on_surrogate(surrogate_results):
    losses = surrogate_results.for_pair()
    for f_C in (-4, 0):
        compute = reference_constants().compute * 2.0**f_C
        estimate = analysis.estimate_compute_optimal(surrogate_results, compute)
        mono = [
            (loss, sid)
            for sid, loss in losses.items()
            if surrogate_results.setups[sid].approach == MONO
            and surrogate_results.setups[sid].factors.f_C == f_C
        ]
        best_loss = min(mono)[0]
        winners = [sid for loss, sid in mono if loss == best_loss]
        assert estimate.setup_id in winners
        derived = surrogate_results.setups[estimate.setup_id].derived()
        assert estimate.d_star == derived.epochs * derived.target_tokens


# ---------------------------------------------------------------------------
# threshold detection
# ---------------------------------------------------------------------------


def _cell(f_D, mono_loss, multi2_loss):
    ref = reference_constants()
    best = {}
    if mono_loss is not None:
        best[MONO] = analysis.BestEntry(loss=mono_loss, setup_id=f"mono{f_D}")
        best[MULTI1] = analysis.BestEntry(loss=mono_loss, setup_id=f"mono{f_D}")
    if multi2_loss is not None:
        floor = multi2_loss if mono_loss is None else min(mono_loss, multi2_loss)
        best[MULTI2] = analysis.BestEntry(loss=floor, setup_id=f"two{f_D}")
    return analysis.CategoryMinima(
        f_C=0,
        f_D=f_D,
        compute=ref.compute,
        target_tokens=ref.target_tokens * 2.0**f_D,
        best=best,
    )


def test_threshold_crossing_interval():
    cells = [
        _cell(-4, 3.0, 2.7),
        _cell(-3, 2.9, 2.75),
        _cell(-2, 2.8, 2.8),
        _cell(-1, 2.7, 2.7),
    ]
    report = analysis.detect_threshold(cells, d_star=1e9)
    assert report.crossed and not report.open_upper
    assert report.lower_target_tokens == cells[1].target_tokens
    assert report.upper_target_tokens == cells[2].target_tokens
    assert report.ratio_lower == cells[1].target_tokens / 1e9
    assert report.ratio_upper == cells[2].target_tokens / 1e9


def test_threshold_open_upper_when_always_winning():
    cells = [_cell(-3, 3.0, 2.8), _cell(-2, 2.9, 2.7)]
    report = analysis.detect_threshold(cells, d_star=1e9)
    assert report.crossed and report.open_upper
    assert report.lower_target_tokens == cells[1].target_tokens
    assert report.upper_target_tokens is None


def test_threshold_tie_goes_to_mono():
    cells = [_cell(-3, 3.0, 3.0), _cell(-2, 2.9, 2.9)]
    report = analysis.detect_threshold(cells, d_star=1e9)
    assert not report.crossed


def test_threshold_epsilon_margin():
    cells = [_cell(-3, 3.0, 2.995), _cell(-2, 2.9, 2.9)]
    assert analysis.detect_threshold(cells, d_star=1e9).crossed
    assert not analysis.detect_threshold(cells, d_star=1e9, epsilon=0.01).crossed


def test_threshold_ignores_cells_missing_a_category():
    cells = [_cell(-3, 3.0, 2.8), _cell(-2, None, 2.9), _cell(-1, 2.7, 2.7)]
    report = analysis.detect_threshold(cells, d_star=1e9)
    assert report.lower_target_tokens == cells[0].target_tokens
    assert report.upper_target_tokens == cells[2].target_tokens


def test_threshold_invariant_to_non_minimal_records(surrogate_results, all_setups):
    minima = [c for c in analysis.category_minima(surrogate_results) if c.f_C == -4]
    d_star = analysis.estimate_compute_optimal(
        surrogate_results, reference_constants().compute / 16
    ).d_star
    baseline = analysis.detect_threshold(minima, d_star)
    # re-ingest with an extra record that is worse than every minimum
    records = surrogate.generate_dataset(all_setups, surrogate.SurrogateParams())
    worst = max(r.val_loss for r in records)
    extra = analysis.LossRecord(
        setup_id=records[0].setup_id, language_pair="surrogate", val_loss=worst * 2
    )
    bumped = analysis.ingest(records + [extra], all_setups)
    minima2 = [c for c in analysis.category_minima(bumped) if c.f_C == -4]
    assert analysis.detect_threshold(minima2, d_star) == baseline


# ---------------------------------------------------------------------------
# optimal scale table
# ---------------------------------------------------------------------------


def test_scale_table_single_record():
    spec = space.SetupSpec(FactorTuple(0, 2, 0, 0))
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    table = analysis.optimal_scale_table(results)
    assert table.winners[0].f_M == 2
    assert table.fold_change == {0: 1.0}


def test_scale_table_planted_scale_independent_optimum():
    # same f_M wins in every cell -> fold change 1
    setups, records = [], []
    for f_D in (0, -1):
        for f_M in (0, 1, 2):
            spec = space.SetupSpec(FactorTuple(0, f_M, f_M - f_D, 0))
            setups.append(spec)
            records.append(_record(spec.id, 3.0 if f_M == 1 else 3.5))
    results = analysis.ingest(records, setups)
    table = analysis.optimal_scale_table(results)
    assert {w.f_M for w in table.winners} == {1}
    assert table.fold_change == {0: 1.0}


def test_scale_table_fold_change():
    a = space.SetupSpec(FactorTuple(0, 0, 0, 0))   # f_D=0, M0
    b = space.SetupSpec(FactorTuple(0, 1, 0, 0))   # f_D=1, M0/2
    results = analysis.ingest([_record(a.id, 2.0), _record(b.id, 2.1)], [a, b])
    table = analysis.optimal_scale_table(results)
    assert table.fold_change == {0: 2.0}


def test_per_scale_minima_covers_cells(surrogate_results):
    rows = analysis.per_scale_minima(surrogate_results)
    keys = {(r.f_C, r.f_D, r.f_M) for r in rows}
    assert len(keys) == len(rows)
    losses = surrogate_results.for_pair()
    # spot-check one cell against a brute-force argmin
    probe = rows[0]
    eligible = [
        loss
        for sid, loss in losses.items()
        if (
            surrogate_results.setups[sid].factors.f_C,
            surrogate_results.setups[sid].factors.f_D,
            surrogate_results.setups[sid].factors.f_M,
        )
        == (probe.f_C, probe.f_D, probe.f_M)
    ]
    assert probe.loss == min(eligible)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_build_report_deterministic(surrogate_results):
    one = analysis.build_report(surrogate_results)
    two = analysis.build_report(surrogate_results)
    assert json.dumps(one) == json.dumps(two)
    assert one["schema_version"] == 1
    assert {entry["f_C"] for entry in one["thresholds"]} == {-4, -3, -2, -1, 0}


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
def test_build_report_rejects_bad_epsilon_without_mono(epsilon):
    # no budget has a mono-1stage minimum, so no threshold scan sees epsilon
    spec = space.SetupSpec(FactorTuple(1, 1, 0, 0))
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    with pytest.raises(ValidationError, match="epsilon must be finite"):
        analysis.build_report(results, epsilon=epsilon)


def test_build_report_handles_missing_mono():
    spec = space.SetupSpec(FactorTuple(1, 1, 0, 0))
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    report = analysis.build_report(results)
    (entry,) = report["compute_optimal"]
    assert entry["D_star"] is None and "note" in entry
    assert report["thresholds"] == []


# ---------------------------------------------------------------------------
# every argmin against a brute-force min, on result sets with forced ties
# ---------------------------------------------------------------------------


_POOL = [
    s
    for s in space.enumerate_all(space.default_ranges().restrict_budgets([-4, 0]))
    if s.factors.f_D in (-5, -4)
]
_result_sets = st.dictionaries(
    keys=st.one_of(
        st.sampled_from([s for s in _POOL if s.approach == MONO]),
        st.sampled_from([s for s in _POOL if s.approach == MULTI1]),
        st.sampled_from([s for s in _POOL if s.approach == MULTI2]),
    ),
    values=st.sampled_from([2.0, 2.5, 3.0]),  # few values, so losses tie often
    min_size=1,
    max_size=40,
)


def _brute_min(losses, key):
    """key -> (loss, epochs, f_M, id) of the best setup, by plain ``min``."""
    ranked = {}
    for spec, loss in losses.items():
        for k in key(spec):
            rank = (loss, spec.derived().epochs, spec.factors.f_M, spec.id)
            ranked.setdefault(k, []).append(rank)
    return {k: min(ranks) for k, ranks in ranked.items()}


@given(_result_sets)
def test_argmins_match_brute_force(losses):
    results = analysis.ingest([_record(s.id, loss) for s, loss in losses.items()], _POOL)

    def cell(s):
        return (s.factors.f_C, s.factors.f_D)

    categories = (MONO, MULTI1, MULTI2)
    expected = _brute_min(
        losses, lambda s: [(*cell(s), c) for c in categories if space.in_category(s, c)]
    )
    actual = {
        (m.f_C, m.f_D, c): (entry.loss, entry.setup_id)
        for m in analysis.category_minima(results)
        for c, entry in m.best.items()
    }
    assert actual == {k: (rank[0], rank[3]) for k, rank in expected.items()}

    expected = _brute_min(losses, lambda s: [(*cell(s), s.factors.f_M)])
    rows = analysis.per_scale_minima(results)
    assert [(r.f_C, r.f_D, r.f_M, r.loss, r.setup_id) for r in rows] == [
        (*k, rank[0], rank[3]) for k, rank in sorted(expected.items())
    ]

    expected = _brute_min(losses, lambda s: [cell(s)])
    table = analysis.optimal_scale_table(results)
    assert [(w.f_C, w.f_D, w.f_M, w.loss, w.setup_id) for w in table.winners] == [
        (*k, rank[2], rank[0], rank[3]) for k, rank in sorted(expected.items())
    ]

    expected = _brute_min(losses, lambda s: [s.factors.f_C] if s.approach == MONO else [])
    for f_C in (-4, 0):
        compute = reference_constants().compute * 2.0**f_C
        if f_C not in expected:
            with pytest.raises(InsufficientDataError):
                analysis.estimate_compute_optimal(results, compute)
            continue
        estimate = analysis.estimate_compute_optimal(results, compute)
        assert estimate.setup_id == expected[f_C][3]
