import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsweep import analysis, space, surrogate
from mixsweep.budget import FactorTuple, reference_constants
from mixsweep.errors import FileFormatError, ValidationError

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
    assert results.losses == {"test": {setups[0].id: 1.9}}
    assert results.summary.duplicates == (((setups[0].id, "test"), 1),)


def test_ingest_empty_stream():
    results = analysis.ingest([], _small_setups())
    assert results.summary.n_input == 0
    assert results.summary.rejected_unknown == ()
    assert results.losses == {}
    with pytest.raises(ValidationError, match=r"^no accepted results: 0 record\(s\) read, 0 with"):
        results.for_pair("test")


def test_for_pair_requires_disambiguation():
    setups = _small_setups()
    records = [_record(setups[0].id, 2.0, "a"), _record(setups[0].id, 2.1, "b")]
    results = analysis.ingest(records, setups)
    assert results.pairs() == ("a", "b")
    with pytest.raises(ValidationError, match=r"has pairs \('a', 'b'\); specify which one"):
        results.for_pair()
    assert results.for_pair("b") == {setups[0].id: 2.1}
    with pytest.raises(ValidationError, match="no results for language pair 'c'"):
        results.for_pair("c")


def _oracle_ingest(records, setups):
    """Ingest as it was with one flat (setup_id, pair) map: (losses, report's ingest section)."""
    known = {spec.id for spec in setups}
    losses, rejected, duplicates = {}, [], {}
    n_input = 0
    for position, record in enumerate(records, start=1):
        n_input += 1
        if record.setup_id not in known:
            rejected.append((position, record.setup_id))
            continue
        key = (record.setup_id, record.language_pair)
        if key in losses:
            duplicates[key] = duplicates.get(key, 0) + 1
            losses[key] = min(losses[key], record.val_loss)
        else:
            losses[key] = record.val_loss
    section = {
        "n_input": n_input,
        "n_records": len(losses),
        "rejected_unknown": [{"position": pos, "setup_id": sid} for pos, sid in rejected],
        "duplicates": [
            {"setup_id": sid, "language_pair": pair, "extra": count}
            for (sid, pair), count in sorted(duplicates.items())
        ],
    }
    return losses, section


def _oracle_for_pair(losses, pair):
    return {setup_id: loss for (setup_id, rec_pair), loss in losses.items() if rec_pair == pair}


_ingest_records = st.lists(
    st.builds(
        _record,
        st.sampled_from([s.id for s in _small_setups()] + ["nope", "fC9_unknown"]),
        st.sampled_from([1.5, 2.0, 2.5, 3.0]),
        st.sampled_from(["en-sw", "en-ha", "fr-wo"]),
    ),
    max_size=40,
)


@given(_ingest_records)
def test_ingest_matches_the_flat_oracle(records):
    results = analysis.ingest(records, _small_setups())
    losses, section = _oracle_ingest(records, _small_setups())
    pairs = sorted({pair for _, pair in losses})
    assert results.pairs() == tuple(pairs)
    for pair in pairs:  # the order matters: ratio_points yields in it
        assert list(results.for_pair(pair).items()) == list(_oracle_for_pair(losses, pair).items())
        assert analysis.build_report(results, pair)["ingest"] == section


# ---------------------------------------------------------------------------
# category minima
# ---------------------------------------------------------------------------


def test_category_minima_planted_winner():
    setups = _small_setups()
    losses = {setups[0].id: 2.5, setups[1].id: 2.4, setups[2].id: 2.2, setups[3].id: 2.6}
    results = analysis.ingest([_record(k, v) for k, v in losses.items()], setups)
    groups = analysis.category_minima(results)
    # brute-force oracle over the (0, 0) cell
    group = next(g for g in groups if (g["f_C"], g["f_D"]) == (0, 0))
    members = [s for s in setups if (s.factors.f_C, s.factors.f_D) == (0, 0)]
    for category in (MONO, MULTI1, MULTI2):
        eligible = [s for s in members if space.in_category(s, category)]
        expected = min(losses[s.id] for s in eligible)
        assert group["minima"][category]["loss"] == expected
    assert group["minima"][MULTI2]["setup_id"] == setups[2].id
    assert group["minima"][MONO]["setup_id"] == setups[0].id


def test_category_minima_singleton_group():
    setups = [space.SetupSpec(FactorTuple(0, 0, 0, 0))]
    results = analysis.ingest([_record(setups[0].id, 3.0)], setups)
    (group,) = analysis.category_minima(results)
    ref = reference_constants()
    assert group == {
        "f_C": 0, "f_D": 0, "C": ref.compute, "D_T": ref.target_tokens,
        "minima": {c: {"loss": 3.0, "setup_id": setups[0].id} for c in (MONO, MULTI1, MULTI2)},
    }


def test_category_minima_mono_absent_not_zero():
    setups = [space.SetupSpec(FactorTuple(1, 1, 0, 0))]
    results = analysis.ingest([_record(setups[0].id, 3.0)], setups)
    (group,) = analysis.category_minima(results)
    assert MONO not in group["minima"]
    assert group["minima"][MULTI1]["loss"] == 3.0


def test_category_nesting_on_surrogate(surrogate_results):
    for group in analysis.category_minima(surrogate_results):
        minima = group["minima"]
        chain = [minima[c]["loss"] for c in (MULTI2, MULTI1, MONO) if c in minima]
        assert all(a <= b for a, b in zip(chain, chain[1:]))


# ---------------------------------------------------------------------------
# compute-optimal estimate
# ---------------------------------------------------------------------------


def test_compute_optimal_singleton():
    spec = space.SetupSpec(FactorTuple(0, 1, 1, 0))  # k=2
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    (entry,) = analysis.build_report(results)["compute_optimal"]
    derived = spec.derived()
    assert entry == {"f_C": 0, "C": derived.compute, "D_star": 2 * derived.target_tokens,
                     "setup_id": spec.id}


def test_compute_optimal_tie_prefers_fewer_epochs():
    few = space.SetupSpec(FactorTuple(0, 0, 0, 0))  # k=1
    many = space.SetupSpec(FactorTuple(0, 1, 1, 0))  # k=2, same (C, D_T)
    results = analysis.ingest([_record(few.id, 2.0), _record(many.id, 2.0)], [few, many])
    (entry,) = analysis.build_report(results)["compute_optimal"]
    assert entry["setup_id"] == few.id


def test_compute_optimal_matches_brute_force_on_surrogate(surrogate_results):
    losses = surrogate_results.for_pair()
    entries = analysis.build_report(surrogate_results)["compute_optimal"]
    assert [entry["f_C"] for entry in entries] == [-4, -3, -2, -1, 0]
    for entry in entries:
        mono = [
            (loss, sid)
            for sid, loss in losses.items()
            if surrogate_results.setups[sid].approach == MONO
            and surrogate_results.setups[sid].factors.f_C == entry["f_C"]
        ]
        best_loss = min(mono)[0]
        winners = [sid for loss, sid in mono if loss == best_loss]
        assert entry["setup_id"] in winners
        derived = surrogate_results.setups[entry["setup_id"]].derived()
        assert entry["D_star"] == derived.epochs * derived.target_tokens


# ---------------------------------------------------------------------------
# threshold detection
# ---------------------------------------------------------------------------


def _group(f_D, mono_loss, multi2_loss):
    ref = reference_constants()
    minima = {}
    if mono_loss is not None:
        minima[MONO] = {"loss": mono_loss, "setup_id": f"mono{f_D}"}
        minima[MULTI1] = {"loss": mono_loss, "setup_id": f"mono{f_D}"}
    if multi2_loss is not None:
        floor = multi2_loss if mono_loss is None else min(mono_loss, multi2_loss)
        minima[MULTI2] = {"loss": floor, "setup_id": f"two{f_D}"}
    return {"f_C": 0, "f_D": f_D, "C": ref.compute, "D_T": ref.target_tokens * 2.0**f_D,
            "minima": minima}


def test_threshold_crossing_interval():
    groups = [
        _group(-4, 3.0, 2.7),
        _group(-3, 2.9, 2.75),
        _group(-2, 2.8, 2.8),
        _group(-1, 2.7, 2.7),
    ]
    entry = analysis.detect_threshold(groups, d_star=1e9)
    assert entry == {
        "f_C": 0,
        "C": reference_constants().compute,
        "D_star": 1e9,
        "crossed": True,
        "lower_D_T": groups[1]["D_T"],
        "upper_D_T": groups[2]["D_T"],
        "open_upper": False,
        "ratio_lower": groups[1]["D_T"] / 1e9,
        "ratio_upper": groups[2]["D_T"] / 1e9,
    }


def test_threshold_open_upper_when_always_winning():
    groups = [_group(-3, 3.0, 2.8), _group(-2, 2.9, 2.7)]
    entry = analysis.detect_threshold(groups, d_star=1e9)
    assert entry["crossed"] and entry["open_upper"]
    assert entry["lower_D_T"] == groups[1]["D_T"]
    assert entry["upper_D_T"] is None and entry["ratio_upper"] is None


def test_threshold_tie_goes_to_mono():
    groups = [_group(-3, 3.0, 3.0), _group(-2, 2.9, 2.9)]
    entry = analysis.detect_threshold(groups, d_star=1e9)
    assert not entry["crossed"]
    assert entry["lower_D_T"] is entry["ratio_lower"] is None


def test_threshold_epsilon_margin():
    groups = [_group(-3, 3.0, 2.995), _group(-2, 2.9, 2.9)]
    assert analysis.detect_threshold(groups, d_star=1e9)["crossed"]
    assert not analysis.detect_threshold(groups, d_star=1e9, epsilon=0.01)["crossed"]


def test_threshold_ignores_cells_missing_a_category():
    groups = [_group(-3, 3.0, 2.8), _group(-2, None, 2.9), _group(-1, 2.7, 2.7)]
    entry = analysis.detect_threshold(groups, d_star=1e9)
    assert entry["lower_D_T"] == groups[0]["D_T"]
    assert entry["upper_D_T"] == groups[2]["D_T"]


def test_threshold_invariant_to_non_minimal_records(surrogate_results, all_setups):
    baseline = analysis.build_report(surrogate_results)
    # re-ingest with an extra record that is worse than every minimum
    records = surrogate.generate_dataset(all_setups, surrogate.SurrogateParams())
    worst = max(r.val_loss for r in records)
    extra = analysis.LossRecord(
        setup_id=records[0].setup_id, language_pair="surrogate", val_loss=worst * 2
    )
    bumped = analysis.build_report(analysis.ingest(records + [extra], all_setups))
    assert bumped["ingest"]["duplicates"] != baseline["ingest"]["duplicates"]
    for section in ("groups", "compute_optimal", "thresholds"):
        assert bumped[section] == baseline[section]


# ---------------------------------------------------------------------------
# optimal scale table
# ---------------------------------------------------------------------------


def test_scale_table_single_record():
    spec = space.SetupSpec(FactorTuple(0, 2, 0, 0))
    results = analysis.ingest([_record(spec.id, 2.0)], [spec])
    table = analysis.build_report(results)["optimal_scale"]
    assert table["winners"][0]["f_M"] == 2
    assert table["fold_change"] == {"0": 1.0}


def test_scale_table_planted_scale_independent_optimum():
    # same f_M wins in every cell -> fold change 1
    setups, records = [], []
    for f_D in (0, -1):
        for f_M in (0, 1, 2):
            spec = space.SetupSpec(FactorTuple(0, f_M, f_M - f_D, 0))
            setups.append(spec)
            records.append(_record(spec.id, 3.0 if f_M == 1 else 3.5))
    results = analysis.ingest(records, setups)
    table = analysis.build_report(results)["optimal_scale"]
    assert {w["f_M"] for w in table["winners"]} == {1}
    assert table["fold_change"] == {"0": 1.0}


def test_scale_table_fold_change():
    a = space.SetupSpec(FactorTuple(0, 0, 0, 0))   # f_D=0, M0
    b = space.SetupSpec(FactorTuple(0, 1, 0, 0))   # f_D=1, M0/2
    results = analysis.ingest([_record(a.id, 2.0), _record(b.id, 2.1)], [a, b])
    table = analysis.build_report(results)["optimal_scale"]
    assert table["fold_change"] == {"0": 2.0}


def test_per_scale_minima_covers_cells(surrogate_results):
    rows = analysis.build_report(surrogate_results)["scale_minima"]
    keys = {(r["f_C"], r["f_D"], r["f_M"]) for r in rows}
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
        == (probe["f_C"], probe["f_D"], probe["f_M"])
    ]
    assert probe["loss"] == min(eligible)
    spec = surrogate_results.setups[probe["setup_id"]]
    assert probe["M"] == spec.derived().model_scale


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
    for s in space.enumerate_all({f_C: space.default_ranges()[f_C] for f_C in (-4, 0)})
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
    report = analysis.build_report(results)

    def cell(s):
        return (s.factors.f_C, s.factors.f_D)

    categories = (MONO, MULTI1, MULTI2)
    expected = _brute_min(
        losses, lambda s: [(*cell(s), c) for c in categories if space.in_category(s, c)]
    )
    actual = {
        (g["f_C"], g["f_D"], c): (entry["loss"], entry["setup_id"])
        for g in report["groups"]
        for c, entry in g["minima"].items()
    }
    assert actual == {k: (rank[0], rank[3]) for k, rank in expected.items()}

    expected = _brute_min(losses, lambda s: [(*cell(s), s.factors.f_M)])
    assert [(r["f_C"], r["f_D"], r["f_M"], r["loss"], r["setup_id"])
            for r in report["scale_minima"]] == [
        (*k, rank[0], rank[3]) for k, rank in sorted(expected.items())
    ]

    expected = _brute_min(losses, lambda s: [cell(s)])
    assert [(w["f_C"], w["f_D"], w["f_M"], w["loss"], w["setup_id"])
            for w in report["optimal_scale"]["winners"]] == [
        (*k, rank[2], rank[0], rank[3]) for k, rank in sorted(expected.items())
    ]

    expected = _brute_min(losses, lambda s: [s.factors.f_C] if s.approach == MONO else [])
    budgets = sorted({s.factors.f_C for s in losses})
    assert [(e["f_C"], e["setup_id"]) for e in report["compute_optimal"]] == [
        (f_C, expected[f_C][3] if f_C in expected else None) for f_C in budgets
    ]
