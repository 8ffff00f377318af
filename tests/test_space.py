import dataclasses
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsweep import space
from mixsweep.budget import FactorTuple
from mixsweep.errors import FileFormatError, ValidationError

ROW_SPECS = {
    0: ((-1, 5), (-5, 2)),
    -1: ((0, 5), (-6, 1)),
    -2: ((0, 5), (-6, 1)),
    -3: ((1, 6), (-7, 0)),
    -4: ((1, 6), (-7, 0)),
}


def brute_force_row_count(f_C):
    """Independent four-deep nested loop with the f_D filter."""
    (m_lo, m_hi), (d_lo, d_hi) = ROW_SPECS[f_C]
    count = 0
    for f_r in range(0, 4):
        for f_M in range(m_lo, m_hi):
            for f_k in range(0, 10):
                if d_lo <= -f_r + f_M - f_k + f_C < d_hi:
                    count += 1
    return count


def test_single_stage_reference_row_count():
    row = space.default_ranges().restrict_budgets([0])
    setups = space.enumerate_single_stage(row)
    assert len(setups) == brute_force_row_count(0) == 134


@pytest.mark.parametrize("f_C", sorted(ROW_SPECS))
def test_single_stage_counts_per_row(f_C):
    row = space.default_ranges().restrict_budgets([f_C])
    assert len(space.enumerate_single_stage(row)) == brute_force_row_count(f_C)


def test_every_emitted_setup_respects_its_row_window():
    for setup in space.enumerate_single_stage():
        (m_lo, m_hi), (d_lo, d_hi) = ROW_SPECS[setup.factors.f_C]
        assert m_lo <= setup.factors.f_M < m_hi
        assert d_lo <= setup.factors.f_D < d_hi
        assert 0 <= setup.factors.f_r < 4
        assert 0 <= setup.factors.f_k < 10


def test_enumeration_is_deterministic_and_ordered():
    first = space.enumerate_single_stage()
    second = space.enumerate_single_stage()
    assert first == second
    assert [s.id for s in first] == [s.id for s in second]
    keys = [
        (s.factors.f_C, s.factors.f_D, s.factors.f_r, s.factors.f_M, s.factors.f_k)
        for s in first
    ]
    assert keys == sorted(keys)


def test_budget_restriction_drops_other_rows():
    restricted = space.default_ranges().restrict_budgets([-4, -2])
    setups = space.enumerate_single_stage(restricted)
    assert {s.factors.f_C for s in setups} == {-4, -2}


def test_empty_ranges_give_empty_list():
    empty = space.default_ranges().restrict_budgets([])
    assert space.enumerate_single_stage(empty) == []
    assert space.enumerate_two_stage(empty) == []


def brute_force_variant_count(ratio):
    return sum(
        1
        for r1 in space.FIRST_STAGE_RATIOS
        for r2 in space.SECOND_STAGE_RATIOS
        if r1 < ratio < r2
    )


@pytest.mark.parametrize(
    "f_r,expected",
    [(0, 0), (1, 10), (2, 12), (3, 12)],
)
def test_two_stage_variant_counts(f_r, expected):
    ratio = Fraction(1, 2**f_r)
    assert brute_force_variant_count(ratio) == expected
    row = space.default_ranges().restrict_budgets([0])
    base = [s for s in space.enumerate_single_stage(row) if s.factors.f_r == f_r]
    variants = [s for s in space.enumerate_two_stage(row) if s.factors.f_r == f_r]
    assert len(variants) == expected * len(base)


def test_two_stage_never_violates_ordering(all_setups):
    for setup in all_setups:
        if not setup.is_two_stage:
            continue
        ratio = Fraction(1, 2**setup.factors.f_r)
        assert setup.first_stage_ratio < ratio < setup.second_stage_ratio
        split = setup.split()
        assert 0 < split.first_length < 1


def test_manual_two_stage_boundary_rejected():
    with pytest.raises(ValidationError, match="need r1 < r < r2 strictly, got r1=1/2, r=1/2"):
        space.SetupSpec(FactorTuple(1, 0, 0, 0), Fraction(1, 2), Fraction(3, 4))


@st.composite
def _stage_ratios(draw):
    """f_r in [0, 12] and r1, r2 with denominators <= 64, often equal to 2**-f_r."""
    f_r = draw(st.integers(0, 12))
    equal = st.just(Fraction(1, 2**f_r))
    r1 = draw(st.one_of(equal, st.fractions(-1, 1, max_denominator=64)))
    r2 = draw(st.one_of(equal, st.fractions(-1, 2, max_denominator=64)))
    return f_r, r1, r2


@given(_stage_ratios())
def test_two_stage_ordering_check_matches_fraction_comparison(case):
    f_r, r1, r2 = case
    ratio = Fraction(1, 2**f_r)
    factors = FactorTuple(f_r, 0, 0, 0)
    if r1 < ratio < r2:
        assert space.SetupSpec(factors, r1, r2).is_two_stage
    else:
        with pytest.raises(ValidationError) as excinfo:
            space.SetupSpec(factors, r1, r2)
        assert str(excinfo.value) == f"need r1 < r < r2 strictly, got r1={r1}, r={ratio}, r2={r2}"


def test_approach_tags():
    mono = space.SetupSpec(FactorTuple(0, 0, 0, 0))
    multi = space.SetupSpec(FactorTuple(1, 0, 0, 0))
    two = space.SetupSpec(FactorTuple(1, 0, 0, 0), Fraction(0), Fraction(1))
    assert mono.approach == "mono-1stage"
    assert multi.approach == "multi-1stage"
    assert two.approach == "multi-2stage"
    # nested membership
    assert space.in_category(mono, "multi-1stage")
    assert space.in_category(mono, "multi-2stage")
    assert space.in_category(multi, "multi-2stage")
    assert not space.in_category(multi, "mono-1stage")
    assert not space.in_category(two, "multi-1stage")


def test_same_budget_cell_for_compensating_factors():
    a = space.SetupSpec(FactorTuple(0, 0, 0, 0))
    b = space.SetupSpec(FactorTuple(1, 1, 0, 0))
    assert (a.factors.f_C, a.factors.f_D) == (b.factors.f_C, b.factors.f_D) == (0, 0)
    assert a.derived().compute == b.derived().compute
    assert a.derived().target_tokens == b.derived().target_tokens


def test_reference_row_has_seven_budget_cells():
    row = space.default_ranges().restrict_budgets([0])
    cells = {(s.factors.f_C, s.factors.f_D) for s in space.enumerate_single_stage(row)}
    assert sorted(f_D for _, f_D in cells) == list(range(-5, 2))


def test_id_format():
    setup = space.SetupSpec(FactorTuple(2, 1, 3, -2))
    assert setup.id == "fC-2_fD-6_fr2_fM1_fk3"
    two = space.SetupSpec(FactorTuple(2, 1, 3, -2), Fraction(1, 8), Fraction(1, 2))
    assert two.id == "fC-2_fD-6_fr2_fM1_fk3_r11/8_r21/2"


def test_wire_round_trip(all_setups):
    for setup in all_setups[::97]:
        assert space.from_wire(space.to_wire(setup)) == setup


def test_wire_field_contract():
    single = space.to_wire(space.SetupSpec(FactorTuple(0, 0, 0, 0)))
    assert list(single) == ["id", "approach", "f_r", "f_M", "f_k", "f_C", "f_D", "derived"]
    assert list(single["derived"]) == ["r", "r_frac", "M", "k", "C", "D_T", "D_total"]
    two = space.to_wire(space.SetupSpec(FactorTuple(1, 0, 0, 0), Fraction(0), Fraction(1)))
    assert list(two) == [
        "id", "approach", "f_r", "f_M", "f_k", "f_C", "f_D",
        "r1", "r1_frac", "r2", "r2_frac", "derived",
    ]
    assert list(two["derived"]) == [
        "r", "r_frac", "M", "k", "C", "D_T", "D_total", "s1", "s1_frac", "s2", "s2_frac",
    ]
    assert two["r1_frac"] == "0"
    assert two["r2_frac"] == "1"


def test_jsonl_round_trip(all_setups):
    sample = all_setups[::211]
    buf = io.StringIO()
    assert space.write_jsonl(sample, buf) == len(sample)
    buf.seek(0)
    assert list(space.read_jsonl(buf)) == sample


@st.composite
def _setups(draw):
    """Up to 4 factor tuples, each with up to 4 distinct single- or two-stage setups."""
    specs = {}
    for _ in range(draw(st.integers(1, 4))):
        factors = FactorTuple(
            f_r=draw(st.integers(0, 8)),
            f_M=draw(st.integers(-20, 20)),
            f_k=draw(st.integers(0, 20)),
            f_C=draw(st.integers(-20, 0)),
        )
        ratio = Fraction(1, 2**factors.f_r)
        for _ in range(draw(st.integers(1, 4))):
            if factors.f_r == 0 or draw(st.booleans()):
                spec = space.SetupSpec(factors)
            else:
                r1 = draw(st.fractions(0, ratio, max_denominator=512).filter(lambda r: r < ratio))
                r2 = draw(st.fractions(ratio, 1, max_denominator=512).filter(lambda r: r > ratio))
                spec = space.SetupSpec(factors, r1, r2)
            specs[spec.id] = spec
    return list(specs.values())


def _written_out_id(spec):
    f = spec.factors

    def text(r):
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"

    setup_id = f"fC{f.f_C}_fD{f.f_M - f.f_r - f.f_k + f.f_C}_fr{f.f_r}_fM{f.f_M}_fk{f.f_k}"
    if spec.first_stage_ratio is None:
        return setup_id
    return f"{setup_id}_r1{text(spec.first_stage_ratio)}_r2{text(spec.second_stage_ratio)}"


@given(_setups())
def test_jsonl_round_trip_keeps_specs_ids_and_shared_factors(specs):
    buf = io.StringIO()
    space.write_jsonl(specs, buf)
    buf.seek(0)
    read = list(space.read_jsonl(buf))
    assert read == specs
    assert [hash(s) for s in read] == [hash(s) for s in specs]
    assert [s.id for s in read] == [_written_out_id(s) for s in specs]
    for a in read:
        assert all(a.factors is b.factors for b in read if b.factors == a.factors)
    spec = read[-1]
    f = spec.factors
    moved = dataclasses.replace(spec, factors=FactorTuple(f.f_r, f.f_M, f.f_k + 1, f.f_C))
    assert moved.id == _written_out_id(moved) != spec.id
    assert "id=" not in repr(moved)


def test_jsonl_errors_carry_line_numbers():
    good = json.dumps(space.to_wire(space.SetupSpec(FactorTuple(0, 0, 0, 0))))
    with pytest.raises(FileFormatError, match="line 2"):
        list(space.read_jsonl(io.StringIO(good + "\n{not json\n")))
    tampered = json.loads(good)
    tampered["f_k"] = 5  # id no longer matches
    with pytest.raises(FileFormatError, match="does not match"):
        list(space.read_jsonl(io.StringIO(json.dumps(tampered) + "\n")))


@pytest.mark.parametrize(
    "kind, value, expected",
    [
        (int, 3, 3),
        (int, -(10**400), -(10**400)),
        (float, 0.25, 0.25),
        (float, 7, 7.0),
        (bool, False, False),
        (str, "a", "a"),
    ],
    ids=["int", "huge-int", "float", "int-as-float", "bool", "str"],
)
def test_json_field_returns_a_value_of_its_kind(kind, value, expected):
    got = space.json_field({"x": value}, "x", kind)
    assert got == expected and type(got) is kind


@pytest.mark.parametrize(
    "kind, value, message",
    [
        (int, 2.0, "x must be an integer, got 2.0"),
        (int, True, "x must be an integer, got True"),
        (int, "2", "x must be an integer, got '2'"),
        (float, True, "x must be a finite number, got True"),
        (float, "0.5", "x must be a finite number, got '0.5'"),
        (float, float("nan"), "x must be a finite number, got nan"),
        (float, float("-inf"), "x must be a finite number, got -inf"),
        (float, 10**400, "x must be a finite number, got 1" + "0" * 400),
        (bool, 1, "x must be true or false, got 1"),
        (bool, "no", "x must be true or false, got 'no'"),
        (str, None, "x must be a string, got None"),
    ],
    ids=["float-for-int", "bool-for-int", "string-for-int", "bool-for-float", "string-for-float",
         "nan", "minus-inf", "int-beyond-float-range", "int-for-bool", "string-for-bool",
         "null-for-string"],
)
def test_json_field_never_casts(kind, value, message):
    with pytest.raises(ValueError) as info:
        space.json_field({"x": value}, "x", kind)
    assert str(info.value) == message


def test_json_field_reads_what_json_parses():
    obj = json.loads('{"big": 1e400, "int": 12, "float": 12.0}')
    assert space.json_field(obj, "int", float) == 12.0
    with pytest.raises(ValueError, match="float must be an integer, got 12.0"):
        space.json_field(obj, "float", int)
    with pytest.raises(ValueError, match="big must be a finite number, got inf"):
        space.json_field(obj, "big", float)
    with pytest.raises(KeyError):
        space.json_field(obj, "missing", int)
