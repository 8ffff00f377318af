import copy
import io
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsweep import space
from mixsweep.budget import FactorTuple, derive_single_stage
from mixsweep.errors import INPUT_ERRORS, FileFormatError, ValidationError, input_message

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
    row = {0: space.default_ranges()[0]}
    setups = space.enumerate_single_stage(row)
    assert len(setups) == brute_force_row_count(0) == 134


@pytest.mark.parametrize("f_C", sorted(ROW_SPECS))
def test_single_stage_counts_per_row(f_C):
    row = {f_C: space.default_ranges()[f_C]}
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
    restricted = {f_C: space.default_ranges()[f_C] for f_C in (-4, -2)}
    setups = space.enumerate_single_stage(restricted)
    assert {s.factors.f_C for s in setups} == {-4, -2}


def test_empty_ranges_give_empty_list():
    empty = {}
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
    row = {0: space.default_ranges()[0]}
    base = [s for s in space.enumerate_single_stage(row) if s.factors.f_r == f_r]
    variants = [s for s in space.enumerate_two_stage(row) if s.factors.f_r == f_r]
    assert len(variants) == expected * len(base)


def test_two_stage_never_violates_ordering(all_setups):
    for setup in all_setups:
        if not setup.is_two_stage:
            continue
        ratio = Fraction(1, 2**setup.factors.f_r)
        assert 0 <= setup.first_stage_ratio < ratio < setup.second_stage_ratio <= 1
        assert 0 < setup.first_stage_share < 1


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
    if 0 <= r1 < ratio < r2 <= 1:
        assert space.SetupSpec(factors, r1, r2).is_two_stage
        return
    with pytest.raises(ValidationError) as excinfo:
        space.SetupSpec(factors, r1, r2)
    if r1 < ratio < r2:
        assert str(excinfo.value) == f"stage ratios must lie in [0, 1], got r1={r1}, r2={r2}"
    else:
        assert str(excinfo.value) == f"need r1 < r < r2 strictly, got r1={r1}, r={ratio}, r2={r2}"


@pytest.mark.parametrize(
    "r1, r2", [(Fraction(0), Fraction(3, 2)), (Fraction(-1, 8), Fraction(1, 2))],
    ids=["r2-above-one", "r1-negative"],
)
def test_stage_ratios_outside_the_unit_interval_fail_at_construction(r1, r2):
    # r1 < r = 1/4 < r2 holds for both, so only the [0, 1] check can refuse them
    with pytest.raises(ValidationError, match=r"^stage ratios must lie in \[0, 1\], got r1="):
        space.SetupSpec(FactorTuple(2, 1, 3, -2), r1, r2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((FactorTuple(1, 0, 0, 0), 0.25, 0.75), "first_stage_ratio must be a Fraction, got 0.25"),
        ((FactorTuple(1, 0, 0, 0), Fraction(0), 1), "second_stage_ratio must be a Fraction, got 1"),
        ((FactorTuple(1, 0, 0, 0), False, Fraction(1)),
         "first_stage_ratio must be a Fraction, got False"),
        ((FactorTuple(1, 0, 0, 0), "1/8", None), "first_stage_ratio must be a Fraction, got '1/8'"),
        (((1, 0, 0, 0),), "factors must be a FactorTuple, got (1, 0, 0, 0)"),
    ],
    ids=["float", "int", "bool", "str", "plain-tuple"],
)
def test_setup_arguments_of_another_type_fail_at_construction(args, message):
    with pytest.raises(ValidationError) as info:
        space.SetupSpec(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("ratios", [(), (Fraction(0), Fraction(1))], ids=["one", "two"])
def test_factors_that_leave_the_float_range_fail_at_construction(ratios):
    factors = FactorTuple(1, -2000, 0, 0)
    with pytest.raises(ValidationError) as derived:
        derive_single_stage(factors)
    assert str(derived.value) == f"{factors!r} leaves the float range"
    with pytest.raises(ValidationError) as info:
        space.SetupSpec(factors, *ratios)
    assert str(info.value) == str(derived.value)


def _in_category(spec, category):
    """Nested category membership by a branch chain: the oracle for the category table."""
    if category == "multi-2stage":
        return True
    if category == "multi-1stage":
        return not spec.is_two_stage
    if category == "mono-1stage":
        return spec.approach == "mono-1stage"
    raise ValueError(f"unknown category {category!r}")


def test_approach_tags():
    mono = space.SetupSpec(FactorTuple(0, 0, 0, 0))
    multi = space.SetupSpec(FactorTuple(1, 0, 0, 0))
    two = space.SetupSpec(FactorTuple(1, 0, 0, 0), Fraction(0), Fraction(1))
    assert mono.approach == "mono-1stage"
    assert multi.approach == "multi-1stage"
    assert two.approach == "multi-2stage"
    # nested membership, for all 3 x 3 (approach, category) pairs
    assert _in_category(mono, "multi-1stage")
    assert _in_category(mono, "multi-2stage")
    assert _in_category(multi, "multi-2stage")
    assert not _in_category(multi, "mono-1stage")
    assert not _in_category(two, "multi-1stage")
    assert list(space.CATEGORIES_BY_APPROACH) == list(space.APPROACHES)
    for spec in (mono, multi, two):
        for category in space.APPROACHES:
            in_table = category in space.CATEGORIES_BY_APPROACH[spec.approach]
            assert in_table == _in_category(spec, category), (spec.approach, category)


def test_same_budget_cell_for_compensating_factors():
    a = space.SetupSpec(FactorTuple(0, 0, 0, 0))
    b = space.SetupSpec(FactorTuple(1, 1, 0, 0))
    assert (a.factors.f_C, a.factors.f_D) == (b.factors.f_C, b.factors.f_D) == (0, 0)
    assert a.derived().compute == b.derived().compute
    assert a.derived().target_tokens == b.derived().target_tokens


def test_reference_row_has_seven_budget_cells():
    row = {0: space.default_ranges()[0]}
    cells = {(s.factors.f_C, s.factors.f_D) for s in space.enumerate_single_stage(row)}
    assert sorted(f_D for _, f_D in cells) == list(range(-5, 2))


def test_id_format():
    setup = space.SetupSpec(FactorTuple(2, 1, 3, -2))
    assert setup.id == "fC-2_fD-6_fr2_fM1_fk3"
    two = space.SetupSpec(FactorTuple(2, 1, 3, -2), Fraction(1, 8), Fraction(1, 2))
    assert two.id == "fC-2_fD-6_fr2_fM1_fk3_r11/8_r21/2"


def test_wire_round_trip(all_setups):
    for setup in all_setups[::97]:
        assert space.from_wire(json.loads(space.wire_line(setup))) == setup


def test_wire_field_contract():
    single = json.loads(space.wire_line(space.SetupSpec(FactorTuple(0, 0, 0, 0))))
    assert list(single) == ["id", "approach", "f_r", "f_M", "f_k", "f_C", "f_D", "derived"]
    assert list(single["derived"]) == ["r", "r_frac", "M", "k", "C", "D_T", "D_total"]
    two = json.loads(space.wire_line(
        space.SetupSpec(FactorTuple(1, 0, 0, 0), Fraction(0), Fraction(1))))
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
    moved = spec._replace(factors=FactorTuple(f.f_r, f.f_M, f.f_k + 1, f.f_C))
    assert moved.id == _written_out_id(moved) != spec.id
    assert "id=" not in repr(moved)


def test_jsonl_errors_carry_line_numbers():
    good = space.wire_line(space.SetupSpec(FactorTuple(0, 0, 0, 0)))
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


# The codec before its per-setup work was cached, kept as test-only oracles:
# the cached code must write the same bytes and read to the same specs or errors.


def _oracle_enumerate_two_stage(ranges=None):
    out = []
    for base in space.enumerate_single_stage(ranges):
        ratio = Fraction(1, 2**base.factors.f_r)
        for r1 in space.FIRST_STAGE_RATIOS:
            if not r1 < ratio:
                continue
            for r2 in space.SECOND_STAGE_RATIOS:
                if ratio < r2:
                    out.append(space.SetupSpec(base.factors, r1, r2))
    return out


def _oracle_to_wire(spec):
    derived = spec.derived()
    obj = {
        "id": spec.id,
        "approach": spec.approach,
        "f_r": spec.factors.f_r,
        "f_M": spec.factors.f_M,
        "f_k": spec.factors.f_k,
        "f_C": spec.factors.f_C,
        "f_D": spec.factors.f_D,
    }
    if spec.is_two_stage:
        obj["r1"] = float(spec.first_stage_ratio)
        obj["r1_frac"] = str(spec.first_stage_ratio)
        obj["r2"] = float(spec.second_stage_ratio)
        obj["r2_frac"] = str(spec.second_stage_ratio)
    derived_obj = {
        "r": float(derived.ratio),
        "r_frac": str(derived.ratio),
        "M": derived.model_scale,
        "k": derived.epochs,
        "C": derived.compute,
        "D_T": derived.target_tokens,
        "D_total": derived.total_tokens,
    }
    if spec.is_two_stage:
        r1, r2 = spec.first_stage_ratio, spec.second_stage_ratio
        s1 = (r2 - derived.ratio) / (r2 - r1)
        derived_obj["s1"] = float(s1)
        derived_obj["s1_frac"] = str(s1)
        derived_obj["s2"] = float(1 - s1)
        derived_obj["s2_frac"] = str(1 - s1)
    obj["derived"] = derived_obj
    return obj


def _oracle_from_wire(obj):
    factors = space._factor_parts(
        space.json_field(obj, "f_r", int),
        space.json_field(obj, "f_M", int),
        space.json_field(obj, "f_k", int),
        space.json_field(obj, "f_C", int),
    ).factors
    r1 = space._ratio(obj["r1_frac"]) if "r1_frac" in obj else None
    r2 = space._ratio(obj["r2_frac"]) if "r2_frac" in obj else None
    spec = space.SetupSpec(factors, r1, r2)
    if "id" in obj and obj["id"] != spec.id:
        raise space._mismatch(obj, "id", spec.id)
    if "approach" in obj and obj["approach"] != spec.approach:
        raise space._mismatch(obj, "approach", spec.approach)
    if "f_D" in obj and (type(obj["f_D"]) is not int or obj["f_D"] != factors.f_D):
        raise space._mismatch(obj, "f_D", factors.f_D)
    return spec


def _oracle_read_jsonl(fp):
    first_line = {}
    lineno = 0
    try:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise FileFormatError(f"invalid JSON ({exc})") from exc
            spec = _oracle_from_wire(obj)
            seen = first_line.setdefault(spec.id, lineno)
            if seen != lineno:
                raise FileFormatError(f"duplicate setup id {spec.id!r} (first on line {seen})")
            yield spec
    except UnicodeDecodeError:
        raise
    except INPUT_ERRORS as exc:
        raise FileFormatError(f"line {lineno}: {input_message(exc)}") from exc


#: Two-stage setups whose ratios are off the default grid.
_OFF_GRID = [
    space.SetupSpec(FactorTuple(1, 2, 3, -1), Fraction(1, 3), Fraction(2, 3)),
    space.SetupSpec(FactorTuple(1, 0, 0, 0), Fraction(2, 7), Fraction(5, 7)),
    space.SetupSpec(FactorTuple(2, -3, 9, -4), Fraction(1, 5), Fraction(2, 7)),
    space.SetupSpec(FactorTuple(3, 4, 0, 0), Fraction(0), Fraction(1, 3)),
]


def _oracle_lines(specs):
    return [json.dumps(_oracle_to_wire(spec)) for spec in specs]


def test_wire_bytes_match_the_oracle_on_the_grid_and_off_it(all_setups):
    specs = all_setups + _OFF_GRID
    assert list(map(space.wire_line, specs)) == _oracle_lines(specs)


@given(_setups())
def test_wire_bytes_match_the_oracle(specs):
    assert list(map(space.wire_line, specs)) == _oracle_lines(specs)


@st.composite
def _ranges(draw):
    """Up to 3 compute rows, each with its own f_M and f_D windows."""
    rows = {}
    for f_C in draw(st.sets(st.integers(-6, 0), max_size=3)):
        m_lo, d_lo = draw(st.integers(-3, 6)), draw(st.integers(-9, 2))
        rows[f_C] = space.RangeRow(f_M=(m_lo, m_lo + draw(st.integers(0, 5))),
                                   f_D=(d_lo, d_lo + draw(st.integers(0, 7))))
    return rows


@given(_ranges())
def test_two_stage_enumeration_matches_the_oracle(ranges):
    got = space.enumerate_two_stage(ranges)
    assert got == _oracle_enumerate_two_stage(ranges)
    assert [s.id for s in got] == [s.id for s in _oracle_enumerate_two_stage(ranges)]


_DROP = object()


def _edit(line, **fields):
    """The wire line with ``fields`` set, or removed where the value is ``_DROP``."""
    obj = json.loads(line)
    for key, value in fields.items():
        if value is _DROP:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps(obj)


def _corruptions(lines):
    """(name, text) of each way a setups file can go wrong; lines[2] is two-stage."""
    one, two, split = lines[0], lines[1], lines[2]
    deep = '{"f_r": ' + "[" * 10_000 + "]" * 10_000 + "}"
    return {
        "good": one + two + split,
        "bom": "\ufeff" + one + two,
        "bom-second-line": one + "\ufeff" + two,
        "trailing-data": one + two.rstrip("\n") + " {}\n",
        "trailing-comma": one.rstrip("\n") + ",\n",
        "blank-lines": "\n  \n" + one + "\t\n\n" + two + "   ",
        "nan-in-derived": one + two.replace('"M": ', '"M": NaN, "_M": ', 1),
        "nan-factor": _edit(one, f_k=math.nan) + "\n",
        "infinity-factor": one.replace('"f_k": ', '"f_k": -Infinity, "_": ', 1),
        "deep-nesting": one + deep + "\n",
        "long-integer": one.replace('"f_M": ', '"f_M": 1' + "0" * 4_999 + ', "_": ', 1),
        "truncated": one + two[: len(two) // 2] + "\n",
        "duplicate-id": one + two + split + two,
        "bool-factor": _edit(two, f_M=True) + "\n",
        "float-factor": _edit(one, f_C=0.0) + "\n",
        "bool-then-missing": _edit(two, f_r=False, f_C=_DROP) + "\n",
        "tampered-id": _edit(two, id="fC0_fD0_fr0_fM0_fk0") + "\n",
        "tampered-approach": _edit(split, approach="mono-1stage") + "\n",
        "tampered-f_D": _edit(split, f_D=3) + "\n",
        "bool-f_D": _edit(one, f_D=True) + "\n",
        "bad-r1_frac": _edit(split, r1_frac="1/0") + "\n",
        "decimal-r1_frac": _edit(split, r1_frac="0.5") + "\n",
        "float-r1_frac": _edit(split, r1_frac=0.5) + "\n",
        "lone-r2_frac": _edit(split, r1_frac=_DROP) + "\n",
        "missing-field": _edit(two, f_C=_DROP) + "\n",
        "missing-every-field": "{}\n",
        "invalid-escape": one.replace('"id"', '"\\q"', 1),
        "control-character": one.replace("fC", "f\x01C", 1),
    }


def _outcome(reader, text):
    try:
        return list(reader(io.StringIO(text)))
    except FileFormatError as exc:
        return str(exc)


def _grid_lines():
    """Wire lines of two single-stage setups and a two-stage one."""
    specs = space.enumerate_all({0: space.default_ranges()[0]})
    buf = io.StringIO()
    space.write_jsonl([specs[0], specs[5], next(s for s in specs if s.is_two_stage)], buf)
    return buf.getvalue().splitlines(keepends=True)


_CORRUPTIONS = _corruptions(_grid_lines())


@pytest.mark.parametrize("case", list(_CORRUPTIONS))
def test_read_jsonl_gives_the_oracle_specs_or_error(case):
    text = _CORRUPTIONS[case]
    got = _outcome(space.read_jsonl, text)
    assert got == _outcome(_oracle_read_jsonl, text)
    assert isinstance(got, list) == (case in ("good", "blank-lines", "nan-in-derived"))


@pytest.mark.parametrize("line", ["null", "[1, 2]", '"x"', "3", "true", "NaN", "[]"])
def test_read_jsonl_names_a_line_that_is_not_an_object(line):
    good = _grid_lines()[0]
    got = _outcome(space.read_jsonl, good + line + "\n")
    assert got == "line 2: expected a JSON object"
    assert got != _outcome(_oracle_read_jsonl, good + line + "\n")


def test_writing_the_grid_splits_each_stage_ratio_triple_once(monkeypatch):
    for value in vars(space).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    calls = []
    share = space._first_stage_share

    def counting_split(*args):
        calls.append(args)
        return share(*args)

    monkeypatch.setattr(space, "_first_stage_share", counting_split)
    specs = space.enumerate_all()
    triples = {(s.first_stage_ratio, s.second_stage_ratio, s.factors.f_r)
               for s in specs if s.is_two_stage}
    buf = io.StringIO()
    assert space.write_jsonl(specs, buf) == 5_250
    assert 0 < len(calls) <= len(triples) == 34
    assert list(space.read_jsonl(io.StringIO(buf.getvalue()))) == specs
    assert space._ratio_parts.cache_info().misses == 38
    assert space._factor_parts.cache_info().misses == 586


def _no_json_decode(monkeypatch):
    def decode(*args):
        raise AssertionError("a line was decoded by JSON")

    for name in ("json_object", "from_wire"):
        monkeypatch.setattr(space, name, decode)


@pytest.mark.parametrize("argv", [[], ["--stages", "two", "--fc", "-1"]])
def test_reading_what_enumerate_writes_decodes_no_line_by_json(tmp_path, monkeypatch, argv):
    from mixsweep import cli

    path = tmp_path / "setups.jsonl"
    assert cli.run(["enumerate", "--out", str(path), *argv]) == 0
    specs = (space.enumerate_two_stage({-1: space.default_ranges()[-1]}) if argv
             else space.enumerate_all())
    assert len(specs) == (968 if argv else 5_250)
    assert path.read_text() == "".join(f"{space.wire_line(spec)}\n" for spec in specs)
    _no_json_decode(monkeypatch)
    with path.open() as fh:
        assert list(space.read_jsonl(fh)) == specs


def test_reading_written_off_grid_setups_decodes_no_line_by_json(monkeypatch):
    buf = io.StringIO()
    space.write_jsonl(_OFF_GRID, buf)
    _no_json_decode(monkeypatch)
    assert list(space.read_jsonl(io.StringIO(buf.getvalue()))) == _OFF_GRID


@st.composite
def _split_setups(draw):
    """Two-stage setups off the ratio grid: r1's denominator such as 3, 7, 1000 or up to
    10**6, and r2 = 1 in half of the draws."""
    f_r = draw(st.integers(1, 20))
    factors = FactorTuple(
        f_r, draw(st.integers(-30, 30)), draw(st.integers(0, 30)), draw(st.integers(-30, 0))
    )
    ratio = Fraction(1, 2**f_r)
    den = draw(st.sampled_from([3, 7, 1000]) | st.integers(1, 10**6))
    r1 = Fraction(draw(st.integers(0, math.ceil(den * ratio) - 1)), den)
    above = draw(st.fractions(0, 1, max_denominator=1000).filter(lambda b: b > 0))
    r2 = Fraction(1) if draw(st.booleans()) else ratio + (1 - ratio) * above
    return space.SetupSpec(factors, r1, r2)


@given(_split_setups())
def test_a_written_line_reads_back_to_the_constructors_spec(spec):
    line = space.wire_line(spec)
    fast = space._from_wire_line(line)
    assert list(space.read_jsonl(io.StringIO(line + "\n"))) == [fast]
    assert fast == spec and type(fast) is space.SetupSpec
    assert (fast.id, fast.approach, fast.first_stage_share) == (
        spec.id, spec.approach, spec.first_stage_share)
    assert fast == space.from_wire(json.loads(line))
    for twin in (pickle.loads(pickle.dumps(fast)), copy.copy(fast), copy.deepcopy(fast)):
        assert twin == fast and type(twin) is space.SetupSpec and twin.id == fast.id


def _changed_digit(line, draw):
    """The line with one digit of its ``derived`` block changed."""
    start = line.index('"derived"')
    at = draw(st.sampled_from([i for i in range(start, len(line)) if line[i].isdigit()]))
    return line[:at] + str((int(line[at]) + 1) % 10) + line[at + 1:]


def _id_with(line, old, new):
    head, rest = line.split('", "approach"', 1)
    assert old in head
    return head.replace(old, new, 1) + '", "approach"' + rest


#: Ways a canonical line can miss ``wire_line``'s bytes; each takes (line, spec, draw).
_NEAR_MISSES = {
    "sort-keys": lambda line, spec, draw: json.dumps(json.loads(line), sort_keys=True),
    "compact": lambda line, spec, draw: json.dumps(json.loads(line), separators=(",", ":")),
    "derived-digit": lambda line, spec, draw: _changed_digit(line, draw),
    "trailing-key": lambda line, spec, draw: line[:-1] + ', "note": 1}',
    "fC-0": lambda line, spec, draw: _id_with(line, f"fC{spec.factors.f_C}_",
                                              f"fC-0{-spec.factors.f_C or ''}_"),
    "wrong-fD-in-id": lambda line, spec, draw: _id_with(
        line, f"_fD{spec.factors.f_D}_", f"_fD{spec.factors.f_D + 1}_"),
    "wrong-f_D": lambda line, spec, draw: line.replace(
        f'"f_D": {spec.factors.f_D},', f'"f_D": {spec.factors.f_D - 1},', 1),
}

#: A setup that neither the grid nor ``_setups`` makes, to put each near miss on line 2.
_LINE_ONE = space.wire_line(space.SetupSpec(FactorTuple(0, 30, 0, 0))) + "\n"


@given(st.one_of(st.sampled_from(space.enumerate_all({0: space.default_ranges()[0]})),
                 st.sampled_from(_OFF_GRID), _setups().map(lambda specs: specs[-1])),
       st.sampled_from(sorted(_NEAR_MISSES)), st.data())
def test_a_near_miss_of_a_written_line_reads_as_the_oracle_reads_it(spec, miss, data):
    line = space.wire_line(spec)
    near = _NEAR_MISSES[miss](line, spec, data.draw)
    assert near != line
    for text in (near + "\n", _LINE_ONE + near + "\n"):
        assert _outcome(space.read_jsonl, text) == _outcome(_oracle_read_jsonl, text)


@pytest.mark.parametrize("line", [
    '{"id": "fC1_fD1_fr0_fM0_fk0"}',
    '{"id": "fC0_fD-5000_fr5000_fM0_fk0"}',
    '{"id": "fC0_fD-1_fr1_fM0_fk0_r11/0_r21"}',
    '{"id": "fC0_fD-1_fr1_fM0_fk0_r10_r23/0"}',
])
def test_an_id_only_line_that_names_no_setup_reads_as_the_oracle_reads_it(line):
    for text in (line + "\n", _LINE_ONE + line + "\n"):
        got = _outcome(space.read_jsonl, text)
        assert isinstance(got, str) and got == _outcome(_oracle_read_jsonl, text)
