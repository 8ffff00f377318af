import io
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsweep import budget, space
from mixsweep.errors import ValidationError


def test_reference_constants_match_direct_evaluation():
    ref = budget.reference_constants()
    assert ref.compute == 1e18
    assert ref.target_tokens == 5.8316 * 1e18**0.4757
    assert ref.model_scale == 1e18 / ref.target_tokens
    # frozen oracle values (direct numeric evaluation)
    assert ref.target_tokens == pytest.approx(2.1300398438e9, rel=1e-9)
    assert ref.model_scale == pytest.approx(4.6947478607e8, rel=1e-9)


def test_reference_product_consistency():
    ref = budget.reference_constants()
    assert abs(ref.model_scale * ref.target_tokens - ref.compute) / ref.compute < 1e-12


def test_reference_is_singleton():
    assert budget.reference_constants() is budget.reference_constants()


def test_derive_all_zero_factors():
    ref = budget.reference_constants()
    setup = budget.derive_single_stage(budget.FactorTuple(0, 0, 0, 0))
    assert setup.ratio == 1
    assert setup.model_scale == ref.model_scale
    assert setup.epochs == 1
    assert setup.compute == 1e18
    assert setup.target_tokens == ref.target_tokens
    assert setup.total_tokens == ref.target_tokens
    assert setup.f_D == 0


def test_derive_mixed_factors():
    ref = budget.reference_constants()
    setup = budget.derive_single_stage(budget.FactorTuple(2, 1, 3, -2))
    assert setup.f_D == -6
    assert setup.ratio == Fraction(1, 4)
    assert setup.model_scale == ref.model_scale / 2
    assert setup.epochs == 8
    assert setup.compute == 1e18 / 4
    assert setup.target_tokens == ref.target_tokens / 64


def test_equal_factor_tuples_share_one_derived_setup():
    # space keeps one derived setup per factor tuple: equal specs, one- or two-stage, and
    # a spec read back from setups.jsonl all return that object
    first = space.SetupSpec(budget.FactorTuple(2, 1, 3, -2))
    same = space.SetupSpec(budget.FactorTuple(2, 1, 3, -2), Fraction(0), Fraction(1))
    buf = io.StringIO()
    space.write_jsonl([first], buf)
    (read,) = space.read_jsonl(io.StringIO(buf.getvalue()))
    assert same.derived() is first.derived() is read.derived()
    assert first.derived() == budget.derive_single_stage(first.factors)
    with pytest.raises(ValidationError, match="leaves the float range"):
        budget.derive_single_stage(budget.FactorTuple(0, -2000, 0, 0))


def test_cell_budgets_are_the_derived_setups_budgets(all_setups):
    ref = budget.reference_constants()
    for spec in all_setups:
        setup, f = spec.derived(), spec.factors
        assert budget.cell_budgets(f.f_C, f.f_D) == (setup.compute, setup.target_tokens)
        assert budget.cell_budgets(f.f_C, f.f_D) == (ref.compute * 2.0**f.f_C,
                                                      ref.target_tokens * 2.0**f.f_D)
        assert budget.cell_budgets(f.f_C, f.f_D + f.f_k + f.f_r)[1] == setup.total_tokens


@pytest.mark.parametrize("f_C, f_D", [(0, 2000), (0, -1200), (-1200, 0), (0, 10**400),
                                      (-(10**400), 0)])
def test_cell_budgets_outside_the_float_range_raise(f_C, f_D):
    with pytest.raises(ValidationError,
                       match=rf"^cell \(f_C={f_C}, f_D={f_D}\) leaves the float range$"):
        budget.cell_budgets(f_C, f_D)


_INVALID_FACTORS = {
    (-1, 0, 0, 0): r"f_r must be in \[0, 4096\], got -1",
    (0, 0, -2, 0): "f_k must be >= 0, got -2",
    (0, 0, 0, 1): "f_C must be <= 0, got 1",
}


@pytest.mark.parametrize("factors", list(_INVALID_FACTORS))
def test_invalid_factors_rejected(factors):
    with pytest.raises(ValidationError, match=_INVALID_FACTORS[factors]):
        budget.FactorTuple(*factors)


@pytest.mark.parametrize("name", ["f_r", "f_M", "f_k", "f_C"])
@pytest.mark.parametrize("value", [True, 0.0, -1.0, "0"])
def test_non_int_factors_rejected(name, value):
    # 1.0 and True hash like 1, so accepting them would let the id cache mix them up
    factors = {"f_r": 1, "f_M": 0, "f_k": 0, "f_C": 0}
    factors[name] = value
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value!r}$"):
        budget.FactorTuple(**factors)


def _grid():
    for f_r in range(0, 4):
        for f_M in range(-1, 6):
            for f_k in range(0, 10):
                for f_C in range(-4, 1):
                    yield budget.FactorTuple(f_r, f_M, f_k, f_C)


def test_compute_identity_exact_over_grid():
    for factors in _grid():
        setup = budget.derive_single_stage(factors)
        f = setup.factors
        assert -f.f_M + (f.f_D + f.f_k + f.f_r) == f.f_C
        lhs = setup.model_scale * (setup.epochs * setup.target_tokens / float(setup.ratio))
        assert abs(lhs - setup.compute) / setup.compute < 1e-12
        # definition of the language ratio
        assert setup.epochs * setup.target_tokens / setup.total_tokens == pytest.approx(
            float(setup.ratio), rel=1e-12
        )


def test_factor_to_quadruple_bijection():
    seen = {}
    for factors in _grid():
        setup = budget.derive_single_stage(factors)
        key = (setup.ratio, setup.model_scale, setup.epochs, setup.compute)
        assert key not in seen, f"{factors} collides with {seen[key]}"
        seen[key] = factors


# A two-stage setup's stage split is its SetupSpec's first_stage_share, on r = 2**-f_r.
def _share(f_r, r1, r2):
    return space.SetupSpec(budget.FactorTuple(f_r, 0, 0, 0), r1, r2).first_stage_share


def test_stage_split_midpoint():
    assert _share(2, Fraction(0), Fraction(1, 2)) == Fraction(1, 2)


def test_stage_split_asymmetric():
    assert _share(2, Fraction(1, 8), Fraction(1, 2)) == Fraction(2, 3)


def test_stage_split_boundary_is_degenerate_single_stage():
    # r == r2 would leave stage 2 no tokens: only the single-stage setup stands for it
    with pytest.raises(ValidationError, match="need r1 < r < r2 strictly"):
        _share(1, Fraction(1, 8), Fraction(1, 2))
    assert space.SetupSpec(budget.FactorTuple(1, 0, 0, 0)).first_stage_share is None


def test_stage_split_round_trip_exact():
    ratios = [Fraction(0), Fraction(1, 32), Fraction(1, 16), Fraction(1, 8),
              Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    checked = 0
    for f_r in range(6):
        r = Fraction(1, 2**f_r)
        for r1 in ratios:
            for r2 in ratios:
                if not r1 < r < r2:
                    continue
                s1 = _share(f_r, r1, r2)
                assert type(s1) is Fraction
                assert s1 * r1 + (1 - s1) * r2 == r
                assert 0 < s1 < 1
                checked += 1
    assert checked == 50


@st.composite
def _stage_ratios(draw):
    """f_r in [1, 20] and 0 <= r1 < 2**-f_r < r2 <= 1, often with r1 = 0 or r2 = 1."""
    f_r = draw(st.integers(1, 20))
    r = Fraction(1, 2**f_r)
    r1 = draw(st.just(Fraction(0))
              | st.fractions(0, r, max_denominator=2**20).filter(lambda x: x < r))
    r2 = draw(st.just(Fraction(1))
              | st.fractions(r, 1, max_denominator=2**20).filter(lambda x: x > r))
    return f_r, r1, r2


@given(_stage_ratios())
def test_stage_split_identities_on_generated_ratios(case):
    f_r, r1, r2 = case
    r = Fraction(1, 2**f_r)
    s1 = _share(f_r, r1, r2)
    assert s1 == (r2 - r) / (r2 - r1)
    assert s1 * r1 + (1 - s1) * r2 == r
    assert 0 < s1 < 1


def test_stage_split_errors():
    with pytest.raises(ValidationError, match="need r1 < r < r2 strictly, got r1=1/2, r=1/4"):
        _share(2, Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValidationError, match="need r1 < r < r2 strictly, got r1=1/4, r=1/8"):
        _share(3, Fraction(1, 4), Fraction(1, 2))


@pytest.mark.parametrize(
    "f_r, r1, r2",
    [(2, Fraction(-1, 4), Fraction(1, 2)), (1, Fraction(1, 4), Fraction(3, 2))],
    ids=["r1-negative", "r2-above-one"],
)
def test_stage_split_rejects_stage_ratios_outside_the_unit_interval(f_r, r1, r2):
    with pytest.raises(ValidationError, match=r"stage ratios must lie in \[0, 1\]"):
        _share(f_r, r1, r2)


def test_float_round_trip_tolerance():
    # float path of s1*r1 + s2*r2 stays within 1e-12 of the exact ratio
    s1 = _share(2, Fraction(1, 8), Fraction(3, 4))
    back = float(s1) * 0.125 + float(1 - s1) * 0.75
    assert math.isclose(back, 0.25, rel_tol=1e-12)
