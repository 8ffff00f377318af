import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mixsweep import budget
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
    first = budget.derive_single_stage(budget.FactorTuple(2, 1, 3, -2))
    assert budget.derive_single_stage(budget.FactorTuple(2, 1, 3, -2)) is first
    with pytest.raises(ValidationError, match="leaves the float range"):
        budget.derive_single_stage(budget.FactorTuple(0, -2000, 0, 0))


_INVALID_FACTORS = {
    (-1, 0, 0, 0): r"f_r must be in \[0, 4096\], got -1",
    (0, 0, -2, 0): "f_k must be >= 0, got -2",
    (0, 0, 0, 1): "f_C must be <= 0, got 1",
}


@pytest.mark.parametrize("factors", list(_INVALID_FACTORS))
def test_invalid_factors_rejected(factors):
    with pytest.raises(ValidationError, match=_INVALID_FACTORS[factors]):
        budget.FactorTuple(*factors)


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


def test_stage_split_midpoint():
    split = budget.stage_split(0, Fraction(1, 2), Fraction(1, 4))
    assert split.first_length == Fraction(1, 2)
    assert split.second_length == Fraction(1, 2)


def test_stage_split_asymmetric():
    split = budget.stage_split(Fraction(1, 8), Fraction(1, 2), Fraction(1, 4))
    assert split.first_length == Fraction(2, 3)
    assert split.second_length == Fraction(1, 3)


def test_stage_split_boundary_is_degenerate_single_stage():
    split = budget.stage_split(Fraction(1, 8), Fraction(1, 2), Fraction(1, 2))
    assert split.first_length == 0
    assert split.second_length == 1


def test_stage_split_round_trip_exact():
    ratios = [Fraction(0), Fraction(1, 32), Fraction(1, 16), Fraction(1, 8),
              Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for r1 in ratios:
        for r2 in ratios:
            if r1 >= r2:
                continue
            for r in ratios:
                if not r1 <= r <= r2:
                    continue
                split = budget.stage_split(r1, r2, r)
                assert split.average_ratio == r
                assert split.first_length + split.second_length == 1
                assert 0 <= split.first_length <= 1


_unit_fractions = st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(
    0, 1, max_denominator=10**6
)


@given(st.lists(_unit_fractions, min_size=3, max_size=3).map(sorted))
def test_stage_split_identities_on_generated_ratios(ratios):
    r1, r, r2 = ratios
    assume(r1 < r2)
    split = budget.stage_split(r1, r2, r)
    assert split.average_ratio == r
    assert split.first_length + split.second_length == 1


def test_stage_split_errors():
    with pytest.raises(ValidationError, match="stage ratios must satisfy r1 < r2, got 1/2 >= 1/4"):
        budget.stage_split(Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))
    with pytest.raises(ValidationError, match=r"average ratio 1/8 outside .* \[1/4, 1/2\]"):
        budget.stage_split(Fraction(1, 4), Fraction(1, 2), Fraction(1, 8))


@pytest.mark.parametrize(
    "r1, r2",
    [(Fraction(-1, 4), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 2))],
    ids=["r1-negative", "r2-above-one"],
)
def test_stage_split_rejects_stage_ratios_outside_the_unit_interval(r1, r2):
    with pytest.raises(ValidationError, match=r"stage ratios must lie in \[0, 1\]"):
        budget.stage_split(r1, r2, Fraction(1, 3))


def test_float_round_trip_tolerance():
    # float path of s1*r1 + s2*r2 stays within 1e-12 of the exact ratio
    split = budget.stage_split(Fraction(1, 8), Fraction(3, 4), Fraction(1, 4))
    back = float(split.first_length) * float(split.first_ratio) + float(
        split.second_length
    ) * float(split.second_ratio)
    assert math.isclose(back, 0.25, rel_tol=1e-12)
