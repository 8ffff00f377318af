import math
from fractions import Fraction

import pytest

from mixsweep import space, surrogate
from mixsweep.budget import FactorTuple
from mixsweep.errors import ValidationError

def test_composite_single_epoch_reduces_to_base_times_penalty():
    params = surrogate.SurrogateParams()
    target, ratio = 2.13e9, 0.25
    unique = target + 1 * target * (1 / ratio - 1)
    expected = (
        params.irreducible_loss
        + params.model_coeff / 4.7e8**params.model_exponent
        + params.data_coeff / unique**params.data_exponent
    ) * ratio**params.ratio_exponent
    assert surrogate.composite_loss(4.7e8, target, 1, ratio, params=params) == expected


def test_effective_tokens_saturates():
    params = surrogate.SurrogateParams()
    unique = 1e9
    saturated = surrogate.effective_tokens(unique, 10_000, 1.0, params)
    assert saturated == pytest.approx(unique * (1 + params.repeat_decay), rel=1e-9)
    assert surrogate.effective_tokens(unique, 1, 1.0, params) == unique


def test_effective_tokens_grows_with_epochs():
    params = surrogate.SurrogateParams()
    values = [surrogate.effective_tokens(1e9, k, 1.0, params) for k in (1, 2, 4, 8, 64)]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("ratio", [0, 1.5])
def test_effective_tokens_needs_a_ratio_in_the_unit_interval(ratio):
    with pytest.raises(ValidationError, match=rf"^ratio must be in \(0, 1\], got {float(ratio)}$"):
        surrogate.effective_tokens(1e9, 1, ratio, surrogate.SurrogateParams())


def test_gamma_zero_collapses_two_stage():
    params = surrogate.SurrogateParams(second_stage_weight=0.0)
    single = surrogate.composite_loss(4.7e8, 1e9, 4, 0.25, params=params)
    two = surrogate.composite_loss(4.7e8, 1e9, 4, 0.25, Fraction(1, 2), params=params)
    assert single == two


def test_two_stage_beats_matched_single_stage_when_gamma_positive():
    params = surrogate.SurrogateParams(second_stage_weight=0.5)
    single = surrogate.composite_loss(4.7e8, 1e9, 4, 0.25, params=params)
    two = surrogate.composite_loss(4.7e8, 1e9, 4, 0.25, Fraction(1), params=params)
    assert two < single


def test_monotone_in_model_scale_and_data():
    params = surrogate.SurrogateParams()
    scales = [1.5e7, 3e7, 1.2e8, 4.7e8, 9.4e8]
    losses = [surrogate.base_loss(m, 1e9, params) for m in scales]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    data = [1e8, 1e9, 1e10, 1e11]
    losses = [surrogate.base_loss(4.7e8, d, params) for d in data]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_monotone_decreasing_in_ratio():
    # holds for the defaults because |ratio_exponent| > data_exponent
    params = surrogate.SurrogateParams()
    ratios = [1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]
    losses = [surrogate.composite_loss(4.7e8, 1e9, 2, r, params=params) for r in ratios]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_params_validation():
    with pytest.raises(ValidationError):
        surrogate.SurrogateParams(ratio_exponent=0.2)
    with pytest.raises(ValidationError):
        surrogate.SurrogateParams(second_stage_weight=1.5)
    with pytest.raises(ValidationError):
        surrogate.SurrogateParams(irreducible_loss=0.0)
    with pytest.raises(ValidationError):
        surrogate.params_from_dict({"bogus": 1})
    for sigma in (-0.1, 64.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=r"^noise_sigma must be in \[0, 64\], got "):
            surrogate.SurrogateParams(noise_sigma=sigma)


_FLOAT_KNOBS = ("irreducible_loss", "model_coeff", "data_coeff", "model_exponent",
                "data_exponent", "ratio_exponent", "repeat_decay")


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in _FLOAT_KNOBS for value in (math.nan, math.inf, -math.inf)]
    + [("seed", 1.5), ("seed", True), ("seed", "1")],
)
def test_params_reject_non_finite_knobs_and_non_int_seeds(name, value):
    # nan <= 0 is False, so an ordering check alone lets nan through
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        surrogate.SurrogateParams(**{name: value})


def test_noise_at_its_bound_keeps_every_loss_finite_and_positive(all_setups):
    params = surrogate.SurrogateParams(noise_sigma=surrogate.NOISE_SIGMA_MAX, seed=3)
    records = surrogate.generate_dataset(all_setups, params)
    assert all(0 < r.val_loss < math.inf for r in records)


def test_params_dict_round_trip():
    params = surrogate.SurrogateParams(noise_sigma=0.02, seed=9)
    assert surrogate.params_from_dict(params._asdict()) == params


def test_generate_dataset_deterministic(all_setups):
    params = surrogate.SurrogateParams(noise_sigma=0.01, seed=5)
    sample = all_setups[::37]
    first = surrogate.generate_dataset(sample, params)
    second = surrogate.generate_dataset(sample, params)
    assert first == second
    shifted = surrogate.generate_dataset(sample, params._replace(seed=6))
    assert shifted != first


def test_generate_dataset_noise_is_order_independent(all_setups):
    params = surrogate.SurrogateParams(noise_sigma=0.01, seed=5)
    sample = all_setups[::37]
    forward = surrogate.generate_dataset(sample, params)
    backward = surrogate.generate_dataset(list(reversed(sample)), params)
    assert sorted(forward, key=lambda r: r.setup_id) == sorted(
        backward, key=lambda r: r.setup_id
    )


def test_noiseless_dataset_equals_composite():
    spec = space.SetupSpec(FactorTuple(1, 0, 1, 0))
    (record,) = surrogate.generate_dataset([spec], surrogate.SurrogateParams())
    derived = spec.derived()
    assert record.val_loss == surrogate.composite_loss(
        derived.model_scale,
        derived.target_tokens,
        derived.epochs,
        derived.ratio,
        params=surrogate.SurrogateParams(),
    )
    assert record.language_pair == "surrogate"


def test_reference_row_record_count():
    row = {0: space.default_ranges()[0]}
    setups = space.enumerate_single_stage(row)
    records = surrogate.generate_dataset(setups, surrogate.SurrogateParams())
    assert len(records) == 134


def test_noise_scale_matches_sigma(all_setups):
    params = surrogate.SurrogateParams(noise_sigma=0.05, seed=1)
    clean = surrogate.SurrogateParams()
    sample = all_setups[:400]
    noisy = surrogate.generate_dataset(sample, params)
    pure = surrogate.generate_dataset(sample, clean)
    ratios = [math.log(n.val_loss / p.val_loss) for n, p in zip(noisy, pure)]
    spread = (sum(r * r for r in ratios) / len(ratios)) ** 0.5
    assert 0.03 < spread < 0.07
