"""Synthetic loss generator for desk-scale testing of the pipeline.

None of this reproduces measured training losses. The composite landscape
is a fictional test fixture with known structure (saturating epoch
returns, a ratio penalty that two-stage schedules can partially dodge)
whose constants are configuration, not claims.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .analysis import LossRecord
from .errors import ValidationError
from .seeds import MASK64, fnv1a64, mix64, uniform_pair
from .space import SetupSpec, json_field


#: Largest noise_sigma. A noise factor is exp(sigma * z) with |z| <= sqrt(128 ln 2) ~ 9.42
#: (u1 >= 2**-64 in ``uniform_pair``), so at 64 it stays within e**+-603: finite and
#: positive, with room for the loss it scales.
NOISE_SIGMA_MAX = 64.0


class _ParamFields(NamedTuple):
    irreducible_loss: float
    model_coeff: float
    model_exponent: float
    data_coeff: float
    data_exponent: float
    ratio_exponent: float
    repeat_decay: float
    second_stage_weight: float
    noise_sigma: float
    seed: int


#: The knobs that must be positive and finite.
_POSITIVE = ("irreducible_loss", "model_coeff", "model_exponent", "data_coeff",
             "data_exponent", "repeat_decay")


class SurrogateParams(_ParamFields):
    """Composite-landscape knobs. All constants are test-fixture configuration.

    ``ratio_exponent`` is negative by convention (loss grows as the ratio
    shrinks). ``second_stage_weight`` (gamma) interpolates how much the
    second-stage ratio, rather than the average ratio, sets the penalty:
    gamma = 0 makes two-stage setups indistinguishable from single-stage
    ones with the same average ratio. Defaults are tuned so that, on the
    default grid, gamma = 0.5 produces an approach switch below the
    compute-optimal corpus while gamma = 0 produces none. Every float knob
    must be finite and ``seed`` an ``int`` in [0, 2**64); each check names its field.
    """

    __slots__ = ()

    def __new__(cls, irreducible_loss: float = 2.0, model_coeff: float = 120.0,
                model_exponent: float = 0.3, data_coeff: float = 400.0,
                data_exponent: float = 0.3, ratio_exponent: float = -0.4,
                repeat_decay: float = 15.4, second_stage_weight: float = 0.5,
                noise_sigma: float = 0.0, seed: int = 0) -> SurrogateParams:
        params = tuple.__new__(cls, (
            irreducible_loss, model_coeff, model_exponent, data_coeff, data_exponent,
            ratio_exponent, repeat_decay, second_stage_weight, noise_sigma, seed,
        ))
        for name in _POSITIVE:
            value = getattr(params, name)
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        if not -math.inf < ratio_exponent < 0:
            raise ValidationError(
                f"ratio_exponent must be negative and finite, got {ratio_exponent!r}"
            )
        if not 0 <= second_stage_weight <= 1:
            raise ValidationError(
                f"second_stage_weight must be in [0, 1], got {second_stage_weight!r}"
            )
        if not 0 <= noise_sigma <= NOISE_SIGMA_MAX:
            raise ValidationError(
                f"noise_sigma must be in [0, {NOISE_SIGMA_MAX:g}], got {noise_sigma!r}"
            )
        if type(seed) is not int:
            raise ValidationError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed <= MASK64:  # the noise key is taken mod 2**64
            raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
        return params

    @classmethod
    def _make(cls, iterable) -> SurrogateParams:
        return cls(*iterable)  # so ``_replace`` re-runs the checks


def effective_tokens(
    target_tokens: float, epochs: int, ratio, params: SurrogateParams
) -> float:
    """Effective data after repeating the target corpus ``epochs`` times.

    The unique-token pool is the target corpus (counted once) plus the
    never-repeated high-resource tokens; repetition multiplies it by a
    saturating factor that tends to (1 + repeat_decay) as epochs grow.
    """
    r = float(ratio)
    if not 0 < r <= 1:
        raise ValidationError(f"ratio must be in (0, 1], got {r}")
    unique = target_tokens + epochs * target_tokens * (1.0 / r - 1.0)
    saturation = 1.0 + params.repeat_decay * (
        1.0 - math.exp(-(epochs - 1) / params.repeat_decay)
    )
    return unique * saturation


def base_loss(model_scale: float, d_eff: float, params: SurrogateParams) -> float:
    """Ratio-free part: irreducible + model term + data term.

    Strictly decreasing in both arguments.
    """
    return (
        params.irreducible_loss
        + params.model_coeff / model_scale**params.model_exponent
        + params.data_coeff / d_eff**params.data_exponent
    )


def composite_loss(
    model_scale: float,
    target_tokens: float,
    epochs: int,
    ratio,
    second_stage_ratio=None,
    *,
    params: SurrogateParams,
) -> float:
    """Composite landscape over one setup's quantities.

    Single-stage setups pay the penalty ratio^ratio_exponent on the average
    ratio; two-stage setups pay it on r2^gamma * r^(1-gamma) instead. With
    |ratio_exponent| > data_exponent the result is strictly decreasing in
    the ratio even accounting for the ratio's effect on the unique-token
    pool.
    """
    r = float(ratio)
    d_eff = effective_tokens(target_tokens, epochs, r, params)
    base = base_loss(model_scale, d_eff, params)
    gamma = params.second_stage_weight
    if second_stage_ratio is None or gamma == 0.0:
        r_eff = r
    else:
        r_eff = float(second_stage_ratio) ** gamma * r ** (1.0 - gamma)
    return base * r_eff**params.ratio_exponent


def _noise_factor(seed: int, setup_id: str, sigma: float) -> float:
    """Deterministic multiplicative log-normal noise keyed by (seed, setup id)."""
    key = mix64(seed, fnv1a64(setup_id))
    u1, u2 = uniform_pair(key)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return math.exp(sigma * z)


def generate_dataset(
    setups: Sequence[SetupSpec] | Iterable[SetupSpec],
    params: SurrogateParams,
    *,
    language_pair: str = "surrogate",
) -> list[LossRecord]:
    """One loss record per setup, fully deterministic given the params.

    Noise is derived per record from (``params.seed``, setup id), so generation
    is order-independent and parallelizable. A ``language_pair`` with leading or
    trailing whitespace is refused: results.csv is read with its fields stripped.
    """
    if language_pair != language_pair.strip():
        raise ValidationError(
            f"language pair {language_pair!r} has leading or trailing whitespace"
        )
    records: list[LossRecord] = []
    for spec in setups:
        derived = spec.derived()
        loss = composite_loss(
            derived.model_scale,
            derived.target_tokens,
            derived.epochs,
            derived.ratio,
            spec.second_stage_ratio,
            params=params,
        )
        if params.noise_sigma > 0:
            loss *= _noise_factor(params.seed, spec.id, params.noise_sigma)
        records.append(
            LossRecord(setup_id=spec.id, language_pair=language_pair, val_loss=loss)
        )
    return records


def params_from_dict(obj: dict) -> SurrogateParams:
    """Build params from a JSON dict of known keys: ``seed`` an integer, the rest finite numbers."""
    unknown = set(obj) - set(SurrogateParams._fields)
    if unknown:
        raise ValidationError(f"unknown parameter(s): {sorted(unknown)}")
    return SurrogateParams(
        **{key: json_field(obj, key, int if key == "seed" else float) for key in obj}
    )
