"""Reference constants and factor algebra for power-of-two training budgets.

Every training setup in the sweep is parametrized by integer "halving"
factors. All identities between the derived quantities hold exactly
because the arithmetic stays on integer base-2 exponents and converts to
floats only at the boundary (``math.ldexp`` scales by powers of two
without rounding), and because ratios are kept as exact fractions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

#: Reference compute budget in FLOPs: the anchor of the whole grid.
REFERENCE_COMPUTE = 1e18

#: Empirical compute-optimal data allocation, tokens = coeff * compute^exponent,
#: used once to derive the reference corpus size from the reference budget.
DATA_ALLOCATION_COEFF = 5.8316
DATA_ALLOCATION_EXPONENT = 0.4757


@dataclass(frozen=True, slots=True)
class ReferenceConstants:
    """Anchor point of the sweep grid.

    ``model_scale * target_tokens == compute`` holds to within a few ulp
    because ``model_scale`` is defined as the exact float quotient.
    """

    compute: float
    target_tokens: float
    model_scale: float


def _build_reference() -> ReferenceConstants:
    compute = REFERENCE_COMPUTE
    tokens = DATA_ALLOCATION_COEFF * compute**DATA_ALLOCATION_EXPONENT
    return ReferenceConstants(
        compute=compute, target_tokens=tokens, model_scale=compute / tokens
    )


_REFERENCE = _build_reference()


def reference_constants() -> ReferenceConstants:
    """The immutable grid anchor, evaluated once at import time."""
    return _REFERENCE


#: Largest ratio factor, checked before anything builds 2**f_r. No larger one
#: derives: a finite D_total = D_ref * 2**(f_M + f_C) needs f_M + f_C <= 993
#: (D_ref ~ 2**31), and a nonzero D_T = D_total * 2**(-f_r - f_k) then needs f_r <= 2098.
F_R_MAX = 4096


@functools.lru_cache(maxsize=64)
def ratio_for(f_r: int) -> Fraction:
    """The target-language ratio 1/2**f_r, built once per f_r (a grid uses a few)."""
    return Fraction(1, 2**f_r)


@dataclass(frozen=True, slots=True)
class FactorTuple:
    """Integer halving factors for ratio, model scale, epochs and compute.

    ``f_r`` halves the target-language ratio, ``f_M`` halves the model
    scale, ``f_k`` doubles the epoch count and ``f_C`` halves the compute
    budget. The corpus factor ``f_D`` is fully determined by the other
    four and is therefore a derived property, never stored.
    """

    f_r: int
    f_M: int
    f_k: int
    f_C: int

    def __post_init__(self) -> None:
        if not 0 <= self.f_r <= F_R_MAX:
            raise ValidationError(f"f_r must be in [0, {F_R_MAX}], got {self.f_r}")
        if self.f_k < 0:
            raise ValidationError(f"f_k must be >= 0, got {self.f_k}")
        if self.f_C > 0:
            raise ValidationError(f"f_C must be <= 0, got {self.f_C}")

    @property
    def f_D(self) -> int:
        return -self.f_r + self.f_M - self.f_k + self.f_C


@dataclass(frozen=True, slots=True)
class DerivedSetup:
    """Concrete hyperparameters derived from a :class:`FactorTuple`.

    Floats are produced with ``math.ldexp``, so every value is the exact
    power-of-two multiple of its reference constant; the compute identity
    ``model_scale * total_tokens == compute`` holds exactly on the integer
    exponents -f_M + (f_D + f_k + f_r) == f_C, because f_D is defined from them.
    """

    factors: FactorTuple
    ratio: Fraction
    model_scale: float
    epochs: int
    compute: float
    target_tokens: float
    total_tokens: float

    @property
    def f_D(self) -> int:
        return self.factors.f_D


@functools.lru_cache(maxsize=4096)
def derive_single_stage(factors: FactorTuple) -> DerivedSetup:
    """Expand a factor tuple into concrete training quantities.

    Raises ValidationError when a derived quantity (or the epoch count
    as a float) overflows or underflows to zero. Cached: the result is
    frozen, so every setup with these factors shares one; the default grid
    has 586 distinct tuples.
    """
    ref = _REFERENCE
    f_D = factors.f_D
    try:
        scaled = (
            math.ldexp(ref.model_scale, -factors.f_M),
            math.ldexp(ref.compute, factors.f_C),
            math.ldexp(ref.target_tokens, f_D),
            math.ldexp(ref.target_tokens, f_D + factors.f_k + factors.f_r),
            math.ldexp(1.0, factors.f_k),
        )
    except OverflowError:
        scaled = None
    if scaled is None or 0.0 in scaled:
        raise ValidationError(f"{factors} leaves the float range")
    model_scale, compute, target_tokens, total_tokens, _ = scaled
    return DerivedSetup(
        factors=factors,
        ratio=ratio_for(factors.f_r),
        model_scale=model_scale,
        epochs=2**factors.f_k,
        compute=compute,
        target_tokens=target_tokens,
        total_tokens=total_tokens,
    )


@dataclass(frozen=True, slots=True)
class StageSplit:
    """Stage ratios and the stage-length proportions that realize an average ratio."""

    first_ratio: Fraction
    second_ratio: Fraction
    first_length: Fraction
    second_length: Fraction

    @property
    def average_ratio(self) -> Fraction:
        return (
            self.first_length * self.first_ratio
            + self.second_length * self.second_ratio
        )


@functools.lru_cache(maxsize=128)
def stage_split(first_ratio, second_ratio, average_ratio) -> StageSplit:
    """Solve for stage-length proportions given both stage ratios and the average.

    The first-stage proportion is (r2 - r) / (r2 - r1); exact because all
    arithmetic is on fractions. Cached: a grid has at most 96 distinct
    (r1, r2, r) triples, and equal keys convert to equal fractions.
    """
    r1 = Fraction(first_ratio)
    r2 = Fraction(second_ratio)
    r = Fraction(average_ratio)
    if r1 >= r2:
        raise ValidationError(f"stage ratios must satisfy r1 < r2, got {r1} >= {r2}")
    if r1 < 0 or r2 > 1:
        raise ValidationError(f"stage ratios must lie in [0, 1], got r1={r1}, r2={r2}")
    if not r1 <= r <= r2:
        raise ValidationError(
            f"average ratio {r} outside the stage-ratio interval [{r1}, {r2}]"
        )
    first_length = (r2 - r) / (r2 - r1)
    return StageSplit(
        first_ratio=r1,
        second_ratio=r2,
        first_length=first_length,
        second_length=1 - first_length,
    )
