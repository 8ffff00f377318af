"""Reference constants and factor algebra for power-of-two training budgets.

Every training setup in the sweep is parametrized by integer "halving"
factors. All identities between the derived quantities hold exactly
because the arithmetic stays on integer base-2 exponents and converts to
floats only at the boundary (``math.ldexp`` scales by powers of two
without rounding), and because ratios are kept as exact fractions. The
two-stage rule is ``space.SetupSpec``'s.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError

#: Reference compute budget in FLOPs: the anchor of the whole grid.
REFERENCE_COMPUTE = 1e18

#: Empirical compute-optimal data allocation, tokens = coeff * compute^exponent,
#: used once to derive the reference corpus size from the reference budget.
DATA_ALLOCATION_COEFF = 5.8316
DATA_ALLOCATION_EXPONENT = 0.4757


class ReferenceConstants(NamedTuple):
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


class _FactorFields(NamedTuple):
    f_r: int
    f_M: int
    f_k: int
    f_C: int


class FactorTuple(_FactorFields):
    """Integer halving factors for ratio, model scale, epochs and compute.

    ``f_r`` halves the target-language ratio, ``f_M`` halves the model
    scale, ``f_k`` doubles the epoch count and ``f_C`` halves the compute
    budget. The corpus factor ``f_D`` is fully determined by the other
    four and is therefore a derived property, never stored. Each factor
    must be an ``int``: neither ``True`` nor ``1.0`` stands for ``1``.
    """

    __slots__ = ()

    def __new__(cls, f_r: int, f_M: int, f_k: int, f_C: int) -> FactorTuple:
        if not (type(f_r) is type(f_M) is type(f_k) is type(f_C) is int):
            for name, value in zip(cls._fields, (f_r, f_M, f_k, f_C)):
                if type(value) is not int:
                    raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not 0 <= f_r <= F_R_MAX:
            raise ValidationError(f"f_r must be in [0, {F_R_MAX}], got {f_r}")
        if f_k < 0:
            raise ValidationError(f"f_k must be >= 0, got {f_k}")
        if f_C > 0:
            raise ValidationError(f"f_C must be <= 0, got {f_C}")
        return tuple.__new__(cls, (f_r, f_M, f_k, f_C))

    @classmethod
    def _make(cls, iterable) -> FactorTuple:
        return cls(*iterable)  # so ``_replace`` re-runs the checks

    @property
    def f_D(self) -> int:
        return -self.f_r + self.f_M - self.f_k + self.f_C


class DerivedSetup(NamedTuple):
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


def cell_budgets(f_C: int, f_D: int) -> tuple[float, float]:
    """The cell's compute C and corpus D_T: each reference constant scaled exactly by ldexp."""
    try:
        budgets = (math.ldexp(_REFERENCE.compute, f_C), math.ldexp(_REFERENCE.target_tokens, f_D))
    except OverflowError:
        budgets = (0.0, 0.0)
    if 0.0 in budgets:  # an overflow or an underflow to zero
        raise ValidationError(f"cell (f_C={f_C}, f_D={f_D}) leaves the float range")
    return budgets


def derive_single_stage(factors: FactorTuple) -> DerivedSetup:
    """Expand a factor tuple into concrete training quantities.

    Raises ValidationError when a derived quantity (or the epoch count
    as a float) overflows or underflows to zero. Not cached here: ``space``
    keeps one derived setup per factor tuple, which every setup with those
    factors shares.
    """
    f_C, f_D = factors.f_C, factors.f_D
    try:
        compute, target_tokens = cell_budgets(f_C, f_D)
        _, total_tokens = cell_budgets(f_C, f_D + factors.f_k + factors.f_r)
        scaled = (math.ldexp(_REFERENCE.model_scale, -factors.f_M), math.ldexp(1.0, factors.f_k))
    except (OverflowError, ValidationError):
        scaled = (0.0, 0.0)
    if 0.0 in scaled:
        raise ValidationError(f"{factors} leaves the float range")
    return DerivedSetup(
        factors=factors,
        ratio=ratio_for(factors.f_r),
        model_scale=scaled[0],
        epochs=2**factors.f_k,
        compute=compute,
        target_tokens=target_tokens,
        total_tokens=total_tokens,
    )
