"""Grid enumeration of single-stage and two-stage training setups.

The default ranges reproduce the factor search space used for the sweep:
shared ``f_r`` in [0,4) and ``f_k`` in [0,10), with per-budget rows for
``f_M`` and the derived ``f_D`` filter. Enumeration order is the
lexicographic key (f_C, f_D, f_r, f_M, f_k, r1, r2), so two runs always
produce identical lists and ids.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable, Iterator

from .budget import (
    DerivedSetup,
    FactorTuple,
    StageSplit,
    derive_single_stage,
    ratio_for,
    stage_split,
)
from .errors import INPUT_ERRORS, FileFormatError, ValidationError, input_message

APPROACH_MONO_1STAGE = "mono-1stage"
APPROACH_MULTI_1STAGE = "multi-1stage"
APPROACH_MULTI_2STAGE = "multi-2stage"
APPROACHES = (APPROACH_MONO_1STAGE, APPROACH_MULTI_1STAGE, APPROACH_MULTI_2STAGE)

#: First-stage ratio grid for two-stage setups (0 means a high-resource-only stage).
FIRST_STAGE_RATIOS = (
    Fraction(0),
    Fraction(1, 32),
    Fraction(1, 16),
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(1, 2),
)

#: Second-stage ratio grid for two-stage setups.
SECOND_STAGE_RATIOS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


@dataclass(frozen=True, slots=True)
class RangeRow:
    """Half-open integer intervals for one compute-budget row of the grid."""

    f_M: tuple[int, int]
    f_D: tuple[int, int]


#: Half-open f_r and f_k ranges shared by every compute row.
F_R_RANGE = (0, 4)
F_K_RANGE = (0, 10)


def default_ranges() -> dict[int, RangeRow]:
    """The default sweep grid: five compute rows, keyed by f_C, with matched f_M/f_D windows."""
    return {
        0: RangeRow(f_M=(-1, 5), f_D=(-5, 2)),
        -1: RangeRow(f_M=(0, 5), f_D=(-6, 1)),
        -2: RangeRow(f_M=(0, 5), f_D=(-6, 1)),
        -3: RangeRow(f_M=(1, 6), f_D=(-7, 0)),
        -4: RangeRow(f_M=(1, 6), f_D=(-7, 0)),
    }


# The id's two parts, each cached: a grid has few factor tuples (586 by default)
# and fewer ratio pairs (24), and the setups that share one share its text. A hit
# costs no f_D property call and no Fraction attribute.
@functools.lru_cache(maxsize=4096)
def _factors_id(f_r: int, f_M: int, f_k: int, f_C: int) -> str:
    f_D = FactorTuple(f_r, f_M, f_k, f_C).f_D
    return f"fC{f_C}_fD{f_D}_fr{f_r}_fM{f_M}_fk{f_k}"


@functools.lru_cache(maxsize=256)
def _ratios_id(n1: int, d1: int, n2: int, d2: int) -> str:
    return f"_r1{Fraction(n1, d1)}_r2{Fraction(n2, d2)}"


@dataclass(frozen=True, slots=True)
class SetupSpec:
    """One training setup: factors plus optional two-stage ratios."""

    factors: FactorTuple
    first_stage_ratio: Fraction | None = None
    second_stage_ratio: Fraction | None = None
    #: Canonical id, reproducible across runs: factor values plus exact ratios.
    #: Built once from the fields above; not an argument, not compared, not in the repr.
    id: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        r1, r2 = self.first_stage_ratio, self.second_stage_ratio
        if (r1 is None) != (r2 is None):
            raise ValidationError("two-stage setups need both r1 and r2")
        f = self.factors
        setup_id = _factors_id(f.f_r, f.f_M, f.f_k, f.f_C)
        if r1 is not None and r2 is not None:
            # r1 < 2**-f_r < r2 on integers; the Fraction is built only for the message
            (n1, d1), (n2, d2) = r1.as_integer_ratio(), r2.as_integer_ratio()
            f_r = f.f_r
            if not (n1 << f_r < d1 and d2 < n2 << f_r):
                raise ValidationError(
                    f"need r1 < r < r2 strictly, got r1={r1}, r={ratio_for(f_r)}, r2={r2}"
                )
            setup_id += _ratios_id(n1, d1, n2, d2)
        object.__setattr__(self, "id", setup_id)

    @property
    def is_two_stage(self) -> bool:
        return self.second_stage_ratio is not None

    @property
    def approach(self) -> str:
        if self.is_two_stage:
            return APPROACH_MULTI_2STAGE
        if self.factors.f_r == 0:
            return APPROACH_MONO_1STAGE
        return APPROACH_MULTI_1STAGE

    def derived(self) -> DerivedSetup:
        return derive_single_stage(self.factors)

    def split(self) -> StageSplit | None:
        if not self.is_two_stage:
            return None
        assert self.first_stage_ratio is not None
        assert self.second_stage_ratio is not None
        return stage_split(
            self.first_stage_ratio,
            self.second_stage_ratio,
            ratio_for(self.factors.f_r),
        )


def in_category(spec: SetupSpec, category: str) -> bool:
    """Nested category membership: mono < multi-1stage < multi-2stage."""
    if category == APPROACH_MULTI_2STAGE:
        return True
    if category == APPROACH_MULTI_1STAGE:
        return not spec.is_two_stage
    if category == APPROACH_MONO_1STAGE:
        return spec.approach == APPROACH_MONO_1STAGE
    raise ValueError(f"unknown category {category!r}")


def enumerate_single_stage(ranges: dict[int, RangeRow] | None = None) -> list[SetupSpec]:
    """All single-stage setups whose derived f_D falls inside its row window."""
    ranges = default_ranges() if ranges is None else ranges
    out: list[SetupSpec] = []
    # f_k = f_M - f_r - f_D + f_C is fixed by the other four factors, so
    # this loop order is already the canonical (f_C, f_D, f_r, f_M) order
    for f_C, row in sorted(ranges.items()):
        for f_D in range(*row.f_D):
            for f_r in range(*F_R_RANGE):
                for f_M in range(*row.f_M):
                    f_k = f_M - f_r - f_D + f_C
                    if F_K_RANGE[0] <= f_k < F_K_RANGE[1]:
                        out.append(SetupSpec(FactorTuple(f_r=f_r, f_M=f_M, f_k=f_k, f_C=f_C)))
    return out


def enumerate_two_stage(ranges: dict[int, RangeRow] | None = None) -> list[SetupSpec]:
    """Two-stage variants of every single-stage tuple, with r1 < r < r2 strictly.

    Boundary cases r1 == r and r == r2 are representable only as
    single-stage setups, so they are excluded here; every emitted split is
    non-degenerate by construction. Both ratio grids ascend, so appending
    each base setup's (r1, r2) pairs keeps the canonical order.
    """
    out: list[SetupSpec] = []
    for base in enumerate_single_stage(ranges):
        factors = base.factors
        out.extend(SetupSpec(factors, r1, r2) for r1, r2 in _stage_pairs(factors.f_r))
    return out


@functools.lru_cache(maxsize=64)
def _stage_pairs(f_r: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The grid's (r1, r2) pairs with r1 < 2**-f_r < r2, in canonical order."""
    ratio = ratio_for(f_r)
    return tuple((r1, r2) for r1 in FIRST_STAGE_RATIOS if r1 < ratio
                 for r2 in SECOND_STAGE_RATIOS if ratio < r2)


def enumerate_all(ranges: dict[int, RangeRow] | None = None) -> list[SetupSpec]:
    """Single-stage block followed by the two-stage block, each in canonical order."""
    return enumerate_single_stage(ranges) + enumerate_two_stage(ranges)


def to_wire(spec: SetupSpec) -> dict:
    """Serializable form of a setup: ids, factors, and derived quantities.

    Ratios carry both a decimal float and an exact "num/den" companion
    string so consumers never have to re-derive exact values from floats.
    """
    f = spec.factors
    derived = spec.derived()
    r1, r2 = spec.first_stage_ratio, spec.second_stage_ratio
    stages = () if r1 is None else (r1.numerator, r1.denominator, r2.numerator, r2.denominator)
    ratios, ratio, split = _wire_ratios(f.f_r, *stages)
    return {
        "id": spec.id, "approach": spec.approach,
        "f_r": f.f_r, "f_M": f.f_M, "f_k": f.f_k, "f_C": f.f_C, "f_D": f.f_D,
        **ratios,
        "derived": {
            **ratio, "M": derived.model_scale, "k": derived.epochs, "C": derived.compute,
            "D_T": derived.target_tokens, "D_total": derived.total_tokens, **split,
        },
    }


@functools.lru_cache(maxsize=256)
def _wire_ratios(f_r: int, *stages: int) -> tuple[dict, dict, dict]:
    """A setup's ratio items on the wire: (r1 to r2_frac, r and r_frac, s1 to s2_frac).

    Keyed by integers, f_r then a two-stage setup's n1, d1, n2, d2, so a lookup
    hashes no Fraction; the default grid has 4 + 34 keys. Callers copy the dicts.
    """
    ratio = ratio_for(f_r)
    derived = {"r": float(ratio), "r_frac": str(ratio)}
    if not stages:
        return {}, derived, {}
    n1, d1, n2, d2 = stages
    r1, r2 = Fraction(n1, d1), Fraction(n2, d2)
    ratios = {"r1": float(r1), "r1_frac": str(r1), "r2": float(r2), "r2_frac": str(r2)}
    split = stage_split(r1, r2, ratio)
    s1, s2 = split.first_length, split.second_length
    split_items = {"s1": float(s1), "s1_frac": str(s1), "s2": float(s2), "s2_frac": str(s2)}
    return ratios, derived, split_items


@functools.lru_cache(maxsize=64)
def _ratio(text: str) -> Fraction:
    """The exact stage ratio in [0, 1] that an integer or "num/den" string names.

    No other form is read (``Fraction("1e-200000")`` builds a 200,001-digit
    denominator). Cached: each distinct string is parsed once; a grid uses a few.
    """
    if type(text) is not str:
        raise TypeError(f"stage ratio must be a \"num/den\" string, got {text!r}")
    if not re.fullmatch(r"-?[0-9]+(?:/[0-9]+)?", text):
        raise ValueError(f"stage ratio must be a \"num/den\" string, got {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"stage ratio {text!r} has a zero denominator") from None
    if not 0 <= value <= 1:
        raise ValueError(f"stage ratio {text!r} is outside [0, 1]")
    return value


def json_field(obj: dict, key: str, kind: type):
    """``obj[key]`` if it is a JSON ``kind``: KeyError if missing, else ValueError; never cast.

    A ``float`` is any finite number but a bool, and an integer comes back as a float.
    """
    value = obj[key]
    if type(value) is kind and kind is not float:
        return value
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    expected = {int: "an integer", float: "a finite number", bool: "true or false",
                str: "a string", list: "a list", dict: "an object"}
    raise ValueError(f"{key} must be {expected[kind]}, got {value!r}")


@functools.lru_cache(maxsize=4096)
def _factors(f_r: int, f_M: int, f_k: int, f_C: int) -> FactorTuple:
    """One shared FactorTuple per distinct factor values; the default grid has 586.

    Each is derived once here, so a tuple whose derived values leave the float
    range fails on its line. Fed only values ``from_wire`` has checked are ints:
    ``True`` would hit ``1``'s entry.
    """
    factors = FactorTuple(f_r, f_M, f_k, f_C)
    derive_single_stage(factors)
    return factors


def from_wire(obj: dict) -> SetupSpec:
    """Rebuild a setup from its wire form.

    Reads the factors and the exact ratios; the ``id``, ``approach`` and
    ``f_D`` a line carries must equal the ones they give. ``derived`` and the
    float ``r1``/``r2`` are never read. Raises one of ``errors.INPUT_ERRORS``.
    """
    get = obj.get
    f_r, f_M, f_k, f_C = get("f_r"), get("f_M"), get("f_k"), get("f_C")
    if not (type(f_r) is type(f_M) is type(f_k) is type(f_C) is int):
        for key in ("f_r", "f_M", "f_k", "f_C"):  # the first missing or non-integer one
            json_field(obj, key, int)
    factors = _factors(f_r, f_M, f_k, f_C)
    r1 = _ratio(obj["r1_frac"]) if "r1_frac" in obj else None
    r2 = _ratio(obj["r2_frac"]) if "r2_frac" in obj else None
    spec = SetupSpec(factors, r1, r2)
    if "id" in obj and obj["id"] != spec.id:
        raise _mismatch(obj, "id", spec.id)
    if "approach" in obj and obj["approach"] != spec.approach:
        raise _mismatch(obj, "approach", spec.approach)
    # a type check too, so that neither 1.0 nor true passes for an f_D of 1
    if "f_D" in obj and (type(obj["f_D"]) is not int or obj["f_D"] != factors.f_D):
        raise _mismatch(obj, "f_D", factors.f_D)
    return spec


def _mismatch(obj: dict, key: str, expected) -> FileFormatError:
    return FileFormatError(f"setup {key} {obj[key]!r} does not match fields ({expected})")


#: ``json.loads`` of a stripped line is this plus two checks: a leading BOM, which this
#: rejects too, and that it stops at the line's end, which ``read_jsonl`` makes.
_scan = json.JSONDecoder().scan_once


def write_jsonl(specs: Iterable[SetupSpec], fp: IO[str]) -> int:
    """Write one wire object per line; returns the number of lines."""
    count = 0
    for spec in specs:
        fp.write(json.dumps(to_wire(spec)))
        fp.write("\n")
        count += 1
    return count


def read_jsonl(fp: IO[str]) -> Iterator[SetupSpec]:
    """Parse setups back from JSON Lines, reporting the offending line on error.

    Each line must be a JSON object. Setup ids must be unique: a repeated id is
    an error, not a silent merge.
    """
    first_line: dict[str, int] = {}
    lineno = 0
    try:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):  # json.loads raises what it raises for this line
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also: too long an integer, too deep
                    raise FileFormatError(f"invalid JSON ({exc})") from exc
            if type(obj) is not dict:
                raise FileFormatError("expected a JSON object")
            spec = from_wire(obj)
            seen = first_line.setdefault(spec.id, lineno)
            if seen != lineno:
                raise FileFormatError(f"duplicate setup id {spec.id!r} (first on line {seen})")
            yield spec
    except UnicodeDecodeError:  # raised while decoding a block of lines: no line to name
        raise
    except INPUT_ERRORS as exc:
        raise FileFormatError(f"line {lineno}: {input_message(exc)}") from exc
