"""Grid enumeration of single-stage and two-stage training setups.

The default ranges reproduce the factor search space used for the sweep:
shared ``f_r`` in [0,4) and ``f_k`` in [0,10), with per-budget rows for
``f_M`` and the derived ``f_D`` filter. Enumeration order is the
lexicographic key (f_C, f_D, f_r, f_M, f_k, r1, r2), so two runs always
produce identical lists and ids. A setup is a factor tuple and a stage-ratio key,
each with one cached record that every constructor, the writer and the reader share:
``_factor_parts`` and ``_ratio_parts``, which holds the two-stage rule.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .budget import DerivedSetup, FactorTuple, derive_single_stage, ratio_for
from .errors import INPUT_ERRORS, FileFormatError, ValidationError, input_message

APPROACH_MONO_1STAGE = "mono-1stage"
APPROACH_MULTI_1STAGE = "multi-1stage"
APPROACH_MULTI_2STAGE = "multi-2stage"
APPROACHES = (APPROACH_MONO_1STAGE, APPROACH_MULTI_1STAGE, APPROACH_MULTI_2STAGE)

#: The nested categories a setup of each approach competes in: its own and every wider
#: one (mono-1stage < multi-1stage < multi-2stage), since a single-stage setup is a
#: degenerate two-stage one.
CATEGORIES_BY_APPROACH = {a: APPROACHES[i:] for i, a in enumerate(APPROACHES)}

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


class RangeRow(NamedTuple):
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


def _items(obj: dict) -> str:
    """``json.dumps(obj)`` without its braces: the object's items, to join into a line."""
    return json.dumps(obj)[1:-1]


class _FactorParts(NamedTuple):
    factors: FactorTuple  # the one tuple that every setup read with these factors shares
    id: str
    wire: str  # the items f_r to f_D
    derived: str  # the items M to D_total


@functools.lru_cache(maxsize=4096)
def _factor_parts(f_r: int, f_M: int, f_k: int, f_C: int) -> _FactorParts:
    """One record per distinct factor values (586 on the default grid), derived here so
    that a tuple leaving the float range fails at construction. Fed only ints, from a
    ``FactorTuple``, ``json_field`` or a written line's id: ``True`` would hit ``1``'s."""
    factors = FactorTuple(f_r, f_M, f_k, f_C)
    derived, f_D = derive_single_stage(factors), factors.f_D
    return _FactorParts(
        factors, f"fC{f_C}_fD{f_D}_fr{f_r}_fM{f_M}_fk{f_k}",
        _items({"f_r": f_r, "f_M": f_M, "f_k": f_k, "f_C": f_C, "f_D": f_D}),
        _items({"M": derived.model_scale, "k": derived.epochs, "C": derived.compute,
                "D_T": derived.target_tokens, "D_total": derived.total_tokens}),
    )


def _first_stage_share(f_r: int, n1: int, d1: int, n2: int, d2: int) -> Fraction:
    """(r2 - r) / (r2 - r1) for r1 = n1/d1, r = 2**-f_r and r2 = n2/d2, exact on integers."""
    return Fraction(((n2 << f_r) - d2) * d1, (n2 * d1 - n1 * d2) << f_r)


class _RatioParts(NamedTuple):
    approach: str
    id: str  # "_r1…_r2…", or "" for one stage
    first_stage_share: Fraction | None
    ratios: str  # ", " and the items r1 to r2_frac, or "" for one stage
    ratio: str  # the items r and r_frac
    split: str  # ", " and the items s1 to s2_frac, or "" for one stage


@functools.lru_cache(maxsize=256)
def _ratio_parts(f_r: int, *stages: int) -> _RatioParts:
    """The two-stage rule, 0 <= r1 < r < r2 <= 1, and the record of a key that keeps it.

    Keyed by integers, f_r then a two-stage setup's n1, d1, n2, d2, so a lookup hashes
    no Fraction (the default grid has 4 + 34 keys), and the rule is checked on them.
    """
    ratio = ratio_for(f_r)
    derived = _items({"r": float(ratio), "r_frac": str(ratio)})
    if not stages:
        approach = APPROACH_MULTI_1STAGE if f_r else APPROACH_MONO_1STAGE
        return _RatioParts(approach, "", None, "", derived, "")
    n1, d1, n2, d2 = stages
    r1, r2 = Fraction(n1, d1), Fraction(n2, d2)
    if not (n1 << f_r < d1 and d2 < n2 << f_r):
        raise ValidationError(f"need r1 < r < r2 strictly, got r1={r1}, r={ratio}, r2={r2}")
    if n1 < 0 or n2 > d2:
        raise ValidationError(f"stage ratios must lie in [0, 1], got r1={r1}, r2={r2}")
    s1 = _first_stage_share(f_r, n1, d1, n2, d2)
    s2 = 1 - s1
    return _RatioParts(
        APPROACH_MULTI_2STAGE, f"_r1{r1}_r2{r2}", s1,
        ", " + _items({"r1": float(r1), "r1_frac": str(r1), "r2": float(r2), "r2_frac": str(r2)}),
        derived,
        ", " + _items({"s1": float(s1), "s1_frac": str(s1), "s2": float(s2), "s2_frac": str(s2)}),
    )


def _ratio_parts_of(factors: FactorTuple, r1: Fraction | None, r2: Fraction | None) -> _RatioParts:
    """``_ratio_parts`` of a setup's fields: two Fractions, or both None for one stage."""
    if r1 is None:
        return _ratio_parts(factors.f_r)
    (n1, d1), (n2, d2) = r1.as_integer_ratio(), r2.as_integer_ratio()
    return _ratio_parts(factors.f_r, n1, d1, n2, d2)


class _SetupFields(NamedTuple):
    factors: FactorTuple
    first_stage_ratio: Fraction | None
    second_stage_ratio: Fraction | None
    id: str


class SetupSpec(_SetupFields):
    """One training setup: factors plus optional two-stage ratios.

    ``factors`` must be a ``FactorTuple`` that derives inside the float range, each given
    ratio a ``Fraction``, and two-stage ratios must satisfy 0 <= r1 < r < r2 <= 1, or
    construction raises ValidationError. ``id`` is the canonical id, reproducible across
    runs: factor values plus exact ratios. Built from the other fields, it is not an
    argument and not in the repr.
    """

    __slots__ = ()

    def __new__(cls, factors: FactorTuple, first_stage_ratio: Fraction | None = None,
                second_stage_ratio: Fraction | None = None) -> SetupSpec:
        r1, r2 = first_stage_ratio, second_stage_ratio
        if type(factors) is not FactorTuple:
            raise ValidationError(f"factors must be a FactorTuple, got {factors!r}")
        if not (r1 is None is r2 or type(r1) is type(r2) is Fraction):
            for name, r in (("first_stage_ratio", r1), ("second_stage_ratio", r2)):
                if r is not None and type(r) is not Fraction:
                    raise ValidationError(f"{name} must be a Fraction, got {r!r}")
            raise ValidationError("two-stage setups need both r1 and r2")
        setup_id = _factor_parts(*factors).id + _ratio_parts_of(factors, r1, r2).id
        return tuple.__new__(cls, (factors, r1, r2, setup_id))

    @classmethod
    def _make(cls, iterable) -> SetupSpec:
        """A setup from its fields, so ``_replace`` re-runs the checks; a given id is ignored."""
        factors, r1, r2, *_ = iterable
        return cls(factors, r1, r2)

    def __getnewargs__(self) -> tuple:
        return self[:3]  # the constructor's arguments, for pickle and copy

    def __repr__(self) -> str:
        return (f"SetupSpec(factors={self.factors!r}, first_stage_ratio="
                f"{self.first_stage_ratio!r}, second_stage_ratio={self.second_stage_ratio!r})")

    @property
    def is_two_stage(self) -> bool:
        return self.second_stage_ratio is not None

    @property
    def first_stage_share(self) -> Fraction | None:
        """Stage 1's exact share of the tokens, (r2 - r) / (r2 - r1); None for one stage."""
        return _ratio_parts_of(*self[:3]).first_stage_share

    @property
    def approach(self) -> str:
        return _ratio_parts_of(*self[:3]).approach

    def derived(self) -> DerivedSetup:
        return derive_single_stage(self.factors)


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


def wire_line(spec: SetupSpec) -> str:
    """A setup's setups.jsonl line: ids, factors, and derived quantities, as one JSON object.

    Ratios carry both a decimal float and an exact "num/den" companion
    string so consumers never have to re-derive exact values from floats.
    """
    factors, r1, r2, setup_id = spec
    return _line(setup_id, _factor_parts(*factors), _ratio_parts_of(factors, r1, r2))


def _line(setup_id: str, factor: _FactorParts, ratio: _RatioParts) -> str:
    """``json.dumps`` of the setup's object, keys in order (id, approach, f_r to f_D, r1 to
    r2_frac, derived), joined from its two records; an id or approach needs no escaping."""
    return (f'{{"id": "{setup_id}", "approach": "{ratio.approach}", {factor.wire}{ratio.ratios}, '
            f'"derived": {{{ratio.ratio}, {factor.derived}{ratio.split}}}}}')


@functools.lru_cache(maxsize=64)
def _ratio(text: str) -> Fraction:
    """The exact stage ratio that an integer or "num/den" string names.

    No other form is read (``Fraction("1e-200000")`` builds a 200,001-digit
    denominator). Cached: each distinct string is parsed once; a grid uses a few.
    ``_ratio_parts`` checks the range, with the rest of the two-stage rule.
    """
    if type(text) is not str:
        raise TypeError(f"stage ratio must be a \"num/den\" string, got {text!r}")
    if not re.fullmatch(r"-?[0-9]+(?:/[0-9]+)?", text):
        raise ValueError(f"stage ratio must be a \"num/den\" string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"stage ratio {text!r} has a zero denominator") from None


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


def number_parser(kind: type) -> Callable[[str], int | float]:
    """``kind`` (``int`` or ``float``) of a text, read only from ASCII without ``_``.

    Both builtins also read ``1_6`` as 16 and non-ASCII digits (``"２.５"`` as 2.5);
    the parser raises ValueError for those. It bears ``kind``'s name, which argparse
    puts in its ``invalid <type> value`` message.
    """
    def parse(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(f"invalid {kind.__name__} value: {text!r}")
        return kind(text)

    parse.__name__ = kind.__name__
    return parse


def from_wire(obj: dict) -> SetupSpec:
    """Rebuild a setup from a decoded setups line, in any key order or spacing.

    Reads the factors, each a JSON integer, and the exact ratios; the ``id``,
    ``approach`` and ``f_D`` a line carries must equal the ones they give.
    ``derived`` and the float ``r1``/``r2`` are never read, so a line may omit
    them. Raises one of ``errors.INPUT_ERRORS``.
    """
    factors = _factor_parts(*(json_field(obj, key, int)
                               for key in ("f_r", "f_M", "f_k", "f_C"))).factors
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


def json_object(text: str) -> dict:
    """``json.loads(text)``, which must be a JSON object."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also: too long an integer, too deep
        raise FileFormatError(f"invalid JSON ({exc})") from exc
    if type(obj) is not dict:
        raise FileFormatError("expected a JSON object")
    return obj


def write_jsonl(specs: Iterable[SetupSpec], fp: IO[str]) -> int:
    """Write one ``wire_line`` per line; returns the number of lines."""
    count = 0
    for spec in specs:
        fp.write(f"{wire_line(spec)}\n")
        count += 1
    return count


#: The start of a ``wire_line``: the id's factors and exact ratios. Digits are bounded,
#: so ``int`` and ``Fraction`` stay cheap on any line; a longer id takes the JSON path.
_WIRE_ID = re.compile(r'\{"id": "fC(-?[0-9]{1,5})_fD-?[0-9]{1,5}_fr([0-9]{1,4})_fM(-?[0-9]{1,5})'
                      r'_fk([0-9]{1,5})(?:_r1([0-9]{1,40}(?:/[0-9]{1,40})?)'
                      r'_r2([0-9]{1,40}(?:/[0-9]{1,40})?))?"')


def _from_wire_line(line: str) -> SetupSpec | None:
    """The setup whose ``wire_line`` is exactly ``line``, else None; never raises.

    Such a line is ``json.dumps`` of an object that ``from_wire`` reads back to
    that setup with every check passing. The two records ran those checks, so
    taking the line here skips the decode and ``SetupSpec``, and changes nothing else.
    """
    match = _WIRE_ID.match(line)
    if match is None:
        return None
    f_C, f_r, f_M, f_k, r1, r2 = match.groups()
    try:
        factor = _factor_parts(int(f_r), int(f_M), int(f_k), int(f_C))
        r1, r2 = (None, None) if r1 is None else (_ratio(r1), _ratio(r2))
        ratio = _ratio_parts_of(factor.factors, r1, r2)
    except INPUT_ERRORS:  # the JSON path reads the line again and names the error
        return None
    setup_id = factor.id + ratio.id
    if _line(setup_id, factor, ratio) != line:
        return None
    return tuple.__new__(SetupSpec, (factor.factors, r1, r2, setup_id))


def read_jsonl(fp: IO[str]) -> Iterator[SetupSpec]:
    """Parse setups back from JSON Lines, reporting the offending line on error.

    Each line must be a JSON object. A line that is exactly ``wire_line`` of a
    setup is read without a JSON decode; any other goes through ``json_object``
    and ``from_wire``, which name its error. Setup ids must be unique: a repeated
    id is an error, not a silent merge.
    """
    first_line: dict[str, int] = {}
    lineno = 0
    try:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            spec = _from_wire_line(line) or from_wire(json_object(line))
            seen = first_line.setdefault(spec.id, lineno)
            if seen != lineno:
                raise FileFormatError(f"duplicate setup id {spec.id!r} (first on line {seen})")
            yield spec
    except UnicodeDecodeError:  # raised while decoding a block of lines: no line to name
        raise
    except INPUT_ERRORS as exc:
        raise FileFormatError(f"line {lineno}: {input_message(exc)}") from exc
