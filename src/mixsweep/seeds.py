"""Deterministic 64-bit mixing for seeds and per-record noise streams.

The mixer is the splitmix64 finalizer. It is a bijection on 64-bit
integers, which gives a useful guarantee: for a fixed key, distinct
indices always map to distinct outputs. Two different keys can collide
with probability ~2^-64 per pair; callers that need cross-key
disjointness must accept that (documented) residual risk. Keys and
indices are taken mod 2**64, so a key outside [0, 2**64) aliases one
inside it: the seeds a user gives are checked against that range where
they are read (``schedule.epoch_seeds`` and ``surrogate.SurrogateParams``).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One splitmix64 step: add the golden-ratio increment, then finalize."""
    z = (value + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix64(key: int, index: int) -> int:
    """Mix (key, index) into a 64-bit value.

    Injective in ``index`` for a fixed ``key`` because the final
    splitmix64 call is a bijection applied to distinct inputs.
    """
    return splitmix64((splitmix64(key & MASK64) + (index & MASK64)) & MASK64)


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a string, used to key noise streams by setup id."""
    digest = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        digest = ((digest ^ byte) * 0x100000001B3) & MASK64
    return digest


def uniform_pair(key: int) -> tuple[float, float]:
    """Two deterministic uniforms derived from ``key``: u1 in (0,1], u2 in [0,1)."""
    u1 = (mix64(key, 1) + 1) / 2.0**64
    u2 = mix64(key, 2) / 2.0**64
    return u1, u2
