"""Exception classes: one per way a caller tells the errors apart.

The CLI maps these onto exit codes: :class:`UsageError` -> 1, any
:class:`FitError` -> 3, every other :class:`MixsweepError` (and I/O
failures) -> 2. Any other exception is a bug; it also exits 2, as the one
line ``error: internal error: <type>: <message>``. Each class below the base
stays because something tells it apart: ``UsageError`` and ``FitError`` pick
their exit codes, ``fit_epoch_cells`` catches ``UnderdeterminedError`` and
``UnidentifiableError`` by name, and ``FileFormatError`` is what
``cli._read`` raises. ``ValidationError`` covers every other bad value.
"""


class MixsweepError(Exception):
    """Base class for all package errors."""


class UsageError(MixsweepError):
    """Bad command line invocation (unknown flag, missing --force, ...)."""


class FileFormatError(MixsweepError):
    """Malformed input file (bad CSV row, bad JSON line, bad header)."""


class ValidationError(MixsweepError):
    """A value out of range: a factor, a stage split, a model shape, a budget, a data slice."""


class FitError(MixsweepError):
    """Base class for model-fitting failures."""


class UnderdeterminedError(FitError):
    """Too few distinct abscissae to fit the requested model."""


class UnidentifiableError(FitError):
    """Data cannot pin down a model parameter (e.g. single compute budget)."""


#: What reading a bad input file may raise. ``cli._read`` puts the file's path on
#: each one; ``space.read_jsonl`` and ``analysis.read_results_csv`` put ``line N``.
INPUT_ERRORS = (MixsweepError, KeyError, TypeError, ValueError)


def input_message(exc: Exception) -> str:
    """One of ``INPUT_ERRORS`` as the message line; a KeyError names the missing field."""
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
