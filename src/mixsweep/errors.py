"""Exception hierarchy.

The CLI maps these onto exit codes: :class:`UsageError` -> 1, any
:class:`FitError` -> 3, every other :class:`MixsweepError` (and I/O
failures) -> 2.
"""


class MixsweepError(Exception):
    """Base class for all package errors."""


class UsageError(MixsweepError):
    """Bad command line invocation (unknown flag, missing --force, ...)."""


class InvalidFactorError(MixsweepError):
    """Factor tuple violates its sign constraints."""


class SplitOrderingError(MixsweepError):
    """Two-stage ratios are not strictly increasing (r1 >= r2)."""


class InfeasibleSplitError(MixsweepError):
    """Average ratio cannot be reached by mixing the two stage ratios."""


class UnsupportedScaleError(MixsweepError):
    """Model-scale factor outside the shape ladder."""


class UnsupportedModelError(MixsweepError):
    """Model shape outside the range the batch-sizing rule is defined for."""


class MinimumBatchError(MixsweepError):
    """Compute budget too small for even a single-sequence batch."""


class InsufficientCorpusError(MixsweepError):
    """Schedule needs more high-resource tokens than declared available."""


class FileFormatError(MixsweepError):
    """Malformed input file (bad CSV row, bad JSON line, bad header)."""


class ValidationError(MixsweepError):
    """Domain value out of range (e.g. non-positive validation loss)."""


class InsufficientDataError(MixsweepError):
    """Analysis requested on a slice with no usable measurements."""


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
