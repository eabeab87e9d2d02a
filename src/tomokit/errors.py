"""Error taxonomy shared by the library and the command line driver.

Every failure mode carries a stable machine-readable ``code`` and the exit
status the CLI maps it to.  Library callers catch the exception types;
scripted callers parse the ``ERROR <code>:`` line on stderr.
"""

import warnings


class TomokitError(Exception):
    """Base class for all toolkit failures."""

    code = "error"
    exit_code = 1


class InvalidArgumentError(TomokitError):
    """A caller-supplied value violates a documented precondition."""

    code = "invalid-argument"
    exit_code = 2


class ParseError(TomokitError):
    """An input file could not be parsed; message names file and line."""

    code = "parse-error"
    exit_code = 3


class NumericalError(TomokitError):
    """A computation left its validated accuracy regime."""

    code = "numerical-failure"
    exit_code = 4


class ResolutionError(NumericalError):
    """The grid cannot represent the requested result accurately."""

    code = "resolution-error"


class StepSizeError(NumericalError):
    """Fixed-step integration drifted past its invariant tolerance."""

    code = "step-size-too-large"


class InvalidCovarianceError(InvalidArgumentError):
    """A covariance triple violates positivity or the uncertainty bound."""

    code = "invalid-covariance"


class OutOfRangeError(InvalidArgumentError):
    """A query time or parameter lies outside the tabulated range."""

    code = "out-of-range"


class DegenerateDirectionError(InvalidArgumentError):
    """A tomogram direction collapsed to (0, 0)."""

    code = "degenerate-direction"


class UnsupportedError(InvalidArgumentError):
    """The request is outside the implemented scope."""

    code = "unsupported"


class InsufficientDataError(TomokitError):
    """Too few tomogram slices for the requested reconstruction."""

    code = "insufficient-data"
    exit_code = 5


class ModelMismatchError(TomokitError):
    """Supplied data is inconsistent with the assumed state family."""

    code = "model-mismatch"
    exit_code = 5


class InconsistentTomogramsError(TomokitError):
    """Slices do not fit any single state to within tolerance."""

    code = "inconsistent-tomograms"
    exit_code = 5


def check(value, limit, error, message) -> None:
    """Pass if ``value <= limit`` (nan fails; an array passes if every element
    does), else raise ``error``, or warn it if a Warning, with the limit added
    to ``message()``, or to ``message(i)`` for an array's first failure i."""
    if getattr(value, "ndim", 0):
        ok = value <= limit
        if ok.all():
            return
        text = message(int(ok.argmin()))
    elif value <= limit:
        return
    else:
        text = message()
    text = f"{text} (limit {limit!r})"
    if not issubclass(error, Warning):
        raise error(text)
    warnings.warn(text, error, stacklevel=4)  # past the helper, to the public call's caller
