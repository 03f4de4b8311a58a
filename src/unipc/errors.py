"""Exception hierarchy shared across the package, and JSON field checks.

Everything derives from UniPCError so callers can catch library failures
with one clause.  DomainError and ValidationError also derive from
ValueError, matching how bad arguments are usually handled in Python.
"""

import math
import numbers


class UniPCError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UniPCError, ValueError):
    """An argument is outside the mathematically usable range."""


class ValidationError(UniPCError, ValueError):
    """A config, grid, or schedule failed structural validation."""


class SingularSystemError(UniPCError):
    """A coefficient system could not be solved (duplicate or zero nodes)."""


class InsufficientHistoryError(UniPCError):
    """The solver buffer does not hold enough past model outputs."""


class NumericError(UniPCError):
    """A non-finite value appeared during sampling.

    Carries the 1-based step index where the run aborted.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ReferenceAccuracyError(UniPCError):
    """The fine reference integrator failed its self-consistency check."""


class FitError(UniPCError):
    """Too few usable points remained for an order fit."""


_JSON_KINDS = {
    "int": numbers.Integral,
    "number": numbers.Real,
    "bool": bool,
    "list": list,
    "dict": dict,
}


def typed(value, kind: str, what: str):
    """Return a decoded JSON value unchanged if it is of `kind`, else raise ValidationError.

    kind is "int", "number" (finite), "bool", "list" or "dict"; a bool is
    never accepted as an int or a number.
    """
    ok = isinstance(value, _JSON_KINDS[kind]) and (kind == "bool" or not isinstance(value, bool))
    if ok and kind == "number":
        try:
            ok = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            ok = False
    if not ok:
        raise ValidationError(f"{what} must be {'an' if kind == 'int' else 'a'} {kind}, got {value!r}")
    return value
