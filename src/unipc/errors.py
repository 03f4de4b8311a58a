"""Exception hierarchy shared across the package, and its one argument type check.

Everything derives from UniPCError so callers can catch library failures
with one clause.  DomainError and ValidationError also derive from
ValueError, matching how bad arguments are usually handled in Python.

typed decides what type an argument may have, at every public entry point
and for every JSON field: "int", "number" (finite), "real" (any real number
a float can hold), "bool", "list" or "dict"; a class, or a union of classes
such as str | os.PathLike; or a tuple of the allowed strings.  Its messages, and the range
checks that print a rejected value, format it with shown, which also shows a too-long int.
Every JSON reader names the keys it does not know with unknown.
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


_KINDS = {
    "int": numbers.Integral,
    "number": numbers.Real,
    "real": numbers.Real,
    "bool": bool,
    "list": list,
    "dict": dict,
}
_NOUNS = {"int": "an int", "real": "a real number"}


def shown(value, form=repr) -> str:
    """form(value), or its type where form raises ValueError, as for an int of over 4,300 digits."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} that {form.__name__} cannot show>"


def unknown(keys, known) -> list:
    """The keys not in known, sorted by repr, so keys of mixed types sort too."""
    return sorted(set(keys) - set(known), key=repr)


def typed(value, kind, what: str, error: type[UniPCError] = ValidationError):
    """value unchanged if it is of kind, else error (ValidationError unless a caller keeps
    another class).  kind is "int", "number" (finite), "real" (any real number a float can
    hold: NaN and infinities, not 10**400), "bool", "list" or "dict", where a bool is no
    int, number or real; a class, or a union of classes ("{what} must be a {class}, got
    {type}"); or a tuple of the allowed strings ("unknown {what} {value!r}" unless value
    is a str among them)."""
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise error(f"unknown {what} {shown(value)}")
    if not isinstance(kind, str):
        if isinstance(value, kind):
            return value
        raise error(f"{what} must be a {getattr(kind, '__name__', kind)}, "
                    f"got {type(value).__name__}")
    ok = isinstance(value, _KINDS[kind]) and (kind == "bool" or not isinstance(value, bool))
    if ok and kind in ("number", "real"):
        try:
            ok = math.isfinite(value) or kind == "real"
        except OverflowError:  # a real number too large for a float
            ok = False
    if not ok:
        raise error(f"{what} must be {_NOUNS.get(kind, 'a ' + kind)}, got {shown(value)}")
    return value
