"""Exception types shared across the package, the size guard that raises
SpaceTooLarge, and the context in which exact integers of any length
print."""

import contextlib
import os
import sys
from dataclasses import dataclass

DEFAULT_SPACE_LIMIT = 1 << 24


@contextlib.contextmanager
def exact_ints():
    """Lift the interpreter's int-to-str digit limit (Python 3.11 and
    later) for the block, so that exact values of any length print, and
    restore the caller's setting afterwards.  Input is still parsed under
    the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class NotPrimePower(ValueError):
    """Raised when a field order is not a prime power."""


class TooLarge(ValueError):
    """Raised when a field order exceeds the supported maximum."""


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting the zero element of a field."""


class DimensionMismatch(ValueError):
    """Raised when matrices, group elements or functionals of different
    sizes (or over different fields) are combined."""


class UnknownFamily(ValueError):
    """Raised for an unrecognized path or partition family name."""


class NotInFamily(ValueError):
    """Raised when a lattice path lies outside the family a map expects."""


class NotClassX(ValueError):
    """Raised when a functional is not of class X, i.e. some block of its
    upper form is not of type (a), (b) or (c).  ``block_index`` records the
    first offending block (0-based)."""

    def __init__(self, block_index: int, message: str | None = None):
        self.block_index = block_index
        super().__init__(message or f"block {block_index} has no valid type")


class NonIntegralDivision(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a
    remainder.  Always indicates an internal inconsistency."""


class SpaceTooLarge(RuntimeError):
    """Raised when an enumeration or orbit search would exceed its size
    guard.  ``bound`` is the active limit, ``needed`` the demand: exact,
    or with ``at_least`` a lower bound (the size a search had reached when
    it stopped).  ``limit_arg`` says whether the guarded call takes a
    limit argument; the hint mentions one only then."""

    def __init__(self, bound: int, needed: int | None = None, what: str = "state space",
                 limit_arg: bool = True, at_least: bool = False):
        self.bound = bound
        self.needed = needed
        hint = " or raise the limit argument" if limit_arg else " to raise it"
        with exact_ints():  # a needed size can run to thousands of digits
            detail = (f" (needs {'at least ' if at_least else ''}{needed})"
                      if needed is not None else "")
            super().__init__(f"{what} exceeds the size guard of {bound}{detail}; "
                             f"set HEISCHAR_SPACE_LIMIT{hint}")


def space_limit(limit: int | None = None) -> int:
    """The active size guard: explicit argument, else HEISCHAR_SPACE_LIMIT
    (an integer >= 0; empty counts as unset), else the default of 2^24
    items."""
    if limit is not None:
        return limit
    env = os.environ.get("HEISCHAR_SPACE_LIMIT")
    if not env:
        return DEFAULT_SPACE_LIMIT
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"HEISCHAR_SPACE_LIMIT must be an integer >= 0, got {env!r}")
    return value


@dataclass(frozen=True)
class Space:
    """A space that a size guard refuses unbuilt: its size (or a lower
    bound on it), its description and whether the guarded call takes a
    limit argument (when it does not, only HEISCHAR_SPACE_LIMIT can raise
    the guard)."""

    size: int
    what: str
    takes_limit: bool = True
    at_least: bool = False


def guard_space(space: Space, limit: int | None = None) -> None:
    """Raise SpaceTooLarge when the space exceeds the active size guard."""
    bound = space_limit(limit if space.takes_limit else None)
    if space.size > bound:
        raise SpaceTooLarge(bound, space.size, space.what, limit_arg=space.takes_limit,
                            at_least=space.at_least)
