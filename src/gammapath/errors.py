"""Exception types and enumeration limits shared across the toolkit."""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass


class GammapathError(Exception):
    """Base class for all toolkit-specific errors."""


class LimitExceeded(GammapathError):
    """An exhaustive search would overflow the configured limits."""

    def __init__(self, what: str, limit: int | float):
        super().__init__(f"{what} exceeds limit {limit}")
        self.what = what
        self.limit = limit


class PreconditionFailed(GammapathError, ValueError):
    """A verified precondition of an operation does not hold for the input."""


class UsageError(GammapathError, ValueError):
    """Malformed input: text that is not JSON, a missing key or an unknown name."""


def require_keys(data, keys, what: str) -> None:
    """Raise a usage error naming the first of keys that the JSON object lacks."""
    for key in keys:
        if not isinstance(data, dict) or key not in data:
            raise UsageError(f"{what} JSON needs the key {key!r}")


@contextmanager
def parsing(what: str):
    """Re-raise a ValueError or TypeError from building an object out of what JSON as a UsageError."""
    try:
        yield
    except UsageError:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad {what} JSON: {exc}") from None


class GroupMismatchError(GammapathError, ValueError):
    """Operands belong to different groups."""


class InternalInvariantError(GammapathError):
    """A property guaranteed by a proven statement failed; implementation bug."""


class NormalizationFailed(InternalInvariantError):
    """No shift sequence was found for an input that passed its preconditions."""


@dataclass(frozen=True)
class Limits:
    """Search budgets for the exhaustive oracles.

    max_len bounds path length in edges, max_paths the number of enumerated
    paths, cycle_cap the number of enumerated simple cycles, budget_s the
    time after which verify-suite starts no further check, max_family the
    family size the exact packing/covering solvers accept.  The counts are ints, budget_s any real but
    a bool; the command line reads its flag defaults from DEFAULT_LIMITS.
    """

    max_len: int = 20
    max_paths: int = 200_000
    cycle_cap: int = 100_000
    budget_s: float = 600.0
    max_family: int = 10_000

    def __post_init__(self):
        # a count is a plain int, as JSON ids are; a bool or a float would pass the test below
        for name in ("max_len", "max_paths", "cycle_cap", "max_family"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"limits must be positive and {name} an int, got {value!r}")
        if type(self.budget_s) is bool or not isinstance(self.budget_s, numbers.Real):
            raise ValueError(f"limits must be positive and budget_s a real, got {self.budget_s!r}")
        # written as `not > 0` so that NaN is rejected too
        if not all(x > 0 for x in (self.max_len, self.max_paths, self.cycle_cap, self.budget_s, self.max_family)):
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = Limits()
