"""Exception types shared across the package."""

import math
import numbers
import operator

import numpy as np


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class ZeroInIntervalError(DomainError):
    """An interval that must avoid 0 mod p (a denominator) covers it."""


class BudgetError(RuntimeError):
    """The requested computation exceeds the configured work budget.

    `required` carries the budget that would have admitted the instance,
    or, when the message says "needs at least", a lower bound on it.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class ConsistencyError(RuntimeError):
    """An internal exactness invariant failed (always a bug, never user input)."""


DEFAULT_BUDGET = 1_000_000_000


def check_budget(work: int, budget: int | None, what: str) -> None:
    """Refuse computations whose elementary-operation count exceeds the budget.

    A budget is an integer >= 0 (None: DEFAULT_BUDGET); any other value is
    a DomainError.
    """
    limit = DEFAULT_BUDGET if budget is None else integer("budget", budget, low=0)
    if work > limit:
        raise BudgetError(
            f"{what} needs {work} operations, budget is {limit}", required=work)


def integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """value as a Python int in low..high (a missing bound is open).

    A bool, a non-integer or a value out of range is a DomainError naming
    the argument.
    """
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= index <= high:
        raise DomainError(f"{name} must lie in {low}..{high}, got {index}")
    if low is not None and index < low:
        raise DomainError(f"{name} must be >= {low}, got {index}")
    return index


def integer_array(name: str, values) -> np.ndarray:
    """values as an int64 array; non-integer entries are a DomainError naming the argument."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise DomainError(f"{name} must be integers, got {arr.dtype} entries")
    return arr.astype(np.int64, copy=False)


def check_epsilon(epsilon) -> float:
    """epsilon when it is a finite real number >= 0 (not a bool); else a DomainError."""
    if isinstance(epsilon, bool) or not (isinstance(epsilon, numbers.Real)
                                         and 0 <= epsilon < math.inf):
        raise DomainError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    return epsilon


class SetFileError(ValueError):
    """A residue-set file failed validation; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
