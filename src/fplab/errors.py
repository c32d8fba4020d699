"""Exception types shared across the package."""

import operator


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
    """Refuse computations whose elementary-operation count exceeds the budget."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if work > limit:
        raise BudgetError(
            f"{what} needs {work} operations, budget is {limit}", required=work)


def integer(name: str, value) -> int:
    """value as a Python int; a DomainError naming the argument for a bool or a non-integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


class SetFileError(ValueError):
    """A residue-set file failed validation; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
