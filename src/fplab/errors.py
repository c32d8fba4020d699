"""Exception types shared across the package."""


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


class SetFileError(ValueError):
    """A residue-set file failed validation; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
