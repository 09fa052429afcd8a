"""Exception types shared across the package, and the default budget."""

DEFAULT_BUDGET = 20_000_000


def input_limit(budget: int) -> int:
    """What an input may cost before it is built: the larger of the budget
    and the default, so a small budget still reads what it refuses to count."""
    return max(DEFAULT_BUDGET, budget)


class HomcertError(Exception):
    """Base class for package-specific errors."""


class GraphFormatError(HomcertError, ValueError):
    """Malformed graph, activity, or config input."""


class GenerationError(HomcertError):
    """A random generator exhausted its resampling cap."""


class BudgetExceededError(HomcertError):
    """A counting operation exceeded its node-expansion budget.

    Raised instead of returning a truncated or approximate answer.
    """
