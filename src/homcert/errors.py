"""Exception types shared across the package."""


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


class SubsetLimitError(BudgetExceededError):
    """A table over all subsets of a vertex set would exceed the budget."""
