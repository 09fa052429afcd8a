"""Exception types shared across the package, and the default budget."""

DEFAULT_BUDGET = 20_000_000


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
