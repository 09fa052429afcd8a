"""Exception types shared across the package, the default budget and what
an input may hold."""

import sys
from contextlib import contextmanager

DEFAULT_BUDGET = 20_000_000


def input_limit(budget: int) -> int:
    """What an input may cost before it is built: the larger of the budget
    and the default, so a small budget still reads what it refuses to count."""
    return max(DEFAULT_BUDGET, budget)


@contextmanager
def input_digits():
    """Inside, converting a decimal string of more digits than the
    interpreter's default limit (4,300) to an int raises ValueError before
    any work, also where the CLI lifts the limit to print exact answers."""
    lifted = getattr(sys, "get_int_max_str_digits", lambda: None)() == 0
    if lifted:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        if lifted:
            sys.set_int_max_str_digits(0)


def shown(value, limit: int = 40) -> str:
    """repr(value) for a message, cut after ``limit`` characters."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


class HomcertError(Exception):
    """Base class for package-specific errors."""


class GraphFormatError(HomcertError, ValueError):
    """Malformed graph, activity, or config input."""


class BudgetExceededError(HomcertError):
    """A counting operation exceeded its node-expansion budget.

    Raised instead of returning a truncated or approximate answer.
    """
