"""Work budgets, checked before anything of the budgeted size is built.

A budget is a positive integer cap read from an environment variable.  Work
whose size, known by closed form in advance, exceeds it is refused with
SizeLimitExceeded, which the command line reports with exit code 2.
"""

from __future__ import annotations

import os

EXPAND_BUDGET_ENV_VAR = "ACCKIT_EXPAND_BUDGET"
DEFAULT_EXPAND_BUDGET = 10_000_000


class SizeLimitExceeded(Exception):
    """Work refused up front because its size exceeds its budget."""

    def __init__(self, size: int, budget: int, message: str):
        self.size = size
        self.budget = budget
        super().__init__(message)


def env_budget(var: str, default: int) -> int:
    """The budget set in environment variable var, or default when unset."""
    value = os.environ.get(var)
    if value is None:
        return default
    try:
        budget = int(value)
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {value!r}") from None
    if budget < 1:
        raise ValueError(f"{var} must be >= 1, got {budget}")
    return budget


def check_size(what: str, size: int, units: str) -> None:
    """Refuse `what`, which would build `size` units, when size exceeds the
    budget set in ACCKIT_EXPAND_BUDGET (default 10^7), the cap on every
    expansion and generated structure.  Raises SizeLimitExceeded."""
    budget = env_budget(EXPAND_BUDGET_ENV_VAR, DEFAULT_EXPAND_BUDGET)
    if size > budget:
        raise SizeLimitExceeded(
            size,
            budget,
            f"{what} needs {size} {units}, budget is {budget}; raise {EXPAND_BUDGET_ENV_VAR} to proceed",
        )
