"""Work budgets, checked before anything of the budgeted size is built.

A budget is a positive integer cap read from an environment variable,
10^7 when unset; this module is the only code that reads one.  Work whose
size, known by closed form in advance, exceeds it is refused with
SizeLimitExceeded, which the command line reports with exit code 2.
"""

from __future__ import annotations

import os

EXPAND_BUDGET_ENV_VAR = "ACCKIT_EXPAND_BUDGET"
_DEFAULT_BUDGET = 10_000_000


class SizeLimitExceeded(Exception):
    """Work refused up front because its size exceeds its budget."""

    def __init__(self, size: int, budget: int, message: str):
        self.size = size
        self.budget = budget
        super().__init__(message)


def _env_budget(var: str) -> int:
    """The budget set in environment variable var, or 10^7 when unset."""
    value = os.environ.get(var)
    if value is None:
        return _DEFAULT_BUDGET
    try:
        budget = int(value)
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {value!r}") from None
    if budget < 1:
        raise ValueError(f"{var} must be >= 1, got {budget}")
    return budget


def check_size(what: str, size: int, units: str, var: str = EXPAND_BUDGET_ENV_VAR) -> None:
    """Refuse `what`, which would build or evaluate `size` units, when size
    exceeds the budget set in environment variable var: by default
    ACCKIT_EXPAND_BUDGET, the cap on every expansion and generated
    structure.  Raises SizeLimitExceeded."""
    budget = _env_budget(var)
    if size > budget:
        raise SizeLimitExceeded(size, budget, f"{what} needs {size} {units}, budget is {budget}; raise {var} to proceed")
