"""Exception types shared across the package, and the node budget of every search."""

from __future__ import annotations

import contextvars
import os

DEFAULT_BUDGET = 10**9


class SymcolError(Exception):
    """Base class for package-specific failures."""


class Graph6Error(SymcolError, ValueError):
    """Malformed graph6 text.  `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class NotApplicableError(SymcolError):
    """A construction or check was asked about a graph outside its preconditions."""


class BudgetExceededError(SymcolError):
    """A search ran out of its node budget, or a group was too large to
    multiply out into its elements.  ``nodes`` is the node count reached,
    past the budget, when a budget ran out."""

    def __init__(self, message: str, *, nodes: int | None = None) -> None:
        super().__init__(message)
        self.nodes = nodes


class ConstructionDefectError(SymcolError):
    """A construction finished but its internal verifier rejected the result.

    This must never fire for in-contract inputs; it exists so a defect is loud
    instead of silently producing a bad coloring.
    """


# The budget of the check now running, for every search given none; the
# command line's run_check sets it around each check, and an oracle call
# around its own searches.
_check_budget: contextvars.ContextVar[int | None] = contextvars.ContextVar("budget", default=None)


def _resolve_budget(budget: int | None) -> int:
    """``budget``, else that of the running check, else SYMCOL_BUDGET, else
    ``DEFAULT_BUDGET`` nodes."""
    if budget is None:
        budget = _check_budget.get()
    if budget is not None:
        return budget
    text = os.environ.get("SYMCOL_BUDGET", str(DEFAULT_BUDGET))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SYMCOL_BUDGET must be an integer node count, not {text!r}") from None
