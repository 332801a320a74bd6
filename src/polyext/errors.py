"""Shared exception types and the one budget gate, :func:`check_budget`."""

from __future__ import annotations

__all__ = [
    "PolyextError",
    "BudgetExceededError",
    "RetryExhaustedError",
    "PreconditionError",
    "check_budget",
]


class PolyextError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(PolyextError):
    """An enumeration or sampling loop would exceed its stated budget."""


class RetryExhaustedError(PolyextError):
    """A rejection-sampling loop used up its retry allowance without success."""


class PreconditionError(PolyextError):
    """Caller violated a documented precondition."""


def check_budget(what: str, limit: int, count: int = 0, log2: int = -1) -> None:
    """Refuse over ``limit`` units of work: ``count`` of them, or 2^``log2`` judged
    by its exponent and never built (2^x > L exactly when x >= L.bit_length())."""
    bits = limit.bit_length()
    if count > limit or log2 >= bits:
        need = f"2^{log2}" if log2 >= bits else count
        cap = f"2^{bits - 1}" if limit & (limit - 1) == 0 else limit
        raise BudgetExceededError(f"{what}: {need} exceeds the {cap} budget")
