"""Shared exception types."""

from __future__ import annotations

__all__ = [
    "PolyextError",
    "BudgetExceededError",
    "RetryExhaustedError",
    "PreconditionError",
]


class PolyextError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(PolyextError):
    """An enumeration or sampling loop would exceed its stated budget."""


class RetryExhaustedError(PolyextError):
    """A rejection-sampling loop used up its retry allowance without success."""


class PreconditionError(PolyextError):
    """Caller violated a documented precondition."""
