"""Exception types shared across the package.

The CLI maps these onto its exit codes: syntax problems exit 2, violated
preconditions (gates, caps, infeasible generator specs) exit 3, and a failed
internal check (``OracleError``) exits 1 with "internal check failed".
"""

from __future__ import annotations

__all__ = [
    "BraidSyntaxError",
    "PreconditionError",
    "CrossingLimitError",
    "OracleError",
]


class BraidSyntaxError(ValueError):
    """A braid word string could not be parsed."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class CrossingLimitError(PreconditionError):
    """A crossing-count cap was exceeded; the message echoes the cap."""

    def __init__(self, crossings: int, cap: int):
        super().__init__(
            f"diagram has {crossings} crossings, above the cap of {cap}"
        )
        self.crossings = crossings
        self.cap = cap


class OracleError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
