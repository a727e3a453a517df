"""Exception types shared across the toolkit."""

from __future__ import annotations

__all__ = [
    "RingConstructionError",
    "SpecParseError",
    "LatticeOverflowError",
    "CapExceededError",
    "UnsupportedRingError",
]


class RingConstructionError(ValueError):
    """A ring constructor was given invalid data or failed its self-test."""


class SpecParseError(ValueError):
    """A ring spec, ideal spec, or literal failed to parse."""

    def __init__(self, message: str, text: str = "", offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset} in {text!r})"
        super().__init__(message)


class LatticeOverflowError(RuntimeError):
    """Ideal lattice enumeration exceeded its cap; never truncated silently."""


class CapExceededError(RuntimeError):
    """An iteration cap was exhausted where a definite answer was required."""


class UnsupportedRingError(TypeError):
    """The requested operation is only defined for a restricted ring family."""
