"""Boundary checks for numeric spec fields.

``value <= 0`` is False for NaN, so a bare sign test lets NaN through;
these helpers test finiteness first and name the offending field.
"""

from __future__ import annotations

import math

__all__ = ["check_nonnegative", "check_positive"]


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(
            f"{name} must be a non-negative finite number, got {value!r}"
        )
