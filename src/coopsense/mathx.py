"""The scalar helpers shared by every layer: dB conversion and the Gaussian tail.

All functions here are pure and stateless, so they are safe for unrestricted
concurrent use.
"""
from __future__ import annotations

import math

__all__ = [
    "db_to_linear",
    "gaussian_q",
]


def db_to_linear(db: float) -> float:
    """Convert a power ratio in decibels to linear scale; inf past the float range, for callers to reject."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def gaussian_q(x: float) -> float:
    """Upper tail of the standard normal distribution, Pr{N(0,1) > x}.

    Evaluated through erfc so the far tail keeps full relative accuracy
    instead of cancelling against 1; stays positive up to x = 37.
    """
    return 0.5 * math.erfc(x / math.sqrt(2.0))
