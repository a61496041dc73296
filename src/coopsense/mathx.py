"""The probability type and the scalar helpers shared by every layer.

All functions here are pure and stateless, so they are safe for unrestricted
concurrent use.
"""
from __future__ import annotations

import math

__all__ = [
    "Probability",
    "as_probability",
    "db_to_linear",
    "gaussian_q",
]


class Probability(float):
    """A float constrained to [0, 1].

    Construction rejects NaN and out-of-range values outright. Use
    :func:`as_probability` where long floating-point summations may leave
    sub-tolerance dust just outside the interval.
    """

    __slots__ = ()

    def __new__(cls, value) -> "Probability":
        v = float(value)
        if not 0.0 <= v <= 1.0:  # comparison is False for NaN, so NaN is rejected too
            raise ValueError(f"probability must lie in [0, 1], got {value!r}")
        return super().__new__(cls, v)


def as_probability(value, tol: float = 1e-9) -> Probability:
    """Clamp floating-point excursions within ``tol`` of [0, 1]; reject anything worse."""
    v = float(value)
    if -tol <= v < 0.0:
        v = 0.0
    elif 1.0 < v <= 1.0 + tol:
        v = 1.0
    return Probability(v)


def db_to_linear(db: float) -> float:
    """Convert a power ratio in decibels to linear scale."""
    return 10.0 ** (db / 10.0)


def gaussian_q(x: float) -> Probability:
    """Upper tail of the standard normal distribution, Pr{N(0,1) > x}.

    Evaluated through erfc so the far tail keeps full relative accuracy
    instead of cancelling against 1; stays positive up to x = 37.
    """
    return Probability(0.5 * math.erfc(x / math.sqrt(2.0)))

