"""Closed-form energy detector performance for a single radio in Rayleigh fading.

The detector compares the normalized received energy over ``samples_m``
complex samples against a threshold lambda. Under the noise-only hypothesis
the statistic is chi-square with 2M degrees of freedom; under an active
primary user it is noncentral chi-square whose noncentrality is twice the
instantaneous SNR, which is exponentially distributed with mean
``avg_snr_gamma`` in block Rayleigh fading.

Each function takes M, the average SNR gamma where it needs one, and a
threshold or false-alarm array (or scalar), checks them once, and returns
float64 values of the same shape. The threshold lambda = inf is the detector
that never fires: pf = 0, pm = 1, pd = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "SensingParams",
    "local_pf",
    "local_pd",
    "local_pm",
    "threshold_for_pf",
]


def _check_detector(samples_m, gamma=1.0) -> None:
    """Raise ValueError unless M is a positive integer and gamma finite and > 0."""
    if not isinstance(samples_m, int) or samples_m < 1:
        raise ValueError(f"samples_m must be a positive integer, got {samples_m!r}")
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"avg_snr_gamma must be finite and > 0, got {gamma!r}")


def _thresholds(lam) -> np.ndarray:
    """``lam`` as a float array, every element of which must be >= 0 (inf included, NaN not)."""
    values = np.asarray(lam, dtype=float)
    if not (values >= 0.0).all():
        raise ValueError(f"lam must be >= 0 (inf allowed), got {lam!r}")
    return values


@dataclass(frozen=True)
class SensingParams:
    """Per-radio detector configuration.

    samples_m      number of complex samples per sensing event (M >= 1)
    avg_snr_gamma  average SNR, linear scale; convert dB at the ingestion
                   boundary only
    """

    samples_m: int
    avg_snr_gamma: float

    def __post_init__(self):
        _check_detector(self.samples_m, self.avg_snr_gamma)


def _fade(samples_m: int, gamma: float, lam):
    """Fading-averaged part of the detection probability, shared by pd and pm (M >= 2)."""
    growth = ((1.0 + gamma) / gamma) ** (samples_m - 1)
    # lam * gamma overflows only past 1.8e308, where inf is the limit: gammainc(M-1, inf) = 1
    with np.errstate(over="ignore"):
        scaled = lam * gamma / (2.0 + 2.0 * gamma)
    return growth * np.exp(-lam / (2.0 + 2.0 * gamma)) * _sp.gammainc(samples_m - 1, scaled)


def _local_pm_parts(samples_m: int, gamma: float, lam):
    """Local miss at each threshold and its slope d pm / d lam, unchecked.

    pd = Q(M-1, lam/2) + fade, so pm = P(M-1, lam/2) - fade, formed directly
    rather than as 1 - pd; for M = 1 it is 1 - exp(-lam / (2 + 2*gamma)),
    evaluated with expm1. The slope is the H1 density of the statistic,
    fade / (2 + 2*gamma): the derivatives of the two incomplete-gamma terms
    cancel (Digham, Alouini & Simon, IEEE Trans. Commun. 55(1), 2007).
    """
    lam = np.asarray(lam, dtype=float)
    c = 2.0 + 2.0 * gamma
    if samples_m == 1:
        pm = -np.expm1(-lam / c)
        return pm, np.exp(-lam / c) / c
    lower, fade = _sp.gammainc(samples_m - 1, lam / 2.0), _fade(samples_m, gamma, lam)
    # the two terms cancel to leading order at small lam; rounding may dip below 0
    return np.maximum(lower - fade, 0.0), fade / c


def local_pf(samples_m: int, lam):
    """False alarm probability at each threshold: the chi-square(2M) tail."""
    _check_detector(samples_m)
    return _sp.gammaincc(samples_m, _thresholds(lam) / 2.0)


def local_pd(samples_m: int, gamma: float, lam):
    """Detection probability at each threshold, averaged over Rayleigh fading.

    The exponential average of the noncentral chi-square tail has a closed
    form. It is evaluated here through regularized gamma functions, which is
    algebraically identical to the textbook finite-sum expression but does
    not cancel catastrophically at low average SNR; rounding past 1 is clipped.
    """
    _check_detector(samples_m, gamma)
    lam = _thresholds(lam)
    if samples_m == 1:
        return np.exp(-lam / (2.0 + 2.0 * gamma))
    return np.minimum(_sp.gammaincc(samples_m - 1, lam / 2.0) + _fade(samples_m, gamma, lam), 1.0)


def local_pm(samples_m: int, gamma: float, lam):
    """Miss detection probability at each threshold, the complement of :func:`local_pd`."""
    _check_detector(samples_m, gamma)
    return _local_pm_parts(samples_m, gamma, _thresholds(lam))[0]


def threshold_for_pf(samples_m: int, pf):
    """Threshold achieving each false alarm probability in ``pf``.

    Inverts the chi-square tail; the round trip through :func:`local_pf`
    agrees with the target to better than 1e-9 relative. Endpoints are
    rejected because the threshold would be degenerate.
    """
    _check_detector(samples_m)
    q = np.asarray(pf, dtype=float)
    if not ((q > 0.0) & (q < 1.0)).all():
        raise ValueError(f"pf must lie strictly inside (0, 1), got {pf!r}")
    return 2.0 * _sp.gammainccinv(samples_m, q)
