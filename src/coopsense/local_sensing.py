"""Closed-form energy detector performance for a single radio in Rayleigh fading.

The detector compares the normalized received energy over ``samples_m``
complex samples against a threshold lambda, which each function takes as its
own argument rather than from :class:`SensingParams`. Under the
noise-only hypothesis the statistic is chi-square with 2M degrees of freedom;
under an active primary user it is noncentral chi-square whose noncentrality
is twice the instantaneous SNR, which is exponentially distributed with mean
``avg_snr_gamma`` in block Rayleigh fading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .mathx import Probability, as_probability

__all__ = [
    "SensingParams",
    "local_pf",
    "local_pd",
    "local_pm",
    "threshold_for_pf",
]


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
        if not isinstance(self.samples_m, int) or self.samples_m < 1:
            raise ValueError(f"samples_m must be a positive integer, got {self.samples_m!r}")
        g = self.avg_snr_gamma
        if not (isinstance(g, (int, float)) and math.isfinite(g) and g > 0):
            raise ValueError(f"avg_snr_gamma must be finite and > 0, got {g!r}")


def _local_pf(samples_m: int, lam):
    """Array kernel of :func:`local_pf`: chi-square(2M) tail at each threshold."""
    return _sp.gammaincc(samples_m, np.asarray(lam, dtype=float) / 2.0)


def _threshold_for_pf(samples_m: int, pf):
    """Array kernel of :func:`threshold_for_pf`: the inverse of the chi-square(2M) tail."""
    return 2.0 * _sp.gammainccinv(samples_m, pf)


def _fade(samples_m: int, gamma: float, lam):
    """Fading-averaged part of the detection probability, shared by pd and pm (M >= 2)."""
    growth = ((1.0 + gamma) / gamma) ** (samples_m - 1)
    # lam * gamma overflows only past 1.8e308, where inf is the limit: gammainc(M-1, inf) = 1
    with np.errstate(over="ignore"):
        scaled = lam * gamma / (2.0 + 2.0 * gamma)
    return growth * np.exp(-lam / (2.0 + 2.0 * gamma)) * _sp.gammainc(samples_m - 1, scaled)


def _local_pm_parts(samples_m: int, gamma: float, lam):
    """Local miss at each threshold and its slope d pm / d lam.

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


def _local_pm(samples_m: int, gamma: float, lam):
    """Array kernel of :func:`local_pm` (see :func:`_local_pm_parts`)."""
    return _local_pm_parts(samples_m, gamma, lam)[0]


def _checked(lam) -> float:
    """The threshold ``lam``, which must be finite and >= 0."""
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise ValueError(f"threshold_lambda must be finite and >= 0, got {lam!r}")
    return lam


def local_pf(p: SensingParams, threshold_lambda: float) -> Probability:
    """False alarm probability: chi-square(2M) tail at the threshold."""
    return Probability(_local_pf(p.samples_m, _checked(threshold_lambda)))


def local_pd(p: SensingParams, threshold_lambda: float) -> Probability:
    """Detection probability averaged over Rayleigh fading.

    The exponential average of the noncentral chi-square tail has a closed
    form. It is evaluated here through regularized gamma functions, which is
    algebraically identical to the textbook finite-sum expression but does
    not cancel catastrophically at low average SNR.
    """
    m, lam, g = p.samples_m, _checked(threshold_lambda), p.avg_snr_gamma
    if m == 1:
        return as_probability(math.exp(-lam / (2.0 + 2.0 * g)))
    return as_probability(_sp.gammaincc(m - 1, lam / 2.0) + _fade(m, g, lam))


def local_pm(p: SensingParams, threshold_lambda: float) -> Probability:
    """Miss detection probability, the complement of :func:`local_pd`."""
    return Probability(_local_pm(p.samples_m, p.avg_snr_gamma, _checked(threshold_lambda)))


def threshold_for_pf(target_pf: float, samples_m: int) -> float:
    """Threshold achieving a given false alarm probability.

    Inverts the chi-square tail; the round trip through :func:`local_pf`
    agrees with the target to better than 1e-9 relative. Endpoints are
    rejected because the threshold would be degenerate.
    """
    if not isinstance(samples_m, int) or samples_m < 1:
        raise ValueError(f"samples_m must be a positive integer, got {samples_m!r}")
    q = float(target_pf)
    if not 0.0 < q < 1.0:
        raise ValueError(f"target_pf must lie strictly inside (0, 1), got {target_pf!r}")
    return float(_threshold_for_pf(samples_m, q))
