"""Independent reference values for the coopsense closed forms.

Nothing here imports coopsense. Every quantity is computed from its
definition with scipy.stats and scipy.integrate, by a different route than
the program takes:

- local false alarm ``pf``: ``chi2.sf(lambda, 2M)``;
- local miss ``pm``: ``quad`` of the noncentral chi-square cdf over the
  exponential SNR of block Rayleigh fading, never as ``1 - pd``;
- report bit error ``pe``: ``norm.sf(0.5 * sqrt(SNR_r))``;
- fused tails: ``binom.sf`` on the post-flip bit probabilities. The miss
  tail ``Pr{ones <= n-1}`` is written as the upper tail of the zero count,
  ``Pr{zeros >= K-n+1}``, so no ``1 - x`` of a tail appears.

:func:`mpmath_spot_check` re-derives a few of these values at 50 digits.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special, stats


def pe_of(report_snr_db: float | None) -> float:
    """Bit error probability of the midpoint slicer; ``None`` is a perfect link."""
    if report_snr_db is None:
        return 0.0
    snr_r = 10.0 ** (report_snr_db / 10.0)
    return float(stats.norm.sf(0.5 * math.sqrt(snr_r)))


def local_pf(lam, m: int):
    """Chi-square(2M) tail at the threshold; accepts arrays."""
    return stats.chi2.sf(lam, 2 * m)


@lru_cache(maxsize=None)
def local_pm(lam: float, m: int, gamma: float) -> float:
    """Miss probability averaged over Rayleigh fading, by adaptive quadrature.

    The statistic is noncentral chi-square with 2M degrees of freedom and
    noncentrality 2*snr, with snr exponential of mean ``gamma``.
    """
    if lam == 0.0:
        return 0.0
    value, _ = integrate.quad(
        lambda s: special.chndtr(lam, 2 * m, 2.0 * s) * math.exp(-s / gamma) / gamma,
        0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400,
    )
    return value


def fused_qf(k: int, n, pf, pe):
    """Pr{at least n of K received bits are 1} when each is 1 w.p. pf(1-pe)+(1-pf)pe."""
    one = pf * (1.0 - pe) + (1.0 - pf) * pe
    return stats.binom.sf(np.asarray(n) - 1, k, one)


def fused_qm(k: int, n, pm, pe):
    """Pr{at most n-1 ones} = Pr{at least K-n+1 zeros}, each zero w.p. pm(1-pe)+(1-pm)pe."""
    zero = pm * (1.0 - pe) + (1.0 - pm) * pe
    return stats.binom.sf(k - np.asarray(n), k, zero)


def qf_floor(k: int, n, pe):
    return fused_qf(k, n, 0.0, pe)


def qm_floor(k: int, n, pe):
    return fused_qm(k, n, 0.0, pe)


def qm_loose(k: int, n, pe):
    """Fused miss once the local detector never fires (threshold -> infinity)."""
    return fused_qm(k, n, 1.0, pe)


def lambda_for_pm(pm_target: float, m: int, gamma: float) -> float:
    """Threshold at which the oracle's local miss equals ``pm_target`` (0 < pm < 1)."""
    hi = 2.0 * (m + 1.0)
    while local_pm(hi, m, gamma) < pm_target:
        hi *= 2.0
    return optimize.brentq(lambda lam: local_pm(lam, m, gamma) - pm_target, 0.0, hi,
                           xtol=1e-12, rtol=4 * np.finfo(float).eps, maxiter=200)


def best_qf_at_qm(k: int, n: int, target: float, m: int, gamma: float, pe: float):
    """Lowest fused qf of rule n with fused qm <= target.

    Returns ``(qf, lam)``; ``lam`` is ``inf`` when the miss constraint never
    binds, and ``(nan, nan)`` when the target is below the rule's floor.
    """
    if target < float(qm_floor(k, n, pe)):
        return math.nan, math.nan
    if target >= float(qm_loose(k, n, pe)):
        return float(qf_floor(k, n, pe)), math.inf
    # the fused miss depends on the threshold only through pm: invert the
    # vote tail in pm first (cheap), then the fading integral in lambda
    pm_star = optimize.brentq(lambda pm: float(fused_qm(k, n, pm, pe)) - target, 0.0, 1.0,
                              xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=400)
    lam = lambda_for_pm(pm_star, m, gamma) if pm_star > 0.0 else 0.0
    return float(fused_qf(k, n, local_pf(lam, m), pe)), lam


# (K, n, M, gamma, SNR_r dB, lambda) of each mpmath spot check
SPOT_CHECK_POINTS = [(4, 2, 6, 10.0, 10.0, 12.0), (16, 9, 6, 31.6, 0.0, 30.0),
                     (64, 40, 6, 10.0, 10.0, 8.0), (8, 1, 16, 10.0, 5.0, 45.0),
                     (64, 1, 6, 100.0, 0.0, 60.0)]


def mpmath_spot_check() -> float:
    """Worst relative difference between this oracle and 50-digit mpmath.

    mpmath evaluates the binomial sums term by term, the chi-square tail as a
    regularized upper gamma, the fading-averaged detection probability from
    its finite closed form (Digham, Alouini and Simon), and the bit error
    through erfc.
    """
    import mpmath as mp

    mp.mp.dps = 50
    worst = 0.0
    for k, n, m, gamma, snr_db, lam in SPOT_CHECK_POINTS:
        L, G = mp.mpf(lam), mp.mpf(gamma)
        pe_mp = mp.erfc(mp.mpf("0.5") * mp.sqrt(mp.mpf(10) ** (mp.mpf(snr_db) / 10)) / mp.sqrt(2)) / 2
        pf_mp = mp.gammainc(m, L / 2, mp.inf, regularized=True)
        pd_mp = mp.gammainc(m - 1, L / 2, mp.inf, regularized=True) if m > 1 else 0
        pd_mp += ((1 + G) / G) ** (m - 1) * mp.exp(-L / (2 + 2 * G)) * (
            mp.gammainc(m - 1, 0, L * G / (2 + 2 * G), regularized=True) if m > 1 else 1)
        pm_mp = 1 - pd_mp

        def tail(p_one, lo, hi):
            return mp.fsum(mp.binomial(k, j) * p_one ** j * (1 - p_one) ** (k - j)
                           for j in range(lo, hi + 1))

        one_h0 = pf_mp * (1 - pe_mp) + (1 - pf_mp) * pe_mp
        one_h1 = (1 - pm_mp) * (1 - pe_mp) + pm_mp * pe_mp
        pe_o = pe_of(snr_db)
        pf_o = float(local_pf(lam, m))
        pm_o = local_pm(lam, m, gamma)
        pairs = [
            (pe_o, pe_mp), (pf_o, pf_mp), (pm_o, pm_mp),
            (float(fused_qf(k, n, pf_o, pe_o)), tail(one_h0, n, k)),
            (float(fused_qm(k, n, pm_o, pe_o)), tail(one_h1, 0, n - 1)),
            (float(qf_floor(k, n, pe_o)), tail(pe_mp, n, k)),
            (float(qm_floor(k, n, pe_o)), tail(1 - pe_mp, 0, n - 1)),
        ]
        for got, ref in pairs:
            worst = max(worst, float(abs(got - ref) / abs(ref)))
    return worst
