"""Fused performance of the n-out-of-K vote under reporting errors.

The fusion center declares the primary user active when at least ``n`` of the
``K`` received bits are 1. Received bits are the radios' hard decisions
passed through the symmetric flip channel, so both fused error probabilities
are binomial tails in the post-flip bit probabilities, each one regularized
incomplete beta function. That keeps full relative accuracy even for the tiny
asymptotic floors at high reporting SNR.
"""
from __future__ import annotations

from dataclasses import dataclass

from scipy import special as _sp

from .mathx import Probability, as_probability

__all__ = [
    "FusionConfig",
    "fused_qf",
    "fused_qm",
    "asymptotic_qf",
    "asymptotic_qm",
]


@dataclass(frozen=True)
class FusionConfig:
    """Vote rule: declare the band occupied when >= vote_threshold_n of the
    num_radios_k received bits are 1."""

    num_radios_k: int
    vote_threshold_n: int

    def __post_init__(self):
        k, n = self.num_radios_k, self.vote_threshold_n
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"num_radios_k must be a positive integer, got {k!r}")
        if not isinstance(n, int) or not 1 <= n <= k:
            raise ValueError(f"vote_threshold_n must satisfy 1 <= n <= {k}, got {n!r}")


def _check_rules(k: int, ns, name: str) -> None:
    """Raise ValueError unless every vote rule in ``ns`` is an integer in 1..K."""
    if not all(isinstance(n, int) and 1 <= n <= k for n in ns):
        raise ValueError(f"{name} must be integer vote thresholds in [1, {k}], got {ns!r}")


def _flip(p, pe):
    """Probability that a received bit reads b when the radio sends b with probability p."""
    return p * (1.0 - pe) + (1.0 - p) * pe


def _fused_qf(k: int, n, pf, pe):
    """Array kernel of :func:`fused_qf`: Pr{Bin(K, one) >= n} = I_one(n, K-n+1) (DLMF 8.17.5)."""
    return _sp.betainc(n, k - n + 1, _flip(pf, pe))


def _fused_qm(k: int, n, pm, pe):
    """Array kernel of :func:`fused_qm`: Pr{>= K-n+1 zeros} = I_zero(K-n+1, n).

    The post-flip zero probability is formed directly, never as 1 - one, so
    tiny miss tails keep their relative accuracy.
    """
    return _sp.betainc(k - n + 1, n, _flip(pm, pe))


def fused_qf(cfg: FusionConfig, pf, pe) -> Probability:
    """Overall false alarm: Pr{>= n received bits are 1} under the idle band.

    Each received bit is 1 with probability pf*(1-pe) + (1-pf)*pe.
    """
    pf, pe = float(Probability(pf)), float(Probability(pe))
    return as_probability(_fused_qf(cfg.num_radios_k, cfg.vote_threshold_n, pf, pe))


def fused_qm(cfg: FusionConfig, pm, pe) -> Probability:
    """Overall miss detection: Pr{<= n-1 received bits are 1} under an active PU.

    Each received bit is 1 with probability (1-pm)*(1-pe) + pm*pe.
    """
    pm, pe = float(Probability(pm)), float(Probability(pe))
    return as_probability(_fused_qm(cfg.num_radios_k, cfg.vote_threshold_n, pm, pe))


def asymptotic_qf(cfg: FusionConfig, pe) -> Probability:
    """False alarm floor as the local detector becomes perfect (pf -> 0).

    Residual false alarms are caused purely by report bit flips; strictly
    decreasing in n. Equal to fused_qf at pf = 0 by construction. Public
    because it names the paper's floor, which acceptance criterion 2 states.
    """
    return as_probability(_fused_qf(cfg.num_radios_k, cfg.vote_threshold_n, 0.0, float(Probability(pe))))


def asymptotic_qm(cfg: FusionConfig, pe) -> Probability:
    """Miss detection floor as the local detector becomes perfect (pm -> 0).

    Strictly increasing in n. Equal to fused_qm at pm = 0 by construction.
    Public because it names the paper's floor, which acceptance criterion 2 states.
    """
    return as_probability(_fused_qm(cfg.num_radios_k, cfg.vote_threshold_n, 0.0, float(Probability(pe))))
