"""The analytic ROC sweep, vote-rule crossovers, and adaptive rule selection.

:class:`RocSweep` is the one closed-form ROC: the command line writes it, and
library users read its columns.

With a perfect reporting channel and high sensing SNR the 1-out-of-K (OR)
rule gives the lowest fused false alarm at any miss level; at lower SNR a
larger rule can win even then. Reporting errors put a floor under both
fused error probabilities, the floors move in opposite directions with n, and
consecutive rules' ROC curves cross: above some miss level the larger rule
wins. The selection rule here locates those crossovers and picks the vote
threshold from the target miss probability, then double-checks itself against
a direct constrained minimization. A crossover table is one solve over all
rule pairs in :mod:`coopsense._inversion`: shared gap-sign scans, then
Newton steps on the closed-form slopes of both rules' ROCs. A scan certifies
most signs from a forward table of both rules' fused qm and qf, and inverts
only the miss levels that the table's bounds leave open. Each rule's
threshold for a miss level is the Newton root of its fused miss, with a
plain bisection as the fallback.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .fusion import FusionConfig, _fused_qf, _fused_qm
from .local_sensing import SensingParams, _local_pf, _local_pm
from .mathx import Probability
from .reporting import ReportChannel

__all__ = [
    "RocSweep",
    "CrossoverTable",
    "OptimalRule",
    "NoCrossoverError",
    "InfeasibleTargetError",
    "qm_star",
    "crossover_table",
    "optimal_n",
]


def _lazy_module(name: str):
    """``name``, imported on first attribute access (the importlib LazyLoader recipe).

    Only ``optimize`` below uses it, and it goes with ``optimize``.
    """
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# No program path uses scipy.optimize: the crossovers are solved by Newton
# steps (coopsense._inversion.crossings). The lazy binding stays only because
# the benchmark's tracer patches roc.optimize.brentq; ROADMAP item 1 removes
# it. Nothing touches its attributes, so no command imports scipy.optimize.
optimize = _lazy_module("scipy.optimize")

_CROSSOVER_SCAN_POINTS = 400
# Rule pairs per gap-sign scan call: bounds the scan's arrays for any K, and
# 16 pairs (6400 miss levels, 12 800 thresholds) cover every benchmarked table.
_SCAN_PAIRS = 16
# False-alarm differences below this are ties: the smaller (cheaper) rule wins.
# Keeps the vanishing-error channel in the OR-rule regime, where the larger
# rule's residual advantage is the sub-nano floor gap and of no practical value.
# The tolerance is absolute: once both rules' false-alarm floors are below it,
# the larger rule's lead where qf nears those floors never counts, so a
# crossover is found only where its lead exceeds 1e-9 somewhere on the scan,
# and otherwise the smaller rule keeps the whole band (NoCrossoverError with
# dominant=n), even though the larger rule's qf is lower there.
_QF_TIE_TOL = 1e-9


class NoCrossoverError(RuntimeError):
    """One vote rule dominates the other over the whole threshold sweep."""

    def __init__(self, n: int, dominant: int):
        super().__init__(f"no crossover between rules n={n} and n={n + 1}: rule n={dominant} dominates")
        self.n = n
        self.dominant = dominant


class InfeasibleTargetError(ValueError):
    """The target miss probability lies below every rule's floor."""

    def __init__(self, target_qm: float, min_achievable_qm: float):
        super().__init__(
            f"target_qm={target_qm:.6g} is infeasible: no vote rule achieves a miss "
            f"probability below {min_achievable_qm:.6g}"
        )
        self.target_qm = target_qm
        self.min_achievable_qm = min_achievable_qm


class RocSweep(NamedTuple):
    """The analytic ROC of rules ``ns`` over thresholds ``lambdas``, one row per (rule n, threshold λ).

    Per threshold it holds λ, pf_local and pm_local; per rule its two floors,
    the fused qf and qm of a perfect local detector. A rule's qf and qm are
    computed by :meth:`fused` a block of thresholds at a time, so no column
    holds rules × thresholds values.
    """

    k: int
    ns: list[int]
    pe: float
    lambdas: np.ndarray
    pf: np.ndarray
    pm: np.ndarray
    qf_floor: np.ndarray
    qm_floor: np.ndarray

    @classmethod
    def of(cls, k: int, ns: list[int], sensing: SensingParams, channel: ReportChannel,
           lambdas: np.ndarray) -> "RocSweep":
        """The sweep of rules ``ns`` over thresholds ``lambdas``; ``sensing``'s own threshold is ignored."""
        lambdas = np.asarray(lambdas, dtype=float)
        if not all(1 <= n <= k for n in ns):
            raise ValueError(f"ns must be vote thresholds in [1, {k}], got {ns!r}")
        if not np.all((lambdas >= 0) & (lambdas < np.inf)):
            raise ValueError("lambdas must be finite and >= 0")
        m, pe, rules = sensing.samples_m, float(channel.pe), np.array(ns)
        return cls(k, ns, pe, lambdas, _local_pf(m, lambdas),
                   _local_pm(m, sensing.avg_snr_gamma, lambdas),
                   _fused_qf(k, rules, 0.0, pe), _fused_qm(k, rules, 0.0, pe))

    def fused(self, n: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """qf and qm of rule ``n`` at the thresholds ``rows``."""
        return _fused_qf(self.k, n, self.pf[rows], self.pe), _fused_qm(self.k, n, self.pm[rows], self.pe)


@dataclass(frozen=True)
class CrossoverTable:
    """Miss levels at which consecutive vote rules exchange superiority.

    entries[n] is the miss probability above which rule n+1 achieves a lower
    fused false alarm than rule n. math.inf marks a pair where rule n
    dominates everywhere (no crossover); a dominated rule n is recorded at
    the n+1 floor, the lowest miss level where rule n+1 exists at all.
    """

    num_radios_k: int
    entries: Dict[int, float]

    @property
    def is_monotone(self) -> bool:
        vals = [self.entries[n] for n in sorted(self.entries)]
        return all(b >= a for a, b in zip(vals, vals[1:]))


@dataclass(frozen=True)
class OptimalRule:
    """Outcome of the adaptive vote-threshold selection."""

    target_qm: float
    n: int
    interval_n: int
    direct_n: int
    agree: bool
    achieved_lambda: float  # inf when the miss constraint never binds
    achieved_qf: Probability
    achieved_qm: Probability
    table: CrossoverTable


def _rule_point(k: int, n, samples_m: int, gamma: float, pe: float, lam):
    """Fused (qf, qm) arrays of rules n at thresholds lam, broadcast together.

    lam = inf is the never-firing detector: qf is then the rule's floor and qm
    its loose-threshold limit, the supremum of its miss probability.
    """
    return (_fused_qf(k, n, _local_pf(samples_m, lam), pe),
            _fused_qm(k, n, _local_pm(samples_m, gamma, lam), pe))


def _achieved(k: int, ns, samples_m: int, gamma: float, pe: float, target: float):
    """(lambda, qf, qm) arrays of rules ns at the lowest false alarm whose miss meets the target;
    lambda is inf where the target is at or above the loose limit (the constraint never binds)."""
    from . import _inversion  # on first use, so only commands that invert a miss load it

    binds = target < _fused_qm(k, ns, 1.0, pe)
    lam = np.full(ns.shape, np.inf)
    lam[binds] = _inversion.lambda_for_qm(k, ns[binds], samples_m, gamma, pe, target)
    return (lam, *_rule_point(k, ns, samples_m, gamma, pe, lam))


def _crossovers(k: int, ns, samples_m: int, gamma: float, pe: float):
    """Crossover table entries of the rule pairs (n, n+1) for n in ns, and each pair's dominant rule.

    Per pair, it scans the miss range where both rules are feasible, comparing
    their fused false alarms at equal miss probability (each rule at its own
    threshold), and solves for the gap's root in its first sign change. The
    scans of all pairs share :func:`_inversion.gap_signs` calls of at most
    _SCAN_PAIRS pairs, which read only the gaps' signs: a forward table of
    the call's rules certifies most of them, and only the levels its bounds
    leave open are inverted, so the signs are those of the exact gaps. Each
    call's miss levels are built in the loop, and only each pair's bracket
    and dominant rule are kept, so the scan's memory does not grow with K.
    The crossings of all pairs are one :func:`_inversion.crossings` solve,
    whose every round inverts both rules of each unsettled pair. dominant is
    0 where the rules cross and the entry is the crossing; where rule n
    dominates the entry is inf, and where rule n+1 does it is n+1's floor.
    """
    from . import _inversion

    m, g, points = samples_m, gamma, _CROSSOVER_SCAN_POINTS
    floor_b, sup = _fused_qm(k, ns + 1, 0.0, pe), _fused_qm(k, ns, 1.0, pe)  # rule n saturates first
    live = np.flatnonzero(floor_b < sup)
    dominant = np.where(floor_b < sup, 0, ns)
    lo, hi = floor_b + (sup - floor_b) * 1e-9, sup - (sup - floor_b) * 1e-9
    brackets = []
    for start in range(0, live.size, _SCAN_PAIRS):
        part = live[start:start + _SCAN_PAIRS].tolist()
        qs = np.geomspace(np.maximum(lo[part], 1e-300), hi[part], points, axis=1)
        n = np.repeat(ns[part], points)
        signs = _inversion.gap_signs(k, np.array([n, n + 1]), m, g, pe, qs.ravel(), _QF_TIE_TOL)
        for p, q, worse, better in zip(part, qs, *(v.reshape(-1, points) for v in signs)):
            # a crossover only counts once the larger rule's advantage clears the
            # tie tolerance; sub-tie dips (vanishing-error channels, underflowed
            # floors) leave the smaller rule dominant
            advantaged = np.flatnonzero(better)
            if not advantaged.size:
                dominant[p] = ns[p]
                continue
            positives = np.flatnonzero(worse[:advantaged[0]])
            if not positives.size:
                dominant[p] = ns[p] + 1  # ahead as soon as both rules exist
                continue
            brackets.append((q[positives[-1]], q[advantaged[0]]))
    cross = np.flatnonzero(dominant == 0)
    entries = np.where(dominant == ns, math.inf, floor_b)
    if cross.size:
        entries[cross] = _inversion.crossings(k, ns[cross], m, g, pe, *zip(*brackets))
    return entries, dominant


def qm_star(fusion: FusionConfig, sensing: SensingParams, channel: ReportChannel) -> Probability:
    """Miss level at which rules n and n+1 exchange superiority.

    The scan and Newton solve of :func:`_crossovers` for this one pair: the
    root of the gap between both rules' false alarms at their Newton
    thresholds, within Brent's tolerance 1e-15 + 8.9e-16 q. Raises :class:`NoCrossoverError`
    when one rule dominates throughout, which includes the perfect-channel
    limit (smaller rule wins) and the fully scrambled pe = 0.5 channel, where
    the comparison is a tie and the smaller rule is preferred.
    """
    k, n = fusion.num_radios_k, fusion.vote_threshold_n
    if n >= k:
        raise ValueError(f"crossover needs vote thresholds n and n+1 within K={k}, got n={n}")
    entries, dominant = _crossovers(k, np.array([n]), sensing.samples_m, sensing.avg_snr_gamma, float(channel.pe))
    if dominant[0]:
        raise NoCrossoverError(n, dominant=int(dominant[0]))
    return Probability(float(entries[0]))


def crossover_table(num_radios_k: int, sensing: SensingParams,
                    channel: ReportChannel) -> CrossoverTable:
    """Crossover miss levels for every consecutive rule pair 1..K-1, from one :func:`_crossovers` solve."""
    ns = np.arange(1, num_radios_k)
    entries, _ = _crossovers(num_radios_k, ns, sensing.samples_m, sensing.avg_snr_gamma, float(channel.pe))
    return CrossoverTable(num_radios_k=num_radios_k, entries=dict(zip(ns.tolist(), entries.tolist())))


def _direct_search(k: int, samples_m: int, gamma: float, pe: float,
                   target: float) -> Tuple[int, float, float, float]:
    """Constrained minimization: over rules and thresholds, the lowest fused
    false alarm subject to the fused miss staying at or below the target.

    Returns the chosen rule's (n, lambda, qf, qm).
    """
    ns = np.arange(1, k + 1)
    ns = ns[target >= _fused_qm(k, ns, 0.0, pe)]  # the others cannot reach it at any threshold
    if not ns.size:
        raise InfeasibleTargetError(target, float(_fused_qm(k, 1, 0.0, pe)))
    lam, qf, qm = _achieved(k, ns, samples_m, gamma, pe, target)
    best = 0
    for i in range(1, ns.size):
        if qf[i] < qf[best] - _QF_TIE_TOL:
            best = i
    return int(ns[best]), float(lam[best]), float(qf[best]), float(qm[best])


def optimal_n(target_qm: float, num_radios_k: int, sensing: SensingParams,
              channel: ReportChannel, table: Optional[CrossoverTable] = None) -> OptimalRule:
    """Adaptive vote threshold for a target miss probability.

    Applies the interval rule over the crossover table: stay at n = 1 for
    targets at or below the first crossover, step up one rule per crossover
    passed, and use n = K beyond the last one. A direct constrained search
    over (rule, threshold) is run alongside and both answers are reported;
    ties go to the smaller rule. Raises :class:`InfeasibleTargetError` when
    the target lies below every rule's miss floor.
    """
    target = float(target_qm)
    if not 0.0 < target < 1.0 or not math.isfinite(target):
        raise ValueError(f"target_qm must lie strictly inside (0, 1), got {target_qm!r}")
    if not isinstance(num_radios_k, int) or num_radios_k < 1:
        raise ValueError(f"num_radios_k must be a positive integer, got {num_radios_k!r}")
    m, g, pe = sensing.samples_m, sensing.avg_snr_gamma, float(channel.pe)
    min_floor = float(_fused_qm(num_radios_k, 1, 0.0, pe))
    if target < min_floor:
        raise InfeasibleTargetError(target, min_floor)

    if table is None:
        table = crossover_table(num_radios_k, sensing, channel)
    interval_n = 1 + sum(1 for n in range(1, num_radios_k) if table.entries[n] < target)

    direct_n, lam, qf, qm = _direct_search(num_radios_k, m, g, pe, target)
    if interval_n != direct_n:
        lam, qf, qm = (float(v[0]) for v in _achieved(num_radios_k, np.array([interval_n]), m, g, pe, target))

    return OptimalRule(
        target_qm=target,
        n=interval_n,
        interval_n=interval_n,
        direct_n=direct_n,
        agree=interval_n == direct_n,
        achieved_lambda=lam,
        achieved_qf=Probability(qf),
        achieved_qm=Probability(qm),
        table=table,
    )
