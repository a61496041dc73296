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
a direct constrained minimization.

Rule n's threshold for a miss target (:func:`_lambda_for_qm`) has one meaning
for every target at or above the rule's floor, its miss as the threshold goes
to 0: the root of the fused miss, found by one bracketed Newton solve, and
inf at or above the rule's loose limit, its miss as the threshold goes to
inf, where the detector never fires.
A crossover table is one solve over all rule pairs (:func:`_crossovers`).
Gap-sign scans (:func:`_gap_signs`) compare the two rules' fused false alarms
at equal miss; a forward table of both rules' fused qm and qf certifies most
signs (:func:`_table_signs`), and only the levels it leaves open are
inverted. Safeguarded Newton steps on the closed-form slopes of both ROCs
(:func:`_crossings`) then find each gap's root in its bracket.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .fusion import _check_rules, _flip, _fused_qf, _fused_qm
from .local_sensing import SensingParams, _local_pf, _local_pm, _local_pm_parts, _threshold_for_pf
from .mathx import Probability
from .reporting import ReportChannel

__all__ = [
    "RocSweep",
    "OptimalRule",
    "InfeasibleTargetError",
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
# steps (_crossings). The lazy binding stays only because the benchmark's
# tracer patches roc.optimize.brentq; ROADMAP item 1 removes it. Nothing
# touches its attributes, so no command imports scipy.optimize.
optimize = _lazy_module("scipy.optimize")

# The threshold solve starts at local false alarm 1e-9 where its local Newton
# start has no target or does not settle. Both bracketed solves close within Brent's
# relative tolerance _RTOL: the threshold solve's while the threshold is a normal float.
_PF_SWEEP_LO = 1e-9
_LAMBDA_XTOL = np.finfo(float).tiny
_RTOL = 8.9e-16
# Iteration cap of the threshold solve's local Newton start, and both solves' round cap: the most
# rounds measured were 78 for a threshold (K 16, all rules, M 6, 20 dB, a perfect channel, target
# 1e-280) and 26 for a crossing (300 random tables, K 2-40, M 1-150, -5 to 30 dB).
_NEWTON_STEPS = 60
_ROUNDS = 100
# The relative margin by which the gap-sign scan's forward table widens each bound (see _table_signs).
_MARGIN = 1e-9
# The crossing solve's tolerance is Brent's, 1e-15 + _RTOL q.
_CROSSING_XTOL = 1e-15
# Miss levels per rule pair on the gap-sign scan.
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
# and otherwise the smaller rule keeps the whole band (a crossover table entry
# of inf), even though the larger rule's qf is lower there.
_QF_TIE_TOL = 1e-9


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
        """The sweep of rules ``ns`` over thresholds ``lambdas``."""
        lambdas = np.asarray(lambdas, dtype=float)
        _check_rules(k, ns)
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
class OptimalRule:
    """Interval rule's n and achieved point, direct search's n, and the :func:`crossover_table` it read."""

    n: int
    direct_n: int
    achieved_lambda: float  # inf when the miss constraint never binds
    achieved_qf: Probability
    achieved_qm: Probability
    crossovers: dict[int, float]


def _log_beta_density(a, b, x):
    """log d I_x(a, b) / dx: the log slope of a binomial tail in its bit probability."""
    return _sp.xlogy(a - 1.0, x) + _sp.xlog1py(b - 1.0, -x) - _sp.betaln(a, b)


def _fused_miss(k: int, n, samples_m: int, gamma: float, pe: float, lam):
    """Fused miss of rules n at thresholds lam, and its slope d qm / d lam."""
    pm, slope = _local_pm_parts(samples_m, gamma, lam)
    density = np.exp(_log_beta_density(k - n + 1.0, n, _flip(pm, pe)))
    return _fused_qm(k, n, pm, pe), density * (1.0 - 2.0 * pe) * slope


def _log_thresholds(samples_m: int, points: int):
    """log lam on a forward grid of 24 e-folds around Q^-1(M, 1e-9), where the threshold solve starts."""
    return math.log(_threshold_for_pf(samples_m, _PF_SWEEP_LO)) + np.linspace(-16.0, 8.0, points)


def _lambda_for_qm(k: int, n, samples_m: int, gamma: float, pe: float, target):
    """Thresholds at which rules n reach miss targets at or above their floors, inf at or above their
    loose limits.

    The fused miss inverts in closed form to a local one (DLMF 8.17):
    pm* = (I^-1(K-n+1, n; target) - pe) / (1 - 2 pe). Newton's method,
    started from a table and with steps capped at 1, solves pm(lam) = pm* in
    log lam, on log pm for pm* <= 1/2 and on -log(1 - pm) above, using the
    exact slope (Digham, Alouini & Simon, IEEE Trans. Commun. 55(1), 2007);
    each element leaves the iteration once settled. scipy's betaincinv can
    return nan, or a wrong value, at targets below about 1e-96; an element
    whose pm* is nan or rounds outside (0, 1), or that does not settle,
    starts at the threshold of local false alarm 1e-9 instead, and the
    fused solve below reaches the root from there.

    Newton steps on the fused miss itself then absorb the rounding of pm*,
    inside a bracket, first the normal floats, whose ends each evaluated
    threshold moves by the sign of qm - target. As in Numerical Recipes'
    rtsafe, a step that leaves the bracket, or moves lam by more than half
    the move before the last, is replaced by a split; both are measured in
    log lam, so a miss that grows as a power of lam near 0 is split rather
    than halved. The root is the threshold after the first step within
    2^-26 of it, or else the bracket's upper end once the bracket is within
    _LAMBDA_XTOL + _RTOL hi or a split rounds onto one of its ends.
    Each element's result depends on its own inputs only.
    """
    n, target = np.broadcast_arrays(n, np.asarray(target, dtype=float))
    shape, n, target = target.shape, n.ravel(), target.ravel()
    floor, sup = _fused_qm(k, n, 0.0, pe), _fused_qm(k, n, 1.0, pe)
    lam, idx = np.full(target.shape, np.inf), np.flatnonzero(target < sup)
    if not idx.size:
        return lam.reshape(shape)
    start = np.full(target.shape, _threshold_for_pf(samples_m, _PF_SWEEP_LO))
    # no target is inside the span of the scrambled channel, whose miss does not depend on lam
    inner = np.flatnonzero((target > floor) & (target < sup))
    local = (_sp.betaincinv(k - n[inner] + 1, n[inner], target[inner]) - pe) / (1.0 - 2.0 * pe)
    inside = (local > 0.0) & (local < 1.0)
    inner, local = inner[inside], local[inside]
    right = local > 0.5
    sign = np.where(right, -1.0, 1.0)
    goal = sign * np.log(np.where(right, 1.0 - local, local))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # start from a log-spaced table of the miss around the false-alarm sweep's end
        grid = _log_thresholds(samples_m, 97)
        table = _local_pm(samples_m, gamma, np.exp(grid))
        u = np.empty(inner.size)
        for side, curve in ((~right, np.log(table)), (right, -np.log1p(-table))):
            u[side] = np.interp(goal[side], np.maximum.accumulate(np.clip(curve, -745.0, 745.0)), grid)
        for _ in range(_NEWTON_STEPS):
            if not inner.size:
                break
            x = np.exp(u)
            pm, slope = _local_pm_parts(samples_m, gamma, x)
            rest = np.where(right, 1.0 - pm, pm)
            step = (goal - sign * np.log(rest)) * rest / (x * slope)
            done = np.abs(step) <= 2.0 ** -20
            # a miss of exactly 0 or 1 gives nan: step away from it, toward the target
            u = u + np.clip(np.where(np.isnan(step), sign, step), -1.0, 1.0)
            if done.any():
                start[inner[done]] = np.exp(u[done])
                keep = ~done
                inner, right, sign, goal, u = (v[keep] for v in (inner, right, sign, goal, u))
        x = start[idx]
        lo, hi = np.full(x.shape, _LAMBDA_XTOL), np.full(x.shape, np.finfo(float).max)
        before = moved = np.full(x.shape, np.inf)
        for _ in range(_ROUNDS):
            qm, slope = _fused_miss(k, n[idx], samples_m, gamma, pe, x)
            short = qm < target[idx]
            lo, hi = np.where(short, x, lo), np.where(short, hi, x)
            step = (qm - target[idx]) / slope
            new = x - step
            newton = (new >= lo) & (new <= hi)
            settled = newton & (np.abs(step) <= 2.0 ** -26 * x)
            lam[idx[settled]] = new[settled]
            if settled.all():
                return lam.reshape(shape)
            newton &= np.abs(np.log(new / x)) <= 0.5 * before
            split = np.sqrt(lo) * np.sqrt(hi)
            tight = hi - lo <= _LAMBDA_XTOL + _RTOL * hi
            closed = ~settled & (tight | ~newton & ((split <= lo) | (split >= hi)))
            lam[idx[closed]] = hi[closed]
            nxt = np.where(newton, new, split)
            before, moved = moved, np.abs(np.log(nxt / x))
            keep = ~(settled | closed)
            idx, x, lo, hi, before, moved = (v[keep] for v in (idx, nxt, lo, hi, before, moved))
            if not idx.size:
                return lam.reshape(shape)
    raise RuntimeError(f"the threshold solve did not settle within {_ROUNDS} rounds")


def _qf_gap(k: int, pair, samples_m: int, gamma: float, pe: float, qs):
    """qf[n+1] - qf[n] of the rule pairs (n, n+1) stacked in ``pair``, each rule at its own threshold for
    miss level qs."""
    qf = _fused_qf(k, pair, _local_pf(samples_m, _lambda_for_qm(k, pair, samples_m, gamma, pe, qs)), pe)
    return qf[1] - qf[0]


def _log_pf_slope(samples_m: int, lam):
    """log(-d pf / d lam): the log chi-square(2M) density, (lam/2)^(M-1) e^(-lam/2) / (2 Gamma(M))."""
    return _sp.xlogy(samples_m - 1.0, lam / 2.0) - lam / 2.0 - math.log(2.0) - _sp.gammaln(samples_m)


def _roc_slope(k: int, n, samples_m: int, gamma: float, pe: float, lam):
    """d qf / d qm along the ROCs of rules n at thresholds lam: (d qf / d lam) / (d qm / d lam), each a beta
    density times (1 - 2 pe) times the local slope. The (1 - 2 pe) factors cancel; the rest is formed in logs."""
    pm, dpm = _local_pm_parts(samples_m, gamma, lam)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return -np.exp(_log_beta_density(n, k - n + 1.0, _flip(_local_pf(samples_m, lam), pe))
                       + _log_pf_slope(samples_m, lam)
                       - _log_beta_density(k - n + 1.0, n, _flip(pm, pe)) - np.log(dpm))


def _gap_and_slope(k: int, pair, samples_m: int, gamma: float, pe: float, qs):
    """:func:`_qf_gap` at miss levels qs and its slope d gap / dq = r(n+1) - r(n), r the :func:`_roc_slope`."""
    lam = _lambda_for_qm(k, pair, samples_m, gamma, pe, qs)
    qf, slope = _fused_qf(k, pair, _local_pf(samples_m, lam), pe), _roc_slope(k, pair, samples_m, gamma, pe, lam)
    return qf[1] - qf[0], slope[1] - slope[0]


def _crossings(k: int, n, samples_m: int, gamma: float, pe: float, lo, hi):
    """Roots of :func:`_qf_gap` for rules n and n+1 in the brackets (lo, hi), where the gap is > 0 at lo and < 0
    at hi: the miss levels at which both rules reach equal qf.

    Safeguarded Newton steps on :func:`_gap_and_slope`, all brackets in one
    call per round. Each point evaluated replaces the bracket's end of its
    gap's sign; a step that leaves the bracket, or is nan or inf, goes to
    its midpoint, and every step is at least half of Brent's tolerance
    1e-15 + 8.9e-16 q, so near a root the computed signs close the bracket.
    A solve stops at a gap of exactly 0 or a bracket within the tolerance,
    and returns its evaluated point of smallest |gap|.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out, idx, x = np.empty(a.shape), np.arange(a.size), 0.5 * (a + b)
    best, least = x.copy(), np.full(a.shape, np.inf)
    for _ in range(_ROUNDS):
        gap, slope = _gap_and_slope(k, np.array([n[idx], n[idx] + 1]), samples_m, gamma, pe, x)
        if np.isnan(gap).any():
            raise ValueError("the qf gap is nan; the crossing solve cannot converge")
        best, least = np.where(np.abs(gap) < least, x, best), np.minimum(np.abs(gap), least)
        a, b = np.where(gap > 0.0, x, a), np.where(gap < 0.0, x, b)
        tol = _CROSSING_XTOL + _RTOL * x
        done = (gap == 0.0) | (b - a <= tol)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -gap / slope
            # widen short steps first: one under half an ulp of x would round onto the bracket's end and bisect
            step = np.where(np.abs(step) < 0.5 * tol, np.copysign(0.5 * tol, step), step)
            x = np.where((x + step > a) & (x + step < b), x + step, 0.5 * (a + b))
        out[idx[done]] = best[done]
        idx, a, b, x, best, least = (v[~done] for v in (idx, a, b, x, best, least))
        if not idx.size:
            return out
    raise RuntimeError(f"the crossing solve did not settle within {_ROUNDS} rounds")


def _table_signs(k: int, pair, samples_m: int, gamma: float, pe: float, qs, tie: float):
    """The signs of :func:`_gap_signs` that a forward table certifies, and the levels it leaves open.

    The table holds the fused qm and qf of the rules in ``pair`` on 1000
    log-spaced thresholds (:func:`_log_thresholds`), made monotone. For each level q and rule,
    ``np.searchsorted`` finds the last point whose qm is below q (1 - _MARGIN)
    and the first whose qm is above q (1 + _MARGIN). qm rises with the
    threshold, so the rule's threshold for q lies between those two points,
    and qf falls, so its qf lies between theirs; widened by _MARGIN relative,
    they bound the qf that :func:`_qf_gap` computes, and so the gap. The
    table's ends are lam = 0 and lam = inf, the rules' loose limits and
    floors, so a level beyond the finite points still gets bounds, only
    looser ones. Where the bounds decide both signs, those are the signs; a
    level near a crossing or near the tie tolerance stays open, and so does
    one whose bounds are too loose.

    _MARGIN must exceed the relative error of that computed qf: the
    threshold's root error times qf's relative slope d ln qf / d ln lam,
    plus the special functions' rounding, 1e-13 or less. The tests bound the
    root error by 128 ulps (2.8e-14) where the closed form's own rounding
    does not amplify it, and 1500 random roots were at most 410 ulps off;
    the slope is at most 3.2e3 wherever qf is a normal float on the table's
    span (K <= 40, M <= 150, measured). That is at most 3e-10; the qm side is
    the same argument. The certificate assumes nothing about where the
    levels come from.
    """
    rules, row = np.unique(pair, return_inverse=True)
    row = row.reshape(pair.shape)
    lam = np.exp(_log_thresholds(samples_m, 1000))
    # the table ends at lam = 0 and lam = inf, between which every threshold lies
    pm = np.concatenate(([0.0], _local_pm(samples_m, gamma, lam), [1.0]))
    pf = np.concatenate(([1.0], _local_pf(samples_m, lam), [0.0]))
    qm = np.maximum.accumulate(_fused_qm(k, rules[:, None], pm, pe), axis=1)
    qf = np.minimum.accumulate(_fused_qf(k, rules[:, None], pf, pe), axis=1)
    levels, top, bottom = np.broadcast_to(qs, pair.shape), np.empty(pair.shape), np.empty(pair.shape)
    last = pm.size - 1
    for r in range(rules.size):
        at = row == r
        below = np.searchsorted(qm[r], levels[at] * (1.0 - _MARGIN)) - 1
        above = np.searchsorted(qm[r], levels[at] * (1.0 + _MARGIN), side="right")
        top[at] = qf[r, np.maximum(below, 0)] * (1.0 + _MARGIN)
        bottom[at] = qf[r, np.minimum(above, last)] * (1.0 - _MARGIN)
    most, least = top[1] - bottom[0], bottom[1] - top[0]
    worse, better = least > 0.0, most < -tie
    return worse, better, ~((worse | (most < 0.0)) & (better | (least > -tie)))


def _gap_signs(k: int, pair, samples_m: int, gamma: float, pe: float, qs, tie: float):
    """Where :func:`_qf_gap` is > 0 (rule n+1 worse), and where it is < -tie (rule n+1 better beyond a tie).

    The forward table of :func:`_table_signs` certifies the signs of most
    levels; :func:`_qf_gap` inverts only the levels it leaves open, each as it
    would among all of them, so every sign is that of the exact gap.
    """
    worse, better, open_ = _table_signs(k, pair, samples_m, gamma, pe, qs, tie)
    idx = np.flatnonzero(open_)
    if idx.size:
        gap = _qf_gap(k, pair[:, idx], samples_m, gamma, pe, qs[idx])
        worse[idx], better[idx] = gap > 0.0, gap < -tie
    return worse, better


def _achieved(k: int, ns, samples_m: int, gamma: float, pe: float, target: float):
    """(lambda, qf, qm) arrays of rules ns at the lowest false alarm whose miss meets the target.

    lambda is inf where the target is at or above the loose limit (the
    constraint never binds): the never-firing detector, whose qf is the
    rule's floor and qm its loose-threshold limit.
    """
    lam = _lambda_for_qm(k, ns, samples_m, gamma, pe, target)
    return (lam, _fused_qf(k, ns, _local_pf(samples_m, lam), pe),
            _fused_qm(k, ns, _local_pm(samples_m, gamma, lam), pe))


def _crossovers(k: int, ns, samples_m: int, gamma: float, pe: float):
    """Crossover table entries of the rule pairs (n, n+1) for n in ns.

    Per pair, it scans the miss range where both rules are feasible and
    solves for the gap's root in its first sign change. The scans of all
    pairs share :func:`_gap_signs` calls of at most _SCAN_PAIRS pairs; each
    call's miss levels are built in the loop, and only each pair's bracket
    and dominant rule are kept, so the scan's memory does not grow with K.
    The crossings of all pairs are one :func:`_crossings` solve. Where the
    rules cross the entry is the crossing; where rule n dominates it is inf,
    and where rule n+1 does it is n+1's floor.
    """
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
        signs = _gap_signs(k, np.array([n, n + 1]), m, g, pe, qs.ravel(), _QF_TIE_TOL)
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
        entries[cross] = _crossings(k, ns[cross], m, g, pe, *zip(*brackets))
    return entries


def crossover_table(num_radios_k: int, sensing: SensingParams, channel: ReportChannel) -> dict[int, float]:
    """Miss levels at which consecutive vote rules exchange superiority, from one :func:`_crossovers` solve.

    Entry n, for each rule pair 1..K-1, is the miss probability above which
    rule n+1 achieves a lower fused false alarm than rule n. math.inf marks a
    pair where rule n dominates everywhere (no crossover); a dominated rule n
    is recorded at the n+1 floor, the lowest miss level where rule n+1 exists
    at all.
    """
    _check_rules(num_radios_k)
    ns = np.arange(1, num_radios_k)
    entries = _crossovers(num_radios_k, ns, sensing.samples_m, sensing.avg_snr_gamma, float(channel.pe))
    return dict(zip(ns.tolist(), entries.tolist()))


def optimal_n(target_qm: float, num_radios_k: int, sensing: SensingParams,
              channel: ReportChannel) -> OptimalRule:
    """Adaptive vote threshold for a target miss probability.

    Applies the interval rule over the crossover table: stay at n = 1 for
    targets at or below the first crossover, step up one rule per crossover
    passed, and use n = K beyond the last one. A direct constrained search
    runs alongside: among the rules whose miss floor the target reaches, the
    one with the lowest fused false alarm at the target miss, ties going to
    the smaller rule. Both answers are returned, as ``n`` and ``direct_n``;
    the achieved point is the interval rule's. Raises :class:`InfeasibleTargetError` when the target
    lies below every rule's miss floor.
    """
    target = float(target_qm)
    if not 0.0 < target < 1.0:
        raise ValueError(f"target_qm must lie strictly inside (0, 1), got {target_qm!r}")
    k = num_radios_k
    _check_rules(k)
    m, g, pe = sensing.samples_m, sensing.avg_snr_gamma, float(channel.pe)
    ns = np.arange(1, k + 1)
    floors = _fused_qm(k, ns, 0.0, pe)
    if target < floors[0]:  # rule 1 has the lowest floor
        raise InfeasibleTargetError(target, float(floors[0]))

    crossovers = crossover_table(k, sensing, channel)
    n = 1 + sum(1 for entry in crossovers.values() if entry < target)
    # one evaluation of the feasible rules, the direct search's candidates, and of
    # the interval rule's n, which may be infeasible when the table is not monotone
    feasible = target >= floors
    keep = feasible | (ns == n)
    ns, feasible = ns[keep], feasible[keep]
    lam, qf, qm = _achieved(k, ns, m, g, pe, target)
    best = 0
    for i in range(1, ns.size):
        if feasible[i] and qf[i] < qf[best] - _QF_TIE_TOL:
            best = i
    direct_n, i = int(ns[best]), ns.tolist().index(n)
    return OptimalRule(
        n=n,
        direct_n=direct_n,
        achieved_lambda=float(lam[i]),
        achieved_qf=Probability(qf[i]),
        achieved_qm=Probability(qm[i]),
        crossovers=crossovers,
    )
