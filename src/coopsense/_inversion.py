"""Inversion of the fused miss in the detection threshold, and the crossings of consecutive rules' ROCs.

The threshold at which rule n meets a miss target is the Newton root of the
fused miss (:func:`_predict`). Elements without a settled root take a plain
bisection (:func:`_bisection`): targets nearer a floor or a loose limit than
_EDGE times the span between them, where the miss's rounding rather than its
slope decides the root, the scrambled channel, and any element that does not
converge. The crossovers scan the signs of the false-alarm gap with
:func:`gap_signs`, which certifies most of them from a forward table of the
rules' fused qm and qf and inverts only the levels the table leaves open,
then solve for the gap's root with :func:`crossings`, a safeguarded Newton
iteration on the closed-form slopes of both ROCs that runs all brackets
together. ``coopsense.roc`` imports this module on the first crossover or
threshold solve, so commands that never invert a miss do not load it.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .fusion import _flip, _fused_qf, _fused_qm
from .local_sensing import _local_pf, _local_pm, _local_pm_parts, _threshold_for_pf

# The bisection starts at local false alarm 1e-9 and stops within these tolerances.
_PF_SWEEP_LO = 1e-9
_LAMBDA_XTOL = 1e-13
_LAMBDA_RTOL = 8.9e-16
# Targets this close to a floor or a loose limit, relative to the span between them, are bisected.
_EDGE = 1e-9
# Iteration caps of the Newton solve; an element not settled by then is bisected.
_NEWTON_STEPS = 60
_FUSED_STEPS = 4
# The gap-sign scan's forward table: 1000 log thresholds over the span of _predict's start table, and
# the relative margin by which it widens each bound (see _table_signs).
_TABLE_SPAN = np.linspace(-16.0, 8.0, 1000)
_MARGIN = 1e-9
# The crossing solve's tolerance, Brent's 1e-15 + 8.9e-16 q, and its round cap.
_CROSSING_XTOL = 1e-15
_CROSSING_RTOL = 8.9e-16
_CROSSING_ROUNDS = 200


def _log_beta_density(a, b, x):
    """log d I_x(a, b) / dx: the log slope of a binomial tail in its bit probability."""
    return _sp.xlogy(a - 1.0, x) + _sp.xlog1py(b - 1.0, -x) - _sp.betaln(a, b)


def _fused_miss(k: int, n, samples_m: int, gamma: float, pe: float, lam):
    """Fused miss of rules n at thresholds lam, and its slope d qm / d lam."""
    pm, slope = _local_pm_parts(samples_m, gamma, lam)
    density = np.exp(_log_beta_density(k - n + 1.0, n, _flip(pm, pe)))
    return _fused_qm(k, n, pm, pe), density * (1.0 - 2.0 * pe) * slope


def _zero_for_qm(k: int, n, target):
    """Post-flip zero probability at which rules n reach fused misses target: I^-1(K-n+1, n; target).

    scipy's betaincinv returns nan, or a wrong value, for some parameters at
    targets below about 1e-96, so each result is checked forward. A miss
    restarts from the leading term I_x(a, b) ~ x^a / (a B(a, b)) (DLMF
    8.17.8) with Newton steps on log I in log x.
    """
    a = k - n + 1.0
    zero = _sp.betaincinv(a, n, target)
    with np.errstate(invalid="ignore"):
        lost = ~(np.abs(_sp.betainc(a, n, zero) / target - 1.0) <= 1e-12)
    if lost.any():
        a, b, q = a[lost], n[lost] + 0.0, target[lost]
        x = np.exp((np.log(q) + np.log(a) + _sp.betaln(a, b)) / a)
        for _ in range(3):
            fused = _sp.betainc(a, b, x)
            x = x * np.exp((np.log(q) - np.log(fused)) * fused / (x * np.exp(_log_beta_density(a, b, x))))
        zero[lost] = x
    return zero


def _predict(k: int, n, samples_m: int, gamma: float, pe: float, target):
    """Newton roots of the fused miss at the targets of rules n, nan where none settles.

    The fused miss inverts in closed form to a local one (DLMF 8.17):
    pm* = (I^-1(K-n+1, n; target) - pe) / (1 - 2 pe). Newton's method,
    started from a table and with steps capped at 1, solves pm(lam) = pm* in
    log lam, on log pm for pm* <= 1/2 and on -log(1 - pm) above, using the
    exact slope (Digham, Alouini & Simon, IEEE Trans. Commun. 55(1), 2007);
    each element leaves the iteration once settled. Newton steps on the
    fused miss itself then absorb the rounding of pm*: the root is the
    threshold after the first step within 2^-26 of it.
    """
    lam, root = np.full(target.shape, np.nan), np.full(target.shape, np.nan)
    # no target is inside the span of the scrambled channel, whose miss does not depend on lam
    floor, sup = _fused_qm(k, n, 0.0, pe), _fused_qm(k, n, 1.0, pe)
    idx = np.flatnonzero((target - floor > _EDGE * (sup - floor)) & (sup - target > _EDGE * (sup - floor)))
    local = (_zero_for_qm(k, n[idx], target[idx]) - pe) / (1.0 - 2.0 * pe)
    inside = (local > 0.0) & (local < 1.0)
    idx, local = idx[inside], local[inside]
    if not idx.size:
        return root
    right = local > 0.5
    sign = np.where(right, -1.0, 1.0)
    goal = sign * np.log(np.where(right, 1.0 - local, local))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # start from a log-spaced table of the miss around the false-alarm sweep's end
        grid = math.log(_threshold_for_pf(samples_m, _PF_SWEEP_LO)) + np.arange(-64, 33) / 4.0
        table = _local_pm(samples_m, gamma, np.exp(grid))
        u = np.empty(idx.size)
        for side, curve in ((~right, np.log(table)), (right, -np.log1p(-table))):
            u[side] = np.interp(goal[side], np.maximum.accumulate(np.clip(curve, -745.0, 745.0)), grid)
        for _ in range(_NEWTON_STEPS):
            if not idx.size:
                break
            x = np.exp(u)
            pm, slope = _local_pm_parts(samples_m, gamma, x)
            rest = np.where(right, 1.0 - pm, pm)
            step = (goal - sign * np.log(rest)) * rest / (x * slope)
            done = np.abs(step) <= 2.0 ** -20
            # a miss of exactly 0 or 1 gives nan: step away from it, toward the target
            u = u + np.clip(np.where(np.isnan(step), sign, step), -1.0, 1.0)
            if done.any():
                lam[idx[done]] = np.exp(u[done])
                keep = ~done
                idx, right, sign, goal, u = (v[keep] for v in (idx, right, sign, goal, u))
        idx = np.flatnonzero(np.isfinite(lam))
        for _ in range(_FUSED_STEPS):
            if not idx.size:
                break
            x = lam[idx]
            qm, slope = _fused_miss(k, n[idx], samples_m, gamma, pe, x)
            step = (qm - target[idx]) / slope
            lam[idx] = x - step
            settled = np.abs(step) <= 2.0 ** -26 * x
            root[idx[settled]] = lam[idx[settled]]
            idx = idx[~settled & np.isfinite(step)]
    return root


def _bisection(k: int, n, samples_m: int, gamma: float, pe: float, target):
    """Plain bisection: double the bracket [0, 2 Q^-1(M, 1e-9)] until the fused miss reaches the target,
    then halve it until it is within the tolerances, keeping hi where ``miss < target`` fails."""
    short = lambda lam: _fused_qm(k, n, _local_pm(samples_m, gamma, lam), pe) < target
    hi = np.full(target.shape, _threshold_for_pf(samples_m, _PF_SWEEP_LO))
    for _ in range(200):
        below = short(hi)
        if not below.any():
            break
        hi = np.where(below, 2.0 * hi, hi)
    else:
        raise RuntimeError("the fused miss did not reach its target within 200 threshold doublings")
    lo = np.zeros_like(hi)
    while (unsettled := hi - lo > _LAMBDA_XTOL + _LAMBDA_RTOL * hi).any():
        mid = np.where(unsettled, 0.5 * (lo + hi), hi)
        below = short(mid)
        lo, hi = np.where(unsettled & below, mid, lo), np.where(unsettled & ~below, mid, hi)
    return hi


def lambda_for_qm(k: int, n, samples_m: int, gamma: float, pe: float, target):
    """Thresholds at which rules n reach miss targets between their floors and loose limits.

    The Newton root of :func:`_predict`, or the plain bisection of
    :func:`_bisection` where none settles; each element's result depends on
    its own inputs only.
    """
    n, target = np.broadcast_arrays(n, np.asarray(target, dtype=float))
    shape, n, target = target.shape, n.ravel(), target.ravel()
    lam = _predict(k, n, samples_m, gamma, pe, target)
    rest = np.flatnonzero(np.isnan(lam))
    if rest.size:
        lam[rest] = _bisection(k, n[rest], samples_m, gamma, pe, target[rest])
    return lam.reshape(shape)


def qf_gap(k: int, pair, samples_m: int, gamma: float, pe: float, qs):
    """qf[n+1] - qf[n] of the rule pairs (n, n+1) stacked in ``pair``, each rule at its own threshold for
    miss level qs."""
    qf = _fused_qf(k, pair, _local_pf(samples_m, lambda_for_qm(k, pair, samples_m, gamma, pe, qs)), pe)
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
    """:func:`qf_gap` at miss levels qs and its slope d gap / dq = r(n+1) - r(n), r the :func:`_roc_slope`."""
    lam = lambda_for_qm(k, pair, samples_m, gamma, pe, qs)
    qf, slope = _fused_qf(k, pair, _local_pf(samples_m, lam), pe), _roc_slope(k, pair, samples_m, gamma, pe, lam)
    return qf[1] - qf[0], slope[1] - slope[0]


def crossings(k: int, n, samples_m: int, gamma: float, pe: float, lo, hi):
    """Roots of :func:`qf_gap` for rules n and n+1 in the brackets (lo, hi), where the gap is > 0 at lo and < 0
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
    for _ in range(_CROSSING_ROUNDS):
        gap, slope = _gap_and_slope(k, np.array([n[idx], n[idx] + 1]), samples_m, gamma, pe, x)
        if np.isnan(gap).any():
            raise ValueError("the qf gap is nan; the crossing solve cannot converge")
        best, least = np.where(np.abs(gap) < least, x, best), np.minimum(np.abs(gap), least)
        a, b = np.where(gap > 0.0, x, a), np.where(gap < 0.0, x, b)
        tol = _CROSSING_XTOL + _CROSSING_RTOL * x
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
    raise RuntimeError(f"the crossing solve did not settle within {_CROSSING_ROUNDS} rounds")


def _table_signs(k: int, pair, samples_m: int, gamma: float, pe: float, qs, tie: float):
    """The signs of :func:`gap_signs` that a forward table certifies, and the levels it leaves open.

    The table holds the fused qm and qf of the rules in ``pair`` on 1000
    log-spaced thresholds (_TABLE_SPAN), made monotone. For each level q and rule,
    ``np.searchsorted`` finds the last point whose qm is below q (1 - _MARGIN)
    and the first whose qm is above q (1 + _MARGIN). qm rises with the
    threshold, so the rule's threshold for q lies between those two points,
    and qf falls, so its qf lies between theirs; widened by _MARGIN relative,
    they bound the qf that :func:`qf_gap` computes, and so the gap. The
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
    lam = np.exp(math.log(_threshold_for_pf(samples_m, _PF_SWEEP_LO)) + _TABLE_SPAN)
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


def gap_signs(k: int, pair, samples_m: int, gamma: float, pe: float, qs, tie: float):
    """Where :func:`qf_gap` is > 0 (rule n+1 worse), and where it is < -tie (rule n+1 better beyond a tie).

    The forward table of :func:`_table_signs` certifies the signs of most
    levels; :func:`qf_gap` inverts only the levels it leaves open, each as it
    would among all of them, so every sign is that of the exact gap.
    """
    worse, better, open_ = _table_signs(k, pair, samples_m, gamma, pe, qs, tie)
    idx = np.flatnonzero(open_)
    if idx.size:
        gap = qf_gap(k, pair[:, idx], samples_m, gamma, pe, qs[idx])
        worse[idx], better[idx] = gap > 0.0, gap < -tie
    return worse, better
