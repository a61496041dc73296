"""Bit-exact, fast inversion of the fused miss in the detection threshold.

The threshold at which rule n meets a miss target is defined as the result
of a plain bisection: double the bracket [0, 2 Q^-1(M, 1e-9)] until the
fused miss reaches the target, then halve it until it is within the
tolerances, keeping hi where ``miss < target`` fails. That bisection is
replayed, not replaced, in three steps:

1. predict: the fused tail inverts in closed form to a local miss target
   (DLMF 8.17), and Newton's method on the local miss, whose slope is
   exact, predicts the threshold (:func:`_predict`);
2. certify: two exact evaluations and an error bound on the special
   functions prove that the bisection's test is True at or below a and
   False at or above b (:func:`windows`);
3. replay: steps outside (a, b) are decided by arithmetic, and only steps
   inside, where rounding can decide, evaluate the miss (:func:`replay`).

The crossovers root-find the false-alarm gap with :func:`brentq`, a port of
scipy's that runs many brackets in lockstep. ``coopsense.roc`` imports this
module on the first crossover or threshold solve, so commands that never
invert a miss do not load it.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .fusion import _flip, _fused_qf, _fused_qm
from .local_sensing import _local_pf, _local_pm, _local_pm_parts

# Threshold inversions start at local false alarm 1e-9 and stop within these tolerances.
_PF_SWEEP_LO = 1e-9
_LAMBDA_XTOL = 1e-13
_LAMBDA_RTOL = 8.9e-16
# Error model of the certified threshold inversion: each special-function term
# of the fused miss and false alarm (gammainc, gammaincc, the fading term,
# expm1, betainc) is within _ETA |exact| + _FLOOR of its exact value, argument
# rounding included. Against 40-digit mpmath they stay within about 1400 ulps
# (3e-13) wherever the exact value exceeds 1e-280, for M and K up to 64; exp's
# argument rounding alone costs up to 2 ulps per unit of argument, up to 745.
# Below about 1e-285 betainc loses all accuracy, hence the absolute floor.
_ETA = 2.0 ** -40
_FLOOR = 2.0 ** -900
_U = 2.0 ** -53  # unit roundoff of float64
# Iteration caps of the prediction; an element not settled by then gets no
# window and is bisected in full.
_NEWTON_STEPS = 60
_FUSED_STEPS = 4


def _beta_density(a, b, x):
    """d I_x(a, b) / dx: the slope of a binomial tail in its bit probability."""
    return np.exp(_sp.xlogy(a - 1.0, x) + _sp.xlog1py(b - 1.0, -x) - _sp.betaln(a, b))


def _miss_bounds(k: int, n, samples_m: int, gamma: float, pe: float, lam):
    """Fused miss F at thresholds lam, exactly as the bisection computes it, with what certifying needs.

    Returns (F, dF/dlam, below, above). Under the error model of _ETA and
    _FLOOR, the computed F at any threshold up to lam exceeds the exact
    F(lam) by at most ``below``, and at any threshold from lam on falls
    short of it by at most ``above * F``. Both rest on the exact miss being
    nondecreasing in lam, and on these first-order bounds:
    - pm = P - fade with fade <= P is off by at most 3 _ETA P (_ETA pm for
      M = 1), plus _FLOOR times the fading term's growth factor; P grows
      with lam;
    - zero = pm (1 - pe) + (1 - pm) pe adds 4 ulps and scales pm's error
      by 1 - 2 pe;
    - I_x(a, b) changes by at most its slope's maximum over [0, x], found
      at the mode (a - 1) / (K - 1), times the change in x; its elasticity
      x I'(x) / I(x) = a Pr{Bin(K, x) = a} / I(x) is at most a;
    - for M >= 2, P / pm falls with lam, since pm is the CDF of P's
      log-concave chi-square plus an independent exponential; with P <= 1
      this bounds (1 - 2 pe) P / zero beyond lam by 1 / (pe / (1 - 2 pe) +
      pm / P), which holds for M = 1 too.
    """
    a, b = k - n + 1.0, n + 0.0
    pm, slope, scale = _local_pm_parts(samples_m, gamma, lam)
    qm, zero = _fused_qm(k, n, pm, pe), _flip(pm, pe)
    spread = 1.0 - 2.0 * pe
    floor_pm = _FLOOR * (1.0 + ((1.0 + gamma) / gamma) ** (samples_m - 1))
    dzero = spread * (3.0 * _ETA * scale + floor_pm) + 4.0 * _U * zero + _FLOOR
    mode = (a - 1.0) / max(k - 1, 1)
    below = _ETA * qm + _FLOOR + _beta_density(a, b, np.minimum(zero + dzero, mode)) * dzero
    with np.errstate(divide="ignore", invalid="ignore"):
        # pm must itself be accurate enough to trust its ratio to P
        trusted = 3.0 * _ETA * scale <= 2.0 ** -12 * pm
        beyond = np.where(trusted, (1.0 + 2.0 ** -10) / (pe / spread + pm / scale), np.inf)
        above = _ETA + _FLOOR / qm + a * (3.0 * _ETA * beyond + 4.0 * _U + (spread * floor_pm + _FLOOR) / zero)
    return qm, _beta_density(a, b, zero) * spread * slope, below, above


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
            x = x * np.exp((np.log(q) - np.log(fused)) * fused / (x * _beta_density(a, b, x)))
        zero[lost] = x
    return zero


def _predict(k: int, n, samples_m: int, gamma: float, pe: float, target):
    """Newton estimates of the thresholds where rules n reach their miss targets, and window half-widths.

    The fused miss inverts in closed form to a local one (DLMF 8.17):
    pm* = (I^-1(K-n+1, n; target) - pe) / (1 - 2 pe). Newton's method,
    started from a table and with steps capped at 1, solves pm(lam) = pm* in
    log lam, on log pm for pm* <= 1/2 and on -log(1 - pm) above, using the
    exact slope; each element leaves the iteration once settled. Newton
    steps on the fused miss itself then absorb the rounding of pm*. The
    half-width covers the error bounds of :func:`_miss_bounds` with room to
    spare. Elements without a prediction (scrambled channel, target outside
    the local range, no convergence) get nan and an infinite half-width.
    """
    lam = np.full(target.shape, np.nan)
    width = np.full(target.shape, np.inf)
    if not pe < 0.5:  # the scrambled channel's miss does not depend on lam
        return lam, width
    local = (_zero_for_qm(k, n, target) - pe) / (1.0 - 2.0 * pe)
    idx = np.flatnonzero((local > 0.0) & (local < 1.0))
    right = local[idx] > 0.5
    sign = np.where(right, -1.0, 1.0)
    goal = sign * np.log(np.where(right, 1.0 - local[idx], local[idx]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # start from a log-spaced table of the miss around the false-alarm sweep's end
        grid = math.log(2.0 * _sp.gammainccinv(samples_m, _PF_SWEEP_LO)) + np.arange(-64, 33) / 4.0
        table = _local_pm(samples_m, gamma, np.exp(grid))
        u = np.empty(idx.size)
        for side, curve in ((~right, np.log(table)), (right, -np.log1p(-table))):
            u[side] = np.interp(goal[side], np.maximum.accumulate(np.clip(curve, -745.0, 745.0)), grid)
        for _ in range(_NEWTON_STEPS):
            if not idx.size:
                break
            x = np.exp(u)
            pm, slope, _ = _local_pm_parts(samples_m, gamma, x)
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
            qm, slope, below, above = _miss_bounds(k, n[idx], samples_m, gamma, pe, x)
            t = target[idx]
            step = (qm - t) / slope
            lam[idx] = x - step
            settled = np.abs(step) <= 2.0 ** -26 * x
            width[idx] = np.where(settled, 4.0 * np.maximum(below, above * t) / slope + 4.0 * np.abs(step), np.inf)
            idx = idx[~settled & np.isfinite(step)]
    width[~np.isfinite(lam)] = np.inf
    lam[~np.isfinite(width)] = np.nan
    return lam, width


def windows(k: int, n, samples_m: int, gamma: float, pe: float, target):
    """Certified windows a < c < b: the bisection's test is True at every lam <= a and False at every lam >= b.

    c is the predicted root. Each side is certified by one exact evaluation
    and the bounds of :func:`_miss_bounds`: F(a) + 2 below(a) < target, and
    F(b) (1 - 2 above(b)) >= target. A side that fails is dropped (a = -inf
    or b = inf), and the bisection then evaluates that side exactly.
    """
    shape, n, target = target.shape, n.ravel(), target.ravel()
    lam, width = _predict(k, n, samples_m, gamma, pe, target)
    a, b = lam - width, lam + width
    a[~(a > 0.0)] = -np.inf  # also nan; no bisection step lands at or below 0
    b[np.isnan(b)] = np.inf
    idx = np.flatnonzero(np.isfinite(a) | np.isfinite(b))
    if idx.size:
        at = np.concatenate([np.where(np.isfinite(a[idx]), a[idx], b[idx]),
                             np.where(np.isfinite(b[idx]), b[idx], a[idx])])
        qm, _, below, above = _miss_bounds(k, np.concatenate([n[idx], n[idx]]), samples_m, gamma, pe, at)
        t, slack = target[idx], 1.0 + 2.0 ** -20
        lower, upper = slice(0, idx.size), slice(idx.size, None)
        a[idx[~(qm[lower] + 2.0 * slack * below[lower] < t)]] = -np.inf
        fails = ~((qm[upper] * (1.0 - 2.0 * slack * above[upper]) >= t)
                  & ((k - n[idx] + 2.0) * above[upper] <= 2.0 ** -24))
        b[idx[fails]] = np.inf
    return a.reshape(shape), lam.reshape(shape), b.reshape(shape)


def _path(lo: float, hi: float, a: float, c: float, b: float) -> list:
    """The midpoints inside (a, b) on the bisection's path from [lo, hi] if its test were lam < c."""
    asks = []
    while hi - lo > _LAMBDA_XTOL + _LAMBDA_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            asks.append(mid)
        if mid <= a or mid < b and mid < c:
            lo = mid
        else:
            hi = mid
    return asks


def _bisection(hi: float, a: float, c: float, b: float):
    """The threshold bisection of :func:`lambda_for_qm` for one element, as a generator.

    Thresholds at or below a test True and those at or above b test False
    without being evaluated. For the others it yields a list of thresholds
    and receives their tests ``miss(lam) < target``: every midpoint on the
    path the predicted root c implies, so one round of evaluation serves all
    steps up to the first that c mispredicts. Returns the threshold.
    """
    for _ in range(200):
        short = True if hi <= a else False if hi >= b else (yield [hi])[0]
        if not short:
            break
        hi *= 2.0
    else:
        raise RuntimeError("the fused miss did not reach its target within 200 threshold doublings")
    lo, known = 0.0, {}
    while hi - lo > _LAMBDA_XTOL + _LAMBDA_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if mid <= a or mid >= b:
            below = mid <= a
        else:
            if mid not in known:
                asks = _path(lo, hi, a, c, b)
                known = dict(zip(asks, (yield asks)))
            below = known[mid]
        if below:
            lo = mid
        else:
            hi = mid
    return hi


def _lockstep(runs, evaluate):
    """Run generators like :func:`_bisection` together: each round passes every pending point to one
    ``evaluate(owners, points)`` call and sends each generator its answers. Returns their results."""
    out, pending, owners = [None] * len(runs), [], []

    def advance(i, answers):
        try:
            asks = runs[i].send(answers)
        except StopIteration as stop:
            out[i] = stop.value
        else:
            pending.extend(asks)
            owners.append((i, len(asks)))

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        idx = np.repeat([i for i, _ in owners], [size for _, size in owners])
        answers = np.asarray(evaluate(idx, np.array(pending))).tolist()
        asked, pending, owners, start = owners, [], [], 0
        for i, size in asked:
            advance(i, answers[start:start + size])
            start += size
    return out


def replay(k: int, n, samples_m: int, gamma: float, pe: float, target, a, c, b):
    """Bisections of all elements in windows (a, c, b), run together: each round tests every pending
    threshold in one call."""
    hi = float(2.0 * _sp.gammainccinv(samples_m, _PF_SWEEP_LO))
    n, target = n.ravel(), target.ravel()
    runs = [_bisection(hi, *window) for window in zip(a.ravel().tolist(), c.ravel().tolist(), b.ravel().tolist())]
    below = lambda idx, lam: _fused_qm(k, n[idx], _local_pm(samples_m, gamma, lam), pe) < target[idx]
    return np.array(_lockstep(runs, below), dtype=float).reshape(a.shape)


def _checked(fs):
    """Function values fs, unless one is NaN (scipy's brentq raises on those too)."""
    if any(math.isnan(f) for f in fs):
        raise ValueError("the function value is NaN; solver cannot converge")
    return fs


def _brent(xpre: float, xcur: float, xtol: float, rtol: float, maxiter: int):
    """scipy's ``brentq`` (``brentq.c``) on the bracket [xpre, xcur], as a generator like :func:`_bisection`.

    The same float operations in the same order, so the same root bits after
    the same evaluations; a NaN value raises ValueError, as scipy's does.
    """
    fpre, fcur = _checked((yield [xpre, xcur]))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # fails the acceptance test below, so the step bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or nan, which bisects
                pass
        limit = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):  # a good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur, = _checked((yield [xcur]))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


def brentq(evaluate, brackets, xtol: float, rtol: float, maxiter: int) -> list:
    """Roots of functions f_i in brackets (a_i, b_i), each bit for bit what ``scipy.optimize.brentq`` finds;
    the Brent steps run in lockstep, and ``evaluate(owners, xs)`` returns every pending f_owner(x) at once."""
    return _lockstep([_brent(a, b, xtol, rtol, maxiter) for a, b in brackets], evaluate)


def lambda_for_qm(k: int, n, samples_m: int, gamma: float, pe: float, target):
    """Thresholds at which rules n reach miss targets between their floors and loose limits.

    Bit for bit the plain bisection of the module docstring; each element's
    result depends on its own inputs only.
    """
    n, target = np.broadcast_arrays(n, np.asarray(target, dtype=float))
    return replay(k, n, samples_m, gamma, pe, target, *windows(k, n, samples_m, gamma, pe, target))


def gap_signs(k: int, pair, samples_m: int, gamma: float, pe: float, qs, tie: float):
    """Where the exact gap qf[n+1] - qf[n] at miss levels qs is > 0 (rule n+1 worse), and where it is
    < -tie (rule n+1 better beyond a tie).

    The exact gap uses each rule's bisected threshold, which lies in
    (a, b + tolerance] of its certified window, and qf falls with lam. So qf
    at the window's ends bounds it: where pf or pe and qf exceed 2^-860,
    the computed qf is within relative 2 _ETA + n (3 _ETA + 4 ulps) of the
    exact one (the elasticity of I_x(n, K-n+1) is at most n). Only points
    whose bounds straddle 0 or -tie, or leave that range, are
    bisected exactly.
    """
    n, qs = np.broadcast_arrays(pair, qs)
    a, c, b = windows(k, n, samples_m, gamma, pe, qs)
    known = (np.isfinite(a) & np.isfinite(b)).all(axis=0)
    ends = np.where(known, [a, b + 2.0 * (_LAMBDA_XTOL + _LAMBDA_RTOL * b)], 1.0)
    pf = _local_pf(samples_m, ends)
    qf = _fused_qf(k, n, pf, pe)
    known &= ((qf >= 2.0 ** -860) & (np.maximum(pf, pe) >= 2.0 ** -860)).all(axis=(0, 1))
    rho = 2.0 * _ETA + n * (3.0 * _ETA + 4.0 * _U)
    most, least = qf[0] * (1.0 + 2.0 * rho), qf[1] * (1.0 - 2.0 * rho)
    slack = 4.0 * _U * (most[0] + most[1])
    low, high = least[1] - most[0] - slack, most[1] - least[0] + slack
    worse, better = low > 0.0, high < -tie
    known &= worse | better | ((low > -tie) & (high < 0.0))
    redo = np.flatnonzero(~known)
    if redo.size:
        lam = replay(k, n[:, redo], samples_m, gamma, pe, qs[:, redo], a[:, redo], c[:, redo], b[:, redo])
        gap = np.diff(_fused_qf(k, n[:, redo], _local_pf(samples_m, lam), pe), axis=0)[0]
        worse[redo], better[redo] = gap > 0.0, gap < -tie
    return worse, better
