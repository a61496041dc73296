"""The threshold inversion and the crossover table against 40-digit mpmath roots of the same closed
forms, edge targets against the plain bisection, and the inversion's math against mpmath."""
import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy import special as _sp

from coopsense import roc
from coopsense.cli import main
from coopsense.fusion import _fused_qf, _fused_qm
from coopsense.local_sensing import SensingParams, _local_pm_parts, local_pf, local_pm
from coopsense.reporting import ReportChannel, channel_from_snr_db

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
# A Newton threshold is within this many ulps of the exact root wherever the closed form's own rounding
# moves that root by at most AMPLIFICATION roundings of the threshold. Of 1500 random targets, 1263 were
# there: the Newton roots were up to 60 ulps off, and the plain bisection up to 10 029, because its
# absolute tolerance of 1e-13 is many ulps at small thresholds.
ULPS = 128
AMPLIFICATION = 8.0
# Crossover entries lie within this many of Brent's tolerances, 1e-15 + 8.9e-16 q, of the exact
# crossing, or no farther from it than the bisection scan's entry. The Newton crossing closes its bracket
# to one tolerance, as Brent's method does. On 259 sampled crossings (K 2-12, M 1-16) its entries were a
# median of 0.076 tolerances off and at most 34, where Brent's were 0.086 and 118; where the gap is
# flat, at low sensing SNR, entries of both go past 100.
TOLERANCES = 64


def bisection_oracle(k, n, samples_m, gamma, pe, target, xtol=1e-13, rtol=8.9e-16):
    """The plain threshold bisection, the reference for _lambda_for_qm. It stops at hi - lo <= xtol + rtol hi:
    by default an absolute 1e-13, the scan oracle's tolerance."""
    n, target = np.broadcast_arrays(n, np.asarray(target, dtype=float))
    miss = lambda lam: _fused_qm(k, n, local_pm(samples_m, gamma, lam), pe)
    hi = np.full(target.shape, 2.0 * _sp.gammainccinv(samples_m, roc._PF_SWEEP_LO))
    # Extend the brackets geometrically; the fused miss saturates exactly once
    # the local tail probabilities underflow, so this always terminates.
    for _ in range(200):
        short = miss(hi) < target
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
    else:
        raise RuntimeError("the fused miss did not reach its target within 200 threshold doublings")
    lo = np.zeros_like(hi)
    while True:
        unsettled = hi - lo > xtol + rtol * hi
        if not unsettled.any():
            return hi
        mid = np.where(unsettled, 0.5 * (lo + hi), hi)
        below = miss(mid) < target
        lo = np.where(unsettled & below, mid, lo)
        hi = np.where(unsettled & ~below, mid, hi)


def crossover_entries_oracle(k, samples_m, gamma, pe):
    """crossover_table's entries from a per-pair full scan on the oracle bisection."""
    entries = {}
    for n in range(1, k):
        floor_b = float(_fused_qm(k, n + 1, 0.0, pe))
        sup = float(_fused_qm(k, n, 1.0, pe))
        if not floor_b < sup:
            entries[n] = math.inf
            continue
        lo = floor_b + (sup - floor_b) * 1e-9
        hi = sup - (sup - floor_b) * 1e-9
        pair = np.array([[n], [n + 1]])

        def gaps(qs):
            lam = bisection_oracle(k, pair, samples_m, gamma, pe, qs)
            qf = _fused_qf(k, pair, local_pf(samples_m, lam), pe)
            return qf[1] - qf[0]

        qs = np.geomspace(max(lo, 1e-300), hi, roc._CROSSOVER_SCAN_POINTS)
        deltas = gaps(qs)
        advantaged = np.flatnonzero(deltas < -roc._QF_TIE_TOL)
        if not advantaged.size:
            entries[n] = math.inf
            continue
        positives = np.flatnonzero(deltas[:advantaged[0]] > 0.0)
        if not positives.size:
            entries[n] = floor_b
            continue
        entries[n] = optimize.brentq(lambda q: gaps(np.array([q]))[0], qs[positives[-1]], qs[advantaged[0]],
                                     xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return entries


def upper_tail(a, b, x):
    """I_x(a, b) for integers a, b >= 1 as the binomial tail Pr{Bin(a+b-1, x) >= a}: no cancellation."""
    x, k = mp.mpf(x), a + b - 1
    return mp.fsum(mp.binomial(k, j) * x**j * (1 - x) ** (k - j) for j in range(a, k + 1))


def exact_miss(k, n, m, gamma, pe, lam):
    """The fused miss of rule n at threshold lam in mpmath, from the closed form the kernels evaluate."""
    g, lam = mp.mpf(gamma), mp.mpf(lam)
    c = 2 + 2 * g
    if m == 1:
        pm = -mp.expm1(-lam / c)
    else:
        fade = ((1 + g) / g) ** (m - 1) * mp.exp(-lam / c) * mp.gammainc(m - 1, 0, lam * g / c, regularized=True)
        pm = mp.gammainc(m - 1, 0, lam / 2, regularized=True) - fade
    return upper_tail(k - n + 1, n, pm * (1 - mp.mpf(pe)) + (1 - pm) * mp.mpf(pe))


def exact_false_alarm(k, n, m, pe, lam):
    pf = mp.gammainc(m, mp.mpf(lam) / 2, mp.inf, regularized=True)
    return upper_tail(n, k - n + 1, pf * (1 - mp.mpf(pe)) + (1 - pf) * mp.mpf(pe))


def exact_threshold(k, n, m, gamma, pe, target, start):
    """The root of exact_miss = target (call within mp.workdps(40)), by secant steps from a float root."""
    start = mp.mpf(float(start))
    return mp.findroot(lambda lam: exact_miss(k, n, m, gamma, pe, lam) - mp.mpf(target),
                       (start, start * (1 + mp.mpf(2) ** -30)), solver="secant", tol=mp.mpf(10) ** -70)


def ulps_off(k, n, m, gamma, pe, target, lam):
    with mp.workdps(40):
        root = exact_threshold(k, n, m, gamma, pe, target, lam)
        return float(abs(mp.mpf(float(lam)) - root) / math.ulp(float(root)))


def amplification(k, n, m, gamma, pe, lam):
    """How many roundings of the threshold the closed form's rounding at lam is worth: the fused miss's
    condition F / (lam dF/dlam), and the local miss's pm / (lam dpm/dlam) scaled by the cancellation in
    pm = P(M-1, lam/2) - fade and in the flip pe + (1 - 2 pe) pm."""
    qm, slope = roc._fused_miss(k, n, m, gamma, pe, lam)
    pm, dpm = _local_pm_parts(m, gamma, lam)
    local = pm / (lam * dpm)
    cancel = 1.0 if m == 1 else _sp.gammainc(m - 1, lam / 2.0) / pm
    flip = (pe + (1.0 - 2.0 * pe) * pm) / ((1.0 - 2.0 * pe) * pm)
    return float(max(qm / (lam * slope), cancel * local, flip * local))


def crossing_error(k, n, m, gamma, pe, q):
    """Distance of q from the exact crossing of rules n and n+1, in Brent tolerances 1e-15 + 8.9e-16 q: one
    Newton step on the exact gap qf[n+1] - qf[n], each rule at its exact threshold for miss level q."""
    lam = roc._lambda_for_qm(k, np.array([n, n + 1]), m, gamma, pe, np.array([q, q]))

    def gap(level):
        return (exact_false_alarm(k, n + 1, m, pe, exact_threshold(k, n + 1, m, gamma, pe, level, lam[1]))
                - exact_false_alarm(k, n, m, pe, exact_threshold(k, n, m, gamma, pe, level, lam[0])))

    with mp.workdps(40):
        h = mp.mpf(q) * mp.mpf(10) ** -12
        slope = (gap(q + h) - gap(q - h)) / (2 * h)
        return float(abs(gap(mp.mpf(q)) / slope)) / (1e-15 + 8.9e-16 * q)


def bit_error(snr_r_db):
    return float(channel_from_snr_db(snr_r_db).pe)


# K 2-12, M 1-16, sensing SNR -5..30 dB, report SNR -3..20 dB (and now and then a perfect channel)
scenarios = st.tuples(
    st.integers(2, 12), st.integers(1, 16), st.floats(-5.0, 30.0),
    st.one_of(st.floats(-3.0, 20.0), st.none()),
)


def targets_between(k, pe, ns, fractions):
    """Miss targets inside each rule's (floor, loose limit), from fractions of that span."""
    floor, sup = _fused_qm(k, ns, 0.0, pe), _fused_qm(k, ns, 1.0, pe)
    target = floor + (sup - floor) * fractions
    keep = (target > floor) & (target < sup)
    return ns[keep], target[keep]


def random_targets(k, m, gamma, pe, rng, size):
    """Rules, targets spread over their spans, and their thresholds from one _lambda_for_qm call."""
    ns, target = targets_between(k, pe, rng.integers(1, k + 1, size=size), rng.random(size))
    return ns, target, roc._lambda_for_qm(k, ns, m, gamma, pe, target)


@settings(PROPERTY, max_examples=100)
@given(scenarios, st.integers(0, 2**32 - 1))
def test_inversion_is_within_128_ulps_of_the_mpmath_root(scenario, seed):
    k, m, snr_db, snr_r_db = scenario
    gamma, pe = 10.0 ** (snr_db / 10.0), 0.0 if snr_r_db is None else bit_error(snr_r_db)
    ns, target, lam = random_targets(k, m, gamma, pe, np.random.default_rng(seed), 4)
    for n, t, x in zip(ns.tolist(), target.tolist(), lam.tolist()):
        if amplification(k, n, m, gamma, pe, x) <= AMPLIFICATION:
            assert ulps_off(k, n, m, gamma, pe, t, x) <= ULPS, (n, t, x)


def test_newton_is_closer_to_the_mpmath_root_than_the_bisection():
    rng, newton, bisection = np.random.default_rng(11), [], []
    for _ in range(80):
        k, m, gamma = int(rng.integers(2, 13)), int(rng.integers(1, 17)), 10.0 ** rng.uniform(-0.5, 3.0)
        pe = bit_error(rng.uniform(-3.0, 20.0))
        ns, target, lam = random_targets(k, m, gamma, pe, rng, 1)
        want = bisection_oracle(k, ns, m, gamma, pe, target)
        newton.append(ulps_off(k, int(ns[0]), m, gamma, pe, target[0], lam[0]))
        bisection.append(ulps_off(k, int(ns[0]), m, gamma, pe, target[0], want[0]))
    newton, bisection = np.array(newton), np.array(bisection)
    assert np.median(newton) < np.median(bisection)
    assert (newton < bisection).sum() > (newton > bisection).sum()


def test_targets_at_either_end_settle_near_the_mpmath_root():
    # 1e-10 and 1e-13 of the span from a floor or a loose limit, where pm* cancels, settle with no warning.
    # Where the closed form is well conditioned (M = 1 and a perfect or near-perfect channel, mostly), each
    # threshold is within ULPS of the exact root, or else no farther from it than the plain bisection to the
    # solve's own bracket tolerance, tiny + 8.9e-16 hi. Elsewhere the closed form's rounding decides the root
    # for either method.
    checked = 0
    for k, m, gamma, pe in [(8, 6, 10.0, bit_error(5.0)), (5, 1, 3.0, bit_error(-2.0)),
                            (12, 16, 300.0, bit_error(18.0)), (4, 6, 100.0, 0.0), (6, 1, 10.0, 0.0),
                            (10, 1, 1000.0, bit_error(20.0)), (12, 1, 0.5, 0.0)]:
        ns = np.repeat(np.arange(1, k + 1), 4)
        ns, target = targets_between(k, pe, ns, np.tile([1e-10, 1e-13, 1.0 - 1e-10, 1.0 - 1e-13], k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = roc._lambda_for_qm(k, ns, m, gamma, pe, target)
        assert np.isfinite(lam).all()
        for n, t, x in zip(ns.tolist(), target.tolist(), lam.tolist()):
            if amplification(k, n, m, gamma, pe, x) > AMPLIFICATION:
                continue
            checked += 1
            off = ulps_off(k, n, m, gamma, pe, t, x)
            if off > ULPS:
                want = bisection_oracle(k, n, m, gamma, pe, t, 2.2250738585072014e-308, 8.9e-16)
                assert off <= ulps_off(k, n, m, gamma, pe, t, want), (k, n, t, x)
    assert checked >= 50


@pytest.mark.parametrize("gamma", [1e6, 100.0, 0.5])
def test_tiny_targets_meet_the_closed_form_threshold_at_m_1(gamma):
    # at M = 1 the local miss is -expm1(-lam / (2 + 2 gamma)), and a perfect channel's OR rule of K radios
    # misses with pm^K, so rule 1's threshold for target q is -(2 + 2 gamma) log1p(-q^(1/K)), down to
    # thresholds of 1e-300
    for k, targets in ((1, np.array([1e-300, 1e-290, 1e-280, 1e-200, 1e-100, 1e-20, 1e-9])),
                       (4, np.array([1e-300, 1e-200, 1e-60, 1e-9]))):
        got = roc._lambda_for_qm(k, 1, 1, gamma, 0.0, targets)
        want = -(2.0 + 2.0 * gamma) * np.log1p(-targets ** (1.0 / k))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_exhausting_the_threshold_round_cap_raises(monkeypatch):
    # a target far below the start table: the local Newton start does not settle, and the bracket takes it
    monkeypatch.setattr(roc, "_ROUNDS", 2)
    with pytest.raises(RuntimeError, match="2 rounds"):
        roc._lambda_for_qm(2, 1, 1, 1.0, 0.0, 1e-200)


@settings(PROPERTY, max_examples=60)
@given(st.integers(1, 40), st.floats(-5.0, 30.0), st.floats(-300.0, -100.0))
def test_deep_targets_settle_within_the_round_cap(k, snr_db, exponent):
    # with a perfect channel at M = 1 these thresholds lie far below the start table, so most elements
    # start at the threshold of local false alarm 1e-9 and the bracket's splits in log lam carry them down
    # to the root. A larger rule needs a lower threshold. Below about 1e-280 scipy's betainc, the fused
    # miss, loses digits (I_x(28, 12) = 8.7e-298 is 2.2e-7 off mpmath's), so only the targets above that
    # are checked forward.
    gamma, ns, target = 10.0 ** (snr_db / 10.0), np.arange(1, k + 1), 10.0 ** exponent
    lam = roc._lambda_for_qm(k, ns, 1, gamma, 0.0, target)
    assert np.isfinite(lam).all() and (np.diff(lam) < 0.0).all()
    if target >= 1e-280:
        np.testing.assert_allclose(_fused_qm(k, ns, local_pm(1, gamma, lam), 0.0), target, rtol=1e-12)


def test_targets_at_or_above_the_loose_limit_need_an_infinite_threshold():
    k, m, gamma, pe = 4, 6, 10.0, bit_error(5.0)
    ns = np.arange(1, k + 1)
    sup = _fused_qm(k, ns, 1.0, pe)
    below = sup * (1.0 - 1e-6)
    lam = roc._lambda_for_qm(k, np.tile(ns, 3), m, gamma, pe, np.concatenate([below, sup, 0.5 * (1.0 + sup)]))
    assert np.isfinite(lam[:k]).all() and (lam[k:] == np.inf).all()


def assert_crossings_balance(table, k, m, gamma, pe):
    """Entries where the bisection scan finds a crossing balance the two rules' qf within TOLERANCES of
    mpmath's crossing, or no worse than the scan's; every other entry is the scan's."""
    want = crossover_entries_oracle(k, m, gamma, pe)
    for n, q in table.items():
        if math.isfinite(want[n]) and want[n] != _fused_qm(k, n + 1, 0.0, pe):
            error = crossing_error(k, n, m, gamma, pe, q)
            assert error <= TOLERANCES or error <= crossing_error(k, n, m, gamma, pe, want[n]), (n, q, error)
        else:
            assert q == want[n], n


@settings(PROPERTY, max_examples=12)
@given(scenarios)
def test_crossover_entries_balance_the_two_rules_qf(scenario):
    k, m, snr_db, snr_r_db = scenario
    k = min(k, 6)  # the oracle scan bisects 800 points per rule pair, and each crossing takes six mpmath roots
    gamma = 10.0 ** (snr_db / 10.0)
    channel = ReportChannel(noise_var_sigma2=0.0) if snr_r_db is None else channel_from_snr_db(snr_r_db)
    pe = float(channel.pe)
    table = roc.crossover_table(k, SensingParams(samples_m=m, avg_snr_gamma=gamma), channel)
    assert_crossings_balance(table, k, m, gamma, pe)


@pytest.mark.parametrize("k, m, snr_db, snr_r_db", [(4, 6, 20.0, 10.0), (8, 6, 10.0, 0.0), (6, 1, 3.0, 5.0),
                                                    (3, 9, 2.9, -2.72), (8, 16, 10.0, 20.0),
                                                    (6, 14, -4.7, 16.0), (3, 15, -1.601091509367857, 18.5625)])
def test_crossover_table_matches_the_oracle_on_known_cases(k, m, snr_db, snr_r_db):
    gamma, channel = 10.0 ** (snr_db / 10.0), channel_from_snr_db(snr_r_db)
    table = roc.crossover_table(k, SensingParams(samples_m=m, avg_snr_gamma=gamma), channel)
    assert_crossings_balance(table, k, m, gamma, float(channel.pe))


class TestChannelLimits:
    """optimal-n bytes at the two channel limits. The scrambled ones are as written by the full bisection
    (commit 211637d), which nothing inverts there; perfect-json prints the repr of the Newton thresholds
    and crossing."""

    GOLDEN = {
        # pe == 0.5 exactly: every miss is flat in lam, so nothing is inverted
        "scrambled": (["--k", "4", "--report-snr-db", "-400", "--target-qm", "0.4"], {
            "csv": "635c5952bc746960146f16b9c2939b7d5909d92c09aae3f38fa53aabeb9566ee",
            "json": "0899fcddf4190270a68eb2f999f451cc4e394fac663aab5ce74e9642db65f875"}),
        "perfect": (["--k", "8", "--perfect-report", "--target-qm", "0.046"], {
            "csv": "b50708dec20ec92893584b4fc14d949fa07efcdb838bbb5538f6c29749e8c193",
            "json": "25213236bb611a4ea7fd56cba91c2a0cba6eee73cf90d4f86b1d3a44c1c8b7b1"}),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bytes_match_and_nothing_warns(self, tmp_path, name, fmt):
        args, digests = self.GOLDEN[name]
        out = tmp_path / f"out.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["optimal-n", *args, "--samples-m", "6", "--snr-db", "10",
                         "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]


def test_scrambled_channel_needs_an_infinite_threshold_silently():
    # at pe = 0.5 every floor is its loose limit, so no target is solved for
    k, ns = 4, np.arange(1, 5)
    target = _fused_qm(k, ns, 0.5, 0.5) * 1.5
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        lam = roc._lambda_for_qm(k, ns, 6, 10.0, 0.5, target)
    assert (lam == np.inf).all()


class TestMathAgainstMpmath:
    """The inverse of the fused miss, the threshold solve, and the Newton slopes against 50-digit mpmath. At
    M = 1 the local miss -expm1(-lam / (2 + 2 gamma)) has no cancellation, so the closed form is exact."""

    @pytest.mark.parametrize("pe", [1e-15, 1e-9, 1e-4, 0.03, 0.2, 0.49])
    @pytest.mark.parametrize("k, n", [(2, 1), (4, 2), (8, 1), (8, 3), (8, 8), (12, 5), (12, 7), (12, 12)])
    def test_fused_inverse(self, k, n, pe):
        # targets from just above the floor to just below the loose limit, where the closed-form local
        # target is only the start and the fused solve absorbs its rounding
        gamma = 10.0
        floor, sup = float(_fused_qm(k, n, 0.0, pe)), float(_fused_qm(k, n, 1.0, pe))
        qs = np.geomspace(max(floor * (1.0 + 1e-6), 1e-300), sup * (1.0 - 1e-12), 9)
        lam = roc._lambda_for_qm(k, n, 1, gamma, pe, qs)
        assert np.isfinite(lam).all()
        with mp.workdps(50):
            for q, x in zip(qs.tolist(), lam.tolist()):
                assert abs(exact_miss(k, n, 1, gamma, pe, x) / mp.mpf(q) - 1) < 1e-12 * k, (q, x)

    def test_fused_inverse_down_to_tiny_targets(self):
        # scipy's betaincinv alone returns nan for some of these (289 of the 2156 with scipy 1.17.1); such an
        # element starts at the threshold of local false alarm 1e-9, and the fused solve must still reach
        # the root. Below about 1e-280 betainc itself loses digits, so only the targets above are checked.
        gamma, qs = 10.0, 10.0 ** np.arange(-300.0, -29.0, 10.0)
        lost = 0
        with mp.workdps(50):
            for k in range(2, 13):
                ns, targets = np.meshgrid(np.arange(1, k + 1), qs, indexing="ij")
                lost += int(np.isnan(_sp.betaincinv(k - ns + 1, ns, targets)).sum())
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    lam = roc._lambda_for_qm(k, ns, 1, gamma, 0.0, targets)
                assert np.isfinite(lam).all(), k
                for n, q, x in zip(ns.ravel().tolist(), targets.ravel().tolist(), lam.ravel().tolist()):
                    if q >= 1e-280:
                        assert abs(exact_miss(k, n, 1, gamma, 0.0, x) / mp.mpf(q) - 1) < 1e-12 * k, (k, n, q)
        assert lost > 0

    @pytest.mark.parametrize("m", [1, 2, 6, 16])
    def test_slope_is_the_derivative_of_the_local_miss(self, m):
        with mp.workdps(50):
            for gamma in (0.3, 3.0, 100.0):
                g = mp.mpf(gamma)
                c = 2 + 2 * g

                def pm(lam):
                    if m == 1:
                        return 1 - mp.exp(-lam / c)
                    fade = ((1 + g) / g) ** (m - 1) * mp.exp(-lam / c) * mp.gammainc(m - 1, 0, lam * g / c,
                                                                                    regularized=True)
                    return mp.gammainc(m - 1, 0, lam / 2, regularized=True) - fade

                for lam in (0.05, 1.0, 2.0 * m, 8.0 * m + 4.0 * gamma):
                    _, slope = _local_pm_parts(m, gamma, lam)
                    exact = mp.diff(pm, mp.mpf(lam))
                    assert abs(mp.mpf(float(slope)) / exact - 1) < 1e-12, (gamma, lam)

    @pytest.mark.parametrize("m", [1, 2, 6, 16, 150])
    def test_roc_slope_is_the_derivative_of_qf_in_qm(self, m):
        with mp.workdps(50):
            for lam in (0.05, 1.0, 2.0 * m, 8.0 * m + 12.0):
                # pf = 1 - P(M, lam/2): differentiate whichever tail is not near 1, so no digits cancel
                lower = lam <= 2.0 * m
                exact = mp.diff(lambda x: -mp.gammainc(m, 0, x / 2, regularized=True) if lower
                                else mp.gammainc(m, x / 2, mp.inf, regularized=True), mp.mpf(lam))
                assert abs(-mp.exp(mp.mpf(float(roc._log_pf_slope(m, lam)))) / exact - 1) < 1e-12, lam
            # thresholds at local false alarms 0.5 and 0.01, where neither local probability is so near 0 or 1
            # that its own rounding moves the slope
            for lam in 2.0 * _sp.gammainccinv(m, np.array([0.5, 0.01])):
                for gamma in (0.3, 3.0, 100.0):
                    for k, n, pe in [(4, 2, 0.03), (8, 1, 1e-4), (8, 8, 0.2), (12, 5, 1e-9)]:
                        exact = (mp.diff(lambda x: exact_false_alarm(k, n, m, pe, x), mp.mpf(lam))
                                 / mp.diff(lambda x: exact_miss(k, n, m, gamma, pe, x), mp.mpf(lam)))
                        slope = roc._roc_slope(k, n, m, gamma, pe, lam)
                        assert abs(mp.mpf(float(slope)) / exact - 1) < 1e-12, (lam, gamma, k, n, pe)


class TestTieTolerance:
    """_QF_TIE_TOL is absolute: once both rules' false-alarm floors are below it, advantages
    smaller than it anywhere on the scan are ties and the smaller rule keeps the band."""

    def test_sub_tolerance_advantage_is_a_tie(self):
        # pe ~ 1e-12: both false-alarm floors (~4e-12, ~6e-24) are far below 1e-9
        channel = ReportChannel(noise_var_sigma2=1.0 / (4.0 * 49.0))
        pe = float(channel.pe)
        k, m, gamma, n = 4, 6, 100.0, 1
        assert _fused_qf(k, n, 0.0, pe) < 1e-9 and _fused_qf(k, n + 1, 0.0, pe) < 1e-9
        floor_b, sup = float(_fused_qm(k, n + 1, 0.0, pe)), float(_fused_qm(k, n, 1.0, pe))
        qs = np.geomspace(floor_b + (sup - floor_b) * 1e-9, sup - (sup - floor_b) * 1e-9,
                          roc._CROSSOVER_SCAN_POINTS)
        pair = np.array([[n], [n + 1]])
        qf = _fused_qf(k, pair, local_pf(m, bisection_oracle(k, pair, m, gamma, pe, qs)), pe)
        gaps = qf[1] - qf[0]
        # rule 2 is ahead somewhere, but never by the tolerance
        assert gaps.min() < 0.0 and gaps.min() >= -roc._QF_TIE_TOL
        # so rule n dominates: its crossover table entry is inf
        table = roc.crossover_table(k, SensingParams(samples_m=m, avg_snr_gamma=gamma), channel)
        assert table[n] == math.inf
