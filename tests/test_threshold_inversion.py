"""The certified threshold inversion against the plain bisection it replays, and its math against mpmath."""
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

from coopsense import _inversion as inv
from coopsense import roc
from coopsense.cli import main
from coopsense.fusion import FusionConfig, _fused_qf, _fused_qm
from coopsense.local_sensing import SensingParams, _fade, _local_pf, _local_pm, _local_pm_parts
from coopsense.reporting import ReportChannel, channel_from_snr_db, perfect_channel

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def bisection_oracle(k, n, samples_m, gamma, pe, target):
    """The threshold inversion as it stood before the certified replay, kept verbatim as the oracle."""
    n, target = np.broadcast_arrays(n, np.asarray(target, dtype=float))
    miss = lambda lam: _fused_qm(k, n, _local_pm(samples_m, gamma, lam), pe)
    hi = np.full(target.shape, 2.0 * _sp.gammainccinv(samples_m, inv._PF_SWEEP_LO))
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
        unsettled = hi - lo > inv._LAMBDA_XTOL + inv._LAMBDA_RTOL * hi
        if not unsettled.any():
            return hi
        mid = np.where(unsettled, 0.5 * (lo + hi), hi)
        below = miss(mid) < target
        lo = np.where(unsettled & below, mid, lo)
        hi = np.where(unsettled & ~below, mid, hi)


def crossover_entries_oracle(k, samples_m, gamma, pe):
    """crossover_table's entries from qm_star's full-scan logic on the oracle bisection."""
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
            qf = _fused_qf(k, pair, _local_pf(samples_m, lam), pe)
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


@PROPERTY
@given(scenarios, st.integers(0, 2**32 - 1))
def test_inversion_is_bit_equal_to_the_bisection(scenario, seed):
    k, m, snr_db, snr_r_db = scenario
    gamma, pe = 10.0 ** (snr_db / 10.0), 0.0 if snr_r_db is None else bit_error(snr_r_db)
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, k + 1, size=48)
    # spread over the span, and within 1e-9 (relative to the span) of both ends
    fractions = np.concatenate([rng.random(32), rng.uniform(0.0, 1e-9, 8), 1.0 - rng.uniform(0.0, 1e-9, 8)])
    ns, target = targets_between(k, pe, ns, fractions)
    got = roc._lambda_for_qm(k, ns, m, gamma, pe, target)
    want = bisection_oracle(k, ns, m, gamma, pe, target)
    assert got.tobytes() == want.tobytes(), np.flatnonzero(got != want)


@settings(PROPERTY, max_examples=12)
@given(scenarios)
def test_crossover_table_is_bit_equal_to_the_bisection_scan(scenario):
    k, m, snr_db, snr_r_db = scenario
    k = min(k, 6)  # the oracle scan bisects 800 points per rule pair
    gamma = 10.0 ** (snr_db / 10.0)
    channel = perfect_channel() if snr_r_db is None else channel_from_snr_db(snr_r_db)
    pe = float(channel.pe)
    table = roc.crossover_table(k, SensingParams(samples_m=m, threshold_lambda=0.0, avg_snr_gamma=gamma), channel)
    want = crossover_entries_oracle(k, m, gamma, pe)
    assert {n: float(v).hex() for n, v in table.entries.items()} == {n: v.hex() for n, v in want.items()}


@pytest.mark.parametrize("k, m, snr_db, snr_r_db", [(4, 6, 20.0, 10.0), (8, 6, 10.0, 0.0), (6, 1, 3.0, 5.0),
                                                    (3, 9, 2.9, -2.72), (8, 16, 10.0, 20.0)])
def test_crossover_table_matches_the_oracle_on_known_cases(k, m, snr_db, snr_r_db):
    gamma, channel = 10.0 ** (snr_db / 10.0), channel_from_snr_db(snr_r_db)
    table = roc.crossover_table(k, SensingParams(samples_m=m, threshold_lambda=0.0, avg_snr_gamma=gamma), channel)
    want = crossover_entries_oracle(k, m, gamma, float(channel.pe))
    assert {n: float(v).hex() for n, v in table.entries.items()} == {n: v.hex() for n, v in want.items()}


def test_certified_windows_bracket_the_bisection():
    k, m, gamma, pe = 8, 6, 10.0, bit_error(5.0)
    ns, target = targets_between(k, pe, np.repeat(np.arange(1, k + 1), 40), np.tile(np.linspace(0.01, 0.99, 40), k))
    a, _, b = inv.windows(k, ns, m, gamma, pe, target)
    lam = bisection_oracle(k, ns, m, gamma, pe, target)
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert (a < lam).all() and (lam <= b + 2.0 * (inv._LAMBDA_XTOL + inv._LAMBDA_RTOL * b)).all()
    assert np.median((b - a) / lam) < 1e-9


class TestChannelLimits:
    """optimal-n bytes at the two channel limits, as written by the full bisection (commit 211637d)."""

    GOLDEN = {
        # pe == 0.5 exactly: every miss is flat in lam, so nothing is inverted
        "scrambled": (["--k", "4", "--report-snr-db", "-400", "--target-qm", "0.4"], {
            "csv": "635c5952bc746960146f16b9c2939b7d5909d92c09aae3f38fa53aabeb9566ee",
            "json": "0899fcddf4190270a68eb2f999f451cc4e394fac663aab5ce74e9642db65f875"}),
        "perfect": (["--k", "8", "--perfect-report", "--target-qm", "0.046"], {
            "csv": "b50708dec20ec92893584b4fc14d949fa07efcdb838bbb5538f6c29749e8c193",
            "json": "39a68ebf74d9525182d49bdd6333210247708b83e163f06a9b6e2954a89256c5"}),
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


def test_scrambled_channel_skips_the_prediction_silently():
    k, ns = 4, np.arange(1, 5)
    target = _fused_qm(k, ns, 0.5, 0.5) * 1.5
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        lam, width = inv._predict(k, ns, 6, 10.0, 0.5, target)
    assert np.isnan(lam).all() and np.isinf(width).all()


class TestMathAgainstMpmath:
    """The closed-form fused inverse and the Newton slope, against 50-digit mpmath."""

    @pytest.mark.parametrize("pe", [1e-15, 1e-9, 1e-4, 0.03, 0.2, 0.49])
    @pytest.mark.parametrize("k, n", [(2, 1), (4, 2), (8, 1), (8, 3), (8, 8), (12, 5), (12, 7), (12, 12)])
    def test_fused_inverse(self, k, n, pe):
        a = k - n + 1
        floor, sup = float(_fused_qm(k, n, 0.0, pe)), float(_fused_qm(k, n, 1.0, pe))
        qs = np.geomspace(max(floor * (1.0 + 1e-6), 1e-300), sup * (1.0 - 1e-12), 9)
        zeros = inv._zero_for_qm(k, np.full(qs.shape, n), qs)
        with mp.workdps(50):
            for q, zero in zip(qs.tolist(), zeros.tolist()):
                # the bit probability's forward value recovers the target
                assert abs(upper_tail(a, n, zero) / mp.mpf(q) - 1) < 1e-12 * a, (q, zero)
                # and the local miss it maps to is (zero - pe) / (1 - 2 pe) up to rounding
                local = (zero - pe) / (1.0 - 2.0 * pe)
                exact = (mp.mpf(zero) - pe) / (1 - 2 * mp.mpf(pe))
                assert abs(mp.mpf(local) - exact) <= 4 * 2.0 ** -53 * zero / (1.0 - 2.0 * pe)

    def test_fused_inverse_down_to_tiny_targets(self):
        # scipy's betaincinv alone returns nan or a wrong value for many of these
        qs = 10.0 ** np.arange(-300.0, -29.0, 10.0)
        with mp.workdps(50):
            for k in range(2, 13):
                for n in range(1, k + 1):
                    zeros = inv._zero_for_qm(k, np.full(qs.shape, n), qs)
                    for q, zero in zip(qs.tolist(), zeros.tolist()):
                        assert abs(upper_tail(k - n + 1, n, zero) / mp.mpf(q) - 1) < 1e-12 * k, (k, n, q)

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
                    _, slope, _ = _local_pm_parts(m, gamma, lam)
                    exact = mp.diff(pm, mp.mpf(lam))
                    assert abs(mp.mpf(float(slope)) / exact - 1) < 1e-12, (gamma, lam)


class TestErrorModel:
    """The kernels the certificate trusts stay inside its relative error bound _ETA wherever the
    exact value is above 1e-280; below that only the absolute floor _FLOOR is assumed."""

    def test_kernels_within_half_the_bound(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        with mp.workdps(40):
            for _ in range(400):
                m, gamma = int(rng.integers(1, 17)), float(10.0 ** rng.uniform(-0.5, 3.0))
                lam = float(2.0 * _sp.gammainccinv(m, 1e-9) * 2.0 ** rng.uniform(-16.0, 10.0))
                lm, g = mp.mpf(lam), mp.mpf(gamma)
                c = 2 + 2 * g
                pairs = [(_sp.gammaincc(m, lam / 2.0), mp.gammainc(m, lm / 2, mp.inf, regularized=True))]
                if m == 1:
                    pairs.append((-np.expm1(-lam / (2.0 + 2.0 * gamma)), -mp.expm1(-lm / c)))
                else:
                    fade = ((1 + g) / g) ** (m - 1) * mp.exp(-lm / c) * mp.gammainc(m - 1, 0, lm * g / c,
                                                                                   regularized=True)
                    pairs += [(_local_pm_parts(m, gamma, lam)[2], mp.gammainc(m - 1, 0, lm / 2, regularized=True)),
                              (_fade(m, gamma, lam), fade)]
                k = int(rng.integers(1, 13))
                n, x = int(rng.integers(1, k + 1)), float(10.0 ** rng.uniform(-15.0, -1e-3))
                pairs.append((_sp.betainc(k - n + 1, n, x), upper_tail(k - n + 1, n, x)))
                for got, exact in pairs:
                    if exact > 1e-280:
                        worst = max(worst, float(abs(mp.mpf(float(got)) / exact - 1)))
        assert worst < inv._ETA / 2


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
        qf = _fused_qf(k, pair, _local_pf(m, bisection_oracle(k, pair, m, gamma, pe, qs)), pe)
        gaps = qf[1] - qf[0]
        # rule 2 is ahead somewhere, but never by the tolerance
        assert gaps.min() < 0.0 and gaps.min() >= -roc._QF_TIE_TOL
        with pytest.raises(roc.NoCrossoverError) as err:
            roc.qm_star(FusionConfig(num_radios_k=k, vote_threshold_n=n),
                        SensingParams(samples_m=m, threshold_lambda=0.0, avg_snr_gamma=gamma), channel)
        assert err.value.dominant == n
