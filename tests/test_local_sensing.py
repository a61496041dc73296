"""Single-radio closed forms against literal sums, quadrature, and inversion round trips."""
import math
import re

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ncx2

from coopsense.local_sensing import SensingParams, local_pd, local_pf, local_pm, threshold_for_pf
from coopsense.reporting import ReportChannel
from coopsense.roc import optimal_n

# mpmath at 50 digits: literal finite-sum detection probability
PD_ORACLE = [
    (1, 2.0, 99.0, 0.99004983374916805357),
    (2, 5.0, 10.0, 0.86816531702041786755),
    (4, 8.0, 0.5, 0.5206959052493120973),
    (6, 12.0, 1.0, 0.57937654751510558031),
    (6, 12.0, 100.0, 0.9851777344367587952),
    (6, 30.0, 100.0, 0.90594605988127875327),
    (8, 20.0, 10.0, 0.75931641853492482379),
    (12, 30.0, 10.0, 0.70139795652904951836),
]

# mpmath bisection on the chi-square tail at 50 digits
THRESHOLD_ORACLE = [
    (0.5, 6, 11.340322377424140466),
    (1e-6, 6, 50.825252138874450008),
]


def pd_literal_sums(m, lam, g):
    """Detection probability exactly as the textbook finite-sum expression."""
    s1 = math.fsum((lam / 2.0) ** l / math.factorial(l) for l in range(m - 1))
    s2 = math.fsum((lam * g / (2.0 + 2.0 * g)) ** l / math.factorial(l) for l in range(m - 1))
    return (
        math.exp(-lam / 2.0) * s1
        + ((1.0 + g) / g) ** (m - 1)
        * (math.exp(-lam / (2.0 + 2.0 * g)) - math.exp(-lam / 2.0) * s2)
    )


class TestSensingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensingParams(samples_m=0, avg_snr_gamma=1.0)
        with pytest.raises(ValueError):
            SensingParams(samples_m=2.0, avg_snr_gamma=1.0)
        with pytest.raises(ValueError):
            SensingParams(samples_m=2, avg_snr_gamma=0.0)

    @pytest.mark.parametrize("fn", [local_pf, local_pd, local_pm])
    def test_scalar_forms_reject_a_bad_threshold(self, fn):
        detector = (2,) if fn is local_pf else (2, 1.0)
        for bad in (-1.0, float("nan"), np.array([0.0, 3.0, np.nan]), np.array([[5.0, np.inf], [-1e-300, 1.0]])):
            with pytest.raises(ValueError, match=r"lam must be >= 0 \(inf allowed\), got"):
                fn(*detector, bad)

    @pytest.mark.parametrize("m,g", [(0, 1.0), (2.0, 1.0), (2, 0.0), (2, math.inf)])
    def test_local_forms_check_the_detector_as_sensing_params_does(self, m, g):
        with pytest.raises(ValueError) as err:
            SensingParams(samples_m=m, avg_snr_gamma=g)
        calls = [lambda: local_pm(m, g, 1.0), lambda: local_pd(m, g, 1.0)]
        if m != 2:  # a bad M; the pf forms take no gamma
            calls += [lambda: local_pf(m, 1.0), lambda: threshold_for_pf(m, 0.5)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(str(err.value))):
                call()


class TestLocalPf:
    def test_trivial_points(self):
        assert local_pf(1, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert float(local_pf(6, 0.0)) == 1.0

    def test_frozen_value(self):
        # mpmath regularized upper gamma at (6, 6)
        assert local_pf(6, 12.0) == pytest.approx(0.44567964136461124446, rel=1e-12)


class TestLocalPd:
    def test_trivial_points(self):
        assert float(local_pd(1, 5.0, 0.0)) == 1.0
        assert float(local_pd(6, 5.0, 0.0)) == 1.0
        assert local_pd(1, 99.0, 2.0) == pytest.approx(math.exp(-0.01), rel=1e-12)

    @pytest.mark.parametrize("m,lam,g,expected", PD_ORACLE)
    def test_against_mpmath_literal_sums(self, m, lam, g, expected):
        assert local_pd(m, g, lam) == pytest.approx(expected, rel=1e-12)

    def test_gamma_form_equals_literal_sums(self):
        # tolerance absorbs the literal form's own cancellation between the
        # bracketed exponentials, which the gamma form exists to avoid
        for m in (1, 2, 3, 6, 9, 12):
            for lam in (0.0, 0.5, 4.0, 12.0, 40.0):
                for g in (0.5, 1.0, 10.0, 100.0):
                    assert local_pd(m, g, lam) == pytest.approx(
                        pd_literal_sums(m, lam, g), abs=1e-11
                    )

    @pytest.mark.parametrize("m,lam,g", [(6, 12.0, 100.0), (2, 5.0, 10.0), (12, 30.0, 10.0)])
    def test_against_noncentral_chisquare_quadrature(self, m, lam, g):
        # independent route: average the noncentral chi-square tail over the
        # exponential SNR density instead of using any closed form
        value, err = integrate.quad(
            lambda u: math.exp(-u) * ncx2.sf(lam, 2 * m, 2.0 * g * u), 0.0, math.inf, limit=200
        )
        assert err < 1e-6
        assert local_pd(m, g, lam) == pytest.approx(value, abs=1e-8)


class TestLocalPm:
    def test_trivial_points(self):
        assert float(local_pm(1, 5.0, 0.0)) == 0.0
        assert local_pm(1, 99.0, 2.0) == pytest.approx(1.0 - math.exp(-0.01), rel=1e-9)

    def test_complement_identity(self):
        for m, lam, g, _ in PD_ORACLE:
            assert float(local_pd(m, g, lam)) + float(local_pm(m, g, lam)) == pytest.approx(1.0, abs=1e-15)


class TestShapeProperties:
    @pytest.mark.parametrize("m,g", [(1, 100.0), (6, 100.0), (6, 1.0), (12, 10.0)])
    def test_strict_monotonicity_in_threshold(self, m, g):
        lams = [0.1 + 0.6 * i for i in range(100)]
        pf = [float(local_pf(m, lam)) for lam in lams]
        pd = [float(local_pd(m, g, lam)) for lam in lams]
        pm = [float(local_pm(m, g, lam)) for lam in lams]
        assert all(b < a for a, b in zip(pf, pf[1:]))
        assert all(b < a for a, b in zip(pd, pd[1:]))
        assert all(b > a for a, b in zip(pm, pm[1:]))

    def test_outputs_bounded(self):
        for m in range(1, 13):
            for lam in (0.0, 1.0, 10.0, 50.0, 100.0):
                for g in (1.0, 10.0, 100.0):
                    assert 0.0 <= float(local_pf(m, lam)) <= 1.0
                    assert 0.0 <= float(local_pd(m, g, lam)) <= 1.0
                    assert 0.0 <= float(local_pm(m, g, lam)) <= 1.0

    def test_detector_beats_chance(self):
        # detection probability strictly exceeds false alarm whenever lambda > 0;
        # thresholds come from pf inversion so neither side saturates at 1.0
        for m in (1, 2, 6, 12):
            for q in (0.9, 0.5, 0.1, 1e-3):
                for g in (0.5, 1.0, 10.0, 100.0):
                    lam = threshold_for_pf(m, q)
                    assert float(local_pd(m, g, lam)) > float(local_pf(m, lam))


class TestThresholdForPf:
    def test_analytic_inverse_single_sample(self):
        assert threshold_for_pf(1, math.exp(-1.0)) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("q,m,expected", THRESHOLD_ORACLE)
    def test_against_mpmath_bisection(self, q, m, expected):
        assert threshold_for_pf(m, q) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 6, 12])
    @pytest.mark.parametrize("q", [1e-9, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9])
    def test_round_trip(self, q, m):
        lam = threshold_for_pf(m, q)
        back = float(local_pf(m, lam))
        assert abs(back - q) <= 1e-10
        assert back == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("m", [1, 6, 16])
    def test_array_kernel_equals_the_scalar_function(self, m):
        pf = np.geomspace(1e-12, 0.99, 241)
        lams = threshold_for_pf(m, pf)
        assert lams.shape == pf.shape
        assert all(lam == threshold_for_pf(m, q) for lam, q in zip(lams.tolist(), pf.tolist()))

    def test_rejects_endpoints(self):
        for bad in (0.0, 1.0, -0.2, 1.3, float("nan"), np.array([0.5, 1.0]), np.array([np.nan, 0.5])):
            with pytest.raises(ValueError, match=r"pf must lie strictly inside \(0, 1\), got"):
                threshold_for_pf(6, bad)
        with pytest.raises(ValueError):
            threshold_for_pf(0, 0.5)


def pm_mpmath(m, lam, g):
    """1 - pd from the literal finite sums at 80 digits, far beyond the cancellation."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        lam, g = mp.mpf(lam), mp.mpf(g)
        s1 = mp.fsum((lam / 2) ** l / mp.factorial(l) for l in range(m - 1))
        s2 = mp.fsum((lam * g / (2 + 2 * g)) ** l / mp.factorial(l) for l in range(m - 1))
        pd = mp.exp(-lam / 2) * s1 + ((1 + g) / g) ** (m - 1) * (
            mp.exp(-lam / (2 + 2 * g)) - mp.exp(-lam / 2) * s2)
        return 1 - pd


PM_GRID = [(m, snr_db, lam) for m in (1, 2, 6, 16) for snr_db in (-5.0, 0.0, 7.5, 15.0, 22.5, 30.0)
           for lam in (0.5, 1.3, 4.0, 12.0, 35.0, 100.0)]


class TestLocalPmAccuracy:
    def test_relative_accuracy_against_mpmath(self):
        # pm is formed directly; 1 - pd loses every digit at small thresholds and high SNR
        worst = 0.0
        for m, snr_db, lam in PM_GRID:
            g = 10.0 ** (snr_db / 10.0)
            ref = pm_mpmath(m, lam, g)
            worst = max(worst, float(abs(float(local_pm(m, g, lam)) - ref) / ref))
        assert worst <= 1e-9

    def test_complement_identity_over_the_grid(self):
        for m, snr_db, lam in PM_GRID:
            g = 10.0 ** (snr_db / 10.0)
            assert float(local_pd(m, g, lam)) + float(local_pm(m, g, lam)) == pytest.approx(1.0, abs=1e-15)


class TestNeverFiringDetector:
    """lam = inf is the detector that never fires: it never raises a false alarm and always misses."""

    @pytest.mark.parametrize("m", [1, 6, 16])
    def test_infinite_threshold(self, m):
        assert local_pf(m, math.inf) == 0.0
        for g in (0.3, 10.0, 1000.0):
            assert local_pm(m, g, math.inf) == 1.0
            assert local_pd(m, g, math.inf) == 0.0

    def test_optimal_n_threshold_at_the_loose_limit(self):
        # at 0 dB reporting SNR rule 4's miss never exceeds its loose limit 1 - pe^4 = 0.99094, below the target
        sensing, channel = SensingParams(samples_m=6, avg_snr_gamma=100.0), ReportChannel(noise_var_sigma2=1.0)
        result = optimal_n(0.995, 4, sensing, channel)
        assert result.n == 4 and result.achieved_lambda == math.inf
        assert local_pm(6, 100.0, result.achieved_lambda) == 1.0
        assert local_pf(6, result.achieved_lambda) == 0.0
        assert result.achieved_qm == pytest.approx(1.0 - channel.pe ** 4, rel=1e-12)


class TestBroadcasting:
    @pytest.mark.parametrize("m", [1, 2, 6, 16])
    def test_array_call_equals_its_scalar_calls_bit_for_bit(self, m):
        lams = np.array([[0.0, 0.5, 3.0, 12.0], [40.0, 150.0, 1e308, np.inf]])
        for g in (0.3, 10.0, 1000.0):
            for fn, detector in ((local_pf, (m,)), (local_pm, (m, g)), (local_pd, (m, g))):
                values = fn(*detector, lams)
                assert values.shape == lams.shape and values.dtype == np.float64
                assert values.ravel().tolist() == [float(fn(*detector, lam)) for lam in lams.ravel().tolist()]
