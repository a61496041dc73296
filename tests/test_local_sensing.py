"""Single-radio closed forms against literal sums, quadrature, and inversion round trips."""
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ncx2

from coopsense.local_sensing import (SensingParams, _threshold_for_pf, local_pd, local_pf, local_pm,
                                     threshold_for_pf)

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


def params(m, lam, g=100.0):
    return SensingParams(samples_m=m, threshold_lambda=lam, avg_snr_gamma=g)


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
            SensingParams(samples_m=0, threshold_lambda=1.0, avg_snr_gamma=1.0)
        with pytest.raises(ValueError):
            SensingParams(samples_m=2.0, threshold_lambda=1.0, avg_snr_gamma=1.0)
        with pytest.raises(ValueError):
            SensingParams(samples_m=2, threshold_lambda=-1.0, avg_snr_gamma=1.0)
        with pytest.raises(ValueError):
            SensingParams(samples_m=2, threshold_lambda=float("inf"), avg_snr_gamma=1.0)
        with pytest.raises(ValueError):
            SensingParams(samples_m=2, threshold_lambda=1.0, avg_snr_gamma=0.0)


class TestLocalPf:
    def test_trivial_points(self):
        assert local_pf(params(1, 2.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert float(local_pf(params(6, 0.0))) == 1.0

    def test_frozen_value(self):
        # mpmath regularized upper gamma at (6, 6)
        assert local_pf(params(6, 12.0)) == pytest.approx(0.44567964136461124446, rel=1e-12)


class TestLocalPd:
    def test_trivial_points(self):
        assert float(local_pd(params(1, 0.0, 5.0))) == 1.0
        assert float(local_pd(params(6, 0.0, 5.0))) == 1.0
        assert local_pd(params(1, 2.0, 99.0)) == pytest.approx(math.exp(-0.01), rel=1e-12)

    @pytest.mark.parametrize("m,lam,g,expected", PD_ORACLE)
    def test_against_mpmath_literal_sums(self, m, lam, g, expected):
        assert local_pd(params(m, lam, g)) == pytest.approx(expected, rel=1e-12)

    def test_gamma_form_equals_literal_sums(self):
        # tolerance absorbs the literal form's own cancellation between the
        # bracketed exponentials, which the gamma form exists to avoid
        for m in (1, 2, 3, 6, 9, 12):
            for lam in (0.0, 0.5, 4.0, 12.0, 40.0):
                for g in (0.5, 1.0, 10.0, 100.0):
                    assert local_pd(params(m, lam, g)) == pytest.approx(
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
        assert local_pd(params(m, lam, g)) == pytest.approx(value, abs=1e-8)


class TestLocalPm:
    def test_trivial_points(self):
        assert float(local_pm(params(1, 0.0, 5.0))) == 0.0
        assert local_pm(params(1, 2.0, 99.0)) == pytest.approx(1.0 - math.exp(-0.01), rel=1e-9)

    def test_complement_identity(self):
        for m, lam, g, _ in PD_ORACLE:
            p = params(m, lam, g)
            assert float(local_pd(p)) + float(local_pm(p)) == pytest.approx(1.0, abs=1e-15)


class TestShapeProperties:
    @pytest.mark.parametrize("m,g", [(1, 100.0), (6, 100.0), (6, 1.0), (12, 10.0)])
    def test_strict_monotonicity_in_threshold(self, m, g):
        lams = [0.1 + 0.6 * i for i in range(100)]
        pf = [float(local_pf(params(m, lam, g))) for lam in lams]
        pd = [float(local_pd(params(m, lam, g))) for lam in lams]
        pm = [float(local_pm(params(m, lam, g))) for lam in lams]
        assert all(b < a for a, b in zip(pf, pf[1:]))
        assert all(b < a for a, b in zip(pd, pd[1:]))
        assert all(b > a for a, b in zip(pm, pm[1:]))

    def test_outputs_bounded(self):
        for m in range(1, 13):
            for lam in (0.0, 1.0, 10.0, 50.0, 100.0):
                for g in (1.0, 10.0, 100.0):
                    p = params(m, lam, g)
                    assert 0.0 <= float(local_pf(p)) <= 1.0
                    assert 0.0 <= float(local_pd(p)) <= 1.0
                    assert 0.0 <= float(local_pm(p)) <= 1.0

    def test_detector_beats_chance(self):
        # detection probability strictly exceeds false alarm whenever lambda > 0;
        # thresholds come from pf inversion so neither side saturates at 1.0
        for m in (1, 2, 6, 12):
            for q in (0.9, 0.5, 0.1, 1e-3):
                for g in (0.5, 1.0, 10.0, 100.0):
                    p = params(m, threshold_for_pf(q, m), g)
                    assert float(local_pd(p)) > float(local_pf(p))


class TestThresholdForPf:
    def test_analytic_inverse_single_sample(self):
        assert threshold_for_pf(math.exp(-1.0), 1) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("q,m,expected", THRESHOLD_ORACLE)
    def test_against_mpmath_bisection(self, q, m, expected):
        assert threshold_for_pf(q, m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 6, 12])
    @pytest.mark.parametrize("q", [1e-9, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9])
    def test_round_trip(self, q, m):
        lam = threshold_for_pf(q, m)
        back = float(local_pf(params(m, lam, 1.0)))
        assert abs(back - q) <= 1e-10
        assert back == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("m", [1, 6, 16])
    def test_array_kernel_equals_the_scalar_function(self, m):
        pf = np.geomspace(1e-12, 0.99, 241)
        lams = _threshold_for_pf(m, pf)
        assert lams.shape == pf.shape
        assert all(lam == threshold_for_pf(q, m) for lam, q in zip(lams.tolist(), pf.tolist()))

    def test_rejects_endpoints(self):
        for bad in (0.0, 1.0, -0.2, 1.3, float("nan")):
            with pytest.raises(ValueError):
                threshold_for_pf(bad, 6)
        with pytest.raises(ValueError):
            threshold_for_pf(0.5, 0)


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
            worst = max(worst, float(abs(float(local_pm(params(m, lam, g))) - ref) / ref))
        assert worst <= 1e-9

    def test_complement_identity_over_the_grid(self):
        for m, snr_db, lam in PM_GRID:
            p = params(m, lam, 10.0 ** (snr_db / 10.0))
            assert float(local_pd(p)) + float(local_pm(p)) == pytest.approx(1.0, abs=1e-15)


class TestArrayKernels:
    def test_kernels_match_the_public_functions_elementwise(self):
        from coopsense.local_sensing import _local_pf, _local_pm

        lams = np.array([0.0, 0.5, 3.0, 12.0, 40.0, 150.0])
        for m in (1, 2, 6, 16):
            for g in (0.3, 10.0, 1000.0):
                pf, pm = _local_pf(m, lams), _local_pm(m, g, lams)
                assert pf.shape == pm.shape == lams.shape
                for i, lam in enumerate(lams):
                    p = params(m, float(lam), g)
                    assert pf[i] == pytest.approx(float(local_pf(p)), rel=1e-15, abs=0.0)
                    assert pm[i] == pytest.approx(float(local_pm(p)), rel=1e-15, abs=0.0)
