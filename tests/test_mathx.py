"""Special functions, as the program evaluates them, against independent high-precision oracles."""
import math

import pytest
from scipy import special

from coopsense.local_sensing import local_pf
from coopsense.mathx import db_to_linear, gaussian_q
from coopsense.roc import _log_beta_density


def reg_upper_incomplete_gamma(a, x):
    """Q(a, x) through the local false alarm, the chi-square(2a) tail at 2x (exact doubling).

    A shape that is no sample count, such as 0.5, goes straight to the scipy function local_pf evaluates.
    """
    if float(a).is_integer():
        return float(local_pf(int(a), 2.0 * x))
    return float(special.gammaincc(a, x))


def log_binomial(k, i):
    """log C(k, i) from the beta density, Pr{Bin(k, x) = i} = f(x; i+1, k-i+1) / (k+1), at x = 1/2."""
    return float(_log_beta_density(i + 1.0, k - i + 1.0, 0.5)) - math.log(k + 1) + k * math.log(2.0)


# mpmath.gammainc(a, x, inf, regularized=True) at 50 digits
RG_ORACLE = [
    (1.0, 1.0, 0.3678794411714423216),
    (0.5, 2.0, 0.045500263896358414401),
    (3.0, 0.25, 0.99783850331023748744),
    (6.0, 10.0, 0.067085962879031782286),
    (6.0, 6.0, 0.44567964136461124446),
    (6.0, 25.0, 1.3971121075428600941e-6),
    (12.0, 3.0, 0.9999286133710257934),
    (50.0, 500.0, 2.3060767380353980174e-148),
]

# mpmath.erfc(x/sqrt(2))/2 at 50 digits
Q_ORACLE = [
    (1.0, 0.15865525393145705141),
    (0.5, 0.30853753872598689636),
    (-2.0, 0.9772498680518207928),
    (3.5, 0.00023262907903552503635),
    (8.0, 6.2209605742717841235e-16),
]

# exact big-integer binomial, then mpmath log at 50 digits
LOGC_ORACLE = [
    (30, 7, 14.52639942000037651488),
    (60, 30, 39.31170072601126241631),
    (1000, 3, 18.9285038647140995445),
    (1000, 500, 689.4672615678511800755),
]


class TestDbToLinear:
    def test_db_to_linear(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
        assert db_to_linear(0.0) == 1.0

    def test_db_to_linear_past_the_float_range_is_inf(self):
        assert db_to_linear(4000.0) == math.inf
        assert db_to_linear(-4000.0) == 0.0


class TestRegUpperIncompleteGamma:
    """The regularized upper incomplete gamma function behind every local false alarm."""

    def test_trivial_endpoints(self):
        assert float(reg_upper_incomplete_gamma(1.0, 0.0)) == 1.0
        assert reg_upper_incomplete_gamma(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        # integer shape 1 reduces to a bare exponential
        for x in (0.5, 2.0, 10.0):
            assert reg_upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    @pytest.mark.parametrize("a,x,expected", RG_ORACLE)
    def test_against_mpmath(self, a, x, expected):
        assert reg_upper_incomplete_gamma(a, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 6.0, 20.0, 50.0])
    def test_monotone_nonincreasing_in_x(self, a):
        xs = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0, 150.0, 500.0]
        vals = [reg_upper_incomplete_gamma(a, x) for x in xs]
        assert vals[0] == 1.0
        assert all(b <= a_ for a_, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-30 or a == 50.0  # far tail has decayed

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 12, 30])
    def test_integer_shape_poisson_identity(self, m):
        # Q(m, x) = exp(-x) * sum_{l=0}^{m-1} x^l / l!
        for x in (0.0, 0.3, 1.0, 4.0, 11.0, 40.0):
            direct = math.exp(-x) * math.fsum(x**l / math.factorial(l) for l in range(m))
            assert reg_upper_incomplete_gamma(m, x) == pytest.approx(direct, rel=1e-12, abs=1e-300)


class TestGaussianQ:
    def test_midpoint(self):
        assert float(gaussian_q(0.0)) == 0.5

    @pytest.mark.parametrize("x,expected", Q_ORACLE)
    def test_against_mpmath(self, x, expected):
        assert gaussian_q(x) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        for i in range(-40, 41):
            x = i / 5.0
            assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-14)

    def test_far_tail_stays_positive(self):
        # no premature underflow: still positive at 37, vanishingly small at 40
        assert 0.0 < float(gaussian_q(37.0)) < 1e-299
        assert 0.0 <= float(gaussian_q(40.0)) < 1e-300


class TestLogBinomial:
    """Binomial terms as the certified threshold inversion forms them, through its beta density."""

    def test_trivial_cases(self):
        assert log_binomial(4, 0) == pytest.approx(0.0, abs=1e-14)
        assert log_binomial(4, 4) == pytest.approx(0.0, abs=1e-14)
        assert log_binomial(4, 2) == pytest.approx(math.log(6.0), rel=1e-14)

    @pytest.mark.parametrize("k,i,expected", LOGC_ORACLE)
    def test_against_exact_bigint(self, k, i, expected):
        assert log_binomial(k, i) == pytest.approx(expected, rel=1e-13)

    def test_matches_math_comb_everywhere(self):
        for k in range(0, 61, 5):
            for i in range(0, k + 1):
                exact = math.log(math.comb(k, i)) if math.comb(k, i) > 1 else 0.0
                assert log_binomial(k, i) == pytest.approx(exact, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_binomial_row_sums_to_one(self, k, p):
        # the beta density at p itself, so the endpoints p = 0 and 1 are exercised too
        total = math.fsum(math.exp(_log_beta_density(i + 1.0, k - i + 1.0, p)) / (k + 1) for i in range(k + 1))
        assert total == pytest.approx(1.0, abs=1e-12)
