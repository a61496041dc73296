"""Reporting link: derived error probability, flip algebra, and simulated bit errors."""
import math

import numpy as np
import pytest

from coopsense.fusion import FusionConfig, fused_qf
from coopsense.mathx import gaussian_q
from coopsense.reporting import ReportChannel, channel_from_snr_db, flip_composition

# mpmath erfc oracle values
PE_SIGMA2_1 = 0.30853753872598689636     # Q(0.5)
PE_SIGMA2_025 = 0.15865525393145705141   # Q(1)
PE_SNR10 = 0.056923149003329025139       # Q(0.5*sqrt(10))


class TestReportChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReportChannel(noise_var_sigma2=-0.1)
        with pytest.raises(ValueError):
            ReportChannel(noise_var_sigma2=float("nan"))
        with pytest.raises(ValueError):
            ReportChannel(noise_var_sigma2=float("inf"))

    def test_pe_is_derived_from_variance(self):
        # below sigma^2 ~ (0.5/37)^2 the tail underflows double precision,
        # so the strictly-positive range starts where the value is representable
        for s2 in (3e-4, 0.01, 0.25, 1.0, 4.0, 10.0):
            ch = ReportChannel(noise_var_sigma2=s2)
            assert float(ch.pe) == float(gaussian_q(0.5 / math.sqrt(s2)))
            assert 0.0 < float(ch.pe) < 0.5

    def test_pe_underflows_to_zero_for_vanishing_noise(self):
        assert float(ReportChannel(noise_var_sigma2=1e-4).pe) == 0.0

    def test_perfect_channel_is_exactly_error_free(self):
        assert float(ReportChannel(noise_var_sigma2=0.0).pe) == 0.0

    def test_error_probability_frozen_values(self):
        assert ReportChannel(1.0).pe == pytest.approx(PE_SIGMA2_1, rel=1e-12)
        assert ReportChannel(0.25).pe == pytest.approx(PE_SIGMA2_025, rel=1e-12)

    def test_error_probability_increases_with_noise(self):
        grid = np.geomspace(3e-4, 10.0, 50)
        pes = [float(ReportChannel(float(s2)).pe) for s2 in grid]
        assert all(b > a for a, b in zip(pes, pes[1:]))


class TestChannelFromSnrDb:
    def test_zero_db(self):
        ch = channel_from_snr_db(0.0)
        assert ch.noise_var_sigma2 == 1.0
        assert float(ch.pe) == pytest.approx(PE_SIGMA2_1, rel=1e-12)

    def test_ten_db(self):
        ch = channel_from_snr_db(10.0)
        assert ch.noise_var_sigma2 == pytest.approx(0.1, rel=1e-15)
        assert float(ch.pe) == pytest.approx(PE_SNR10, rel=1e-12)

    def test_effectively_perfect_at_200_db(self):
        pe = float(channel_from_snr_db(200.0).pe)
        assert 0.0 <= pe < 1e-300

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            channel_from_snr_db(float("inf"))

    def test_rejects_a_noise_variance_past_the_float_range(self):
        with pytest.raises(ValueError, match="noise_var_sigma2 must be finite and >= 0, got inf"):
            channel_from_snr_db(-4000.0)


class TestFlipComposition:
    """The probability of a received 1 when the radio asserts 1 with probability p, as fusion and roc form it."""

    def test_trivial_points(self):
        assert flip_composition(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
        for pe in (0.0, 0.1, 0.5):
            assert flip_composition(0.5, pe) == pytest.approx(0.5, abs=1e-15)
        assert flip_composition(0.1, 0.05) == pytest.approx(0.14, abs=1e-15)

    def test_affine_with_contracting_slope(self):
        for pe in (0.0, 0.02, 0.2, 0.49):
            slope = 1.0 - 2.0 * pe
            for p, q in ((0.0, 1.0), (0.1, 0.7), (0.25, 0.4)):
                lhs = flip_composition(q, pe) - flip_composition(p, pe)
                assert lhs == pytest.approx(slope * (q - p), abs=1e-14)

    def test_repeated_flips_contract_toward_half(self):
        for p in (0.0, 0.1, 0.3, 0.9):
            for pe in (0.05, 0.2, 0.45):
                once = flip_composition(p, pe)
                twice = flip_composition(once, pe)
                assert abs(twice - 0.5) <= abs(once - 0.5) + 1e-15
                assert abs(once - 0.5) <= abs(p - 0.5) + 1e-15

    def test_rejects_out_of_range(self):
        # the flip is formed only from probabilities validated at the public boundary
        one_radio = FusionConfig(num_radios_k=1, vote_threshold_n=1)
        with pytest.raises(ValueError):
            fused_qf(one_radio, 1.2, 0.1)
        with pytest.raises(ValueError):
            fused_qf(one_radio, 0.5, -0.1)


class TestSimulatedBitErrors:
    @pytest.mark.parametrize("sigma2,seed", [(1.0, 11), (0.1, 12), (0.01, 13)])
    def test_error_rate_matches_gaussian_tail(self, sigma2, seed):
        # independent route: raw numpy transmissions with a midpoint slicer
        n = 10_000_000
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n)
        received = (bits + rng.normal(0.0, math.sqrt(sigma2), n)) >= 0.5
        pe = float(ReportChannel(sigma2).pe)
        band = 4.0 * math.sqrt(pe * (1.0 - pe) / n)
        err = float(np.mean(received != bits))
        assert abs(err - pe) <= band

        # both flip directions are equally likely under the midpoint slicer
        ones = bits == 1
        err_one = float(np.mean(received[ones] != bits[ones]))
        err_zero = float(np.mean(received[~ones] != bits[~ones]))
        band_side = 4.0 * math.sqrt(pe * (1.0 - pe) / (n / 2))
        assert abs(err_one - pe) <= band_side
        assert abs(err_zero - pe) <= band_side
