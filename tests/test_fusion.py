"""Vote fusion closed forms against the exhaustive enumeration oracle."""
import math

import numpy as np
import pytest

from coopsense.fusion import FusionConfig, fused_qf, fused_qm
from coopsense.local_sensing import SensingParams
from coopsense.reporting import channel_from_snr_db
from coopsense.roc import RocSweep

from enumeration import enumerate_rule

P_GRID = [0.0, 0.1, 0.5, 0.9, 1.0]
PE_GRID = [0.0, 0.05, 0.3, 0.5]


def cfg(k, n):
    return FusionConfig(num_radios_k=k, vote_threshold_n=n)


class TestConfigTypes:
    def test_fusion_config_validation(self):
        with pytest.raises(ValueError):
            cfg(0, 1)
        with pytest.raises(ValueError):
            cfg(4, 0)
        with pytest.raises(ValueError):
            cfg(4, 5)
        with pytest.raises(ValueError):
            FusionConfig(num_radios_k=4.0, vote_threshold_n=1)


class TestTrivialPoints:
    def test_fused_qf(self):
        assert float(fused_qf(cfg(1, 1), 0.2, 0.0)) == pytest.approx(0.2, abs=1e-15)
        assert float(fused_qf(cfg(4, 1), 0.0, 0.0)) == 0.0

    def test_fused_qm(self):
        assert float(fused_qm(cfg(1, 1), 0.3, 0.0)) == pytest.approx(0.3, abs=1e-15)
        assert float(fused_qm(cfg(4, 1), 0.0, 0.0)) == 0.0

    def test_enumerate_rule(self):
        assert float(enumerate_rule(cfg(1, 1), 0.3, 0.1)) == pytest.approx(0.34, abs=1e-15)
        assert float(enumerate_rule(cfg(4, 4), 1.0, 0.0)) == 1.0
        assert float(enumerate_rule(cfg(4, 2), 0.0, 0.0)) == 0.0

    def test_enumerate_rejects_large_networks(self):
        with pytest.raises(ValueError):
            enumerate_rule(cfg(21, 1), 0.1, 0.1)


class TestOracleEquivalence:
    def test_qf_matches_enumeration_everywhere(self):
        worst = 0.0
        for k in range(1, 9):
            for n in range(1, k + 1):
                for p in P_GRID:
                    for pe in PE_GRID:
                        a = float(fused_qf(cfg(k, n), p, pe))
                        b = float(enumerate_rule(cfg(k, n), p, pe))
                        worst = max(worst, abs(a - b))
        assert worst <= 1e-12

    def test_qm_complementary_identity(self):
        # the miss side is one minus the enumeration run with assert probability 1 - pm
        worst = 0.0
        for k in range(1, 9):
            for n in range(1, k + 1):
                for pm in P_GRID:
                    for pe in PE_GRID:
                        a = float(fused_qm(cfg(k, n), pm, pe))
                        b = 1.0 - float(enumerate_rule(cfg(k, n), 1.0 - pm, pe))
                        worst = max(worst, abs(a - b))
        assert worst <= 1e-12

    def test_accepts_pe_above_half_for_oracle_symmetry(self):
        a = float(fused_qf(cfg(5, 2), 0.2, 0.7))
        b = float(enumerate_rule(cfg(5, 2), 0.2, 0.7))
        assert a == pytest.approx(b, abs=1e-14)

    def test_scrambled_channel_erases_the_input(self):
        # pe = 0.5 makes every received bit a coin flip
        reference = float(fused_qf(cfg(4, 2), 0.0, 0.5))
        for p in (0.1, 0.5, 0.9, 1.0):
            assert float(fused_qf(cfg(4, 2), p, 0.5)) == pytest.approx(reference, abs=1e-14)
            assert float(fused_qm(cfg(4, 2), p, 0.5)) == pytest.approx(1.0 - reference, abs=1e-14)


class TestAsymptoticFloors:
    def test_or_and_rule_closed_forms(self):
        pe = 0.0569
        assert fused_qf(cfg(4, 1), 0.0, pe) == pytest.approx(1.0 - (1.0 - pe) ** 4, rel=1e-13)
        assert fused_qf(cfg(4, 4), 0.0, pe) == pytest.approx(pe**4, rel=1e-13)
        assert fused_qm(cfg(4, 1), 0.0, pe) == pytest.approx(pe**4, rel=1e-13)
        assert fused_qm(cfg(4, 4), 0.0, pe) == pytest.approx(1.0 - (1.0 - pe) ** 4, rel=1e-13)

    def test_exactly_equal_to_fused_at_zero(self):
        # the floors a RocSweep prints are the fused errors at pf = 0 and pm = 0; pe is 0.0569 and 0.3085
        sensing = SensingParams(samples_m=6, avg_snr_gamma=100.0)
        for k in (1, 4, 9):
            for channel in (channel_from_snr_db(10.0), channel_from_snr_db(0.0)):
                sweep = RocSweep.of(k, list(range(1, k + 1)), sensing, channel, [12.0])
                for n, qf, qm in zip(sweep.ns, sweep.qf_floor.tolist(), sweep.qm_floor.tolist()):
                    assert qf == float(fused_qf(cfg(k, n), 0.0, sweep.pe))
                    assert qm == float(fused_qm(cfg(k, n), 0.0, sweep.pe))

    def test_limit_consistency(self):
        for k in (2, 4, 8):
            for n in range(1, k + 1):
                for pe in (0.02, 0.1, 0.45):
                    qf = float(fused_qf(cfg(k, n), 1e-12, pe))
                    qm = float(fused_qm(cfg(k, n), 1e-12, pe))
                    assert qf == pytest.approx(float(fused_qf(cfg(k, n), 0.0, pe)), rel=1e-9, abs=1e-9)
                    assert qm == pytest.approx(float(fused_qm(cfg(k, n), 0.0, pe)), rel=1e-9, abs=1e-9)

    def test_floors_strictly_monotone_in_vote_threshold(self):
        for k in range(2, 11):
            for pe in (0.02, 0.1, 0.3, 0.45, 0.49):
                qf_floors = [float(fused_qf(cfg(k, n), 0.0, pe)) for n in range(1, k + 1)]
                qm_floors = [float(fused_qm(cfg(k, n), 0.0, pe)) for n in range(1, k + 1)]
                assert all(b < a for a, b in zip(qf_floors, qf_floors[1:]))
                assert all(b > a for a, b in zip(qm_floors, qm_floors[1:]))

    def test_tiny_floors_keep_relative_accuracy(self):
        # high reporting SNR floors reach 1e-10 and below; log-domain summation
        # must keep them meaningful rather than collapsing to rounding noise
        pe = 2.8665157187919391167e-7  # Q(5), reporting SNR 20 dB
        assert fused_qm(cfg(4, 1), 0.0, pe) == pytest.approx(pe**4, rel=1e-12)
        assert fused_qf(cfg(4, 4), 0.0, pe) == pytest.approx(pe**4, rel=1e-12)


class TestReductions:
    def test_perfect_channel_reduces_to_plain_binomial_tail(self):
        for k in (1, 3, 6):
            for n in range(1, k + 1):
                for p in (0.0, 0.2, 0.5, 0.97, 1.0):
                    direct = math.fsum(
                        math.comb(k, j) * p**j * (1.0 - p) ** (k - j) for j in range(n, k + 1)
                    )
                    assert float(fused_qf(cfg(k, n), p, 0.0)) == pytest.approx(direct, abs=1e-12)

    def test_or_rule_duality(self):
        for k in (1, 4, 7):
            for pf in (0.0, 0.1, 0.6):
                for pe in (0.0, 0.05, 0.3):
                    tilde = pf * (1.0 - pe) + (1.0 - pf) * pe
                    direct = 1.0 - (1.0 - tilde) ** k
                    assert float(fused_qf(cfg(k, 1), pf, pe)) == pytest.approx(direct, abs=1e-12)


def tails_mpmath(k, n, p, pe):
    """(qf, qm) at 60 digits from the exact binomial sums in the post-flip probabilities."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        p, e = mp.mpf(p), mp.mpf(pe)
        hit = p * (1 - e) + (1 - p) * e       # bit counts toward the tail
        other = (1 - p) * (1 - e) + p * e
        # with p = pf the tail counts ones (>= n); with p = pm it counts zeros (>= K-n+1)
        qf = mp.fsum(mp.binomial(k, j) * hit**j * other ** (k - j) for j in range(n, k + 1))
        qm = mp.fsum(mp.binomial(k, j) * hit**j * other ** (k - j) for j in range(k - n + 1, k + 1))
        return qf, qm


class TestArrayKernels:
    def test_kernels_match_the_public_functions_elementwise(self):
        from coopsense.fusion import _fused_qf, _fused_qm

        ps = np.array([0.0, 1e-9, 0.1, 0.5, 0.9, 1.0])
        for k in (1, 4, 9):
            ns = np.arange(1, k + 1)[:, None]
            for pe in (0.0, 1e-7, 0.0569, 0.3, 0.5):
                qf, qm = _fused_qf(k, ns, ps, pe), _fused_qm(k, ns, ps, pe)
                assert qf.shape == qm.shape == (k, ps.size)
                for n in range(1, k + 1):
                    for j, p in enumerate(ps):
                        assert qf[n - 1, j] == float(fused_qf(cfg(k, n), p, pe))
                        assert qm[n - 1, j] == float(fused_qm(cfg(k, n), p, pe))
                    assert _fused_qf(k, n, 0.0, pe) == float(fused_qf(cfg(k, n), 0.0, pe))
                    assert _fused_qm(k, n, 0.0, pe) == float(fused_qm(cfg(k, n), 0.0, pe))

    def test_tails_against_mpmath(self):
        from coopsense.fusion import _fused_qf, _fused_qm

        worst = 0.0
        for k in (4, 8, 32, 200):
            ns = sorted({1, 2, k // 2, k // 2 + 1, k - 1, k})
            for pe in np.geomspace(1e-15, 0.49, 8):
                for p in (0.0, 1e-6, 0.3, 1.0):
                    for n in ns:
                        ref_f, ref_m = tails_mpmath(k, n, p, float(pe))
                        for got, ref in ((_fused_qf(k, n, p, pe), ref_f), (_fused_qm(k, n, p, pe), ref_m)):
                            if ref >= 1e-300:
                                worst = max(worst, float(abs(float(got) - ref) / ref))
        assert worst <= 1e-12
