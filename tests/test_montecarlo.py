"""End-to-end chain simulation: determinism, distributional sanity, closed-form agreement."""
import math
import tracemalloc

import numpy as np
import pytest

from coopsense.fusion import FusionConfig, fused_qf, fused_qm
from coopsense.local_sensing import SensingParams, local_pf, local_pm
import coopsense.montecarlo as mc
from coopsense.montecarlo import SimScenario, run_grid
from coopsense.reporting import ReportChannel, channel_from_snr_db


def scenario(k=4, n=2, m=6, gbar=100.0, snr_r_db=10.0, trials=100_000, seed=321, perfect=False):
    return SimScenario(
        sensing=SensingParams(samples_m=m, avg_snr_gamma=gbar),
        channel=ReportChannel(noise_var_sigma2=0.0) if perfect else channel_from_snr_db(snr_r_db),
        fusion=FusionConfig(num_radios_k=k, vote_threshold_n=n),
        trials=trials,
        seed=seed,
    )


def cell(grid, ni, li):
    """The (rule ni, threshold li) cell of a ``run_grid`` result: every field at that cell, as scalars."""
    return grid._make(v[ni, li] if v.ndim == 2 else v[li] for v in grid)


def run_sim(scenario, lam=12.0, workers=1):
    """The one-cell grid of threshold ``lam`` and the scenario's own rule."""
    grid = run_grid(scenario, [lam], [scenario.fusion.vote_threshold_n], workers=workers)
    return cell(grid, 0, 0)


def bits(grid):
    """Each field of a ``run_grid`` result as bytes, for bit-for-bit comparison."""
    return [(v.dtype, v.shape, v.tobytes()) for v in grid]


def row_reduced_energy_statistic(z, amp):
    """Oracle: the energy statistic as numpy's row reduction, whose bits the kernel must keep."""
    m = z.shape[1] // 2
    x = z[:, :m]
    y = z[:, m:]
    return ((x + amp[:, None]) ** 2).sum(axis=1) + (y * y).sum(axis=1)


def idle_energy_statistic(m, trials, seed):
    """Raw energy statistics of one radio on an idle band, chi-square(2M), for distributional checks."""
    z = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((trials, 2 * m))
    return mc._energy_statistic(z, np.zeros(trials))


def within_4se(estimate, truth, stderr):
    if stderr == 0.0:
        return estimate == truth
    return abs(estimate - truth) <= 4.0 * stderr


class TestValidation:
    def test_scenario_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            scenario(trials=0)
        with pytest.raises(ValueError):
            scenario(seed=-1)
        with pytest.raises(ValueError):
            scenario(seed=2**64)

    def test_grid_rejects_bad_axes(self):
        s = scenario(trials=100)
        with pytest.raises(ValueError):
            run_grid(s, [], [1])
        with pytest.raises(ValueError):
            run_grid(s, [2.0, 1.0], [1])
        with pytest.raises(ValueError):
            run_grid(s, [1.0], [0])
        with pytest.raises(ValueError):
            run_grid(s, [1.0], [2, 2])
        with pytest.raises(ValueError):
            run_grid(s, [1.0, 1.0], [2])
        for lambdas in ([-1.0], [np.inf]):
            with pytest.raises(ValueError, match="lambdas must be finite and >= 0"):
                run_grid(s, lambdas, [2])
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_grid(s, [1.0], [2], workers=0)


class TestDeterminism:
    def test_identical_scenario_is_bit_identical(self):
        a = run_sim(scenario(trials=30_000, seed=99))
        b = run_sim(scenario(trials=30_000, seed=99))
        assert a == b

    def test_independent_of_worker_count(self):
        a = run_sim(scenario(trials=70_000, seed=5), workers=1)
        b = run_sim(scenario(trials=70_000, seed=5), workers=4)
        assert a == b

    def test_sweep_entries_match_standalone_runs(self):
        base = scenario(trials=40_000, seed=17)
        lambdas = [6.0, 12.0, 20.0]
        grid = run_grid(base, lambdas, [2])
        for li, lam in enumerate(lambdas):
            single = run_sim(scenario(trials=40_000, seed=17), lam)
            assert cell(grid, 0, li) == single

    def test_grid_cells_match_standalone_runs(self):
        base = scenario(trials=40_000, seed=23)
        grid = run_grid(base, [8.0, 16.0], [1, 3])
        for li, lam in enumerate([8.0, 16.0]):
            for ni, n in enumerate([1, 3]):
                single = run_sim(scenario(trials=40_000, seed=23, n=n), lam)
                assert cell(grid, ni, li) == single

    def test_seed_changes_the_draws(self):
        a = run_sim(scenario(trials=30_000, seed=1))
        b = run_sim(scenario(trials=30_000, seed=2))
        assert a != b


class TestDegenerateCases:
    def test_zero_threshold_perfect_reports(self):
        # every radio always asserts and every report arrives intact
        res = run_sim(scenario(perfect=True, trials=20_000, seed=3), lam=0.0)
        assert float(res.qf_hat) == 1.0
        assert float(res.qm_hat) == 0.0
        assert float(res.report_error_rate_hat) == 0.0

    def test_single_trial_is_well_formed(self):
        res = run_sim(scenario(trials=1, seed=8))
        assert res.trials_h0 + res.trials_h1 == 1
        assert 0.0 <= float(res.qf_hat) <= 1.0
        assert 0.0 <= float(res.qm_hat) <= 1.0


class TestDistributionalSanity:
    def test_idle_statistic_is_chi_square_2m(self):
        m = 6
        n_samples = 400_000
        t = idle_energy_statistic(m, n_samples, seed=77)
        dof = 2 * m
        mean_se = math.sqrt(2.0 * dof / n_samples)
        assert abs(float(t.mean()) - dof) <= 4.0 * mean_se
        # Var(s^2) ~ (mu4 - sigma^4)/N with mu4 = (3 + 12/dof) * (2*dof)^2
        mu4 = (3.0 + 12.0 / dof) * (2.0 * dof) ** 2
        var_se = math.sqrt((mu4 - (2.0 * dof) ** 2) / n_samples)
        assert abs(float(t.var(ddof=1)) - 2.0 * dof) <= 4.0 * var_se

    def test_report_error_rate_matches_channel(self):
        res = run_sim(scenario(trials=400_000, seed=31))
        pe = float(channel_from_snr_db(10.0).pe)
        n_bits = 4 * 400_000
        assert abs(float(res.report_error_rate_hat) - pe) <= 4.0 * math.sqrt(pe * (1 - pe) / n_bits)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("channel", [ReportChannel(noise_var_sigma2=0.0), channel_from_snr_db(200.0)],
                             ids=["perfect", "snr_r_200dB"])
    def test_single_radio_clean_chain_matches_false_alarm_tail(self, channel):
        base = scenario(k=1, n=1, trials=1_000_000, seed=41)
        res = run_sim(SimScenario(sensing=base.sensing, channel=channel, fusion=base.fusion,
                                  trials=base.trials, seed=base.seed), lam=12.0)
        pf = float(local_pf(base.sensing.samples_m, 12.0))
        assert within_4se(float(res.qf_hat), pf, res.qf_stderr)

    @pytest.mark.parametrize("m,lam,gbar,seed", [
        (6, 12.0, 100.0, 101),   # 20 dB average SNR operating point
        (1, 2.0, 99.0, 102),
        (2, 5.0, 10.0, 103),
        (12, 30.0, 10.0, 104),
        (6, 4.0, 1.0, 105),
    ])
    def test_local_rates_match_closed_forms(self, m, lam, gbar, seed):
        res = run_sim(scenario(k=1, n=1, m=m, gbar=gbar, trials=1_000_000, seed=seed), lam)
        pf, pm = float(local_pf(m, lam)), float(local_pm(m, gbar, lam))
        se_f = math.sqrt(pf * (1 - pf) / res.trials_h0)
        se_m = math.sqrt(pm * (1 - pm) / res.trials_h1)
        assert abs(float(res.pf_hat) - pf) <= 4.0 * max(se_f, 1e-12)
        assert abs(float(res.pm_hat) - pm) <= 4.0 * max(se_m, 1e-12)

    def test_fused_point_matches_closed_forms(self):
        res = run_sim(scenario(trials=300_000, seed=51))
        cfg = FusionConfig(num_radios_k=4, vote_threshold_n=2)
        pe = channel_from_snr_db(10.0).pe
        qf = float(fused_qf(cfg, local_pf(6, 12.0), pe))
        qm = float(fused_qm(cfg, local_pm(6, 100.0, 12.0), pe))
        assert within_4se(float(res.qf_hat), qf, res.qf_stderr)
        assert within_4se(float(res.qm_hat), qm, res.qm_stderr)


class TestCommonRandomNumbers:
    def test_sweep_false_alarms_are_monotone_per_realization(self):
        # shared draws and nested decision regions force monotone empirical curves
        base = scenario(trials=50_000, seed=61)
        grid = run_grid(base, [4.0, 8.0, 12.0, 16.0, 24.0], [2])
        qf = grid.qf_hat[0].tolist()
        qm = grid.qm_hat[0].tolist()
        assert all(b <= a for a, b in zip(qf, qf[1:]))
        assert all(b >= a for a, b in zip(qm, qm[1:]))

    def test_twenty_point_sweep_tracks_the_analytic_curve(self):
        from coopsense.local_sensing import threshold_for_pf
        from coopsense.roc import RocSweep

        lambdas = sorted(threshold_for_pf(6, float(q)) for q in np.geomspace(1e-4, 0.95, 20))
        base = scenario(trials=200_000, seed=87)
        grid = run_grid(base, lambdas, [2])
        curve = RocSweep.of(4, [2], base.sensing, base.channel, np.array(lambdas)).fused(2, slice(None))
        for li, (qf, qm) in enumerate(zip(*curve)):
            res = cell(grid, 0, li)
            se_f = math.sqrt(float(qf) * (1.0 - float(qf)) / res.trials_h0)
            se_m = math.sqrt(float(qm) * (1.0 - float(qm)) / res.trials_h1)
            assert abs(float(res.qf_hat) - float(qf)) <= 4.0 * se_f
            assert abs(float(res.qm_hat) - float(qm)) <= 4.0 * se_m


def slicing_tallies(t, w, active, lambdas, n_values):
    """Oracle: the seven chunk tallies by slicing every threshold and every rule on its own.

    ``t`` and ``w`` hold one row per radio. Each received bit is d + w sliced
    at 0.5 with ties reading as 1, where d = t >= lambda is the local decision.
    """
    idle = ~active
    n_h1 = int(active.sum())
    n_lam = len(lambdas)
    ones = np.zeros((n_lam, active.size), dtype=np.int32)
    assert_h0, silent_h1, flips = ([0] * n_lam for _ in range(3))
    for t_radio, w_radio in zip(t, w):
        for li, lam in enumerate(lambdas):
            d = t_radio >= lam
            received = w_radio >= (0.5 - d)
            ones[li] += received
            flips[li] += int((received != d).sum())
            assert_h0[li] += int(d[idle].sum())
            silent_h1[li] += int((~d)[active].sum())
    false_alarms = [[int((ones[li] >= n)[idle].sum()) for li in range(n_lam)] for n in n_values]
    misses = [[int((ones[li] < n)[active].sum()) for li in range(n_lam)] for n in n_values]
    return active.size - n_h1, n_h1, assert_h0, silent_h1, flips, false_alarms, misses


def counted_tallies(t, w, active, lambdas, n_values):
    got = mc._tallies(zip(t, w), active, lambdas, n_values)
    return tuple(v.tolist() if isinstance(v, np.ndarray) else v for v in got)


class TestTallies:
    """The counting tallies against the slicing oracle on hand-built arrays."""

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_random_draws_with_ties(self, k):
        rng = np.random.default_rng(k)
        lambdas = [0.0, 2.0, 5.0, 7.5, 11.0]
        count = 300
        # statistics drawn from the thresholds themselves hit t == lambda often
        t = np.where(rng.random((k, count)) < 0.3,
                     rng.choice(lambdas, (k, count)), rng.uniform(0.0, 13.0, (k, count)))
        w = np.where(rng.random((k, count)) < 0.3,
                     rng.choice([-0.5, 0.5], (k, count)), rng.normal(0.0, 0.6, (k, count)))
        active = rng.random(count) < 0.5
        for n_values in (list(range(1, k + 1)), [k], [1, k] if k > 1 else [1]):
            assert counted_tallies(t, w, active, lambdas, n_values) == \
                slicing_tallies(t, w, active, lambdas, n_values)

    def test_exact_ties_at_every_boundary(self):
        lambdas = [0.0, 1.0, 2.0]
        t = np.array([[0.0, 1.0, 2.0, 0.5, 2.0, 1.0, 0.0, 3.0],
                      [2.0, 0.0, 1.0, 1.0, 0.0, 2.0, 1.5, 1.0],
                      [1.0, 2.0, 0.0, 2.0, 1.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.0]])
        w = np.array([[0.5, -0.5, 0.0, -0.0, 0.5, -0.5, 0.49, -0.51],
                      [-0.5, 0.5, 0.5, -0.5, 0.0, 0.0, -0.5, 0.5],
                      [0.0, -0.0, -0.5, 0.5, -0.5, 0.5, 0.0, 0.0],
                      [0.5, 0.5, -0.5, -0.5, 0.5, -0.5, 0.5, -0.5]])
        active = np.array([True, False, True, False, False, True, True, False])
        expected = slicing_tallies(t, w, active, lambdas, [1, 2, 3, 4])
        assert counted_tallies(t, w, active, lambdas, [1, 2, 3, 4]) == expected
        # at lambda = 0 every radio decides 1; w == -0.5 still reads 1, only w = -0.51 flips
        assert expected[4][0] == 1

    def test_perfect_channel_passes_every_decision(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 10.0, (5, 200))
        w = rng.standard_normal((5, 200)) * 0.0   # sigma = 0 gives +0.0 and -0.0
        active = rng.random(200) < 0.5
        got = counted_tallies(t, w, active, [0.0, 4.0, 9.0], [1, 3, 5])
        assert got == slicing_tallies(t, w, active, [0.0, 4.0, 9.0], [1, 3, 5])
        assert got[4] == [0, 0, 0]
        # lambda = 0 asserts on every idle trial of every radio
        assert got[2][0] == 5 * got[0]

    @pytest.mark.parametrize("active", [True, False])
    def test_single_trial(self, active):
        t = np.array([[3.0], [1.0], [2.0], [2.0]])
        w = np.array([[0.1], [0.7], [-0.9], [0.5]])
        act = np.array([active])
        for n_values in ([1, 2, 3, 4], [2], [3, 4]):
            assert counted_tallies(t, w, act, [1.0, 2.0, 3.0], n_values) == \
                slicing_tallies(t, w, act, [1.0, 2.0, 3.0], n_values)

    def test_more_thresholds_than_a_byte_holds(self):
        rng = np.random.default_rng(9)
        lambdas = [float(v) for v in range(300)]
        t = rng.uniform(0.0, 310.0, (3, 400)).round()
        w = rng.normal(0.0, 0.5, (3, 400))
        active = rng.random(400) < 0.5
        assert counted_tallies(t, w, active, lambdas, [1, 2, 3]) == \
            slicing_tallies(t, w, active, lambdas, [1, 2, 3])


class _SerialPool:
    """Stands in for ThreadPoolExecutor, starting no thread.

    Records each pool's max_workers and the peak number of submitted chunks whose
    result has not been collected yet. A chunk runs when its result is asked for.
    """

    sizes: list = []
    submitted = 0
    peak = 0

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.in_flight = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        pool = self
        pool.in_flight += 1
        _SerialPool.submitted += 1
        _SerialPool.peak = max(_SerialPool.peak, pool.in_flight)

        class Future:
            def result(self):
                pool.in_flight -= 1
                return fn(*args)

        return Future()


class TestWorkerCap:
    @pytest.mark.parametrize("workers,trials,cores,expected", [
        (64, 3 * 16384, 8, 3),     # capped by the chunk count
        (64, 5 * 16384, 4, 4),     # capped by the cores
        (3, 5 * 16384, 8, 3),      # as asked
        (64, 100, 8, None),        # one chunk runs inline, without a pool
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, trials, cores, expected):
        monkeypatch.setattr(mc, "ThreadPoolExecutor", _SerialPool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cores)
        _SerialPool.sizes = []
        s = scenario(trials=trials, seed=13)
        result = run_grid(s, [10.0], [2], workers=workers)
        assert _SerialPool.sizes == ([] if expected is None else [expected])
        assert bits(result) == bits(run_grid(s, [10.0], [2], workers=1))


class TestStreaming:
    def test_chunks_in_flight_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(mc, "ThreadPoolExecutor", _SerialPool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(mc, "CHUNK_TRIALS", 64)
        _SerialPool.sizes, _SerialPool.submitted, _SerialPool.peak = [], 0, 0
        s = scenario(k=2, n=1, m=1, trials=64 * 40 + 5, seed=29)
        result = run_grid(s, [1.0, 4.0], [1, 2], workers=3)
        assert _SerialPool.sizes == [3]
        assert _SerialPool.submitted == 41
        assert _SerialPool.peak == 2 * 3
        assert bits(result) == bits(run_grid(s, [1.0, 4.0], [1, 2], workers=1))


class TestEnergyStatistic:
    """The kernel against numpy's row reduction, bit for bit, on both of its paths."""

    # column sums below 8 terms; the row reduction with eight accumulators, split once and again
    M_VALUES = [*range(1, 141), 150, 257, 2048]

    @pytest.mark.parametrize("active", [False, True], ids=["idle", "active"])
    @pytest.mark.parametrize("rows,height", [(37, 37), (5, 9), (1, 1)], ids=["full", "ragged", "one-row"])
    def test_matches_the_row_reduction_bit_for_bit(self, active, rows, height):
        rng = np.random.default_rng(rows + active)
        for m in self.M_VALUES:
            # a ragged last block is the first rows of a taller block buffer
            z = rng.standard_normal((height, 2 * m))[:rows]
            amp = np.where(rng.random(rows) < 0.5, rng.uniform(0.0, 3.0, rows), 0.0) if active \
                else np.zeros(rows)
            got = mc._energy_statistic(z, amp)
            assert got.tobytes() == row_reduced_energy_statistic(z, amp).tobytes(), m


class TestBlocking:
    """Drawing the sensing samples a block of rows at a time changes no bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 33])
    @pytest.mark.parametrize("count,rows", [(1, 1), (5, 1), (64, 7), (100, 100), (100, 250), (4099, 512)])
    def test_blocked_draws_equal_one_shot_draws(self, monkeypatch, m, count, rows):
        blocks = []
        energy = mc._energy_statistic

        def recording(z, amp):
            blocks.append(z.copy())
            return energy(z, amp)

        monkeypatch.setattr(mc, "_energy_statistic", recording)
        amp = np.random.default_rng(m).uniform(0.0, 3.0, count)
        t = mc._sensed_energy(mc._rng(7, 2, 5), amp, np.empty((min(rows, count), 2 * m)))
        z = mc._rng(7, 2, 5).standard_normal((count, 2 * m))
        assert [len(b) for b in blocks] == [min(rows, count - s) for s in range(0, count, rows)]
        assert np.array_equal(np.concatenate(blocks), z)
        assert np.array_equal(t, energy(z, amp))
        assert t.tobytes() == row_reduced_energy_statistic(z, amp).tobytes()

    @pytest.mark.parametrize("m,count,heights", [
        (6, 16384, [5462] * 2 + [5460]),      # not 5461 x 3 and a runt of one row
        (16, 16384, [2048] * 8),
        (100, 16384, [328] * 49 + [312]),
        (1, 16384, [16384]),                  # 32 768 values fit one block
        (3, 77, [77]),
        (40000, 3, [1] * 3),                  # one row already holds more than a block
    ])
    def test_block_heights(self, monkeypatch, m, count, heights):
        got = []
        energy = mc._energy_statistic

        def recording(z, amp):
            got.append(len(z))
            return energy(z, amp)

        monkeypatch.setattr(mc, "_energy_statistic", recording)
        s = scenario(k=1, n=1, m=m, trials=count, seed=53)
        mc._chunk_tallies(s, [2.0 * m], [1], 0, count)
        assert got == heights
        assert len(got) <= -(-count * 2 * m // mc._BLOCK_VALUES)
        assert max(got) * 2 * m <= mc._BLOCK_VALUES + 2 * m

    @pytest.mark.parametrize("m", [1, 16])
    @pytest.mark.parametrize("trials", [1, mc.CHUNK_TRIALS + 77])
    @pytest.mark.parametrize("block_values", [
        1,          # below 2M: one row per block
        1000,       # 497 and 32 rows in a full chunk; the 77-trial one is ragged at M = 16
        1 << 30,    # more rows than a chunk holds: one block per chunk
    ])
    def test_grid_equals_the_default_blocking(self, monkeypatch, m, trials, block_values):
        s = scenario(k=2, n=1, m=m, trials=trials, seed=47)
        lambdas, n_values = [1.5 * m, 2.0 * m, 3.0 * m], [1, 2]
        default = bits(run_grid(s, lambdas, n_values))
        monkeypatch.setattr(mc, "_BLOCK_VALUES", block_values)
        assert bits(run_grid(s, lambdas, n_values)) == default


class TestMemoryBound:
    def test_chunk_working_set_does_not_grow_with_m(self):
        m, count = 2048, 2048
        bound = 4 << 20
        one_shot = count * 2 * m * 8      # bytes of the whole (count, 2M) sample matrix
        assert one_shot > 10 * bound
        s = scenario(k=1, n=1, m=m, trials=count, seed=43)
        tracemalloc.start()
        try:
            mc._chunk_tallies(s, [2.0 * m], [1], 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
