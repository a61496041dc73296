"""ROC curves, crossovers, and adaptive rule selection against brute-force scans."""
import math
import warnings

import numpy as np
import pytest

from coopsense.cli import _lambda_values
from coopsense.fusion import FusionConfig, _fused_qm, fused_qf, fused_qm
from coopsense.local_sensing import SensingParams, _local_pm, local_pf, local_pm, threshold_for_pf
from coopsense.montecarlo import SimScenario, run_grid
from coopsense.reporting import ReportChannel, channel_from_snr_db
from coopsense.roc import (
    InfeasibleTargetError,
    RocSweep,
    crossover_table,
    optimal_n,
)

SENSING = SensingParams(samples_m=6, avg_snr_gamma=100.0)
CH10 = channel_from_snr_db(10.0)
CH5 = channel_from_snr_db(5.0)


def rule(k, n):
    return FusionConfig(num_radios_k=k, vote_threshold_n=n)


def pf_spaced_grid(points, lo=1e-9, hi=1.0 - 1e-9, m=6):
    pf_values = np.geomspace(lo, hi, points)
    return sorted(threshold_for_pf(float(q), m) for q in pf_values)


def curve(n, channel, lambdas, k=4):
    """Rule n's ROC over the thresholds: (lambdas, qf, qm, qf_floor, qm_floor), read from a RocSweep."""
    lambdas = np.asarray(lambdas, dtype=float)
    sweep = RocSweep.of(k, [n], SENSING, channel, lambdas)
    return (lambdas, *sweep.fused(n, slice(None)), sweep.qf_floor[0], sweep.qm_floor[0])


def check_roc_invariants(lambdas, qf, qm, qf_floor, qm_floor):
    """Strictly increasing lambda; qf nonincreasing and qm nondecreasing along the sweep, and
    neither below its reporting-error floor, each to within 1e-12."""
    assert np.all(lambdas[1:] > lambdas[:-1]), "lambda must be strictly increasing"
    assert np.all(qf[1:] <= qf[:-1] + 1e-12), "qf must be nonincreasing along the sweep"
    assert np.all(qm[1:] >= qm[:-1] - 1e-12), "qm must be nondecreasing along the sweep"
    assert np.all(qf >= qf_floor - 1e-12), "qf fell below its asymptotic floor"
    assert np.all(qm >= qm_floor - 1e-12), "qm fell below its asymptotic floor"


def qf_at_qm(qms, qfs, qm):
    """Linearly interpolated qf of a curve at a miss level inside its swept range."""
    if qm < qms[0] or qm > qms[-1]:
        raise ValueError(f"qm={qm!r} is outside the curve's swept range [{qms[0]}, {qms[-1]}]")
    return float(np.interp(qm, qms, qfs))


def operating_point(fusion, channel, lam):
    """Fused (qf, qm) of one rule at one threshold, from the scalar closed forms."""
    return fused_qf(fusion, local_pf(SENSING, lam), channel.pe), fused_qm(fusion, local_pm(SENSING, lam), channel.pe)


def scan_qf_qm(fusion, channel, lambdas):
    pe = channel.pe
    qf, qm = [], []
    for lam in lambdas:
        qf.append(float(fused_qf(fusion, local_pf(SENSING, lam), pe)))
        qm.append(float(fused_qm(fusion, local_pm(SENSING, lam), pe)))
    return np.array(qf), np.array(qm)


class TestRocCurve:
    def test_analytic_curve_satisfies_invariants(self):
        grid = pf_spaced_grid(80)
        for n in (1, 2, 3, 4):
            lambdas, *columns = curve(n, CH10, grid)
            assert len(lambdas) == 80
            check_roc_invariants(lambdas, *columns)

    @pytest.mark.parametrize("channel", [channel_from_snr_db(10.0), ReportChannel(noise_var_sigma2=0.0)],
                             ids=["noisy", "perfect"])
    def test_k64_golden_grids_satisfy_invariants(self, channel):
        # every rule of the K = 64 golden roc sweeps in tests/test_cli.py, at their thresholds
        sensing = SensingParams(samples_m=6, avg_snr_gamma=10.0)
        lambdas = _lambda_values({"pf_grid": "1e-9:0.99:60"}, 6)
        sweep = RocSweep.of(64, list(range(1, 65)), sensing, channel, lambdas)
        for r, n in enumerate(sweep.ns):
            check_roc_invariants(lambdas, *sweep.fused(n, slice(None)), sweep.qf_floor[r], sweep.qm_floor[r])

    def test_sweep_rejects_rules_outside_k_and_bad_thresholds(self):
        for ns, lambdas in (([0, 2], [1.0]), ([5], [1.0]), ([1.5], [10.0]), ([1], [-1.0]), ([1], [1.0, np.inf]),
                            ([1], [np.nan])):
            with pytest.raises(ValueError):
                RocSweep.of(4, ns, SENSING, CH10, lambdas)

    def test_invalid_point_sequences_are_rejected(self):
        lambdas, qf, qm, qf_floor, qm_floor = curve(2, CH10, pf_spaced_grid(10))
        with pytest.raises(AssertionError):
            check_roc_invariants(lambdas[::-1], qf[::-1], qm[::-1], qf_floor, qm_floor)
        # after point 1 comes point 1 again, with the qf of point 0: qf rises
        shuffled = [np.insert(v[1:], 1, v[i]) for v, i in ((lambdas, 1), (qf, 0), (qm, 1))]
        with pytest.raises(AssertionError):
            check_roc_invariants(*shuffled, qf_floor, qm_floor)

    def test_single_radio_perfect_channel_reduces_to_local_curve(self):
        grid = pf_spaced_grid(40)
        for lam, qf, qm in zip(*curve(1, ReportChannel(noise_var_sigma2=0.0), grid, k=1)[:3]):
            assert float(qf) == pytest.approx(float(local_pf(SENSING, lam)), abs=1e-14)
            assert float(qm) == pytest.approx(float(local_pm(SENSING, lam)), abs=1e-14)

    def test_tail_approaches_false_alarm_floor(self):
        grid = pf_spaced_grid(40, lo=1e-12)
        for channel in (CH10, CH5):
            for n in (1, 2, 3, 4):
                _, qf, _, qf_floor, _ = curve(n, channel, grid)
                assert qf[-1] == pytest.approx(float(qf_floor), rel=1e-9, abs=1e-9)

    def test_interpolated_lookup(self):
        _, qfs, qms, _, _ = curve(1, CH10, pf_spaced_grid(200))
        mid = 0.5 * (qms[10] + qms[11])
        val = qf_at_qm(qms, qfs, mid)
        assert qfs[11] <= val <= qfs[10]
        with pytest.raises(ValueError):
            qf_at_qm(qms, qfs, -1.0)


class TestPerfectChannelDominance:
    def test_or_rule_dominates_at_every_miss_level(self):
        grid = pf_spaced_grid(600, lo=1e-10)
        curves = [curve(n, ReportChannel(noise_var_sigma2=0.0), grid)[1:3] for n in (1, 2, 3, 4)]
        lo = max(qms[0] for _, qms in curves)
        hi = min(qms[-1] for _, qms in curves)
        for qm in np.geomspace(max(lo, 1e-6), hi * 0.999, 50):
            best = qf_at_qm(curves[0][1], curves[0][0], float(qm))
            for qfs, qms in curves[1:]:
                assert best <= qf_at_qm(qms, qfs, float(qm)) + 1e-6


def qm_stars(k, channel):
    """The crossover table's entries for rules 1..k-1: a crossing, inf where rule n dominates, or
    rule n+1's miss floor where that rule does."""
    return crossover_table(k, SENSING, channel)


class TestQmStar:
    def test_crossovers_exist_and_grow_with_n(self):
        entries = qm_stars(4, CH10)
        stars = [entries[n] for n in (1, 2, 3)]
        floors = [float(fused_qm(rule(4, n + 1), 0.0, CH10.pe)) for n in (1, 2, 3)]
        assert all(floor < s < 1.0 for s, floor in zip(stars, floors))  # crossings: no rule dominates
        assert stars[0] < stars[1] < stars[2]

    def test_against_dense_grid_scan(self):
        # independent route: sample both curves on a dense threshold grid and
        # bracket the sign change of the false-alarm gap at matched miss levels
        lambdas = pf_spaced_grid(10_000, lo=1e-10)
        qf1, qm1 = scan_qf_qm(rule(4, 1), CH10, lambdas)
        qf2, qm2 = scan_qf_qm(rule(4, 2), CH10, lambdas)
        gap = qf2 - np.interp(qm2, qm1, qf1)
        usable = (qm2 > qm1[0]) & (qm2 < qm1[-1])
        signs = np.sign(gap[usable])
        flips = np.nonzero(np.diff(signs) < 0)[0]
        assert len(flips) >= 1
        qm_grid = qm2[usable]
        bracket_lo, bracket_hi = qm_grid[flips[0]], qm_grid[flips[0] + 1]
        star = qm_stars(4, CH10)[1]
        assert bracket_lo <= star <= bracket_hi

    def test_crossover_balances_false_alarms(self):
        star = qm_stars(4, CH10)[2]
        # at the crossover both rules achieve the same false alarm at equal miss
        lam2 = _lambda_matching_qm(rule(4, 2), CH10, star)
        lam3 = _lambda_matching_qm(rule(4, 3), CH10, star)
        qf2 = operating_point(rule(4, 2), CH10, lam2)[0]
        qf3 = operating_point(rule(4, 3), CH10, lam3)[0]
        assert abs(float(qf2) - float(qf3)) <= 1e-10

    def test_no_crossover_in_perfect_channel_limit(self):
        tiny = ReportChannel(noise_var_sigma2=1.0 / (4.0 * 49.0))  # pe = Q(7) ~ 1.3e-12
        assert qm_stars(4, tiny)[1] == math.inf  # rule 1 dominates
        assert qm_stars(4, ReportChannel(noise_var_sigma2=0.0))[1] == math.inf

    def test_scrambled_channel_reports_tie_as_no_crossover(self):
        huge = ReportChannel(noise_var_sigma2=1e12)  # pe indistinguishable from 0.5
        assert qm_stars(2, huge)[1] == math.inf  # rule 1 dominates


def _lambda_matching_qm(fusion, channel, target):
    from scipy import optimize
    f = lambda lam: float(fused_qm(fusion, local_pm(SENSING, lam), channel.pe)) - target
    hi = 200.0
    while f(hi) < 0:
        hi *= 2.0
    return optimize.brentq(f, 0.0, hi, xtol=1e-13)


class TestCrossoverTable:
    def test_study_scenario_is_monotone(self):
        for channel in (CH10, CH5):
            table = crossover_table(4, SENSING, channel)
            assert set(table) == {1, 2, 3}
            assert all(table[n + 1] >= table[n] for n in (1, 2))

    def test_floor_ordering_produces_crossovers(self):
        # whenever the next rule has a lower false-alarm floor and the channel
        # errs, the next rule eventually wins at loose miss levels
        pe = CH10.pe
        for n in (1, 2, 3):
            assert float(fused_qf(rule(4, n + 1), 0.0, pe)) < float(fused_qf(rule(4, n), 0.0, pe))
        table = crossover_table(4, SENSING, CH10)
        assert all(math.isfinite(v) for v in table.values())

    def test_perfect_channel_table_never_steps_up(self):
        table = crossover_table(4, SENSING, ReportChannel(noise_var_sigma2=0.0))
        assert all(v == math.inf for v in table.values())

    def test_rejects_a_radio_count_that_is_not_a_positive_integer(self):
        for bad in (4.5, 0, -3):
            with pytest.raises(ValueError, match="num_radios_k must be a positive integer"):
                crossover_table(bad, SENSING, CH10)


def direct_search_oracle(target, k, channel, lambdas):
    """Brute-force constrained minimization on a fixed threshold grid."""
    pe = channel.pe
    best_n, best_qf = None, None
    for n in range(1, k + 1):
        cfg = rule(k, n)
        qf, qm = scan_qf_qm(cfg, channel, lambdas)
        feasible = qm <= target
        if not feasible.any():
            continue
        cand = float(qf[feasible].min())
        if best_qf is None or cand < best_qf - 1e-9:
            best_n, best_qf = n, cand
    return best_n


class TestOptimalN:
    def test_perfect_channel_always_picks_or_rule(self):
        for target in (1e-6, 1e-3, 0.05, 0.4):
            res = optimal_n(target, 4, SENSING, ReportChannel(noise_var_sigma2=0.0))
            assert res.n == 1
            assert res.n == res.direct_n
        tiny = ReportChannel(noise_var_sigma2=1.0 / (4.0 * 49.0))  # pe ~ 1.3e-12
        res = optimal_n(0.01, 4, SENSING, tiny)
        assert res.n == 1 and res.n == res.direct_n

    def test_target_just_above_or_rule_floor(self):
        pe = float(CH10.pe)
        res = optimal_n(pe**4 * 1.5, 4, SENSING, CH10)
        assert res.n == 1
        assert res.n == res.direct_n

    def test_interval_rule_agrees_with_direct_search_internally(self):
        floors = [float(fused_qm(rule(4, n), 0.0, CH10.pe)) for n in range(1, 5)]
        targets = np.geomspace(max(floors) * 1.02, 0.5, 20)
        chosen = []
        for target in targets:
            res = optimal_n(float(target), 4, SENSING, CH10)
            assert res.n == res.direct_n, f"disagreement at target {target}"
            chosen.append(res.n)
        # looser miss targets never step the vote threshold back down
        assert all(b >= a for a, b in zip(chosen, chosen[1:]))

    def test_against_grid_search_oracle(self):
        lambdas = pf_spaced_grid(3000, lo=1e-11)
        # extend well past the false-alarm sweep so loose miss targets stay reachable
        lambdas = lambdas + [lambdas[-1] * f for f in (2.0, 4.0, 8.0, 16.0, 32.0)]
        for target in (3e-5, 3e-4, 2e-3, 8e-3, 0.03, 0.12, 0.25, 0.45, 0.7):
            res = optimal_n(target, 4, SENSING, CH10)
            assert res.n == direct_search_oracle(target, 4, CH10, lambdas), f"target {target}"

    def test_achieved_point_meets_the_target(self):
        res = optimal_n(0.05, 4, SENSING, CH10)
        assert float(res.achieved_qm) == pytest.approx(0.05, rel=1e-9)
        qf, qm = operating_point(rule(4, res.n), CH10, res.achieved_lambda)
        assert float(qf) == pytest.approx(float(res.achieved_qf), rel=1e-12)
        assert float(qm) == pytest.approx(float(res.achieved_qm), rel=1e-12)

    def test_infeasible_target_raises_with_bound(self):
        pe = float(CH10.pe)
        with pytest.raises(InfeasibleTargetError) as err:
            optimal_n(1e-30, 4, SENSING, CH10)
        assert err.value.min_achievable_qm == pytest.approx(pe**4, rel=1e-9)

    def test_rejects_bad_targets(self):
        for bad in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                optimal_n(bad, 4, SENSING, CH10)


class TestEmpiricalOverlay:
    def test_analytic_curves_sit_inside_monte_carlo_bands(self):
        lambdas = [8.0, 14.0, 22.0]
        base = SimScenario(
            sensing=SENSING,
            channel=CH10,
            fusion=rule(4, 1),
            trials=200_000,
            seed=71,
        )
        grid = run_grid(base, lambdas, [1, 2], workers=2)
        for ni, n in enumerate([1, 2]):
            _, qfs, qms, _, _ = curve(n, CH10, lambdas)
            for li, (qf, qm) in enumerate(zip(qfs, qms)):
                # band from the analytical rate so rare-event cells with zero
                # observed counts still get a meaningful standard error
                se_f = math.sqrt(float(qf) * (1 - float(qf)) / grid.trials_h0[ni, li])
                se_m = math.sqrt(float(qm) * (1 - float(qm)) / grid.trials_h1[ni, li])
                assert abs(float(grid.qf_hat[ni, li]) - float(qf)) <= 4.0 * se_f
                assert abs(float(grid.qm_hat[ni, li]) - float(qm)) <= 4.0 * se_m


class TestKernelPath:
    def test_rule_point_matches_operating_point_elementwise(self):
        from coopsense.roc import _achieved

        pe = float(CH10.pe)
        ns = np.array([1, 2, 3, 4])
        for target in (3e-4, 2e-3, 0.05, 0.3, 0.7):
            lam, qf, qm = _achieved(4, ns, 6, 100.0, pe, target)
            for i, n in enumerate(ns.tolist()):
                ref_f, ref_m = operating_point(rule(4, n), CH10, float(lam[i]))
                assert (qf[i], qm[i]) == (float(ref_f), float(ref_m))

    def test_infinite_threshold_gives_floor_and_loose_limit(self):
        from coopsense.roc import _achieved

        pe = float(CH10.pe)
        # a target of 1 is at or above every loose limit, so no rule's constraint binds
        lam, qf, qm = _achieved(4, np.array([1, 2, 3, 4]), 6, 100.0, pe, 1.0)
        for i, n in enumerate((1, 2, 3, 4)):
            assert lam[i] == np.inf
            assert qf[i] == float(fused_qf(rule(4, n), 0.0, pe))
            assert qm[i] == float(fused_qm(rule(4, n), 1.0, pe))

    def test_inversion_hits_the_target_and_ignores_its_batch(self):
        from coopsense.roc import _lambda_for_qm

        pe = float(CH10.pe)
        # targets inside the span, and targets 1e-10 of the span from a floor or a loose limit
        floor, sup = _fused_qm(4, np.array([2, 3]), 0.0, pe), _fused_qm(4, np.array([2, 3]), 1.0, pe)
        targets = np.array([2e-3, 0.05, 0.3, *(floor + (sup - floor) * 1e-10), *(sup - (sup - floor) * 1e-10)])
        ns = np.array([1, 2, 4, 2, 3, 2, 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _lambda_for_qm(4, ns, 6, 100.0, pe, targets)
            alone = [_lambda_for_qm(4, np.array([n]), 6, 100.0, pe, target)[0] for n, target in zip(ns, targets)]
        assert batch.tolist() == alone
        for n, target, lam in zip(ns, targets, batch):
            assert float(_fused_qm(4, n, _local_pm(6, 100.0, lam), pe)) == pytest.approx(target, rel=1e-9)

    def test_achieved_point_is_reused_from_the_direct_search(self):
        from coopsense.roc import _achieved

        pe = float(CH10.pe)
        for target in (3e-4, 0.05, 0.45, 0.7):
            res = optimal_n(target, 4, SENSING, CH10)
            lam, qf, qm = _achieved(4, np.array([res.n]), 6, 100.0, pe, target)
            assert (res.achieved_lambda, res.achieved_qf, res.achieved_qm) == (lam[0], qf[0], qm[0])
