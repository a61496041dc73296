"""Acceptance gate: one test per release criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the assertions.
"""
import math
import subprocess
import sys
import time
import numpy as np
from scipy import optimize

from coopsense.fusion import (
    FusionConfig,
    asymptotic_qf,
    asymptotic_qm,
    fused_qf,
    fused_qm,
)
from coopsense.local_sensing import SensingParams, local_pd, local_pf, local_pm, threshold_for_pf
from coopsense.montecarlo import SimScenario, run_grid
from coopsense.reporting import ReportChannel, channel_from_snr_db, perfect_channel
from coopsense.roc import crossover_table, optimal_n

from enumeration import enumerate_rule

# study scenario used throughout: 4 radios, 6 samples, 20 dB average SNR
SENSING = SensingParams(samples_m=6, avg_snr_gamma=100.0)
CH10 = channel_from_snr_db(10.0)
CH5 = channel_from_snr_db(5.0)


def rule(k, n):
    return FusionConfig(num_radios_k=k, vote_threshold_n=n)


def report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_1_closed_forms_match_exhaustive_enumeration():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 9):
        for n in range(1, k + 1):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                for pe in (0.0, 0.05, 0.3, 0.5):
                    cfg = rule(k, n)
                    worst = max(worst, abs(float(fused_qf(cfg, p, pe))
                                           - float(enumerate_rule(cfg, p, pe))))
                    worst = max(worst, abs(float(fused_qm(cfg, p, pe))
                                           - (1.0 - float(enumerate_rule(cfg, 1.0 - p, pe)))))
    elapsed = time.perf_counter() - start
    report("1 (vote closed forms vs 2^K enumeration)",
           worst <= 1e-12 and elapsed < 10.0,
           f"max |diff| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_asymptotic_floor_limits_and_monotonicity():
    worst = 0.0
    monotone = True
    for k in range(2, 11):
        for pe in (0.02, 0.1, 0.25, 0.4, 0.49):
            qf_floors, qm_floors = [], []
            for n in range(1, k + 1):
                cfg = rule(k, n)
                qf_lim = float(fused_qf(cfg, 1e-12, pe))
                qm_lim = float(fused_qm(cfg, 1e-12, pe))
                qf_floor = float(asymptotic_qf(cfg, pe))
                qm_floor = float(asymptotic_qm(cfg, pe))
                worst = max(worst,
                            abs(qf_lim - qf_floor) / max(qf_floor, 1e-9),
                            abs(qm_lim - qm_floor) / max(qm_floor, 1e-9))
                qf_floors.append(qf_floor)
                qm_floors.append(qm_floor)
            monotone &= all(b < a for a, b in zip(qf_floors, qf_floors[1:]))
            monotone &= all(b > a for a, b in zip(qm_floors, qm_floors[1:]))
    report("2 (floor limits within 1e-9, strictly monotone in n)",
           worst <= 1e-9 and monotone,
           f"max floor mismatch = {worst:.2e}, monotone = {monotone}")


def test_criterion_3_monte_carlo_validates_the_chain_and_the_relabeling():
    start = time.perf_counter()
    lambdas = sorted(threshold_for_pf(q, 6) for q in (0.9, 0.5, 0.2, 0.05, 0.01))
    n_values = [1, 2, 3, 4]  # 4 radios bound the vote sweep at 4 rules
    base = SimScenario(
        sensing=SENSING,
        channel=CH10,
        fusion=rule(4, 1),
        trials=1_000_000,
        seed=20_260_810,
    )
    grid = run_grid(base, lambdas, n_values, workers=4)
    pe = CH10.pe
    max_z = 0.0
    min_z_mislabeled = math.inf
    for li, lam in enumerate(lambdas):
        pf, pm, pd = float(local_pf(SENSING, lam)), float(local_pm(SENSING, lam)), float(local_pd(SENSING, lam))
        for ni, n in enumerate(n_values):
            cfg = rule(4, n)
            qf_hat, qm_hat = float(grid.qf_hat[ni, li]), float(grid.qm_hat[ni, li])
            trials_h0, trials_h1 = int(grid.trials_h0[ni, li]), int(grid.trials_h1[ni, li])
            qf = float(fused_qf(cfg, pf, pe))
            qm = float(fused_qm(cfg, pm, pe))
            se_f = math.sqrt(qf * (1.0 - qf) / trials_h0)
            se_m = math.sqrt(qm * (1.0 - qm) / trials_h1)
            max_z = max(max_z, abs(qf_hat - qf) / se_f,
                        abs(qm_hat - qm) / se_m)
            # the same expression read as a miss probability without the
            # complement must be rejected by the same data
            qm_wrong = float(fused_qm(cfg, pd, pe))
            se_wrong = math.sqrt(max(qm_wrong * (1.0 - qm_wrong), 1e-12) / trials_h1)
            min_z_mislabeled = min(min_z_mislabeled,
                                   abs(qm_hat - qm_wrong) / se_wrong)
    elapsed = time.perf_counter() - start
    report("3 (10^6-trial chain vs closed forms on the (n, lambda) grid)",
           max_z <= 4.0 and min_z_mislabeled > 4.0 and elapsed < 300.0,
           f"max |z| = {max_z:.2f}, mislabeled min |z| = {min_z_mislabeled:.1f}, {elapsed:.0f}s")


def _lambda_matching_qm(fusion, channel, target, sensing=SENSING):
    pe = channel.pe
    f = lambda lam: float(fused_qm(fusion, local_pm(sensing, lam), pe)) - target
    hi = 100.0
    while f(hi) < 0.0:
        hi *= 2.0
    return optimize.brentq(f, 0.0, hi, xtol=1e-12)


def test_criterion_4_or_rule_dominates_with_perfect_reports():
    start = time.perf_counter()
    channel = perfect_channel()
    levels = np.geomspace(1e-6, 0.9, 50)
    ok = True
    worst_gap = -math.inf
    for qm in levels:
        qf_by_rule = []
        for n in (1, 2, 3, 4):
            lam = _lambda_matching_qm(rule(4, n), channel, float(qm))
            qf_by_rule.append(float(fused_qf(rule(4, n), local_pf(SENSING, lam), channel.pe)))
        gap = qf_by_rule[0] - min(qf_by_rule)
        worst_gap = max(worst_gap, gap)
        ok &= qf_by_rule[0] <= min(qf_by_rule) + 1e-12
    elapsed = time.perf_counter() - start
    report("4 (error-free reports: 1-out-of-4 wins at every miss level)",
           ok and elapsed < 1.0,
           f"worst dominance gap = {worst_gap:.1e}, {elapsed:.2f}s")


def test_criterion_5_reporting_errors_create_floors_and_crossovers():
    start = time.perf_counter()
    ok = True
    details = []
    for channel, tag in ((CH5, "5 dB"), (CH10, "10 dB")):
        pe = channel.pe
        lam_tail = threshold_for_pf(1e-12, 6)
        floors = []
        for n in (1, 2, 3, 4):
            qf_tail = float(fused_qf(rule(4, n), local_pf(SENSING, lam_tail), pe))
            floor = float(asymptotic_qf(rule(4, n), pe))
            ok &= math.isclose(qf_tail, floor, rel_tol=1e-9, abs_tol=1e-9)
            floors.append(floor)
        ok &= all(b < a for a, b in zip(floors, floors[1:]))  # distinct per rule
        # the 1-vs-2 ROC curves must exchange superiority somewhere: the table
        # entry is a crossing, neither inf (rule 1 dominates) nor rule 2's floor
        # (rule 2 dominates)
        star = crossover_table(4, SENSING, channel).entries[1]
        floor2 = float(asymptotic_qm(rule(4, 2), pe))
        ok &= floor2 < star < 1.0
        # probes bracket the crossover inside both rules' feasible miss range
        probe_below = math.sqrt(floor2 * star)
        probe_above = min(star * 2.0, 0.99)
        gaps = []
        for probe in (probe_below, probe_above):
            lam1 = _lambda_matching_qm(rule(4, 1), channel, probe)
            lam2 = _lambda_matching_qm(rule(4, 2), channel, probe)
            gaps.append(
                float(fused_qf(rule(4, 2), local_pf(SENSING, lam2), pe))
                - float(fused_qf(rule(4, 1), local_pf(SENSING, lam1), pe)))
        ok &= gaps[0] > 0.0 > gaps[1]  # sign change of the false-alarm gap
        details.append(f"{tag}: qm* = {star:.4g}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report("5 (reporting errors: distinct floors and a 1-vs-2 crossover)",
           ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_6_interval_rule_agrees_with_direct_search():
    start = time.perf_counter()
    floors = [float(asymptotic_qm(rule(4, n), CH10.pe)) for n in (1, 2, 3, 4)]
    targets = np.geomspace(max(floors) * 1.02, 0.5, 20)
    agree = all(optimal_n(float(t), 4, SENSING, CH10).agree for t in targets)
    perfect = all(optimal_n(t, 4, SENSING, perfect_channel()).n == 1
                  for t in (1e-6, 1e-3, 0.05, 0.4))
    tiny = ReportChannel(noise_var_sigma2=1.0 / (4.0 * 49.0))  # bit errors ~ 1e-12
    perfect &= all(optimal_n(t, 4, SENSING, tiny).n == 1 for t in (1e-3, 0.05, 0.4))
    elapsed = time.perf_counter() - start
    report("6 (adaptive rule: interval selection = constrained search)",
           agree and perfect and elapsed < 30.0,
           f"20-target agreement = {agree}, perfect-channel n=1 = {perfect}, {elapsed:.1f}s")


def test_criterion_7_report_link_error_rate():
    start = time.perf_counter()
    n_bits = 10_000_000
    worst = 0.0
    for sigma2, seed in ((1.0, 710), (0.1, 711), (0.01, 712)):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n_bits)
        received = (bits + rng.normal(0.0, math.sqrt(sigma2), n_bits)) >= 0.5
        err = float(np.mean(received != bits))
        pe = float(ReportChannel(sigma2).pe)
        z = abs(err - pe) / math.sqrt(pe * (1.0 - pe) / n_bits)
        worst = max(worst, z)
    elapsed = time.perf_counter() - start
    report("7 (10^7-bit link simulation vs Gaussian tail)",
           worst <= 4.0 and elapsed < 30.0,
           f"max |z| = {worst:.2f}, {elapsed:.1f}s")


def test_criterion_8_cli_simulation_is_deterministic(tmp_path):
    args = [sys.executable, "-m", "coopsense", "simulate",
            "--k", "4", "--n", "2", "--samples-m", "6", "--snr-db", "20",
            "--report-snr-db", "10", "--lambda-grid", "8:16:3",
            "--trials", "30000", "--seed", "8080"]
    outputs = []
    for tag, extra in (("a", []), ("b", []), ("w", ["--workers", "3"])):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(args + ["--out", str(out)] + extra,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("8 (seeded CLI simulation is byte-identical across runs and workers)",
           ok, f"{len(outputs)} outputs compared")
