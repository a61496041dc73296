"""Sample-level simulation of the full sensing, reporting, and fusion chain.

Each trial draws the occupancy hypothesis (idle/active with probability 1/2),
then per radio: a block-fading SNR (exponential with the configured mean), M
complex receiver samples, the energy decision against the threshold, the
noisy one-bit report, and finally the fusion vote. The noise variance at the
detector is fixed to 1 and the statistic is normalized so that it is exactly
chi-square with 2M degrees of freedom when the band is idle, and noncentral
chi-square with noncentrality twice the instantaneous SNR when it is active.

Determinism contract: results are a pure function of (scenario, seed).
Trials are processed in fixed-size chunks and every random stream is derived
from (seed, chunk index, stream id) alone, with one stream per purpose per
radio. Chunk tallies are plain integers, so the reduction is exact and
independent of how many workers executed the chunks. Sweeps over thresholds
and vote rules reuse the same draws (common random numbers): thresholds only
enter at the comparison stage.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fusion import FusionConfig, PerfPoint
from .local_sensing import SensingParams
from .mathx import Probability
from .reporting import ReportChannel

__all__ = [
    "SimScenario",
    "SimResult",
    "run_sim",
    "run_sweep",
    "run_grid",
    "sample_energy_statistic",
]

CHUNK_TRIALS = 1 << 14

# Stream ids inside one chunk. Radio i owns ids _STREAM_BASE + 3*i + offset.
_STREAM_HYPOTHESIS = 0
_STREAM_BASE = 1
_OFFSET_SNR = 0
_OFFSET_SENSE = 1
_OFFSET_REPORT = 2


@dataclass(frozen=True)
class SimScenario:
    """Everything one simulation run depends on."""

    sensing: SensingParams
    channel: ReportChannel
    fusion: FusionConfig
    trials: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    """Aggregated rates from one simulated operating point.

    ``point`` holds the fused empirical rates with their binomial standard
    errors. Per-radio rates are pooled across radios; the report error rate
    is measured over every transmitted bit. A hypothesis side with zero
    trials reports rate 0 with stderr 0.
    """

    point: PerfPoint
    per_radio_pf_hat: Probability
    per_radio_pm_hat: Probability
    report_error_rate_hat: Probability
    trials_h0: int
    trials_h1: int

    @property
    def qf_hat(self) -> Probability:
        return self.point.qf

    @property
    def qm_hat(self) -> Probability:
        return self.point.qm

    @property
    def qf_stderr(self) -> float:
        return self.point.qf_stderr

    @property
    def qm_stderr(self) -> float:
        return self.point.qm_stderr


def _rng(seed: int, chunk_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index, stream)))


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def _chunk_tallies(scenario: SimScenario, lambdas: Sequence[float], n_values: Sequence[int],
                   chunk_index: int, count: int):
    """Integer tallies for one chunk of trials, for every (lambda, n) pair."""
    m = scenario.sensing.samples_m
    gbar = scenario.sensing.avg_snr_gamma
    sigma = math.sqrt(scenario.channel.noise_var_sigma2)
    k = scenario.fusion.num_radios_k
    seed = scenario.seed
    n_lam = len(lambdas)

    active = _rng(seed, chunk_index, _STREAM_HYPOTHESIS).random(count) < 0.5
    idle = ~active
    n_h1 = int(active.sum())
    n_h0 = count - n_h1

    ones = np.zeros((n_lam, count), dtype=np.int32)
    assert_h0 = [0] * n_lam     # asserted 1s over idle trials, all radios
    silent_h1 = [0] * n_lam     # asserted 0s over active trials, all radios
    flips = [0] * n_lam         # received bit != transmitted bit, all radios

    for radio in range(k):
        base = _STREAM_BASE + 3 * radio
        snr = _rng(seed, chunk_index, base + _OFFSET_SNR).exponential(gbar, count)
        z = _rng(seed, chunk_index, base + _OFFSET_SENSE).standard_normal((count, 2 * m))
        w = _rng(seed, chunk_index, base + _OFFSET_REPORT).standard_normal(count) * sigma

        # Statistic T = sum((s + X_j)^2) + sum(Y_j^2) with s = sqrt(2*snr/m):
        # chi-square(2m) when idle, noncentral with noncentrality 2*snr when active.
        amp = np.where(active, np.sqrt(2.0 * snr / m), 0.0)
        x = z[:, :m]
        y = z[:, m:]
        t = ((x + amp[:, None]) ** 2).sum(axis=1) + (y * y).sum(axis=1)

        for li, lam in enumerate(lambdas):
            d = t >= lam
            received = w >= (0.5 - d)  # slice d + w at 0.5; ties read as 1
            ones[li] += received
            flips[li] += int((received != d).sum())
            assert_h0[li] += int(d[idle].sum())
            silent_h1[li] += int((~d)[active].sum())

    false_alarms = np.empty((n_lam, len(n_values)), dtype=np.int64)
    misses = np.empty((n_lam, len(n_values)), dtype=np.int64)
    for li in range(n_lam):
        for ni, n in enumerate(n_values):
            fused = ones[li] >= n
            false_alarms[li, ni] = int(fused[idle].sum())
            misses[li, ni] = int((~fused)[active].sum())
    return n_h0, n_h1, assert_h0, silent_h1, flips, false_alarms, misses


def _rate(count: int, total: int) -> Probability:
    return Probability(count / total) if total > 0 else Probability(0.0)


def _stderr(p: float, total: int) -> float:
    return math.sqrt(p * (1.0 - p) / total) if total > 0 else 0.0


def run_grid(scenario: SimScenario, lambdas: Sequence[float], n_values: Sequence[int],
             workers: int = 1) -> list[list[SimResult]]:
    """Simulate every (threshold, vote rule) pair on shared random draws.

    Returns results indexed [lambda][n]. Sharing draws gives common random
    numbers across the grid: a single-cell grid is bit-identical to the same
    scenario run on its own, and empirical ROC curves are monotone in the
    threshold realization by realization.
    """
    lambdas = [float(v) for v in lambdas]
    if not lambdas or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be a non-empty strictly increasing sequence")
    if any(not math.isfinite(v) or v < 0 for v in lambdas):
        raise ValueError("lambdas must be finite and >= 0")
    k = scenario.fusion.num_radios_k
    n_values = list(n_values)
    if not n_values or any(not isinstance(n, int) or not 1 <= n <= k for n in n_values):
        raise ValueError(f"n_values must be integers in [1, {k}]")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    sizes = _chunk_sizes(scenario.trials)
    jobs = [(scenario, lambdas, n_values, ci, sz) for ci, sz in enumerate(sizes)]
    workers = min(workers, len(jobs), os.cpu_count() or 1)  # extra threads would only idle
    if workers == 1:
        parts = [_chunk_tallies(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda job: _chunk_tallies(*job), jobs))

    n_lam, n_n = len(lambdas), len(n_values)
    n_h0 = sum(p[0] for p in parts)
    n_h1 = sum(p[1] for p in parts)
    assert_h0 = [sum(p[2][li] for p in parts) for li in range(n_lam)]
    silent_h1 = [sum(p[3][li] for p in parts) for li in range(n_lam)]
    flips = [sum(p[4][li] for p in parts) for li in range(n_lam)]
    false_alarms = [[sum(int(p[5][li, ni]) for p in parts) for ni in range(n_n)] for li in range(n_lam)]
    misses = [[sum(int(p[6][li, ni]) for p in parts) for ni in range(n_n)] for li in range(n_lam)]

    out: list[list[SimResult]] = []
    for li in range(n_lam):
        row = []
        for ni in range(n_n):
            qf = _rate(false_alarms[li][ni], n_h0)
            qm = _rate(misses[li][ni], n_h1)
            point = PerfPoint(
                qf=qf, qm=qm, kind="empirical",
                qf_stderr=_stderr(qf, n_h0), qm_stderr=_stderr(qm, n_h1),
                trials_h0=n_h0, trials_h1=n_h1,
            )
            row.append(SimResult(
                point=point,
                per_radio_pf_hat=_rate(assert_h0[li], k * n_h0),
                per_radio_pm_hat=_rate(silent_h1[li], k * n_h1),
                report_error_rate_hat=_rate(flips[li], k * scenario.trials),
                trials_h0=n_h0,
                trials_h1=n_h1,
            ))
        out.append(row)
    return out


def run_sim(scenario: SimScenario, workers: int = 1) -> SimResult:
    """Simulate the scenario's single operating point."""
    grid = run_grid(scenario, [scenario.sensing.threshold_lambda],
                    [scenario.fusion.vote_threshold_n], workers=workers)
    return grid[0][0]


def run_sweep(scenario: SimScenario, lambdas: Sequence[float], workers: int = 1) -> list[SimResult]:
    """Simulate a strictly increasing threshold sweep with common random numbers.

    Each entry is bit-identical to :func:`run_sim` on the same scenario with
    that threshold, so results do not depend on evaluation order.
    """
    grid = run_grid(scenario, lambdas, [scenario.fusion.vote_threshold_n], workers=workers)
    return [row[0] for row in grid]


def sample_energy_statistic(sensing: SensingParams, occupied: bool, trials: int,
                            seed: int) -> np.ndarray:
    """Draw raw energy statistics for one radio, for distributional checks.

    Uses the same sample-level model as the full simulation: chi-square(2M)
    when the band is idle, exponentially mixed noncentral chi-square when it
    is occupied.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = sensing.samples_m
    z = rng.standard_normal((trials, 2 * m))
    if occupied:
        snr = rng.exponential(sensing.avg_snr_gamma, trials)
        amp = np.sqrt(2.0 * snr / m)
    else:
        amp = np.zeros(trials)
    x = z[:, :m]
    y = z[:, m:]
    return ((x + amp[:, None]) ** 2).sum(axis=1) + (y * y).sum(axis=1)
