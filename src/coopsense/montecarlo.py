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
enter at the comparison stage. At most 2*workers chunks are in flight at
once, and each radio's 2M sensing samples per trial are drawn one block of
rows at a time, each at most ``_BLOCK_VALUES + 2M`` values: a chunk's working
set does not grow with the number of trials, but a block holds at least one
whole row of 2M normals, so it grows with M (ROADMAP item 14). Blocking
keeps every bit: a Generator fills its output in order, so consecutive blocks
hold exactly one whole-chunk call's draws, and each trial's statistic uses its row alone.

The energy statistic is numpy's row reduction
``((x + amp[:, None]) ** 2).sum(axis=1) + (y * y).sum(axis=1)``. Below 8
terms numpy sums a row left to right, so for M < 8 the kernel adds whole
columns of the block in that order instead: the same float additions, bit
for bit, without one short reduction per trial. From 8 terms on numpy sums
in a pairwise order, and the kernel keeps the row reduction itself.
``tests/test_montecarlo.py`` holds the row reduction as the oracle of both
paths. This was verified on numpy 2.4.6; rerun ``TestEnergyStatistic`` when
numpy is upgraded.

Tallies by counting. A radio decides 1 at threshold lambda when its statistic
t >= lambda; a tie reads as 1. Over the L strictly increasing thresholds its
decisions are therefore fixed by one integer c, the number of thresholds t
clears. The received bit is the decision plus the report noise w, sliced at
0.5 with ties again reading as 1: w >= 0.5 gives 1 at every threshold,
w < -0.5 gives 0 at every threshold, and any w in between passes the decision
through. So the received bits are fixed by r = L, 0 or c. The vote reaches n
at the li-th threshold exactly when the trial's n-th largest r exceeds li.
Every tally is then a histogram of c or of an n-th largest r, read through a
cumulative sum. Each threshold costs one comparison per radio and each rule
one histogram per chunk.
"""
from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fusion import FusionConfig, _check_rules
from .local_sensing import SensingParams
from .reporting import ReportChannel

__all__ = [
    "SimScenario",
    "SimGrid",
    "run_grid",
]

CHUNK_TRIALS = 1 << 14
# Sensing normals per block: each radio draws the 2M samples per trial of a
# chunk's count trials in ceil(count * 2M / _BLOCK_VALUES) blocks of rows of
# near-equal height, each at most _BLOCK_VALUES + 2M values.
_BLOCK_VALUES = 1 << 16

# Stream ids inside one chunk. Radio i owns ids _STREAM_BASE + 3*i + offset.
_STREAM_HYPOTHESIS = 0
_STREAM_BASE = 1
_OFFSET_SNR = 0
_OFFSET_SENSE = 1
_OFFSET_REPORT = 2


@dataclass(frozen=True)
class SimScenario:
    """Everything one simulation run depends on; of ``fusion``, :func:`run_grid` reads only K."""

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


class SimGrid(NamedTuple):
    """Empirical rates of every (vote rule, threshold) cell of a :func:`run_grid` sweep.

    The first six fields are indexed [rule, threshold]: the fused rates, their
    binomial standard errors sqrt(p*(1-p)/N) and the trial count N of each
    hypothesis, in the order of ``simulate``'s Monte Carlo columns. The last
    three are indexed [threshold]: the per-radio rates, pooled across radios,
    and the report error rate over every transmitted bit. A hypothesis side
    with zero trials reports rate 0 with stderr 0.
    """

    qf_hat: np.ndarray
    qm_hat: np.ndarray
    qf_stderr: np.ndarray
    qm_stderr: np.ndarray
    trials_h0: np.ndarray
    trials_h1: np.ndarray
    pf_hat: np.ndarray
    pm_hat: np.ndarray
    report_error_rate_hat: np.ndarray


def _rng(seed: int, chunk_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index, stream)))


def _energy_statistic(z: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """T = sum((s + X_j)^2) + sum(Y_j^2) over the M columns of each half of ``z``.

    With s = sqrt(2*snr/M) this is chi-square(2M) when idle and noncentral
    chi-square with noncentrality 2*snr when active.
    """
    m = z.shape[1] // 2
    x = z[:, :m]
    y = z[:, m:]
    if m >= 8:
        return ((x + amp[:, None]) ** 2).sum(axis=1) + (y * y).sum(axis=1)
    # numpy sums fewer than 8 terms left to right: add the columns in that order
    sx = (x[:, 0] + amp) ** 2
    sy = y[:, 0] * y[:, 0]
    for j in range(1, m):
        sx += (x[:, j] + amp) ** 2
        sy += y[:, j] * y[:, j]
    return sx + sy


def _sensed_energy(rng: np.random.Generator, amp: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The energy statistic of every trial, its 2M normals drawn into ``block`` one block of rows at a time.

    A Generator fills its output in order, so the blocks hold exactly the
    draws of one ``standard_normal((len(amp), 2M))`` call; each trial's
    statistic depends on its own row alone, so it is bit-identical too.
    """
    t = np.empty(len(amp))
    for start in range(0, len(amp), len(block)):
        z = block[:len(amp) - start]
        rng.standard_normal(out=z)
        t[start:start + len(z)] = _energy_statistic(z, amp[start:start + len(z)])
    return t


def _above(hist: np.ndarray) -> np.ndarray:
    """From a histogram over ranks 0..L, the count of ranks > li for li in 0..L-1."""
    return hist[..., :0:-1].cumsum(axis=-1)[..., ::-1]


def _at_most(hist: np.ndarray) -> np.ndarray:
    """From a histogram over ranks 0..L, the count of ranks <= li for li in 0..L-1."""
    return hist[..., :-1].cumsum(axis=-1)


def _tallies(radios, active: np.ndarray, lambdas: Sequence[float], n_values: Sequence[int]):
    """Integer tallies of one chunk of trials, for every (lambda, n) pair.

    ``radios`` yields one ``(t, w)`` pair per radio: the energy statistic and
    the report noise of every trial. ``active`` marks the trials where the
    band is occupied. Returns ``(n_h0, n_h1, assert_h0, silent_h1, flips,
    false_alarms, misses)``: the trial counts per hypothesis; per threshold,
    the asserted 1s over idle trials, the asserted 0s over active trials and
    the received bits that differ from the transmitted one, all summed over
    radios; and per (rule, threshold), the fused false alarms and misses.
    """
    n_lam = len(lambdas)
    width = n_lam + 1                  # c and r take values 0..L
    rank = np.min_scalar_type(n_lam)
    n_max = max(n_values)
    hyp = width * active               # moves active trials to a second histogram
    hist = np.zeros(6 * width, dtype=np.int64)  # c by (report zone, hypothesis)
    top = []                           # per trial, the n_max largest r so far, largest first
    for t, w in radios:
        c = np.zeros(len(t), dtype=rank)
        for lam in lambdas:
            c += t >= lam              # c = number of thresholds t clears; t == lambda clears it
        hi = w >= 0.5                  # received bit reads 1 at every threshold
        lo = w < -0.5                  # received bit reads 0 at every threshold
        key = hyp + c
        key += (2 * width) * hi
        key += (4 * width) * lo
        hist += np.bincount(key, minlength=6 * width)
        r = np.maximum(c, hi * rank.type(n_lam))  # thresholds at which the received bit reads 1
        r[lo] = 0
        for j, v in enumerate(top):
            top[j], r = np.maximum(v, r), np.minimum(v, r)
        if len(top) < n_max:
            top.append(r)

    mid, high, low = hist.reshape(3, 2, width)
    by_hyp = mid + high + low
    n_h1 = int(np.count_nonzero(active))
    n_h0 = len(active) - n_h1
    assert_h0 = _above(by_hyp[0])
    silent_h1 = _at_most(by_hyp[1])
    # w >= 0.5 flips the thresholds the radio does not clear, w < -0.5 the ones it does
    flips = _at_most(high.sum(axis=0)) + _above(low.sum(axis=0))
    # a trial's vote reaches n at threshold li exactly when its n-th largest r exceeds li
    fused = np.stack([np.bincount(top[n - 1] + hyp, minlength=2 * width) for n in n_values])
    fused = fused.reshape(len(n_values), 2, width)
    false_alarms = _above(fused[:, 0])
    misses = _at_most(fused[:, 1])
    return n_h0, n_h1, assert_h0, silent_h1, flips, false_alarms, misses


def _chunk_tallies(scenario: SimScenario, lambdas: Sequence[float], n_values: Sequence[int],
                   chunk_index: int, count: int):
    """Draw one chunk of trials and tally it (see :func:`_tallies`)."""
    m = scenario.sensing.samples_m
    gbar = scenario.sensing.avg_snr_gamma
    sigma = math.sqrt(scenario.channel.noise_var_sigma2)
    seed = scenario.seed
    active = _rng(seed, chunk_index, _STREAM_HYPOTHESIS).random(count) < 0.5
    # equal heights leave no runt block, which would cost a whole statistic pass for a few rows
    blocks = -(-count * 2 * m // _BLOCK_VALUES)
    block = np.empty((-(-count // blocks), 2 * m))

    def radios():
        for radio in range(scenario.fusion.num_radios_k):
            base = _STREAM_BASE + 3 * radio
            snr = _rng(seed, chunk_index, base + _OFFSET_SNR).exponential(gbar, count)
            amp = np.where(active, np.sqrt(2.0 * snr / m), 0.0)
            t = _sensed_energy(_rng(seed, chunk_index, base + _OFFSET_SENSE), amp, block)
            w = _rng(seed, chunk_index, base + _OFFSET_REPORT).standard_normal(count) * sigma
            yield t, w

    return _tallies(radios(), active, lambdas, n_values)


def _rates(counts: np.ndarray, total: int):
    """counts / total and its binomial stderr sqrt(p*(1-p)/total), both 0 where total is 0."""
    if total == 0:
        return np.zeros(counts.shape), np.zeros(counts.shape)
    p = counts / total
    return p, np.sqrt(p * (1.0 - p) / total)


def _sum_chunks(scenario: SimScenario, lambdas: list[float], n_values: list[int], workers: int):
    """Tally every chunk and add the tallies up, with at most 2*workers chunks in flight."""
    trials = scenario.trials
    starts = range(0, trials, CHUNK_TRIALS)
    jobs = ((scenario, lambdas, n_values, ci, min(CHUNK_TRIALS, trials - start))
            for ci, start in enumerate(starts))
    workers = min(workers, len(starts), os.cpu_count() or 1)  # extra threads would only idle
    parts = (_chunk_tallies(*job) for job in jobs) if workers == 1 else _pooled(workers, jobs)
    return functools.reduce(lambda a, b: [x + y for x, y in zip(a, b)], parts)


def _pooled(workers: int, jobs):
    """Run ``_chunk_tallies`` on each job in a pool and yield the results in order."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for job in jobs:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_chunk_tallies, *job))
        while pending:
            yield pending.popleft().result()


def run_grid(scenario: SimScenario, lambdas: Sequence[float], n_values: Sequence[int],
             workers: int = 1) -> SimGrid:
    """Simulate every (vote rule, threshold) pair on shared random draws.

    The scenario's own vote rule is not simulated unless listed.
    Sharing draws gives common random numbers across the grid: a single-cell
    grid is bit-identical to the same cell of any larger grid, and empirical
    ROC curves are monotone in the threshold realization by realization.
    """
    lambdas = [float(v) for v in lambdas]
    if not lambdas or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be a non-empty strictly increasing sequence")
    if any(not math.isfinite(v) or v < 0 for v in lambdas):
        raise ValueError("lambdas must be finite and >= 0")
    k = scenario.fusion.num_radios_k
    n_values = list(n_values)
    _check_rules(k, n_values, "n_values")
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be a non-empty strictly increasing sequence")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    n_h0, n_h1, assert_h0, silent_h1, flips, false_alarms, misses = \
        _sum_chunks(scenario, lambdas, n_values, workers)
    (qf, qf_stderr), (qm, qm_stderr) = _rates(false_alarms, n_h0), _rates(misses, n_h1)
    return SimGrid(qf, qm, qf_stderr, qm_stderr,
                   np.broadcast_to(n_h0, qf.shape), np.broadcast_to(n_h1, qf.shape),
                   _rates(assert_h0, k * n_h0)[0], _rates(silent_h1, k * n_h1)[0],
                   _rates(flips, k * scenario.trials)[0])
