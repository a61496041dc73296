"""The four benchmark workloads as fixed lists of CLI operations.

Every operation is one ``coopsense.cli.main(argv)`` call; the harness adds
``--out``. Inputs are a pure function of the workload seed, so the same seed
gives the same argv lists. ``smoke`` shrinks every workload to a few seconds
for the benchmark's own tests; the operations keep their shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

SAMPLES_M = 6
OPTIMAL_N_TARGETS = 12
PERFECT_TARGET_LO = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (without ``--out``) and the inputs the checks need."""

    argv: tuple
    params: dict

    @property
    def command(self) -> str:
        return self.argv[0]


def _channel_args(report_snr_db):
    return ("--perfect-report",) if report_snr_db is None else ("--report-snr-db", repr(report_snr_db))


def _votes(ns):
    return tuple(a for n in ns for a in ("--n", str(n)))


def _op(command, k, ns, m, snr_db, report_snr_db, extra=(), **params):
    argv = (command, "--k", str(k), *_votes(ns), "--samples-m", str(m),
            "--snr-db", repr(snr_db), *_channel_args(report_snr_db), *extra)
    return Op(argv, dict(k=k, ns=list(ns), m=m, gamma=10.0 ** (snr_db / 10.0),
                         report_snr_db=report_snr_db, **params))


def roc_grid(rng: np.random.Generator, smoke: bool) -> list[Op]:
    """Every rule at K = 4, 16, 64 on a 200-point pf grid, three channels."""
    snr_db = float(rng.uniform(7.0, 13.0))
    lo = float(10.0 ** rng.uniform(-10.0, -8.0))
    hi = float(rng.uniform(0.9, 0.99))
    points = 20 if smoke else 200
    ks = (4, 16) if smoke else (4, 16, 64)
    return [
        _op("roc", k, range(1, k + 1), SAMPLES_M, snr_db, ch,
            ("--pf-grid", f"{lo!r}:{hi!r}:{points}"), pf_grid=(lo, hi, points))
        for k, ch in product(ks, (None, 10.0, 0.0))
    ]


def _rule1_floor(k: int, report_snr_db) -> float:
    if report_snr_db is None:
        return 0.0
    pe = 0.5 * math.erfc(0.5 * math.sqrt(10.0 ** (report_snr_db / 10.0)) / math.sqrt(2.0))
    return pe ** k


def optimal_n_targets(k: int, report_snr_db) -> list[float]:
    """Log-spaced targets from twice rule 1's miss floor up to 0.5."""
    floor = _rule1_floor(k, report_snr_db)
    lo = 2.0 * floor if floor > 0.0 else PERFECT_TARGET_LO
    return [float(v) for v in np.geomspace(lo, 0.5, OPTIMAL_N_TARGETS)]


def optimal_n(rng: np.random.Generator, smoke: bool) -> list[Op]:
    """One target per (K, channel); the seed draws a shift that rotates the 12 targets.

    Over the 12 shifts every target of every (K, channel) pair runs once. The
    sensing parameters stay fixed, because the set of targets on which the
    interval rule is known to be right is a property of them.
    """
    shift = int(rng.integers(OPTIMAL_N_TARGETS))
    ks = (4,) if smoke else (4, 6, 8)
    ops = []
    for i, (k, ch) in enumerate(product(ks, (None, 0.0, 5.0, 10.0))):
        target = optimal_n_targets(k, ch)[(shift + i) % OPTIMAL_N_TARGETS]
        ops.append(_op("optimal-n", k, (), SAMPLES_M, 10.0, ch,
                       ("--target-qm", repr(target)), target=target))
    return ops


def _simulate(k, ns, m, snr_db, report_snr_db, lam_args, trials, seed):
    extra = (*lam_args, "--trials", str(trials), "--seed", str(seed), "--workers", "2")
    return _op("simulate", k, ns, m, snr_db, report_snr_db, extra, trials=trials)


def sim_grid(rng: np.random.Generator, smoke: bool) -> list[Op]:
    """K=4, M=6, n=1..4 over 9 thresholds with common random numbers."""
    seed = int(rng.integers(2**63))
    trials = 50_000 if smoke else 1_000_000
    return [_simulate(4, (1, 2, 3, 4), SAMPLES_M, 10.0, 15.0, ("--lambda-grid", "8:24:9"), trials, seed)]


def sim_point(rng: np.random.Generator, smoke: bool) -> list[Op]:
    """K=8, M=16, one rule and one threshold: draws and the statistic dominate."""
    seed = int(rng.integers(2**63))
    n = int(rng.integers(2, 7))
    lam = float(rng.uniform(32.0, 48.0))
    trials = 50_000 if smoke else 2_000_000
    return [_simulate(8, (n,), 16, 10.0, 10.0, ("--lambda", repr(lam)), trials, seed)]


WORKLOADS = {
    "roc-grid": roc_grid,
    "optimal-n": optimal_n,
    "sim-grid": sim_grid,
    "sim-point": sim_point,
}


def build(name: str, seed: int, smoke: bool = False) -> list[Op]:
    return WORKLOADS[name](np.random.default_rng(seed), smoke)
