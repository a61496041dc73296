"""The all-pairs crossover solve: the Newton crossing's stops and errors, batch independence of the
crossover table, and the bounded gap-sign scans with the signs their forward table certifies."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopsense import roc
from coopsense.fusion import _fused_qm
from coopsense.local_sensing import SensingParams
from coopsense.reporting import ReportChannel, channel_from_snr_db

PROPERTY = settings(max_examples=600, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def sensing(m, snr_db):
    return SensingParams(samples_m=m, avg_snr_gamma=10.0 ** (snr_db / 10.0))


class TestCrossingSolve:
    """The Newton crossing's stops and errors, on a table whose pairs all cross (K 8, M 6, 10 dB, SNR_r 5 dB)."""

    K, SENSING, CHANNEL = 8, sensing(6, 10.0), channel_from_snr_db(5.0)

    def table(self):
        return roc.crossover_table(self.K, self.SENSING, self.CHANNEL)

    def test_a_nan_gap_raises(self, monkeypatch):
        monkeypatch.setattr(roc, "_gap_and_slope", lambda *args: (np.full(np.size(args[-1]), np.nan),) * 2)
        with pytest.raises(ValueError, match="nan"):
            self.table()

    def test_exhausting_the_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(roc, "_ROUNDS", 2)
        with pytest.raises(RuntimeError, match="2 rounds"):
            self.table()

    def test_a_gap_of_exactly_zero_returns_that_point(self, monkeypatch):
        points, gap_and_slope = [], roc._gap_and_slope

        def zero_at_first(k, pair, samples_m, gamma, pe, qs):
            points.append(qs.tolist())
            gap, slope = gap_and_slope(k, pair, samples_m, gamma, pe, qs)
            return np.zeros_like(gap) if len(points) == 1 else gap, slope

        monkeypatch.setattr(roc, "_gap_and_slope", zero_at_first)
        entries = list(self.table().values())
        assert len(points) == 1 and entries == points[0] and len(entries) == self.K - 1

    def test_rounds_stay_few(self, monkeypatch):
        """Brent took 6 rounds on this table, one _lambda_for_qm call each; the Newton steps take 5."""
        calls, gap_and_slope = [], roc._gap_and_slope
        monkeypatch.setattr(roc, "_gap_and_slope", lambda *args: calls.append(1) or gap_and_slope(*args))
        self.table()
        assert len(calls) <= 5


def per_pair_entries(k, sens, channel):
    """Table entries from one single-pair crossover solve per pair."""
    return {n: float(roc._crossovers(k, np.array([n]), sens.samples_m, sens.avg_snr_gamma, float(channel.pe))[0])
            for n in range(1, k)}


def hexed(entries):
    return {n: float(v).hex() for n, v in entries.items()}


@settings(PROPERTY, max_examples=25)
@given(st.integers(2, 12), st.integers(1, 16), st.floats(-5.0, 30.0), st.one_of(st.floats(-3.0, 20.0), st.none()))
def test_table_entries_do_not_depend_on_the_batch(k, m, snr_db, snr_r_db):
    channel = ReportChannel(noise_var_sigma2=0.0) if snr_r_db is None else channel_from_snr_db(snr_r_db)
    table = roc.crossover_table(k, sensing(m, snr_db), channel)
    assert hexed(table) == hexed(per_pair_entries(k, sensing(m, snr_db), channel))


def test_a_table_mixing_crossings_with_both_dominant_rules_matches_its_pairs():
    k, sens, channel = 12, sensing(9, 21.0), channel_from_snr_db(15.0)
    table = roc.crossover_table(k, sens, channel)
    pe = float(channel.pe)
    kinds = {"inf" if v == math.inf else "floor" if v == _fused_qm(k, n + 1, 0.0, pe) else "crossing"
             for n, v in table.items()}
    assert kinds == {"inf", "floor", "crossing"}
    assert hexed(table) == hexed(per_pair_entries(k, sens, channel))


def exact_gap_signs(k, pair, samples_m, gamma, pe, qs, tie):
    """The gap-sign scan without its forward table: every level inverted exactly."""
    gap = roc._qf_gap(k, pair, samples_m, gamma, pe, qs)
    return gap > 0.0, gap < -tie


@settings(PROPERTY, max_examples=60)
@given(st.integers(2, 12), st.sampled_from([*range(1, 17), 150]), st.floats(-5.0, 30.0),
       st.one_of(st.floats(-3.0, 20.0), st.none()))
def test_the_table_certifies_only_the_exact_signs(k, m, snr_db, snr_r_db):
    channel = ReportChannel(noise_var_sigma2=0.0) if snr_r_db is None else channel_from_snr_db(snr_r_db)
    scans, gap_signs = [], roc._gap_signs

    def recorded(*args):
        scans.append(args)
        return gap_signs(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roc, "_gap_signs", recorded)
        table = roc.crossover_table(k, sensing(m, snr_db), channel)
        patch.setattr(roc, "_gap_signs", exact_gap_signs)
        assert hexed(table) == hexed(roc.crossover_table(k, sensing(m, snr_db), channel))
    for args in scans:
        worse, better, open_ = roc._table_signs(*args)
        exact_worse, exact_better = exact_gap_signs(*args)
        assert np.array_equal(worse[~open_], exact_worse[~open_])
        assert np.array_equal(better[~open_], exact_better[~open_])


def test_the_table_decides_most_benchmarked_levels():
    """A table that decided nothing would give the exact signs too, at the exact scan's cost."""
    k, pe = 8, float(channel_from_snr_db(10.0).pe)
    n = np.repeat(np.arange(1, k), roc._CROSSOVER_SCAN_POINTS)
    qs = np.concatenate([np.geomspace(_fused_qm(k, r + 1, 0.0, pe) * 1.001, _fused_qm(k, r, 1.0, pe) * 0.999,
                                      roc._CROSSOVER_SCAN_POINTS) for r in range(1, k)])
    _, _, open_ = roc._table_signs(k, np.array([n, n + 1]), 6, 10.0, pe, qs, roc._QF_TIE_TOL)  # M 6, 10 dB
    assert open_.mean() < 0.05


def test_scans_are_bounded_and_their_split_changes_no_bit(monkeypatch):
    k, sens, channel = 40, sensing(6, 10.0), channel_from_snr_db(10.0)
    sizes, rules, inside, gap_signs, fused_qm = [], [], [], roc._gap_signs, roc._fused_qm

    def recorded(k, pair, samples_m, gamma, pe, qs, tie):
        sizes.append(np.size(qs))
        inside.append(True)
        try:
            return gap_signs(k, pair, samples_m, gamma, pe, qs, tie)
        finally:
            inside.pop()

    def tabulated(k, n, pm, pe):
        if inside:
            rules.append(np.unique(n).size)
        return fused_qm(k, n, pm, pe)

    monkeypatch.setattr(roc, "_gap_signs", recorded)
    monkeypatch.setattr(roc, "_fused_qm", tabulated)
    whole = roc.crossover_table(k, sens, channel)
    assert sizes and max(sizes) <= roc._SCAN_PAIRS * roc._CROSSOVER_SCAN_POINTS and len(sizes) > 1
    assert max(rules) <= roc._SCAN_PAIRS + 1
    monkeypatch.setattr(roc, "_SCAN_PAIRS", 3)
    sizes.clear()
    rules.clear()
    assert hexed(roc.crossover_table(k, sens, channel)) == hexed(whole)
    assert max(sizes) <= 3 * roc._CROSSOVER_SCAN_POINTS
    assert max(rules) <= 3 + 1


def test_scan_memory_does_not_grow_with_k():
    """A table's tracemalloc peak grows with K by little more than its entries: the scan keeps only each
    pair's bracket and dominant rule, not its miss levels and signs."""
    sens, channel = sensing(6, 10.0), channel_from_snr_db(5.0)
    peaks = {}
    for k in (400, 800):
        tracemalloc.start()
        try:
            roc.crossover_table(k, sens, channel)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[800] - peaks[400] < (800 - 400) * 1024
