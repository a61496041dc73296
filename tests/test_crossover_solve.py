"""The all-pairs crossover solve: its Brent port against scipy.optimize.brentq, batch independence
of the crossover table, and the bounded gap-sign scans with the signs their forward table certifies."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import optimize

from coopsense import _inversion as inv
from coopsense import roc
from coopsense.fusion import FusionConfig, _fused_qm
from coopsense.local_sensing import SensingParams
from coopsense.reporting import channel_from_snr_db, perfect_channel

PROPERTY = settings(max_examples=600, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Smooth shapes with a sign change at u = 0; the secant is exact on "line", and "root" and "sine"
# (several roots) push Brent into its bisection fallback.
SHAPES = {
    "line": lambda u: u,
    "tanh": math.tanh,
    "cubic": lambda u: u ** 3 + 1e-3 * u,
    "expm1": lambda u: math.expm1(min(u, 700.0)),
    "root": lambda u: math.copysign(abs(u) ** 0.3, u),
    "sine": math.sin,
}
TOLERANCES = [dict(xtol=1e-15, rtol=8.9e-16), dict(xtol=2e-12, rtol=8.9e-16), dict(xtol=1e-4, rtol=1e-10)]
OPTIONS = dict(xtol=2e-12, rtol=8.9e-16)


def shape(name, root, width, scale):
    return lambda x: scale * SHAPES[name]((x - root) / width)


def scipy_result(f, a, b, **options):
    """(root bits, evaluations) of scipy's brentq, or the type of the exception it raises."""
    try:
        root, info = optimize.brentq(f, a, b, full_output=True, **options)
    except (ValueError, RuntimeError) as err:
        return type(err)
    return float(root).hex(), info.function_calls


def port_results(fs, brackets, xtol, rtol, maxiter=100):
    """(root bits, evaluations) of each bracket, all solved in lockstep by the port."""
    calls = [0] * len(fs)

    def evaluate(owners, xs):
        for i in owners.tolist():
            calls[i] += 1
        return [fs[i](x) for i, x in zip(owners.tolist(), xs.tolist())]

    roots = inv.brentq(evaluate, brackets, xtol=xtol, rtol=rtol, maxiter=maxiter)
    return [(root.hex(), n) for root, n in zip(roots, calls)]


def port_result(f, a, b, **options):
    try:
        return port_results([f], [(a, b)], **options)[0]
    except (ValueError, RuntimeError) as err:
        return type(err)


brents = st.tuples(
    st.sampled_from(sorted(SHAPES)), st.floats(-3.0, 3.0), st.floats(1e-3, 1e3),
    st.floats(1e-200, 1e200).flatmap(lambda s: st.sampled_from([s, -s])),
    st.floats(1e-6, 10.0), st.floats(1e-6, 10.0), st.booleans(),
)


def bracket_of(case):
    name, root, width, scale, left, right, swap = case
    a, b = root - left, root + right
    return shape(name, root, width, scale), (b, a) if swap else (a, b)


class TestBrentPort:
    """Same root bits after the same evaluations as scipy's brentq, and the same errors.

    The drawn cases take every kind of step: inverse-quadratic extrapolation,
    secant interpolation, rejected steps that fall back to bisection, the
    +-delta minimum step, and extrapolation whose denominator underflows to 0
    (scales near 1e-200), where the C code's step is inf or nan.
    """

    @PROPERTY
    @given(brents, st.sampled_from(TOLERANCES), st.integers(1, 200))
    def test_matches_scipy(self, case, tolerances, maxiter):
        f, (a, b) = bracket_of(case)
        assert port_result(f, a, b, maxiter=maxiter, **tolerances) == scipy_result(f, a, b, maxiter=maxiter,
                                                                                  **tolerances)

    @settings(PROPERTY, max_examples=60)
    @given(st.lists(brents, min_size=1, max_size=24), st.sampled_from(TOLERANCES))
    def test_lockstep_solves_each_bracket_as_scipy_does_alone(self, cases, tolerances):
        solved = [(f, ab) for f, ab in map(bracket_of, cases) if isinstance(scipy_result(f, *ab, **tolerances), tuple)]
        fs, brackets = [f for f, _ in solved], [ab for _, ab in solved]
        assert port_results(fs, brackets, **tolerances) == [scipy_result(f, *ab, **tolerances) for f, ab in solved]

    @pytest.mark.parametrize("a, b, want", [(1.0, 2.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
    def test_a_zero_at_an_end_is_the_root(self, a, b, want):
        f = lambda x: x - 1.0
        assert port_result(f, a, b, **OPTIONS) == scipy_result(f, a, b, **OPTIONS) == (want.hex(), 2)

    @pytest.mark.parametrize("f, error", [
        (lambda x: x * x + 1.0, ValueError),  # same sign at both ends
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, ValueError),  # NaN on the secant step
        (lambda x: math.nan if x > 0.9 else x - 0.5, ValueError),  # NaN at an end
    ])
    def test_errors_match(self, f, error):
        assert port_result(f, 0.0, 1.0, **OPTIONS) == scipy_result(f, 0.0, 1.0, **OPTIONS) == error

    def test_maxiter_exhaustion_raises(self):
        f = shape("root", 0.3, 1.0, 1.0)
        assert scipy_result(f, 0.0, 1.0, maxiter=3, **OPTIONS) == RuntimeError
        with pytest.raises(RuntimeError):
            inv.brentq(lambda _, xs: [f(x) for x in xs.tolist()], [(0.0, 1.0)], maxiter=3, **OPTIONS)


def sensing(m, snr_db):
    return SensingParams(samples_m=m, threshold_lambda=0.0, avg_snr_gamma=10.0 ** (snr_db / 10.0))


def per_pair_entries(k, sens, channel):
    """Table entries from one qm_star call per pair, mapped as crossover_table maps them."""
    entries = {}
    for n in range(1, k):
        try:
            entries[n] = float(roc.qm_star(FusionConfig(num_radios_k=k, vote_threshold_n=n), sens, channel))
        except roc.NoCrossoverError as err:
            entries[n] = math.inf if err.dominant == n else float(_fused_qm(k, n + 1, 0.0, float(channel.pe)))
    return entries


def hexed(entries):
    return {n: float(v).hex() for n, v in entries.items()}


@settings(PROPERTY, max_examples=25)
@given(st.integers(2, 12), st.integers(1, 16), st.floats(-5.0, 30.0), st.one_of(st.floats(-3.0, 20.0), st.none()))
def test_table_entries_do_not_depend_on_the_batch(k, m, snr_db, snr_r_db):
    channel = perfect_channel() if snr_r_db is None else channel_from_snr_db(snr_r_db)
    table = roc.crossover_table(k, sensing(m, snr_db), channel)
    assert hexed(table.entries) == hexed(per_pair_entries(k, sensing(m, snr_db), channel))


def test_a_table_mixing_crossings_with_both_dominant_rules_matches_its_pairs():
    k, sens, channel = 12, sensing(9, 21.0), channel_from_snr_db(15.0)
    table = roc.crossover_table(k, sens, channel)
    pe = float(channel.pe)
    kinds = {"inf" if v == math.inf else "floor" if v == _fused_qm(k, n + 1, 0.0, pe) else "crossing"
             for n, v in table.entries.items()}
    assert kinds == {"inf", "floor", "crossing"}
    assert hexed(table.entries) == hexed(per_pair_entries(k, sens, channel))


def exact_gap_signs(k, pair, samples_m, gamma, pe, qs, tie):
    """The gap-sign scan without its forward table: every level inverted exactly."""
    gap = inv.qf_gap(k, pair, samples_m, gamma, pe, qs)
    return gap > 0.0, gap < -tie


@settings(PROPERTY, max_examples=60)
@given(st.integers(2, 12), st.sampled_from([*range(1, 17), 150]), st.floats(-5.0, 30.0),
       st.one_of(st.floats(-3.0, 20.0), st.none()))
def test_the_table_certifies_only_the_exact_signs(k, m, snr_db, snr_r_db):
    channel = perfect_channel() if snr_r_db is None else channel_from_snr_db(snr_r_db)
    scans, gap_signs = [], inv.gap_signs

    def recorded(*args):
        scans.append(args)
        return gap_signs(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inv, "gap_signs", recorded)
        table = roc.crossover_table(k, sensing(m, snr_db), channel)
        patch.setattr(inv, "gap_signs", exact_gap_signs)
        assert hexed(table.entries) == hexed(roc.crossover_table(k, sensing(m, snr_db), channel).entries)
    for args in scans:
        worse, better, open_ = inv._table_signs(*args)
        exact_worse, exact_better = exact_gap_signs(*args)
        assert np.array_equal(worse[~open_], exact_worse[~open_])
        assert np.array_equal(better[~open_], exact_better[~open_])


def test_the_table_decides_most_benchmarked_levels():
    """A table that decided nothing would give the exact signs too, at the exact scan's cost."""
    k, pe = 8, float(channel_from_snr_db(10.0).pe)
    n = np.repeat(np.arange(1, k), roc._CROSSOVER_SCAN_POINTS)
    qs = np.concatenate([np.geomspace(_fused_qm(k, r + 1, 0.0, pe) * 1.001, _fused_qm(k, r, 1.0, pe) * 0.999,
                                      roc._CROSSOVER_SCAN_POINTS) for r in range(1, k)])
    _, _, open_ = inv._table_signs(k, np.array([n, n + 1]), 6, 10.0, pe, qs, roc._QF_TIE_TOL)  # M 6, 10 dB
    assert open_.mean() < 0.05


def test_scans_are_bounded_and_their_split_changes_no_bit(monkeypatch):
    k, sens, channel = 40, sensing(6, 10.0), channel_from_snr_db(10.0)
    sizes, rules, inside, gap_signs, fused_qm = [], [], [], inv.gap_signs, inv._fused_qm

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

    monkeypatch.setattr(inv, "gap_signs", recorded)
    monkeypatch.setattr(inv, "_fused_qm", tabulated)
    whole = roc.crossover_table(k, sens, channel).entries
    assert sizes and max(sizes) <= roc._SCAN_PAIRS * roc._CROSSOVER_SCAN_POINTS and len(sizes) > 1
    assert max(rules) <= roc._SCAN_PAIRS + 1
    monkeypatch.setattr(roc, "_SCAN_PAIRS", 3)
    sizes.clear()
    rules.clear()
    assert hexed(roc.crossover_table(k, sens, channel).entries) == hexed(whole)
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
