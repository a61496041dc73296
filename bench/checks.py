"""Output checks for one CLI operation, against the oracle and exact properties.

``check(op, data)`` returns a list of problems; an empty list is a pass.
Nothing is compared with a stored copy of earlier output. The tolerances are
derived in README.md ("Oracle tolerances").
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy import stats

import oracle

ROC_COLUMNS = ["n", "lambda", "pf_local", "pm_local", "pe", "qf", "qm", "qf_floor", "qm_floor"]
SIM_COLUMNS = ROC_COLUMNS + ["qf_hat", "qm_hat", "qf_stderr", "qm_stderr", "trials_h0", "trials_h1"]

# Relative resolution of a value printed with 12 significant digits is 5e-12.
PRINT_RTOL = 1e-11
# pf_local against the requested --pf-grid targets (threshold_for_pf promise).
ROUND_TRIP_RTOL = 1e-9
# Local pf/pm against chi2.sf and the fading quadrature. The printed lambda
# carries 5e-13 relative error, which the chi-square tail scales by about
# lambda/2 <= 100; the program's pm is 1 - pd, good to a few ulp of 1.
LOCAL_RTOL = 1e-9
PM_ATOL = 1e-15
# Fused tails against binom.sf. A rule n tail is a degree-K polynomial in the
# local probabilities, so their error grows by up to K = 64 (1.1e-9 measured).
# binom.sf drifts to 1e-5 relative below 1e-280, so below TAIL_ATOL values are
# compared in absolute terms only.
TAIL_RTOL = 1e-7
TAIL_ATOL = 1e-250
# Monotonicity and floors: a computed tail may wiggle by its rounding error.
MONO_RTOL = 1e-11
# The interval rule treats qf differences below 1e-9 as ties.
QF_TIE_TOL = 1e-9
# Family-wise false-failure probability of all Monte Carlo tests in one run.
MC_ALPHA = 1e-9


def _close(got: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - ref) <= rtol * abs(ref) + atol


def _parse_csv(data: bytes, columns: list[str]):
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0].split(",") != columns:
        raise ValueError(f"header is not {','.join(columns)}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells: {line!r}")
        rows.append({c: (int(v) if c in ("n", "trials_h0", "trials_h1") else float(v))
                     for c, v in zip(columns, cells)})
    return rows


def _check_analytic_rows(op, rows, problems):
    """Oracle values and exact properties of the n, lambda, ... qm_floor columns."""
    p = op.params
    k, m, gamma = p["k"], p["m"], p["gamma"]
    pe = oracle.pe_of(p["report_snr_db"])
    by_n = defaultdict(list)
    for row in rows:
        by_n[row["n"]].append(row)
    if sorted(by_n) != sorted(p["ns"]):
        problems.append(f"rules {sorted(by_n)} != requested {sorted(p['ns'])}")
        return
    if [r["n"] for r in rows] != sorted(r["n"] for r in rows):
        problems.append("rows are not sorted by n")
    lams = [r["lambda"] for r in by_n[p["ns"][0]]]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        problems.append("lambda is not strictly increasing")
    lam_arr = np.array(lams)
    pf_ref = oracle.local_pf(lam_arr, m)
    pm_ref = np.array([oracle.local_pm(lam, m, gamma) for lam in lams])
    if "pf_grid" in p:
        lo, hi, count = p["pf_grid"]
        targets = sorted(np.geomspace(lo, hi, count), reverse=True)
        if len(lams) != count:
            problems.append(f"{len(lams)} thresholds for a {count}-point pf grid")
        elif not all(_close(r["pf_local"], t, ROUND_TRIP_RTOL) for r, t in zip(by_n[p["ns"][0]], targets)):
            problems.append("pf_local does not round-trip the pf grid targets")

    floors = []
    for n in p["ns"]:
        group = by_n[n]
        if [r["lambda"] for r in group] != lams:
            problems.append(f"n={n}: thresholds differ from the other rules")
            continue
        qf_ref = oracle.fused_qf(k, n, pf_ref, pe)
        qm_ref = oracle.fused_qm(k, n, pm_ref, pe)
        qf_fl, qm_fl = group[0]["qf_floor"], group[0]["qm_floor"]
        floors.append((qf_fl, qm_fl))
        if any(r["qf_floor"] != qf_fl or r["qm_floor"] != qm_fl for r in group):
            problems.append(f"n={n}: floors differ between rows")
        if not _close(qf_fl, float(oracle.qf_floor(k, n, pe)), TAIL_RTOL, TAIL_ATOL):
            problems.append(f"n={n}: qf_floor {qf_fl!r} != oracle {float(oracle.qf_floor(k, n, pe))!r}")
        if not _close(qm_fl, float(oracle.qm_floor(k, n, pe)), TAIL_RTOL, TAIL_ATOL):
            problems.append(f"n={n}: qm_floor {qm_fl!r} != oracle {float(oracle.qm_floor(k, n, pe))!r}")
        for i, r in enumerate(group):
            where = f"n={n} lambda={r['lambda']!r}"
            for key, ref, rtol, atol in (("pe", pe, PRINT_RTOL, 0.0),
                                         ("pf_local", pf_ref[i], LOCAL_RTOL, 0.0),
                                         ("pm_local", pm_ref[i], LOCAL_RTOL, PM_ATOL),
                                         ("qf", qf_ref[i], TAIL_RTOL, TAIL_ATOL),
                                         ("qm", qm_ref[i], TAIL_RTOL, TAIL_ATOL)):
                if not _close(r[key], float(ref), rtol, atol):
                    problems.append(f"{where}: {key} {r[key]!r} != oracle {float(ref)!r}")
            if r["qf"] < qf_fl * (1.0 - MONO_RTOL) or r["qm"] < qm_fl * (1.0 - MONO_RTOL):
                problems.append(f"{where}: below its floor")
        for a, b in zip(group, group[1:]):
            if b["qf"] > a["qf"] * (1.0 + MONO_RTOL):
                problems.append(f"n={n}: qf rises from lambda={a['lambda']!r} to {b['lambda']!r}")
            if b["qm"] < a["qm"] * (1.0 - MONO_RTOL):
                problems.append(f"n={n}: qm falls from lambda={a['lambda']!r} to {b['lambda']!r}")

    if p["report_snr_db"] is None:
        if any(f != (0.0, 0.0) for f in floors):
            problems.append("a perfect channel must give zero floors")
    elif len(floors) == len(p["ns"]) == k:
        qf_fls, qm_fls = zip(*floors)
        if any(b >= a for a, b in zip(qf_fls, qf_fls[1:])):
            problems.append("qf_floor is not strictly decreasing in n")
        if any(b <= a for a, b in zip(qm_fls, qm_fls[1:])):
            problems.append("qm_floor is not strictly increasing in n")


def _two_sided_p(count: int, total: int, p: float) -> float:
    """Exact two-sided binomial p-value: twice the smaller tail, capped at 1."""
    lower = stats.binom.cdf(count, total, p)
    upper = stats.binom.sf(count - 1, total, p)
    return min(1.0, 2.0 * min(lower, upper))


def _check_monte_carlo(op, rows, problems):
    """Exact tests of every (lambda, n) cell and the exact common-random-number order."""
    p = op.params
    k, m, gamma, trials = p["k"], p["m"], p["gamma"], p["trials"]
    pe = oracle.pe_of(p["report_snr_db"])
    n0, n1 = rows[0]["trials_h0"], rows[0]["trials_h1"]
    if any((r["trials_h0"], r["trials_h1"]) != (n0, n1) for r in rows):
        problems.append("trial counts differ between rows")
    if n0 + n1 != trials:
        problems.append(f"trials_h0 + trials_h1 = {n0 + n1} != {trials}")
        return
    counts = {}
    tests = [(n0, trials, 0.5, "idle trials")]
    for r in rows:
        cf, cm = round(r["qf_hat"] * n0), round(r["qm_hat"] * n1)
        if not (_close(cf / n0, r["qf_hat"], PRINT_RTOL) and _close(cm / n1, r["qm_hat"], PRINT_RTOL)):
            problems.append(f"n={r['n']} lambda={r['lambda']!r}: rates are not counts over trials")
        for rate, total, key in ((cf / n0, n0, "qf_stderr"), (cm / n1, n1, "qm_stderr")):
            if not _close(r[key], math.sqrt(rate * (1.0 - rate) / total), PRINT_RTOL):
                problems.append(f"n={r['n']} lambda={r['lambda']!r}: {key} is not sqrt(p(1-p)/N)")
        counts[r["n"], r["lambda"]] = (cf, cm)
        pf = float(oracle.local_pf(r["lambda"], m))
        pm = oracle.local_pm(r["lambda"], m, gamma)
        tests.append((cf, n0, float(oracle.fused_qf(k, r["n"], pf, pe)), f"qf_hat n={r['n']} lambda={r['lambda']!r}"))
        tests.append((cm, n1, float(oracle.fused_qm(k, r["n"], pm, pe)), f"qm_hat n={r['n']} lambda={r['lambda']!r}"))
    for count, total, prob, what in tests:
        pval = _two_sided_p(count, total, prob)
        if pval < MC_ALPHA / len(tests):
            problems.append(f"{what}: {count}/{total} vs oracle {prob!r}, exact p = {pval:.3g}")

    ns = sorted({n for n, _ in counts})
    lams = sorted({lam for _, lam in counts})
    for n in ns:
        for a, b in zip(lams, lams[1:]):
            (fa, ma), (fb, mb) = counts[n, a], counts[n, b]
            if fb > fa or mb < ma:
                problems.append(f"n={n}: simulated counts not monotone from lambda={a!r} to {b!r}")
    for lam in lams:
        for a, b in zip(ns, ns[1:]):
            (fa, ma), (fb, mb) = counts[a, lam], counts[b, lam]
            if fb > fa or mb < ma:
                problems.append(f"lambda={lam!r}: simulated counts not monotone from n={a} to n={b}")


def _parse_key_values(data: bytes) -> dict:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "key,value":
        raise ValueError("header is not key,value")
    out = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        out[key] = value
    return out


def _check_optimal_n(op, data, problems):
    p = op.params
    k, m, gamma, target = p["k"], p["m"], p["gamma"], p["target"]
    pe = oracle.pe_of(p["report_snr_db"])
    kv = _parse_key_values(data)
    expected = (["target_qm", "chosen_n", "interval_n", "direct_n", "agree", "table_monotone"]
                + [f"qm_star[{n}]" for n in range(1, k)]
                + ["achieved_lambda", "achieved_qf", "achieved_qm"])
    if list(kv) != expected:
        problems.append(f"keys {list(kv)} != {expected}")
        return
    n = int(kv["chosen_n"])
    entries = [float(kv[f"qm_star[{i}]"]) for i in range(1, k)]
    lam, qf, qm = (float(kv[key]) for key in ("achieved_lambda", "achieved_qf", "achieved_qm"))
    if not _close(float(kv["target_qm"]), target, PRINT_RTOL):
        problems.append("target_qm does not echo the request")
    if int(kv["interval_n"]) != n:
        problems.append("chosen_n != interval_n")
    if (kv["agree"] == "yes") != (int(kv["direct_n"]) == n):
        problems.append("agree does not match interval_n == direct_n")
    if (kv["table_monotone"] == "yes") != all(b >= a for a, b in zip(entries, entries[1:])):
        problems.append("table_monotone does not match the entries")

    # achieved point: the miss constraint holds, or the rule never binds it
    if math.isinf(lam):
        loose = float(oracle.qm_loose(k, n, pe))
        if target < loose * (1.0 - MONO_RTOL):
            problems.append(f"lambda = inf but the target is below the loose limit {loose!r}")
        if not (_close(qm, loose, TAIL_RTOL, TAIL_ATOL)
                and _close(qf, float(oracle.qf_floor(k, n, pe)), TAIL_RTOL, TAIL_ATOL)):
            problems.append("lambda = inf but (qf, qm) are not rule n's floor and loose limit")
    else:
        qm_ref = float(oracle.fused_qm(k, n, oracle.local_pm(lam, m, gamma), pe))
        qf_ref = float(oracle.fused_qf(k, n, oracle.local_pf(lam, m), pe))
        if qm_ref > target * (1.0 + TAIL_RTOL):
            problems.append(f"achieved qm {qm_ref!r} exceeds the target")
        if not (_close(qm, qm_ref, TAIL_RTOL, TAIL_ATOL) and _close(qf, qf_ref, TAIL_RTOL, TAIL_ATOL)):
            problems.append(f"achieved (qf, qm) = ({qf!r}, {qm!r}) != oracle ({qf_ref!r}, {qm_ref!r})")

    # the chosen rule is the oracle's best, up to the tie tolerance
    best = {r: oracle.best_qf_at_qm(k, r, target, m, gamma, pe)[0] for r in range(1, k + 1)}
    feasible = {r: v for r, v in best.items() if not math.isnan(v)}
    if n not in feasible:
        problems.append(f"rule {n} cannot reach the target")
    elif feasible[n] > min(feasible.values()) + QF_TIE_TOL:
        problems.append(f"rule {n} gives qf {feasible[n]!r}; the oracle's best is "
                        f"{min(feasible.values())!r} at n={min(feasible, key=feasible.get)}")

    # every finite crossover balances the two rules' qf
    for i, e in enumerate(entries, start=1):
        if math.isinf(e):
            continue
        floor_b = float(oracle.qm_floor(k, i + 1, pe))
        if e < floor_b * (1.0 - MONO_RTOL) or e > float(oracle.qm_loose(k, i, pe)):
            problems.append(f"qm_star[{i}] = {e!r} lies outside the range where both rules exist")
            continue
        if _close(e, floor_b, PRINT_RTOL):
            continue  # rule i+1 is ahead as soon as it exists: recorded at its floor
        qf_a = oracle.best_qf_at_qm(k, i, e, m, gamma, pe)[0]
        qf_b = oracle.best_qf_at_qm(k, i + 1, e, m, gamma, pe)[0]
        if not abs(qf_a - qf_b) <= QF_TIE_TOL:
            problems.append(f"qm_star[{i}] = {e!r} does not balance: qf {qf_a!r} vs {qf_b!r}")


def check(op, data: bytes) -> list[str]:
    """Problems found in the ``--out`` bytes of one operation."""
    problems: list[str] = []
    try:
        if op.command == "optimal-n":
            _check_optimal_n(op, data, problems)
        else:
            simulate = op.command == "simulate"
            rows = _parse_csv(data, SIM_COLUMNS if simulate else ROC_COLUMNS)
            _check_analytic_rows(op, rows, problems)
            if simulate and not problems:
                _check_monte_carlo(op, rows, problems)
    except (ValueError, KeyError, UnicodeDecodeError) as err:
        problems.append(f"unreadable output: {err}")
    return problems
