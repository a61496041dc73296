"""Tests of the benchmark itself: oracle, checks, tracing harness, smoke runs.

Run with ``python -m pytest bench/tests`` from the repository root.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_op(cli, op, out: Path) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*op.argv, "--out", str(out)]) == 0
    return out.read_bytes()


def test_oracle_agrees_with_50_digit_mpmath():
    assert oracle.mpmath_spot_check() < 1e-12


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    first = workloads.build(name, 5)
    assert [op.argv for op in first] == [op.argv for op in workloads.build(name, 5)]
    assert [op.argv for op in first] != [op.argv for op in workloads.build(name, 6)]


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_end_to_end_smoke_run_reports_every_metric():
    result = _result(_bench("--workload", "sim-point", "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_of_every_workload(name):
    result = _result(_bench("--workload", name, "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["cli.main.calls"]["value"] == result["attempted"] // 2


def test_tracer_restores_every_name_and_keeps_output_bytes(tmp_path):
    import coopsense
    import coopsense.cli as cli

    modules = [coopsense, *(sys.modules[f"coopsense.{m}"] for m in tracing.LAYERS)]
    before = [dict(vars(m)) for m in modules]
    channel_pe = vars(coopsense.ReportChannel)["pe"]
    ops = [workloads.build("roc-grid", 1, smoke=True)[1], workloads.build("optimal-n", 1, smoke=True)[2],
           workloads.build("sim-grid", 1, smoke=True)[0]]
    plain = [_run_op(cli, op, tmp_path / "out") for op in ops]

    tracer = tracing.Tracer()
    tracer.install(coopsense)
    try:
        assert len(tracer.not_restored()) > 40  # every wrapper is in place
        traced = [_run_op(cli, op, tmp_path / "out") for op in ops]
    finally:
        tracer.uninstall()

    assert tracer.not_restored() == []
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items()), module.__name__
    assert vars(coopsense.ReportChannel)["pe"] is channel_pe
    assert traced == plain
    stats, counters = tracer.totals()
    assert stats["cli.main"][0] == len(ops)
    assert counters["montecarlo.chunks"] == 4  # 50 000 trials in chunks of 16 384
    assert all(span[2] in tracing.KEPT_SPANS for span in tracer.spans)


def test_simulate_output_does_not_depend_on_worker_count(tmp_path):
    import coopsense.cli as cli

    op = workloads.build("sim-grid", 4, smoke=True)[0]
    one = list(op.argv)
    one[one.index("--workers") + 1] = "1"
    single = _run_op(cli, workloads.Op(tuple(one), op.params), tmp_path / "one")
    assert single == _run_op(cli, op, tmp_path / "two")


def _mutate(data: bytes, row: int, column: int, factor: float) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row].split(",")
    cells[column] = format(float(cells[column]) * factor, ".12g")
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_checks_pass_good_output_and_catch_small_errors(tmp_path):
    import coopsense.cli as cli

    roc = workloads.build("roc-grid", 1, smoke=True)[4]  # K=16, SNR_r 10 dB
    data = _run_op(cli, roc, tmp_path / "roc")
    assert checks.check(roc, data) == []
    qf = checks.ROC_COLUMNS.index("qf")
    assert checks.check(roc, _mutate(data, 30, qf, 1 + 1e-6))
    assert checks.check(roc, _mutate(data, 30, checks.ROC_COLUMNS.index("pm_local"), 1 + 1e-8))

    sim = workloads.build("sim-grid", 1, smoke=True)[0]
    data = _run_op(cli, sim, tmp_path / "sim")
    assert checks.check(sim, data) == []
    # n=1 at the largest threshold gets one false alarm more than at the one
    # before it, with its standard error kept consistent
    lines = data.decode().splitlines()
    col = {c: i for i, c in enumerate(checks.SIM_COLUMNS)}
    before, last = lines[8].split(","), lines[9].split(",")
    n0 = int(last[col["trials_h0"]])
    rate = (round(float(before[col["qf_hat"]]) * n0) + 1) / n0
    last[col["qf_hat"]] = format(rate, ".12g")
    last[col["qf_stderr"]] = format((rate * (1 - rate) / n0) ** 0.5, ".12g")
    lines[9] = ",".join(last)
    problems = checks.check(sim, ("\n".join(lines) + "\n").encode())
    assert any("not monotone" in p for p in problems)


def test_optimal_n_check_rejects_a_worse_rule(tmp_path):
    import coopsense.cli as cli

    op = workloads._op("optimal-n", 3, (), 9, 2.9, -2.72, ("--target-qm", "0.4"), target=0.4)
    problems = checks.check(op, _run_op(cli, op, tmp_path / "out"))
    assert any("oracle's best" in p for p in problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "roc-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
