"""Command line contract: schemas, determinism, exit codes, config handling."""
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from coopsense import cli
from coopsense.cli import _FIELDS, ROC_COLUMNS, SIM_COLUMNS, _build_parser, _fmt, _json_value, main
from coopsense.fusion import FusionConfig, asymptotic_qf, asymptotic_qm, fused_qf, fused_qm
from coopsense.local_sensing import SensingParams, local_pd, local_pf
from coopsense.mathx import Probability
from coopsense.montecarlo import SimGrid, SimScenario, run_grid
from coopsense.reporting import channel_from_snr_db
from coopsense.roc import RocSweep

BASE = ["--k", "4", "--samples-m", "6", "--snr-db", "20", "--report-snr-db", "10"]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "coopsense", *args],
        capture_output=True, text=True, timeout=600,
    )


def parse_kv(stdout):
    out = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAnalyze:
    def test_matches_library_exactly(self):
        proc = run_cli("analyze", *BASE, "--n", "2", "--lambda", "12")
        assert proc.returncode == 0
        got = parse_kv(proc.stdout)
        p = SensingParams(samples_m=6, avg_snr_gamma=100.0)
        ch = channel_from_snr_db(10.0)
        cfg = FusionConfig(num_radios_k=4, vote_threshold_n=2)
        expected = {
            "pf_local": local_pf(p, 12.0),
            "pm_local": Probability(1.0 - local_pd(p, 12.0)),
            "pe": ch.pe,
            "qf": fused_qf(cfg, local_pf(p, 12.0), ch.pe),
            "qm": fused_qm(cfg, Probability(1.0 - local_pd(p, 12.0)), ch.pe),
            "qf_floor": asymptotic_qf(cfg, ch.pe),
            "qm_floor": asymptotic_qm(cfg, ch.pe),
        }
        for key, value in expected.items():
            assert got[key] == format(float(value), ".12g")

    def test_perfect_report_prints_exact_zero(self):
        proc = run_cli("analyze", "--k", "4", "--n", "1", "--samples-m", "6",
                       "--snr-db", "20", "--perfect-report", "--lambda", "12")
        assert proc.returncode == 0
        assert parse_kv(proc.stdout)["pe"] == "0"

    def test_rejects_multiple_vote_thresholds(self):
        proc = run_cli("analyze", *BASE, "--n", "1", "--n", "2", "--lambda", "12")
        assert proc.returncode == 2
        assert "n" in proc.stderr


class TestRoc:
    def test_single_point_grid_single_rule(self, tmp_path):
        out = tmp_path / "roc.csv"
        proc = run_cli("roc", *BASE, "--n", "2", "--lambda", "12", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(ROC_COLUMNS)
        assert len(lines) == 2

    def test_file_is_sorted_and_deterministic(self, tmp_path):
        args = ["roc", *BASE, "--n", "3", "--n", "1", "--pf-grid", "1e-8:0.99:25"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_csv(a)
        keys = [(int(r["n"]), float(r["lambda"])) for r in rows]
        assert keys == sorted(keys)
        assert {int(r["n"]) for r in rows} == {1, 3}

    def test_or_rule_dominance_recoverable_from_file(self, tmp_path):
        # error-free reporting: the n=1 curve must win at matched miss levels
        out = tmp_path / "fig2.csv"
        proc = run_cli("roc", "--k", "4", "--n", "1", "--n", "2", "--n", "3", "--n", "4",
                       "--samples-m", "6", "--snr-db", "20", "--perfect-report",
                       "--pf-grid", "1e-10:0.999999:400", "--out", str(out))
        assert proc.returncode == 0
        rows = read_csv(out)
        by_n = {}
        for r in rows:
            by_n.setdefault(int(r["n"]), []).append((float(r["qm"]), float(r["qf"])))
        lo = max(min(q for q, _ in pts) for pts in by_n.values())
        hi = min(max(q for q, _ in pts) for pts in by_n.values())
        for qm in np.geomspace(max(lo, 1e-6), hi * 0.999, 50):
            vals = {}
            for n, pts in by_n.items():
                qms = [q for q, _ in pts]
                qfs = [f for _, f in pts]
                vals[n] = float(np.interp(qm, qms, qfs))
            assert vals[1] <= min(vals.values()) + 1e-6

    def test_reporting_errors_split_the_floors(self, tmp_path):
        for snr_r in ("5", "10"):
            out = tmp_path / f"fig3_{snr_r}.csv"
            proc = run_cli("roc", "--k", "4", "--n", "1", "--n", "2", "--n", "3", "--n", "4",
                           "--samples-m", "6", "--snr-db", "20", "--report-snr-db", snr_r,
                           "--pf-grid", "1e-9:0.9:50", "--out", str(out))
            assert proc.returncode == 0
            rows = read_csv(out)
            pe = channel_from_snr_db(float(snr_r)).pe
            floors = {int(r["n"]): float(r["qf_floor"]) for r in rows}
            for n in (1, 2, 3, 4):
                expected = float(asymptotic_qf(FusionConfig(num_radios_k=4, vote_threshold_n=n), pe))
                assert floors[n] == pytest.approx(expected, rel=1e-9)
            assert sorted(floors.values(), reverse=True) == [floors[n] for n in (1, 2, 3, 4)]

    def test_csv_round_trips_through_recomputation(self, tmp_path):
        out = tmp_path / "roc.csv"
        assert run_cli("roc", *BASE, "--n", "2", "--lambda-grid", "2:40:10",
                       "--out", str(out)).returncode == 0
        ch = channel_from_snr_db(10.0)
        cfg = FusionConfig(num_radios_k=4, vote_threshold_n=2)
        p = SensingParams(samples_m=6, avg_snr_gamma=100.0)
        for row in read_csv(out):
            lam = float(row["lambda"])
            assert float(row["qf"]) == pytest.approx(float(fused_qf(cfg, local_pf(p, lam), ch.pe)), abs=1e-9)
            qm = fused_qm(cfg, Probability(1.0 - local_pd(p, lam)), ch.pe)
            assert float(row["qm"]) == pytest.approx(float(qm), abs=1e-9)

    def test_json_format_matches_csv_values(self, tmp_path):
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        args = ["roc", *BASE, "--n", "2", "--lambda-grid", "5:25:5"]
        assert run_cli(*args, "--out", str(csv_out)).returncode == 0
        assert run_cli(*args, "--format", "json", "--out", str(json_out)).returncode == 0
        csv_rows = read_csv(csv_out)
        json_rows = json.loads(json_out.read_text())
        assert len(csv_rows) == len(json_rows) == 5
        for c, j in zip(csv_rows, json_rows):
            assert set(j) == set(ROC_COLUMNS)
            for col in ROC_COLUMNS:
                assert float(c[col]) == pytest.approx(float(j[col]), rel=1e-11, abs=1e-300)


class TestSimulate:
    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        args = ["simulate", *BASE, "--n", "2", "--lambda-grid", "8:16:3",
                "--trials", "30000", "--seed", "2024"]
        files = []
        for tag, extra in (("a", []), ("b", []), ("c", ["--workers", "3"])):
            out = tmp_path / f"{tag}.csv"
            assert run_cli(*args, *extra, "--out", str(out)).returncode == 0
            files.append(out.read_bytes())
        assert files[0] == files[1] == files[2]

    def test_empirical_columns_track_analytical(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", *BASE, "--n", "1", "--n", "2", "--lambda-grid", "8:20:3",
                       "--trials", "200000", "--seed", "9", "--out", str(out)).returncode == 0
        rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            for truth_col, hat_col, trials_col in (("qf", "qf_hat", "trials_h0"),
                                                   ("qm", "qm_hat", "trials_h1")):
                truth = float(row[truth_col])
                hat = float(row[hat_col])
                n_side = int(row[trials_col])
                se = math.sqrt(truth * (1.0 - truth) / n_side)
                assert abs(hat - truth) <= 4.0 * max(se, 1e-12)

    def test_single_trial_row_is_well_formed(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli("simulate", *BASE, "--n", "1", "--lambda", "12",
                       "--trials", "1", "--seed", "5", "--out", str(out)).returncode == 0
        row = read_csv(out)[0]
        assert set(row) == set(SIM_COLUMNS)
        assert int(row["trials_h0"]) + int(row["trials_h1"]) == 1

    # sha256 of the CSV written by the slicing tally that the counting tally replaced
    GOLDEN = {
        "noisy": (["--k", "4", "--n", "1", "--n", "2", "--n", "3", "--n", "4", "--samples-m", "6",
                   "--snr-db", "10", "--report-snr-db", "15", "--lambda-grid", "8:24:9",
                   "--trials", "200000", "--seed", "20261018"],
                  "2b268dd4644106616502be6b13813b497c943577d019c6b6a0fd021033f5aca9"),
        "perfect": (["--k", "5", "--n", "1", "--n", "3", "--n", "5", "--samples-m", "4",
                     "--snr-db", "5", "--perfect-report", "--lambda-grid", "0:16:5",
                     "--trials", "60000", "--seed", "7"],
                    "061988c0c9220fd4c0a123d7b292b3ddd8207bbfffe04a8ced01acfa3e3d90bd"),
        # written by the row-reduced energy statistic of commit a7662e2: M = 16 sums each
        # half with eight accumulators, M = 150 splits each half before that
        "m16": (["--k", "3", "--n", "1", "--n", "2", "--n", "3", "--samples-m", "16",
                 "--snr-db", "3", "--report-snr-db", "12", "--lambda-grid", "24:44:6",
                 "--trials", "40000", "--seed", "1616"],
                "7d8dc0e3b6c4d9d36870bc3e787b7cf7932fb246ab2cdc6d4df6cff1b4fd2db4"),
        "m150": (["--k", "2", "--n", "1", "--n", "2", "--samples-m", "150",
                  "--snr-db", "-3", "--report-snr-db", "20", "--lambda-grid", "280:340:7",
                  "--trials", "20000", "--seed", "150150"],
                 "60371d6fec22c1ddd86e978ffd5beeb298b2f9a62292f7eef0261179b62f096e"),
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_matches_golden_digest(self, tmp_path, name, workers):
        args, digest = self.GOLDEN[name]
        out = tmp_path / "sim.csv"
        assert main(["simulate", *args, "--workers", workers, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_requires_trials_and_seed(self):
        proc = run_cli("simulate", *BASE, "--n", "1", "--lambda", "12", "--seed", "5")
        assert proc.returncode == 2
        assert "trials" in proc.stderr
        proc = run_cli("simulate", *BASE, "--n", "1", "--lambda", "12", "--trials", "10")
        assert proc.returncode == 2
        assert "seed" in proc.stderr


class TestLargeSweep:
    """simulate at K = 16 with all 16 rules over 20 000 thresholds: 320 000 rows from 100 trials."""

    ARGS = ["--k", "16", *[a for n in range(1, 17) for a in ("--n", str(n))], "--samples-m", "6",
            "--snr-db", "10", "--report-snr-db", "10", "--lambda-grid", "0:100:20000",
            "--trials", "100", "--seed", "1"]

    def test_out_file_matches_the_per_cell_results(self, tmp_path):
        # sha256 of the CSV written at commit f9b5370, which built one result object per cell
        out = tmp_path / "sim.csv"
        assert main(["simulate", *self.ARGS, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "9fa0604723f382ff583a7bae308f7f82ce52d68f657a80386f5a5b92e44798c9"

    def test_run_grid_memory_is_a_few_arrays_per_cell(self):
        # per-cell result objects took 175 MB here; the arrays and their temporaries take 19 MB
        sensing = SensingParams(samples_m=6, avg_snr_gamma=10.0)
        scenario = SimScenario(sensing=sensing, channel=channel_from_snr_db(10.0),
                               fusion=FusionConfig(num_radios_k=16, vote_threshold_n=1), trials=100, seed=1)
        lambdas, ns = np.linspace(0.0, 100.0, 20_000), list(range(1, 17))
        tracemalloc.start()
        try:
            run_grid(scenario, lambdas, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(ns) * len(lambdas) * 8 * len(SimGrid._fields)


K64_ALL_RULES = ["--k", "64", *[a for n in range(1, 65) for a in ("--n", str(n))],
                 "--samples-m", "6", "--snr-db", "10", "--pf-grid", "1e-9:0.99:60"]
PERFECT = ["--k", "4", "--samples-m", "6", "--snr-db", "20", "--perfect-report"]


class TestGoldenBytes:
    """sha256 of every output path, as written by the row-per-dict writer at commit 1b03617, except
    optimal-n-noisy and optimal-n-perfect-json, which print the last bits of the Newton thresholds and
    crossings.

    The K = 64 cases hold a qf that underflows to a printed 0 (perfect channel)
    and rows with qf = 1 (noisy channel); the perfect-channel optimal-n case
    holds infinite crossovers, which JSON writes as "inf".
    """

    GOLDEN = {
        "roc-k64-noisy": (["roc", *K64_ALL_RULES, "--report-snr-db", "10"], {
            "csv": "5810aab9a4c213f54320fbff552c4548a703bcae576e3214bbbc409c5f399566",
            "json": "8c49a71859c1b11a9f5fefe0cefd4aedd27ea38c2a8f09e6e1738ea6aa010f75"}),
        "roc-k64-perfect": (["roc", *K64_ALL_RULES, "--perfect-report"], {
            "csv": "9b09cf99ab00d70c3c590f2147aa692f577d6b1c723e319a06cbe69ab161a519",
            "json": "957b7231efd8d5a1da2709773e9b628752ee7755c6aa5d6f6bb5a39f3e47e28a"}),
        "roc-lambda-grid": (["roc", *BASE, "--n", "1", "--n", "3", "--lambda-grid", "0:40:17"], {
            "csv": "a7428186fc696febf0c87cf47bda16f859e3a25e2348de40a9a0f422f0dd26a3",
            "json": "c613b077bca16b8dcb1b2848dbab5bd7663eeb4c18f57d161849118a1c3f8c1e"}),
        "roc-lambda": (["roc", *PERFECT, "--n", "4", "--lambda", "0"], {
            "csv": "6fc4172583432d87dc1f8d91f5cc25417bc816c4c4ee2ca5fdd22c75e8eecf9d",
            "json": "d3e6b220deb928d913ad8592400acf8779992957ef5ecaa9874fb58bdb4fd3d4"}),
        "analyze": (["analyze", *BASE, "--n", "2", "--lambda", "12"], {
            "csv": "79c1ca34c40f154984d30ee0e9c50b8007ff8cf254347b6d9340198fe0b9cc06",
            "json": "f0f0b7b2dd29285149f3f3a8e30d9a4caa218cbd4f419efcf466f7cc581419d1"}),
        "optimal-n-noisy": (["optimal-n", *BASE, "--target-qm", "0.05"], {
            "csv": "709713bf7ce98c2de28fa56c4a7c5ad33c71a0ea339d2d1a7f82577541334a85",
            "json": "2e65c22ffce510e5e11ca2834b84c7adb86285e49dd8610288684d3db4833e4f"}),
        "optimal-n-perfect": (["optimal-n", *PERFECT, "--target-qm", "0.01"], {
            "csv": "3788311efb157c4ed66207f50ab4cb2b90e4efb048e05c020354be88c3435fbe",
            "json": "4447d513d5040b51074b5aef6eb94ae651d447a2d4b5dd62bd1b1c2b70333a5a"}),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_out_file_matches_golden_digest(self, tmp_path, name, fmt):
        args, digests = self.GOLDEN[name]
        out = tmp_path / f"out.{fmt}"
        assert main([*args, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]

    @pytest.mark.parametrize("name", ["roc-lambda-grid", "roc-lambda"])
    def test_roc_stdout_matches_the_out_file(self, capsys, name):
        args, digests = self.GOLDEN[name]
        assert main(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digests["csv"]

    def test_csv_lines_format_every_value_like_fmt(self, monkeypatch):
        # blocks of 50 thresholds, so rules and blocks both break the 214 rows
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 50)
        for pe in EDGE:
            sweep, rows = edge_sweep(pe)
            out = io.StringIO()
            cli._write_sweep(out, "csv", sweep)
            assert out.getvalue() == row_writer("csv", ROC_COLUMNS, rows)

    @pytest.mark.parametrize("fmt, simulate", [("json", False), ("csv", True), ("json", True)],
                             ids=["json-roc", "csv-simulate", "json-simulate"])
    def test_writer_matches_the_row_writer_on_edge_values(self, monkeypatch, fmt, simulate):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 50)
        for pe in EDGE:
            sweep, rows = edge_sweep(pe)
            sim = None
            if simulate:
                sim, fields = edge_sim_fields(len(sweep.ns), len(sweep.lambdas))
                rows = [row + extra for row, extra in zip(rows, fields)]
            out = io.StringIO()
            cli._write_sweep(out, fmt, sweep, sim)
            assert out.getvalue() == row_writer(fmt, SIM_COLUMNS if simulate else ROC_COLUMNS, rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["roc-k64-noisy", "roc-lambda-grid"])
    def test_out_file_does_not_depend_on_the_block_size(self, monkeypatch, tmp_path, name, fmt):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
        args, digests = self.GOLDEN[name]
        out = tmp_path / f"out.{fmt}"
        assert main([*args, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]


# values the closed forms can print: exact 0 and 1, -0.0, subnormals, extremes, inf, nan
EDGE = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 4.5e-307, 1e-300,
        0.1, 1 / 3, 1 - 2**-53, 123456789012.5, 1.7976931348623157e308, math.inf, math.nan]
EDGE_VALUES = EDGE + [float(v) for v in np.random.default_rng(1).random(200) ** 40]


def rotated(shift):
    return EDGE_VALUES[shift:] + EDGE_VALUES[:shift]


def edge_sweep(pe, ns=(1, 7, 64)):
    """A sweep whose columns run through the edge values, and its rows as tuples of Python numbers."""
    qf = {n: rotated(n + 3) for n in ns}
    qm = {n: rotated(-n)[::-1] for n in ns}

    class EdgeSweep(RocSweep):
        def fused(self, n, rows):
            return np.array(qf[n])[rows], np.array(qm[n])[rows]

    floors = [(EDGE_VALUES[n], EDGE_VALUES[-n]) for n in ns]
    sweep = EdgeSweep(64, list(ns), pe, *(np.array(rotated(j)) for j in range(3)),
                      *(np.array(col) for col in zip(*floors)))
    rows = [(n, *point, pe, f, q, *floor)
            for n, floor in zip(ns, floors)
            for point, f, q in zip(zip(*(rotated(j) for j in range(3))), qf[n], qm[n])]
    return sweep, rows


def edge_sim_fields(rules, count):
    """A Monte Carlo result whose six row fields run through the edge values, and each row's
    fields as Python numbers."""
    m = len(EDGE_VALUES)
    fields = [(*(EDGE_VALUES[(i + 5 * j + r) % m] for j in range(4)), 7919 * i, 2**40 - i - r)
              for r in range(rules) for i in range(count)]
    columns = (np.array(column).reshape(rules, count) for column in zip(*fields))
    return SimGrid(*columns, pf_hat=None, pm_hat=None, report_error_rate_hat=None), fields


def row_writer(fmt, columns, rows):
    """The whole file as the writer before streaming made it: ``_fmt`` for CSV, ``json.dumps`` for JSON."""
    if fmt == "csv":
        return "\n".join([",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"
    return json.dumps([dict(zip(columns, map(_json_value, row))) for row in rows], indent=2) + "\n"


class TestStreaming:
    ARGS = {"roc": ["roc", *BASE, "--n", "1", "--n", "3", "--lambda-grid", "0:40:17"],
            "simulate": ["simulate", *BASE, "--n", "1", "--n", "3", "--lambda-grid", "0:40:17",
                         "--trials", "3000", "--seed", "11"]}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_stdout_matches_the_out_file(self, capsys, tmp_path, command, fmt):
        args = [*self.ARGS[command], "--format", fmt]
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_write_error_exits_3(self, capsys, command):
        assert main([*self.ARGS[command], "--out", "/dev/full"]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    @pytest.mark.parametrize("command, flag, value", [
        ("roc", "--lambda-grid", "0:inf:3"),
        ("simulate", "--lambda-grid", "0:inf:3"),
        ("simulate", "--trials", "0"),
        ("simulate", "--seed", "-1"),
    ])
    def test_config_error_leaves_the_out_file_alone(self, tmp_path, command, flag, value):
        out = tmp_path / "kept.csv"
        out.write_text("earlier run\n")
        args = [*self.ARGS[command], "--out", str(out)]
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        assert out.read_text() == "earlier run\n"

    # Measured with CPython 3.11 and NumPy 2.4 at _BLOCK_ROWS = 4096 and 8192 thresholds: peaks
    # of 2 194 171 B (CSV) and 4 642 514 B (JSON) for 1 rule, 2 261 889 B and 4 644 748 B for
    # 16 rules, and 118 B (CSV) and 188 B (JSON) more per threshold up to 24 576 thresholds:
    # the point text and the three float columns.
    @pytest.mark.parametrize("fmt, per_threshold", [("csv", 130), ("json", 200)])
    def test_writer_memory_grows_with_thresholds_not_rules(self, fmt, per_threshold):
        sensing = SensingParams(samples_m=6, avg_snr_gamma=10.0)
        channel = channel_from_snr_db(10.0)

        class Sink:  # keeps nothing that is written to it
            def write(self, text):
                pass

        def peak(rules, count):
            sweep = RocSweep.of(64, list(range(1, rules + 1)), sensing, channel,
                                  np.linspace(0.0, 100.0, count))
            tracemalloc.start()
            try:
                cli._write_sweep(Sink(), fmt, sweep)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        count = 2 * cli._BLOCK_ROWS
        one = peak(1, count)
        # holding one value per row would add 15 * 8192 * 8 B, about 1 MB
        assert peak(16, count) - one < 128 * 1024
        assert peak(1, 3 * count) - one < per_threshold * 2 * count


class TestOptimalN:
    def test_reports_selection_and_agreement(self):
        proc = run_cli("optimal-n", *BASE, "--target-qm", "0.05")
        assert proc.returncode == 0
        got = parse_kv(proc.stdout)
        assert got["chosen_n"] == "3"
        assert got["agree"] == "yes"
        assert got["table_monotone"] == "yes"
        assert abs(float(got["achieved_qm"]) - 0.05) < 1e-9
        assert "qm_star[1]" in got and "qm_star[3]" in got

    def test_perfect_channel_selects_or_rule(self):
        proc = run_cli("optimal-n", "--k", "4", "--samples-m", "6", "--snr-db", "20",
                       "--perfect-report", "--target-qm", "0.01")
        assert proc.returncode == 0
        assert parse_kv(proc.stdout)["chosen_n"] == "1"

    def test_rejects_a_vote_threshold(self, capsys, tmp_path):
        args = ["optimal-n", "--k", "4", "--samples-m", "6", "--snr-db", "10", "--report-snr-db", "5",
                "--target-qm", "0.3"]
        with pytest.raises(SystemExit) as exit:
            main([*args, "--n", "3"])
        assert exit.value.code == 2
        assert "--n" in capsys.readouterr().err
        # the flat config file is shared by every command, so its n is still accepted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\n")
        assert main(args) == 0
        alone = capsys.readouterr().out
        assert main([*args, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == alone

    @pytest.mark.parametrize("snr_db, target", [("60", "1e-300"), ("20", "1e-60")])
    def test_tiny_targets_are_met(self, capsys, snr_db, target):
        # a perfect channel puts these targets within 1e-9 of the floor 0, where the bisection takes them
        assert main(["optimal-n", "--k", "4", "--samples-m", "1", "--snr-db", snr_db, "--perfect-report",
                     "--target-qm", target]) == 0
        achieved = float(parse_kv(capsys.readouterr().out)["achieved_qm"])
        assert achieved == pytest.approx(float(target), rel=1e-12, abs=0.0)

    def test_infeasible_target_exit_code_and_bound(self):
        proc = run_cli("optimal-n", *BASE, "--target-qm", "1e-30")
        assert proc.returncode == 4
        pe = float(channel_from_snr_db(10.0).pe)
        assert format(pe**4, ".6g")[:6] in proc.stderr  # names the minimum achievable miss


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# study scenario\n"
            "k = 4\n"
            "n = 1,2\n"
            "samples_m = 6\n"
            "snr_db = 20\n"
            "report_snr_db = 10\n"
            "lambda_grid = 8:16:3\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("roc", "--config", str(cfg), "--n", "2", "--out", str(out))
        assert proc.returncode == 0
        rows = read_csv(out)
        assert {int(r["n"]) for r in rows} == {2}  # flag replaced the file's rule list

    @pytest.mark.parametrize("command", ["analyze", "roc", "simulate", "optimal-n"])
    def test_every_flag_is_a_config_field(self, command):
        # the flag merge reads each config field from the argparse attribute of the same name
        dests = set(vars(_build_parser().parse_args([command]))) - {"command", "config"}
        assert dests == {key for key, field in _FIELDS.items() if command in field.commands}

    ANALYZE = ["analyze", "--k", "4", "--n", "1", "--samples-m", "6", "--snr-db", "20", "--lambda", "12"]

    @pytest.mark.parametrize("text, message", [
        ("k 4\n", "config: line 1 is not 'key = value': 'k 4'"),
        ("k = four\n", "k: cannot parse 'four'"),
        ("format = xml\n", "format: must be 'csv' or 'json', got 'xml'"),
        ("perfect_report = false\n", "report_snr_db: required unless perfect_report is set"),
    ])
    def test_config_file_errors_are_named(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([*self.ANALYZE, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_unreadable_config_file_is_named(self, capsys, tmp_path):
        path = str(tmp_path / "missing.cfg")
        assert main([*self.ANALYZE, "--config", path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config: cannot read {path!r}")

    def test_perfect_report_from_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("perfect_report = true\n")
        assert main([*self.ANALYZE, "--config", str(cfg)]) == 0
        assert parse_kv(capsys.readouterr().out)["pe"] == "0"

    CHOICE_FILE = "k = 4\nn = 1\nsamples_m = 6\nsnr_db = 20\nreport_snr_db = 10\nlambda = 12\n"

    @pytest.mark.parametrize("flags, dropped", [
        (["--lambda-grid", "8:16:3"], "lambda = 12\n"),
        (["--pf-grid", "1e-6:0.5:4"], "lambda = 12\n"),
        (["--perfect-report"], "report_snr_db = 10\n"),
    ])
    def test_a_flag_replaces_the_files_exclusive_choice(self, capsys, tmp_path, flags, dropped):
        cfg, alone = tmp_path / "run.cfg", tmp_path / "alone.cfg"
        cfg.write_text(self.CHOICE_FILE)
        alone.write_text(self.CHOICE_FILE.replace(dropped, ""))
        assert main(["roc", "--config", str(cfg), *flags]) == 0
        merged = capsys.readouterr().out
        assert main(["roc", "--config", str(alone), *flags]) == 0
        assert merged == capsys.readouterr().out != ""

    @pytest.mark.parametrize("flags", [["--lambda", "3", "--pf-grid", "0.1:0.5:5"],
                                       ["--report-snr-db", "10", "--perfect-report"]])
    def test_two_flags_of_one_choice_still_conflict(self, capsys, tmp_path, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CHOICE_FILE)
        assert main(["roc", "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err.startswith(("config error: lambda:", "config error: report_snr_db:"))

    def test_unknown_config_key_is_named(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 4\nbogus_key = 1\n")
        proc = run_cli("roc", "--config", str(cfg), "--n", "1")
        assert proc.returncode == 2
        assert "bogus_key" in proc.stderr

    def test_missing_required_field_is_named(self):
        proc = run_cli("roc", "--n", "1", "--samples-m", "6", "--snr-db", "20",
                       "--report-snr-db", "10", "--lambda", "12")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: k")

    def test_grid_specs_are_validated(self):
        proc = run_cli("roc", *BASE, "--n", "1", "--lambda-grid", "10:2:5")
        assert proc.returncode == 2
        assert "lambda_grid" in proc.stderr
        proc = run_cli("roc", *BASE, "--n", "1", "--pf-grid", "0:0.5:5")
        assert proc.returncode == 2
        assert "pf_grid" in proc.stderr
        proc = run_cli("roc", *BASE, "--n", "1")
        assert proc.returncode == 2
        proc = run_cli("roc", *BASE, "--n", "1", "--lambda", "3", "--pf-grid", "0.1:0.5:5")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--n", "9", "--lambda", "12"], "n: each vote threshold must satisfy 1 <= n <= k, got 9"),
        (["roc", "--n", "1", "--lambda-grid", "1:2"], "lambda_grid: expected lo:hi:count, got '1:2'"),
        (["roc", "--n", "1", "--lambda-grid", "0:1:0"], "lambda_grid: count must be >= 1, got 0"),
        (["roc", "--n", "1", "--lambda-grid", "1:2:1"], "lambda_grid: a 1-point grid needs lo == hi, got '1:2:1'"),
        # argparse reads a separate -1:2:3 as a flag
        (["roc", "--n", "1", "--lambda-grid=-1:2:3"], "lambda_grid: thresholds must be >= 0, got lo=-1.0"),
    ])
    def test_bad_rules_and_grids_are_named(self, capsys, argv, message):
        assert main([argv[0], *BASE, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    GRID_BASE = ["--k", "4", "--n", "2", "--samples-m", "6", "--snr-db", "10", "--report-snr-db", "10"]
    SIM_EXTRA = {"roc": [], "simulate": ["--trials", "10", "--seed", "1"]}

    @pytest.mark.parametrize("field, grid", [("lambda_grid", "0:inf:3"), ("lambda_grid", "nan:1:3"),
                                             ("pf_grid", "1e-9:nan:3")])
    @pytest.mark.parametrize("command", ["roc", "simulate"])
    def test_non_finite_grid_bounds_are_named(self, capsys, command, field, grid):
        flag = "--" + field.replace("_", "-")
        assert main([command, *self.GRID_BASE, flag, grid, *self.SIM_EXTRA[command]]) == 2
        assert capsys.readouterr().err == f"config error: {field}: lo and hi must be finite, got {grid!r}\n"

    @pytest.mark.parametrize("field, grid", [("pf_grid", "0.5:0.5000000000000001:2"),
                                             ("lambda_grid", "0:5e-324:3")])
    @pytest.mark.parametrize("command", ["roc", "simulate"])
    def test_coinciding_thresholds_are_rejected(self, capsys, command, field, grid):
        # both grids have distinct points whose thresholds round to the same float
        flag = "--" + field.replace("_", "-")
        assert main([command, *self.GRID_BASE, flag, grid, *self.SIM_EXTRA[command]]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: the grid's thresholds must be distinct")

    @pytest.mark.parametrize("command, extra", [("analyze", ["--n", "1", "--lambda", "3"]),
                                                ("optimal-n", ["--target-qm", "0.1"])])
    @pytest.mark.parametrize("snr_db, report_snr_db, message", [
        ("4000", "10", "snr_db: avg_snr_gamma must be finite and > 0, got inf"),
        ("20", "-4000", "report_snr_db: noise_var_sigma2 must be finite and >= 0, got inf"),
    ], ids=["snr_db", "report_snr_db"])
    def test_a_db_value_past_the_float_range_is_named(self, capsys, command, extra, snr_db, report_snr_db,
                                                     message):
        argv = [command, "--k", "4", "--samples-m", "6", "--snr-db", snr_db, "--report-snr-db", report_snr_db]
        assert main([*argv, *extra]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_conflicting_report_modes_rejected(self):
        proc = run_cli("analyze", *BASE, "--n", "1", "--lambda", "12", "--perfect-report")
        assert proc.returncode == 2
        assert "report" in proc.stderr

    def test_unwritable_output_path(self):
        proc = run_cli("roc", *BASE, "--n", "1", "--lambda", "12",
                       "--out", "/nonexistent-dir/sub/out.csv")
        assert proc.returncode == 3

    def test_main_callable_in_process(self, capsys):
        assert main(["analyze", *BASE, "--n", "1", "--lambda", "12"]) == 0
        assert "qf" in capsys.readouterr().out

    def test_repeated_main_calls_share_no_parsed_state(self, capsys):
        # the parser is built once per process; no value may leak from one call into the next
        assert _build_parser() is _build_parser()
        assert main(["roc", *BASE, "--n", "1", "--n", "2", "--lambda", "12"]) == 0
        assert {row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]} == {"1", "2"}
        for args in (["roc", *BASE, "--n", "3", "--lambda", "12"],
                     ["analyze", *BASE, "--n", "4", "--lambda", "12"]):
            assert main(args) == 0
            assert capsys.readouterr().out == run_cli(*args).stdout
        assert main(["analyze", *BASE, "--lambda", "12"]) == 2
        assert capsys.readouterr().err == "config error: n: required but not given\n"
