"""Benchmark of the coopsense command line, end to end and per layer.

    python3 bench/run.py --workload roc-grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One operation is one in-process ``coopsense.cli.main(argv)`` call
with ``--out`` to a scratch file under ``.bench_out/``. A run repeats whole
rounds of the workload's fixed operation list until ``--seconds`` seconds
have passed, then checks every distinct output against the oracle
(``checks.py``). An operation fails if its exit code is not 0 or a check
fails.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics; the traced
outputs must be byte-identical to the untraced ones. Metric lines go to
standard output, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
IMPORT_TIMEOUT_S = 60


def _import_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_imports(repeats: int, flags=()) -> list[tuple[float, str]]:
    """(wall time, stderr) of ``repeats`` fresh interpreters importing coopsense.cli.

    One untimed import runs first, so byte-code compilation is not timed.
    """
    cmd = [sys.executable, *flags, "-c", "import coopsense.cli"]
    results = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=_import_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=IMPORT_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"import coopsense.cli failed:\n{proc.stderr}")
        if i:
            results.append((elapsed, proc.stderr))
    return results


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", re.MULTILINE)


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds spent in each package's own modules, from ``-X importtime``."""
    totals = {"numpy": 0.0, "scipy": 0.0, "coopsense": 0.0}
    for self_us, module in _IMPORTTIME.findall(stderr):
        package = module.split(".")[0]
        if package in totals:
            totals[package] += int(self_us) * 1e-6
    return totals


def call(main, argv, out_path: Path):
    """Run one operation, leaving its --out file at ``out_path``; returns (exit code, seconds)."""
    out_path.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = main([*argv, "--out", str(out_path)])
        except SystemExit as err:  # argparse rejects an argv by exiting
            rc = err.code
        except Exception as err:  # an uncaught error fails this operation, not the run
            rc = f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    if rc != 0:
        print(f"operation {argv[0]} exited with {rc!r}: {sink.getvalue()[-500:]}", file=sys.stderr)
    return rc, elapsed


class Round:
    """Exit codes, times and output digests of one pass over the operation list.

    Each distinct output is moved to a file of its own and ``outputs`` maps
    (operation index, digest) to that file, so no output stays in this
    process's memory and ``peak_rss_mb`` does not grow with the output size.
    """

    def __init__(self, main, ops, out_path: Path, outputs: dict, tracer=None):
        self.codes, self.times, self.digests = [], [], []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_index = i
            rc, elapsed = call(main, op.argv, out_path)
            if not out_path.exists():
                out_path.touch()
            with open(out_path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            if (i, digest) not in outputs:
                outputs[i, digest] = out_path.replace(out_path.with_name(f"{i}-{digest}.out"))
            self.codes.append(rc)
            self.times.append(elapsed)
            self.digests.append(digest)

    @property
    def wall(self) -> float:
        return sum(self.times)


def verdicts(ops, outputs: dict) -> dict:
    """Problems per (operation index, output digest), each distinct output checked once."""
    import checks  # imported late, so the oracle's scipy modules stay out of peak_rss_mb

    found = {}
    for (i, digest), path in outputs.items():
        problems = checks.check(ops[i], path.read_bytes())
        for problem in problems[:5]:
            print(f"check failed: {' '.join(ops[i].argv)}: {problem}", file=sys.stderr)
        found[i, digest] = problems
    return found


def count_failures(rounds, found) -> tuple[int, int]:
    attempted = failed = 0
    for rnd in rounds:
        for i, (rc, digest) in enumerate(zip(rnd.codes, rnd.digests)):
            attempted += 1
            failed += rc != 0 or bool(found[i, digest])
    return attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def measure(cli, ops, seconds: int, out_path: Path, setup_repeats: int):
    """End-to-end metrics from whole rounds of untraced operations."""
    setup = statistics.median(t for t, _ in fresh_imports(setup_repeats))
    outputs: dict = {}
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(Round(cli.main, ops, out_path, outputs))
    rss = peak_rss_mb()  # before the oracle's own imports
    attempted, failed = count_failures(rounds, verdicts(ops, outputs))
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return failed == 0, attempted, failed, metrics


def measure_traced(cli, ops, out_path: Path, trace_file: Path, setup_repeats: int):
    """Per-layer metrics from one traced round, after one untraced round."""
    import coopsense
    import tracing

    runs = fresh_imports(setup_repeats, ("-X", "importtime"))
    setup = [import_breakdown(err) for _, err in runs]
    outputs: dict = {}
    plain = Round(cli.main, ops, out_path, outputs)
    tracer = tracing.Tracer()
    tracer.install(coopsense)
    try:
        traced = Round(cli.main, ops, out_path, outputs, tracer)
    finally:
        tracer.uninstall()
    not_restored = tracer.not_restored()
    for name in not_restored:
        print(f"tracing left {name} patched", file=sys.stderr)
    found = verdicts(ops, outputs)
    for i, (a, b) in enumerate(zip(plain.digests, traced.digests)):
        if a != b:
            print(f"traced output differs: {' '.join(ops[i].argv)}", file=sys.stderr)
            found[i, b] = found[i, b] + ["traced output differs from the untraced output"]
    attempted, failed = count_failures([plain, traced], found)

    stats, counters = tracer.totals()
    metrics = tracing.layer_metrics(stats, counters)
    traced_outputs = [outputs[i, digest].read_bytes() for i, digest in enumerate(traced.digests)]
    metrics.update({
        "cli.rows": (sum(max(data.count(b"\n") - 1, 0) for data in traced_outputs), "count"),
        "cli.output_bytes": (sum(len(data) for data in traced_outputs), "B"),
        "setup.numpy_import_s": (statistics.median(s["numpy"] for s in setup), "s"),
        "setup.scipy_import_s": (statistics.median(s["scipy"] for s in setup), "s"),
        "setup.coopsense_import_s": (statistics.median(s["coopsense"] for s in setup), "s"),
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
    })
    trace_file.write_text(json.dumps({
        "columns": ["id", "parent", "name", "start", "end", "op"],
        "spans": tracer.spans,
        "stats": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(stats.items())},
        "counters": dict(sorted(counters.items())),
    }))
    return failed == 0 and not not_restored, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs and one set-up sample, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "coopsense" / "cli.py").is_file():
        print(f"no coopsense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coopsense.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "coopsense":
        print(f"coopsense was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, args.smoke)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    out_path = run_dir / "op.out"
    repeats = 1 if args.smoke else SETUP_REPEATS
    try:
        if args.trace:
            trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            correct, attempted, failed, metrics = measure_traced(cli, ops, out_path, trace_file, repeats)
        else:
            correct, attempted, failed, metrics = measure(cli, ops, args.seconds, out_path, repeats)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
