"""Command line front end.

Subcommands:
  analyze    closed-form probabilities for one operating point
  roc        analytical ROC sweep written as CSV or JSON
  simulate   Monte Carlo sweep with the analytical columns alongside
  optimal-n  adaptive vote-threshold selection for a target miss probability

A flat key = value config file may supply any field; command line flags win
over the file. All dB to linear conversions happen here, at the ingestion
boundary. Exit codes: 0 success, 2 configuration error, 3 output I/O error,
4 infeasible miss-detection target.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .fusion import FusionConfig, _fused_qf, _fused_qm
from .local_sensing import SensingParams, _local_pf, _local_pm, _threshold_for_pf
from .mathx import db_to_linear
from .montecarlo import SimScenario, run_grid
from .reporting import ReportChannel, channel_from_snr_db, perfect_channel
from .roc import InfeasibleTargetError, optimal_n

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4

ROC_COLUMNS = ["n", "lambda", "pf_local", "pm_local", "pe", "qf", "qm", "qf_floor", "qm_floor"]
SIM_COLUMNS = ROC_COLUMNS + ["qf_hat", "qm_hat", "qf_stderr", "qm_stderr", "trials_h0", "trials_h1"]

class ConfigError(ValueError):
    """Invalid or missing run configuration; the message names the field."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="coopsense",
        description="Cooperative spectrum sensing analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grids=False):
        p.add_argument("--config", help="flat key = value config file; flags win over it")
        p.add_argument("--k", type=int, help="number of cooperating radios K")
        p.add_argument("--n", type=int, action="append",
                       help="vote threshold n (repeatable where a rule sweep makes sense)")
        p.add_argument("--samples-m", type=int, help="energy detector samples per sensing event M")
        p.add_argument("--snr-db", type=float, help="average sensing SNR in dB")
        p.add_argument("--report-snr-db", type=float, help="reporting channel SNR in dB")
        p.add_argument("--perfect-report", action="store_const", const=True, default=None,
                       help="error-free reporting channel (bit error probability exactly 0)")
        p.add_argument("--out", help="output file path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), help="output format, default csv")
        if grids:
            p.add_argument("--lambda", type=float, help="single detection threshold")
            p.add_argument("--lambda-grid", help="linear threshold grid lo:hi:count")
            p.add_argument("--pf-grid", help="log-spaced local false alarm grid lo:hi:count")

    p = sub.add_parser("analyze", help="closed-form probabilities at one operating point")
    common(p)
    p.add_argument("--lambda", type=float, help="detection threshold")

    p = sub.add_parser("roc", help="analytical ROC sweep to a file")
    common(p, grids=True)

    p = sub.add_parser("simulate", help="Monte Carlo sweep to a file")
    common(p, grids=True)
    p.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    p.add_argument("--seed", type=int, help="simulation seed (64-bit unsigned)")
    p.add_argument("--workers", type=int, help="worker threads; the output does not depend on it")

    p = sub.add_parser("optimal-n", help="adaptive vote threshold for a target miss probability")
    common(p)
    p.add_argument("--target-qm", type=float, help="target fused miss-detection probability")
    return parser


# ---------------------------------------------------------------------------
# configuration assembly

# Every config field, keyed by its config-file name (also its argparse dest),
# with the parser of its config-file text.
_FIELDS = {
    "k": int,
    "n": lambda s: [int(v) for v in s.split(",")],
    "samples_m": int,
    "snr_db": float,
    "report_snr_db": float,
    "perfect_report": lambda s: {"true": True, "false": False}[s.lower()],
    "lambda": float,
    "lambda_grid": str,
    "pf_grid": str,
    "target_qm": float,
    "trials": int,
    "seed": int,
    "workers": int,
    "out": str,
    "format": str,
}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"config: cannot read {path!r}: {err}") from err
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not 'key = value': {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _FIELDS:
            raise ConfigError(f"config: unknown key {key!r} on line {lineno}")
        try:
            values[key] = _FIELDS[key](value.strip())
        except (ValueError, KeyError) as err:
            raise ConfigError(f"{key}: cannot parse {value.strip()!r}") from err
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    cfg.setdefault("format", "csv")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {cfg['format']!r}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"{key}: required but not given")
    return cfg[key]


def _fusion_k(cfg: dict) -> int:
    k = _require(cfg, "k")
    if not isinstance(k, int) or k < 1:
        raise ConfigError(f"k: must be a positive integer, got {k!r}")
    return k


def _vote_list(cfg: dict, k: int) -> list[int]:
    ns = _require(cfg, "n")
    if isinstance(ns, int):
        ns = [ns]
    for n in ns:
        if not isinstance(n, int) or not 1 <= n <= k:
            raise ConfigError(f"n: each vote threshold must satisfy 1 <= n <= k, got {n!r}")
    return sorted(set(ns))


def _sensing_template(cfg: dict) -> SensingParams:
    m = _require(cfg, "samples_m")
    if not isinstance(m, int) or m < 1:
        raise ConfigError(f"samples_m: must be a positive integer, got {m!r}")
    snr_db = _require(cfg, "snr_db")
    try:
        return SensingParams(samples_m=m, threshold_lambda=0.0,
                             avg_snr_gamma=db_to_linear(float(snr_db)))
    except ValueError as err:
        raise ConfigError(f"snr_db: {err}") from err


def _channel(cfg: dict) -> ReportChannel:
    perfect = cfg.get("perfect_report")
    snr = cfg.get("report_snr_db")
    if perfect and snr is not None:
        raise ConfigError("report_snr_db: give either report_snr_db or perfect_report, not both")
    if perfect:
        return perfect_channel()
    if snr is None:
        raise ConfigError("report_snr_db: required unless perfect_report is set")
    try:
        return channel_from_snr_db(float(snr))
    except ValueError as err:
        raise ConfigError(f"report_snr_db: {err}") from err


def _parse_grid(text: str, field: str):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{field}: expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as err:
        raise ConfigError(f"{field}: expected lo:hi:count, got {text!r}") from err
    if count < 1:
        raise ConfigError(f"{field}: count must be >= 1, got {count}")
    if count == 1 and lo != hi:
        raise ConfigError(f"{field}: a 1-point grid needs lo == hi, got {text!r}")
    if count > 1 and not lo < hi:
        raise ConfigError(f"{field}: need lo < hi, got {text!r}")
    return lo, hi, count


def _lambda(cfg: dict) -> float:
    lam = float(_require(cfg, "lambda"))
    if not math.isfinite(lam) or lam < 0:
        raise ConfigError(f"lambda: must be finite and >= 0, got {lam!r}")
    return lam


def _lambda_values(cfg: dict, samples_m: int) -> list[float]:
    given = [key for key in ("lambda", "lambda_grid", "pf_grid") if key in cfg]
    if len(given) != 1:
        raise ConfigError("lambda: give exactly one of lambda, lambda_grid, pf_grid, "
                          f"got {given or 'none'}")
    if "lambda" in cfg:
        return [_lambda(cfg)]
    if "lambda_grid" in cfg:
        lo, hi, count = _parse_grid(cfg["lambda_grid"], "lambda_grid")
        if lo < 0:
            raise ConfigError(f"lambda_grid: thresholds must be >= 0, got lo={lo}")
        return [float(v) for v in np.linspace(lo, hi, count)]
    lo, hi, count = _parse_grid(cfg["pf_grid"], "pf_grid")
    if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
        raise ConfigError(f"pf_grid: probabilities must lie strictly inside (0, 1), got {cfg['pf_grid']!r}")
    return sorted(_threshold_for_pf(samples_m, np.geomspace(lo, hi, count)).tolist())


# ---------------------------------------------------------------------------
# output

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _json_value(value):
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _csv(columns: list[str], lines: list[str]) -> str:
    return "\n".join([",".join(columns), *lines]) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


class _Sweep(NamedTuple):
    """The analytic columns of a sweep, one row per (rule n, threshold λ), n outermost.

    ``points`` holds (lambda, pf_local, pm_local, pe) per λ and ``rules`` holds
    (n, qf per λ, qm per λ, qf_floor, qm_floor) per rule, so a value shared by
    many rows is stored, and formatted, once.
    """

    points: list[tuple]
    rules: list[tuple]

    def rows(self) -> list[tuple]:
        """The values of each row, in ``ROC_COLUMNS`` order."""
        return [(n, *point, f, q, qf_floor, qm_floor)
                for n, qf, qm, qf_floor, qm_floor in self.rules
                for point, f, q in zip(self.points, qf, qm)]

    def csv_lines(self) -> list[str]:
        """The CSV line of each row, equal to joining ``_fmt`` of its values."""
        points = [",".join(map(_fmt, point)) for point in self.points]
        lines = []
        for n, qf, qm, qf_floor, qm_floor in self.rules:
            # '%.12g' % x == _fmt(x) for every float x; no formatted value contains '%'
            template = f"{n},%s,%.12g,%.12g,{_fmt(qf_floor)},{_fmt(qm_floor)}"
            lines += [template % cell for cell in zip(points, qf, qm)]
        return lines


def _analytic_sweep(k: int, ns: list[int], sensing: SensingParams, channel: ReportChannel,
                    lambdas: list[float]) -> _Sweep:
    m, pe = sensing.samples_m, float(channel.pe)
    pf = _local_pf(m, lambdas)
    pm = _local_pm(m, sensing.avg_snr_gamma, lambdas)
    points = [(lam, a, b, pe) for lam, a, b in zip(lambdas, pf.tolist(), pm.tolist())]
    rules = [(n, _fused_qf(k, n, pf, pe).tolist(), _fused_qm(k, n, pm, pe).tolist(),
              float(_fused_qf(k, n, 0.0, pe)), float(_fused_qm(k, n, 0.0, pe))) for n in ns]
    return _Sweep(points, rules)


def _emit_sweep(sweep: _Sweep, out: Optional[str], fmt: str, sim_fields=None) -> None:
    """Write ``sweep`` as CSV or JSON; ``sim_fields`` appends the Monte Carlo columns to each row."""
    columns = ROC_COLUMNS if sim_fields is None else SIM_COLUMNS
    if fmt == "csv":
        lines = sweep.csv_lines()
        if sim_fields is not None:
            lines = [f"{line},{','.join(map(_fmt, fields))}" for line, fields in zip(lines, sim_fields)]
        text = _csv(columns, lines)
    else:
        rows = sweep.rows()
        if sim_fields is not None:
            rows = [row + fields for row, fields in zip(rows, sim_fields)]
        text = _json([dict(zip(columns, map(_json_value, row))) for row in rows])
    _write(text, out)


# ---------------------------------------------------------------------------
# commands

def cmd_analyze(cfg: dict) -> int:
    k = _fusion_k(cfg)
    ns = _vote_list(cfg, k)
    if len(ns) != 1:
        raise ConfigError(f"n: analyze takes exactly one vote threshold, got {ns}")
    sensing = _sensing_template(cfg)
    channel = _channel(cfg)
    sweep = _analytic_sweep(k, ns, sensing, channel, [_lambda(cfg)])
    row = dict(zip(ROC_COLUMNS, sweep.rows()[0]))
    for key in ("pf_local", "pm_local", "pe", "qf", "qm", "qf_floor", "qm_floor"):
        print(f"{key} = {_fmt(row[key])}")
    if cfg.get("out") is not None:
        _emit_sweep(sweep, cfg["out"], cfg["format"])
    return EXIT_OK


def cmd_roc(cfg: dict) -> int:
    k = _fusion_k(cfg)
    ns = _vote_list(cfg, k)
    sensing = _sensing_template(cfg)
    channel = _channel(cfg)
    lambdas = _lambda_values(cfg, sensing.samples_m)
    _emit_sweep(_analytic_sweep(k, ns, sensing, channel, lambdas), cfg.get("out"), cfg["format"])
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    k = _fusion_k(cfg)
    ns = _vote_list(cfg, k)
    sensing = _sensing_template(cfg)
    channel = _channel(cfg)
    lambdas = _lambda_values(cfg, sensing.samples_m)
    trials = _require(cfg, "trials")
    seed = _require(cfg, "seed")
    workers = cfg.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers: must be a positive integer, got {workers!r}")
    try:
        scenario = SimScenario(
            sensing=replace(sensing, threshold_lambda=lambdas[0]),
            channel=channel,
            fusion=FusionConfig(num_radios_k=k, vote_threshold_n=ns[0]),
            trials=trials,
            seed=seed,
        )
    except ValueError as err:
        field = "trials" if "trials" in str(err) else "seed"
        raise ConfigError(f"{field}: {err}") from err
    grid = run_grid(scenario, lambdas, ns, workers=workers)
    # grid is indexed [λ][n] and the rows run n outermost
    points = [sim.point for rule in zip(*grid) for sim in rule]
    sim_fields = [(float(pt.qf), float(pt.qm), pt.qf_stderr, pt.qm_stderr, pt.trials_h0, pt.trials_h1)
                  for pt in points]
    _emit_sweep(_analytic_sweep(k, ns, sensing, channel, lambdas), cfg.get("out"), cfg["format"],
                sim_fields)
    return EXIT_OK


def cmd_optimal_n(cfg: dict) -> int:
    k = _fusion_k(cfg)
    sensing = _sensing_template(cfg)
    channel = _channel(cfg)
    target = _require(cfg, "target_qm")
    try:
        target = float(target)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"target_qm: {err}") from err
    if not (math.isfinite(target) and 0.0 < target < 1.0):
        raise ConfigError(f"target_qm: must lie strictly inside (0, 1), got {target!r}")
    result = optimal_n(target, k, sensing, channel)
    lines = [
        ("target_qm", result.target_qm),
        ("chosen_n", result.n),
        ("interval_n", result.interval_n),
        ("direct_n", result.direct_n),
        ("agree", result.agree),
        ("table_monotone", result.table.is_monotone),
        *((f"qm_star[{n}]", qm) for n, qm in sorted(result.table.entries.items())),
        ("achieved_lambda", result.achieved_lambda),
        ("achieved_qf", float(result.achieved_qf)),
        ("achieved_qm", float(result.achieved_qm)),
    ]
    for key, value in lines:
        print(f"{key} = {_fmt(value)}")
    if cfg.get("out") is not None:
        if cfg["format"] == "csv":
            text = _csv(["key", "value"], [f"{key},{_fmt(value)}" for key, value in lines])
        else:
            text = _json({key: _json_value(value) for key, value in lines})
        _write(text, cfg["out"])
    return EXIT_OK


_HANDLERS = {
    "analyze": cmd_analyze,
    "roc": cmd_roc,
    "simulate": cmd_simulate,
    "optimal-n": cmd_optimal_n,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _HANDLERS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleTargetError as err:
        print(f"infeasible target: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
