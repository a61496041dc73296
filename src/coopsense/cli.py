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
import contextlib
import functools
import json
import math
import sys
from dataclasses import replace
from typing import Callable, NamedTuple, Optional, Sequence

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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{field}: lo and hi must be finite, got {text!r}")
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


def _lambda_values(cfg: dict, samples_m: int) -> np.ndarray:
    """The sweep's thresholds, strictly increasing."""
    given = [key for key in ("lambda", "lambda_grid", "pf_grid") if key in cfg]
    if len(given) != 1:
        raise ConfigError("lambda: give exactly one of lambda, lambda_grid, pf_grid, "
                          f"got {given or 'none'}")
    if "lambda" in cfg:
        return np.array([_lambda(cfg)])
    field = given[0]
    lo, hi, count = _parse_grid(cfg[field], field)
    if field == "lambda_grid":
        if lo < 0:
            raise ConfigError(f"lambda_grid: thresholds must be >= 0, got lo={lo}")
        lambdas = np.linspace(lo, hi, count)
    else:
        if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
            raise ConfigError(f"pf_grid: probabilities must lie strictly inside (0, 1), got {cfg[field]!r}")
        lambdas = np.sort(_threshold_for_pf(samples_m, np.geomspace(lo, hi, count)))
    if not np.all(lambdas[1:] > lambdas[:-1]):
        raise ConfigError(f"{field}: the grid's thresholds must be distinct, got {cfg[field]!r}")
    return lambdas


# ---------------------------------------------------------------------------
# output

# Thresholds per write: the sweep writer formats one rule's rows over at most
# this many thresholds at a time, so the text it holds does not depend on the
# size of the sweep.
_BLOCK_ROWS = 1 << 12


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _json_value(value):
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _json_texts(values: np.ndarray) -> list[str]:
    """Each float as ``json.dumps`` writes ``_json_value`` of it: repr, NaN, or the string "inf"."""
    texts = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        texts[i] = "NaN" if math.isnan(values[i]) else '"inf"'
    return texts


class _Format(NamedTuple):
    """How an output format spells a sweep.

    The file is ``head`` (given the comma-joined column names), the rows, and
    ``tail``. A row is ``open`` + its fields joined by ``sep`` + ``close``, and
    the file's first row drops its first ``skip`` characters. ``field`` spells
    one field from its column name and text. A float is the %-directive
    ``number`` applied to what ``texts`` makes of its array.
    """

    head: str
    open: str
    sep: str
    close: str
    tail: str
    skip: int
    field: str
    number: str
    texts: Callable[[np.ndarray], list]

    def fields(self, columns, texts) -> str:
        return self.sep.join(self.field.format(c, t) for c, t in zip(columns, texts))

    def strings(self, values) -> list[str]:
        """The text of each float in ``values``."""
        return [self.number % v for v in self.texts(np.asarray(values, dtype=float))]


# '%.12g' % x == _fmt(x) for every float x, and the JSON layout is json.dumps(rows, indent=2)
_FORMATS = {
    "csv": _Format("{}\n", "", ",", "\n", "", 0, "{1}", "%.12g", np.ndarray.tolist),
    "json": _Format("[", ",\n  {\n", ",\n", "\n  }", "\n]\n", 1, '    "{0}": {1}', "%s", _json_texts),
}


class _Sweep(NamedTuple):
    """The columns of an analytic sweep, one row per (rule n, threshold λ), n outermost.

    Per threshold it holds λ, pf_local and pm_local; per rule the two floors.
    A rule's qf and qm are computed by :meth:`fused` a block of thresholds at
    a time, so no column holds rules × thresholds values.
    """

    k: int
    ns: list[int]
    pe: float
    lambdas: np.ndarray
    pf: np.ndarray
    pm: np.ndarray
    qf_floor: np.ndarray
    qm_floor: np.ndarray

    @classmethod
    def of(cls, k: int, ns: list[int], sensing: SensingParams, channel: ReportChannel,
           lambdas: np.ndarray) -> "_Sweep":
        m, pe, rules = sensing.samples_m, float(channel.pe), np.array(ns)
        return cls(k, ns, pe, lambdas, _local_pf(m, lambdas),
                   _local_pm(m, sensing.avg_snr_gamma, lambdas),
                   _fused_qf(k, rules, 0.0, pe), _fused_qm(k, rules, 0.0, pe))

    def fused(self, n: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """qf and qm of rule ``n`` at the thresholds ``rows``."""
        return _fused_qf(self.k, n, self.pf[rows], self.pe), _fused_qm(self.k, n, self.pm[rows], self.pe)


def _write_sweep(fh, fmt: str, sweep: _Sweep, sim: Optional[np.ndarray] = None) -> None:
    """Stream ``sweep`` to ``fh`` as CSV or JSON, one write per rule and block of thresholds.

    ``sim``, the six Monte Carlo fields indexed [field, rule, threshold],
    appends them to each row. Beyond ``sweep`` the writer holds one point text
    (lambda, pf_local, pm_local, pe) per threshold, formatted once for every
    rule, and the rows of one block.
    """
    f = _FORMATS[fmt]
    columns = ROC_COLUMNS if sim is None else SIM_COLUMNS
    blocks = [slice(i, i + _BLOCK_ROWS) for i in range(0, len(sweep.lambdas), _BLOCK_ROWS)]
    point = f.fields(columns[1:5], [f.number] * 3 + f.strings([sweep.pe]))
    points = [[point % v for v in zip(f.texts(sweep.lambdas[b]), f.texts(sweep.pf[b]), f.texts(sweep.pm[b]))]
              for b in blocks]
    sim_fields = [] if sim is None else [f.number] * 4 + ["%d"] * 2
    width = 3 + len(sim_fields)
    fh.write(f.head.format(",".join(columns)))
    skip = f.skip
    for r, (n, qf_floor, qm_floor) in enumerate(zip(sweep.ns, f.strings(sweep.qf_floor),
                                                   f.strings(sweep.qm_floor))):
        rest = f.fields(columns[5:], [f.number, f.number, qf_floor, qm_floor, *sim_fields])
        row = f.open + f.sep.join([f.field.format("n", n), "%s", rest]) + f.close
        for b, texts in zip(blocks, points):
            values = [None] * (width * len(texts))
            values[0::width] = texts
            values[1::width], values[2::width] = map(f.texts, sweep.fused(n, b))
            if sim is not None:
                rates, counts = sim[:4, r, b], sim[4:, r, b]
                for j, column in enumerate([*map(f.texts, rates), *counts.tolist()], 3):
                    values[j::width] = column
            fh.write((row * len(texts) % tuple(values))[skip:])
            skip = 0
    fh.write(f.tail)


@contextlib.contextmanager
def _output(out: Optional[str]):
    """The text stream that ``--out`` names, or stdout when it is not given."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh


# ---------------------------------------------------------------------------
# commands

def cmd_analyze(cfg: dict) -> int:
    k = _fusion_k(cfg)
    ns = _vote_list(cfg, k)
    if len(ns) != 1:
        raise ConfigError(f"n: analyze takes exactly one vote threshold, got {ns}")
    sensing = _sensing_template(cfg)
    channel = _channel(cfg)
    sweep = _Sweep.of(k, ns, sensing, channel, np.array([_lambda(cfg)]))
    qf, qm = sweep.fused(ns[0], slice(None))
    values = (sweep.pf[0], sweep.pm[0], sweep.pe, qf[0], qm[0], sweep.qf_floor[0], sweep.qm_floor[0])
    for key, value in zip(ROC_COLUMNS[2:], values):
        print(f"{key} = {_fmt(value)}")
    if cfg.get("out") is not None:
        with _output(cfg["out"]) as fh:
            _write_sweep(fh, cfg["format"], sweep)
    return EXIT_OK


def cmd_roc(cfg: dict) -> int:
    k = _fusion_k(cfg)
    ns = _vote_list(cfg, k)
    sensing = _sensing_template(cfg)
    channel = _channel(cfg)
    sweep = _Sweep.of(k, ns, sensing, channel, _lambda_values(cfg, sensing.samples_m))
    with _output(cfg.get("out")) as fh:
        _write_sweep(fh, cfg["format"], sweep)
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
    first = replace(sensing, threshold_lambda=float(lambdas[0]))
    fusion = FusionConfig(num_radios_k=k, vote_threshold_n=ns[0])
    try:
        scenario = SimScenario(sensing=first, channel=channel, fusion=fusion, trials=trials, seed=seed)
    except ValueError as err:
        field = "trials" if "trials" in str(err) else "seed"
        raise ConfigError(f"{field}: {err}") from err
    grid = run_grid(scenario, lambdas, ns, workers=workers)
    # grid is indexed [λ][n]; the writer takes each Monte Carlo field indexed [n, λ],
    # since its rows run n outermost
    sim = np.array([[(pt.qf, pt.qm, pt.qf_stderr, pt.qm_stderr, pt.trials_h0, pt.trials_h1)
                     for pt in (cell.point for cell in row)] for row in grid]).transpose(2, 1, 0)
    sweep = _Sweep.of(k, ns, sensing, channel, lambdas)
    with _output(cfg.get("out")) as fh:
        _write_sweep(fh, cfg["format"], sweep, sim)
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
            text = "key,value\n" + "".join(f"{key},{_fmt(value)}\n" for key, value in lines)
        else:
            text = json.dumps({key: _json_value(value) for key, value in lines}, indent=2) + "\n"
        with _output(cfg["out"]) as fh:
            fh.write(text)
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
