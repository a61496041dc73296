"""Command line front end.

Subcommands:
  analyze    closed-form probabilities for one operating point
  roc        analytical ROC sweep written as CSV or JSON
  simulate   Monte Carlo sweep with the analytical columns alongside
  optimal-n  adaptive vote-threshold selection for a target miss probability

Each field is declared once, in ``_FIELDS``. A flat key = value config file
may supply any field; command line flags win over the file, and a flag for a
threshold source or a reporting channel replaces the file's choice of it.
All dB to linear conversions happen here, at the ingestion boundary. Exit
codes: 0 success, 2 configuration error, 3 output I/O error, 4 infeasible
miss-detection target.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .fusion import FusionConfig
from .local_sensing import SensingParams, threshold_for_pf
from .mathx import db_to_linear
from .montecarlo import SimGrid, SimScenario, run_grid
from .reporting import ReportChannel, channel_from_snr_db
from .roc import InfeasibleTargetError, RocSweep, optimal_n

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4

ROC_COLUMNS = ["n", "lambda", "pf_local", "pm_local", "pe", "qf", "qm", "qf_floor", "qm_floor"]
SIM_COLUMNS = ROC_COLUMNS + ["qf_hat", "qm_hat", "qf_stderr", "qm_stderr", "trials_h0", "trials_h1"]

class ConfigError(ValueError):
    """Invalid or missing run configuration; the message names the field."""


# ---------------------------------------------------------------------------
# configuration assembly

class _Field(NamedTuple):
    """One config field: the parser of its config-file text, the commands whose
    flag sets it, that flag's ``add_argument`` options, and an optional check:
    a value must pass ``test``, which ``rule`` states."""

    parse: Callable[[str], object]
    commands: tuple
    flag: dict
    test: Optional[Callable[[object], bool]] = None
    rule: str = ""


_ALL = ("analyze", "roc", "simulate", "optimal-n")
_SWEEPS = ("roc", "simulate")
_POSITIVE = (lambda v: v >= 1, "must be a positive integer")

# Every config field, keyed by its config-file name, which is also its argparse
# dest and, with '-' for '_', its flag. The flags appear in --help in this order.
_FIELDS = {
    "k": _Field(int, _ALL, dict(type=int, help="number of cooperating radios K"), *_POSITIVE),
    "n": _Field(lambda s: [int(v) for v in s.split(",")], _ALL[:3],  # optimal-n picks the rule itself
                dict(type=int, action="append",
                     help="vote threshold n (repeatable where a rule sweep makes sense)")),
    "samples_m": _Field(int, _ALL, dict(type=int, help="energy detector samples per sensing event M"),
                        *_POSITIVE),
    "snr_db": _Field(float, _ALL, dict(type=float, help="average sensing SNR in dB")),
    "report_snr_db": _Field(float, _ALL, dict(type=float, help="reporting channel SNR in dB")),
    "perfect_report": _Field(lambda s: {"true": True, "false": False}[s.lower()], _ALL,
                             dict(action="store_const", const=True, default=None,
                                  help="error-free reporting channel (bit error probability exactly 0)")),
    "out": _Field(str, _ALL, dict(help="output file path (stdout when omitted)")),
    "format": _Field(str, _ALL, dict(choices=("csv", "json"), help="output format, default csv"),
                     lambda v: v in ("csv", "json"), "must be 'csv' or 'json'"),
    "lambda": _Field(float, _ALL[:3], dict(type=float, help="single detection threshold"),
                     lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0"),
    "lambda_grid": _Field(str, _SWEEPS, dict(help="linear threshold grid lo:hi:count")),
    "pf_grid": _Field(str, _SWEEPS, dict(help="log-spaced local false alarm grid lo:hi:count")),
    "trials": _Field(int, ("simulate",), dict(type=int, help="number of Monte Carlo trials"), *_POSITIVE),
    "seed": _Field(int, ("simulate",), dict(type=int, help="simulation seed (64-bit unsigned)"),
                   lambda v: 0 <= v < 2**64, "must be a 64-bit unsigned integer"),
    "workers": _Field(int, ("simulate",),
                      dict(type=int, help="worker threads; the output does not depend on it"), *_POSITIVE),
    "target_qm": _Field(float, ("optimal-n",), dict(type=float, help="target fused miss-detection probability"),
                        lambda v: 0.0 < v < 1.0, "must lie strictly inside (0, 1)"),
}

# A run's exclusive choices, threshold source and channel: a flag for one replaces the file's pick.
_SOURCES = ("lambda", "lambda_grid", "pf_grid")
_CHOICES = (_SOURCES, ("report_snr_db", "perfect_report"))


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
            values[key] = _FIELDS[key].parse(value.strip())
        except (ValueError, KeyError) as err:
            raise ConfigError(f"{key}: cannot parse {value.strip()!r}") from err
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = _read_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if key in _FIELDS and value is not None}
    for choice in _CHOICES:
        if not flags.keys().isdisjoint(choice):
            cfg = {key: value for key, value in cfg.items() if key not in choice}
    cfg.update(flags)
    cfg.setdefault("format", "csv")
    _require(cfg, "format")
    return cfg


def _require(cfg: dict, key: str):
    """``cfg[key]``, which must be given and pass its field's check."""
    if key not in cfg:
        raise ConfigError(f"{key}: required but not given")
    value, field = cfg[key], _FIELDS[key]
    if field.test is not None and not field.test(value):
        raise ConfigError(f"{key}: {field.rule}, got {value!r}")
    return value


def _vote_list(cfg: dict, k: int) -> list[int]:
    ns = _require(cfg, "n")
    for n in ns:
        if not 1 <= n <= k:
            raise ConfigError(f"n: each vote threshold must satisfy 1 <= n <= k, got {n!r}")
    return sorted(set(ns))


def _sensing(cfg: dict) -> SensingParams:
    m, snr_db = _require(cfg, "samples_m"), _require(cfg, "snr_db")
    try:
        return SensingParams(samples_m=m, avg_snr_gamma=db_to_linear(snr_db))
    except ValueError as err:
        raise ConfigError(f"snr_db: {err}") from err


def _channel(cfg: dict) -> ReportChannel:
    perfect = cfg.get("perfect_report")
    snr = cfg.get("report_snr_db")
    if perfect and snr is not None:
        raise ConfigError("report_snr_db: give either report_snr_db or perfect_report, not both")
    if perfect:
        return ReportChannel(noise_var_sigma2=0.0)
    if snr is None:
        raise ConfigError("report_snr_db: required unless perfect_report is set")
    try:
        return channel_from_snr_db(snr)
    except ValueError as err:
        raise ConfigError(f"report_snr_db: {err}") from err


def _parse_grid(text: str, field: str):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
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


def _lambda_values(cfg: dict, samples_m: int) -> np.ndarray:
    """The sweep's thresholds, strictly increasing."""
    given = [key for key in _SOURCES if key in cfg]
    if len(given) != 1:
        raise ConfigError("lambda: give exactly one of lambda, lambda_grid, pf_grid, "
                          f"got {given or 'none'}")
    if "lambda" in cfg:
        return np.array([_require(cfg, "lambda")])
    field = given[0]
    lo, hi, count = _parse_grid(cfg[field], field)
    if field == "lambda_grid":
        if lo < 0:
            raise ConfigError(f"lambda_grid: thresholds must be >= 0, got lo={lo}")
        lambdas = np.linspace(lo, hi, count)
    else:
        if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
            raise ConfigError(f"pf_grid: probabilities must lie strictly inside (0, 1), got {cfg[field]!r}")
        lambdas = np.sort(threshold_for_pf(samples_m, np.geomspace(lo, hi, count)))
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


def _write_sweep(fh, fmt: str, sweep: RocSweep, sim: Optional[SimGrid] = None) -> None:
    """Stream ``sweep`` to ``fh`` as CSV or JSON, one write per rule and block of thresholds.

    ``sim``, a Monte Carlo run of the same rules and thresholds, appends its
    first six fields to each row. Beyond ``sweep`` the writer holds one point text
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
                rates, counts = sim[:4], sim[4:6]
                for j, column in enumerate([*(f.texts(v[r, b]) for v in rates),
                                            *(v[r, b].tolist() for v in counts)], 3):
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
    k = _require(cfg, "k")
    ns = _vote_list(cfg, k)
    if len(ns) != 1:
        raise ConfigError(f"n: analyze takes exactly one vote threshold, got {ns}")
    sensing = _sensing(cfg)
    channel = _channel(cfg)
    sweep = RocSweep.of(k, ns, sensing, channel, np.array([_require(cfg, "lambda")]))
    qf, qm = sweep.fused(ns[0], slice(None))
    values = (sweep.pf[0], sweep.pm[0], sweep.pe, qf[0], qm[0], sweep.qf_floor[0], sweep.qm_floor[0])
    for key, value in zip(ROC_COLUMNS[2:], values):
        print(f"{key} = {_fmt(value)}")
    if cfg.get("out") is not None:
        with _output(cfg["out"]) as fh:
            _write_sweep(fh, cfg["format"], sweep)
    return EXIT_OK


def cmd_roc(cfg: dict) -> int:
    k = _require(cfg, "k")
    ns = _vote_list(cfg, k)
    sensing = _sensing(cfg)
    channel = _channel(cfg)
    sweep = RocSweep.of(k, ns, sensing, channel, _lambda_values(cfg, sensing.samples_m))
    with _output(cfg.get("out")) as fh:
        _write_sweep(fh, cfg["format"], sweep)
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    k = _require(cfg, "k")
    ns = _vote_list(cfg, k)
    sensing = _sensing(cfg)
    channel = _channel(cfg)
    lambdas = _lambda_values(cfg, sensing.samples_m)
    trials, seed = _require(cfg, "trials"), _require(cfg, "seed")
    workers = _require(cfg, "workers") if "workers" in cfg else 1
    fusion = FusionConfig(num_radios_k=k, vote_threshold_n=ns[0])
    scenario = SimScenario(sensing=sensing, channel=channel, fusion=fusion, trials=trials, seed=seed)
    grid = run_grid(scenario, lambdas, ns, workers=workers)
    sweep = RocSweep.of(k, ns, sensing, channel, lambdas)
    with _output(cfg.get("out")) as fh:
        _write_sweep(fh, cfg["format"], sweep, grid)
    return EXIT_OK


def cmd_optimal_n(cfg: dict) -> int:
    k = _require(cfg, "k")
    sensing = _sensing(cfg)
    channel = _channel(cfg)
    result = optimal_n(_require(cfg, "target_qm"), k, sensing, channel)
    entries = sorted(result.crossovers.items())
    lines = [
        ("target_qm", cfg["target_qm"]),
        ("chosen_n", result.n),
        ("interval_n", result.n),
        ("direct_n", result.direct_n),
        ("agree", result.n == result.direct_n),
        ("table_monotone", all(b >= a for (_, a), (_, b) in zip(entries, entries[1:]))),
        *((f"qm_star[{n}]", qm) for n, qm in entries),
        ("achieved_lambda", result.achieved_lambda),
        ("achieved_qf", result.achieved_qf),
        ("achieved_qm", result.achieved_qm),
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


# Each command's handler and its --help line.
_COMMANDS = {
    "analyze": (cmd_analyze, "closed-form probabilities at one operating point"),
    "roc": (cmd_roc, "analytical ROC sweep to a file"),
    "simulate": (cmd_simulate, "Monte Carlo sweep to a file"),
    "optimal-n": (cmd_optimal_n, "adaptive vote threshold for a target miss probability"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="coopsense",
        description="Cooperative spectrum sensing analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat key = value config file; flags win over it")
        for key, field in _FIELDS.items():
            if command in field.commands:
                p.add_argument("--" + key.replace("_", "-"), **field.flag)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command][0](cfg)
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
