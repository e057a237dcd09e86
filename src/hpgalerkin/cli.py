"""Experiment runner: single runs, tolerance sweeps, rate fits, traces.

Verbs (all file-driven, JSON in / JSON or CSV out):

* ``run --config run.json [--out report.json]``: one adaptive run;
  the report embeds the config, termination, blow-up estimate and
  per-interval traces, and is byte-for-byte reproducible.
* ``sweep --config sweep.json [--out table.csv]``: one run per entry
  of a decreasing tolerance list; emits one CSV row per run.
* ``fit --config table.csv --model algebraic|exponential``: least
  squares rate fit of the blow-up time error against degrees of
  freedom (log-log, or log vs sqrt for the exponential model).
* ``trace --config report.json [--out trace.csv]``: per-interval
  series of the accumulated growth factor and effectivity against the
  inverse distance to the blow-up time.

A JSON input file holds an object (``trace``: a run report).  Every
number read from one must be a JSON number, never a string or a
boolean, and an integer where the key needs one; the constructors
(``AdaptConfig``, ``PicardConfig``, ``Problem``) check ranges.

Exit codes: 0 success, 2 configuration error (an ``--out`` path that
cannot be written included, checked before the run), 3 aborted run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

import numpy as np

from .adapt import AdaptConfig, Mode, RunResult, Termination, h_adapt, hp_adapt, run_errors
from .galerkin import PicardConfig, Scheme
from .problems import _BUILTINS, Problem, builtin_problem

__all__ = ["main", "run_from_config", "sweep_rows", "fit_rates", "trace_series"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_ABORTED = 3

# Each key a run or sweep config may hold, in the order error messages
# list them: its type and the AdaptConfig field it sets, if any
_CONFIG_KEYS = {
    "problem": (dict, None),
    "scheme": (str, "scheme"),
    "mode": (str, "mode"),
    "r": (int, "r_init"),
    "k_init": (float, "k_init"),
    "tol_star": (float, None),
    "tol_list": (list, None),
    "r_max": (int, "r_max"),
    "k_min": (float, "k_min"),
    "max_intervals": (int, "max_intervals"),
    "picard": (dict, None),
}
# AdaptConfig fields without a default; tol_star is passed in separately
_REQUIRED = {
    f.name for f in dataclasses.fields(AdaptConfig)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
}
_PICARD_KEYS = tuple(f.name for f in dataclasses.fields(PicardConfig))


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


def _fmt(x) -> str:
    """17 significant digits: lossless float64 round trip; None is nan."""
    return "nan" if x is None else f"{float(x):.17g}"


# The sweep CSV columns in order: how each cell is written and read back
_FLAGS = {"false": False, "true": True}
_SWEEP_COLUMNS = {
    "tol_star": (_fmt, float),
    "M": (str, int),
    "dofs": (str, int),
    "T": (_fmt, float),
    "blowup_err": (_fmt, float),
    "delta_hat": (_fmt, float),
    "best_effectivity": (_fmt, float),
    "wall_time_s": (_fmt, float),
    "aborted": (lambda flag: "true" if flag else "false", _FLAGS.__getitem__),
}
SWEEP_HEADER = list(_SWEEP_COLUMNS)


def _check(value, kind, what: str):
    """The one type rule for JSON values; a boolean is never a number."""
    number = kind is float and isinstance(value, (int, float))
    if isinstance(value, bool) or not (number or isinstance(value, kind)):
        raise ConfigError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def _require(config: dict, key: str, kind, where: str):
    if key not in config:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return _check(config[key], kind, f"{where}: key {key!r}")


def _get(config: dict, key: str):
    """A config key's value, of the type the key table gives it."""
    return _require(config, key, _CONFIG_KEYS[key][0], "config")


def _reject_unknown(config: dict, accepted, where: str):
    unknown = [key for key in config if key not in accepted]
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}; accepted: {', '.join(accepted)}")


def build_problem(config: dict) -> Problem:
    entry = _get(config, "problem")
    name = _require(entry, "name", str, "problem")
    params = {k: v for k, v in entry.items() if k != "name"}
    defaults = _BUILTINS[name][1] if name in _BUILTINS else {}
    for key, value in params.items():
        # a parameter whose default is a list may be a list: linear's u0
        vector = isinstance(value, list) and isinstance(defaults.get(key), list)
        for x in value if vector else [value]:
            _check(x, float, f"problem: parameter {key!r}")
    try:
        return builtin_problem(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc


def build_adapt_config(config: dict, tol_star: float) -> AdaptConfig:
    _reject_unknown(config, _CONFIG_KEYS, "config")
    kwargs = {"tol_star": tol_star}
    for key, (_, name) in _CONFIG_KEYS.items():
        if name is not None and (key in config or name in _REQUIRED):
            kwargs[name] = _get(config, key)
    for name, kind in (("scheme", Scheme), ("mode", Mode)):
        value = kwargs[name].lower()
        try:
            kwargs[name] = kind(value)
        except ValueError:
            choices = " or ".join(repr(member.value) for member in kind)
            raise ConfigError(f"config: key {name!r} must be {choices}, got {value!r}")
    picard = _get(config, "picard") if "picard" in config else {}
    _reject_unknown(picard, _PICARD_KEYS, "picard")
    picard = {key: _require(picard, key, float, "picard") for key in picard}
    try:
        return AdaptConfig(picard=PicardConfig(**picard), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def _solve(p: Problem, cfg: AdaptConfig) -> RunResult:
    return (h_adapt if cfg.mode is Mode.H else hp_adapt)(p, cfg)


def run_from_config(config: dict, tol_star: float | None = None) -> RunResult:
    p = build_problem(config)
    if tol_star is None:
        tol_star = _get(config, "tol_star")
    return _solve(p, build_adapt_config(config, tol_star))


def _report(config: dict, result: RunResult) -> dict:
    per = result.intervals
    recon_errors, effectivities = run_errors(build_problem(config), result)
    return {
        "config": config,
        "termination": result.termination.value,
        "T": result.T,
        "M": result.M,
        "dofs": result.dofs,
        "tol_trace": list(result.tol_trace),
        "intervals": {
            "t_end": [rec.interval.t_end for rec in per],
            "k": [rec.interval.k for rec in per],
            "r": [rec.r for rec in per],
            "picard_iters": [rec.output.picard_iters for rec in per],
            "eta_res": [rec.estimate.eta_res for rec in per],
            "psi": [rec.estimate.psi for rec in per],
            "delta": [rec.estimate.delta for rec in per],
            "delta_hat": [rec.estimate.delta_hat for rec in per],
            "bound": [rec.estimate.bound for rec in per],
            "theta": [rec.theta for rec in per],
            "effectivity": list(effectivities),
            "recon_error": list(recon_errors),
            "attempts": [rec.attempts for rec in per],
            "decisions": [list(rec.decisions) for rec in per],
        },
    }


def _best_effectivity(p: Problem, result: RunResult) -> float | None:
    effs = run_errors(p, result)[1]
    return min((e for e in effs if e is not None and math.isfinite(e)), default=None)


def sweep_rows(config: dict) -> list[dict]:
    tol_list = _get(config, "tol_list")
    if not tol_list:
        raise ConfigError("config: key 'tol_list' must be a nonempty list")
    tols = [_check(t, float, f"config: key 'tol_list' entry {i}") for i, t in enumerate(tol_list)]
    if any(b >= a for a, b in zip(tols, tols[1:])):
        raise ConfigError("config: key 'tol_list' must be strictly decreasing")
    p = build_problem(config)
    # every entry is checked before the first run
    cfgs = [build_adapt_config(config, tol) for tol in tols]
    rows = []
    for cfg in cfgs:
        start = time.perf_counter()
        result = _solve(p, cfg)
        wall = time.perf_counter() - start
        rows.append(
            {
                "tol_star": cfg.tol_star,
                "M": result.M,
                "dofs": result.dofs,
                "T": result.T,
                "blowup_err": abs(result.T - p.t_blowup) if p.t_blowup is not None else None,
                "delta_hat": result.intervals[-1].estimate.delta_hat if result.M else 1.0,
                "best_effectivity": _best_effectivity(p, result),
                "wall_time_s": wall,
                "aborted": result.termination is Termination.K_MIN_REACHED,
            }
        )
    return rows


def format_sweep_csv(rows: list[dict]) -> str:
    lines = [SWEEP_HEADER]
    lines += [[write(row[key]) for key, (write, _) in _SWEEP_COLUMNS.items()] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def parse_sweep_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != SWEEP_HEADER:
        raise ConfigError(
            f"sweep CSV must have header {','.join(SWEEP_HEADER)!r}, got {reader.fieldnames}"
        )
    rows = []
    for raw in reader:
        try:
            rows.append({key: read(raw[key]) for key, (_, read) in _SWEEP_COLUMNS.items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"sweep CSV line {reader.line_num}: {exc}") from exc
    return rows


def _lsq_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_rates(rows: list[dict], model: str) -> dict:
    """Least-squares convergence fit over non-aborted sweep rows.

    algebraic: log(err) vs log(dofs) -> slope is the algebraic rate.
    exponential: log(err) vs sqrt(dofs) -> slope = -sqrt(b).
    """
    usable = {
        i: row
        for i, row in enumerate(rows, 1)
        if not row["aborted"]
        and row["blowup_err"] is not None
        and math.isfinite(row["blowup_err"])
        and row["blowup_err"] > 0
    }
    if len(usable) < 3:
        raise ConfigError(f"fit needs >= 3 usable rows with positive blow-up error, got {len(usable)}")
    for i, row in usable.items():
        if row["dofs"] <= 0:
            raise ConfigError(f"fit needs positive dofs, got {row['dofs']} in row {i}")
    if len({row["dofs"] for row in usable.values()}) < 2:
        raise ConfigError("fit needs >= 2 distinct dofs among the usable rows, got one")
    err = np.array([row["blowup_err"] for row in usable.values()])
    dofs = np.array([float(row["dofs"]) for row in usable.values()])
    if model == "algebraic":
        slope, intercept, r2 = _lsq_line(np.log(dofs), np.log(err))
        slope_or_b = slope
    elif model == "exponential":
        slope, intercept, r2 = _lsq_line(np.sqrt(dofs), np.log(err))
        slope_or_b = math.copysign(slope * slope, -slope)
    else:
        raise ConfigError(f"unknown fit model {model!r}; use 'algebraic' or 'exponential'")
    return {
        "model": model,
        "slope": slope,
        "intercept": intercept,
        "slope_or_b": slope_or_b,
        "r_squared": r2,
        "n_rows": len(usable),
    }


def trace_series(report: dict) -> list[tuple[float, float, float]]:
    """Rows (1/|t_m - T_inf|, delta_hat_m, effectivity_m) per interval.

    The report's intervals hold equally long t_end, delta_hat and
    effectivity lists; an effectivity may be null (read as nan) or
    Infinity, as ``run`` writes them.
    """
    p = build_problem(_require(report, "config", dict, "report"))
    if p.t_blowup is None:
        raise ConfigError(f"problem {p.name!r} has no known blow-up time to trace against")
    per = _require(report, "intervals", dict, "report")
    keys = ("t_end", "delta_hat", "effectivity")
    series = [_require(per, key, list, "intervals") for key in keys]
    if len(set(map(len, series))) > 1:
        raise ConfigError("intervals: 't_end', 'delta_hat' and 'effectivity' differ in length")
    rows = []
    for i, (t_end, dh, eff) in enumerate(zip(*series)):
        eps = abs(_check(t_end, float, f"intervals: 't_end' entry {i}") - p.t_blowup)
        dh = _check(dh, float, f"intervals: 'delta_hat' entry {i}")
        eff = math.nan if eff is None else _check(eff, float, f"intervals: 'effectivity' entry {i}")
        rows.append((1.0 / eps if eps > 0 else math.inf, dh, eff))
    return rows


def _check_out(out_path: str | None):
    """Reject an --out path that cannot be written before any work runs."""
    if out_path is None:
        return
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write output file {out_path}: no directory {parent}")
    if os.path.isdir(out_path) or not os.access(
        out_path if os.path.exists(out_path) else parent, os.W_OK
    ):
        raise ConfigError(f"cannot write output file {out_path}")


def _write_out(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}")


def _load_json(path: str) -> dict:
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(data).__name__}")
    return data


def _cmd_run(args) -> int:
    config = _load_json(args.config)
    result = run_from_config(config)
    report = _report(config, result)
    _write_out(json.dumps(report, indent=2) + "\n", args.out)
    return _EXIT_ABORTED if result.termination is Termination.K_MIN_REACHED else _EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_json(args.config)
    rows = sweep_rows(config)
    _write_out(format_sweep_csv(rows), args.out)
    return _EXIT_ABORTED if any(row["aborted"] for row in rows) else _EXIT_OK


def _cmd_fit(args) -> int:
    fit = fit_rates(parse_sweep_csv(_read(args.config)), args.model)
    _write_out(json.dumps(fit, indent=2) + "\n", args.out)
    return _EXIT_OK


def _cmd_trace(args) -> int:
    rows = trace_series(_load_json(args.config))
    text = "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
    _write_out("eps_inv,delta_hat,effectivity\n" + text, args.out)
    return _EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hpgalerkin",
        description="Adaptive Galerkin time stepping toward blow-up: run, sweep, fit, trace.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {"run": _cmd_run, "sweep": _cmd_sweep, "fit": _cmd_fit, "trace": _cmd_trace}
    for verb, func in verbs.items():
        sp = sub.add_parser(verb)
        sp.add_argument("--config", required=True, help="input file (JSON config, or CSV for fit)")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        if verb == "fit":
            sp.add_argument("--model", choices=["algebraic", "exponential"], required=True)
        sp.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
