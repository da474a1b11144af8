"""Command-line front end: experiment configuration, execution, CSV emission.

Four subcommands: ``evolve`` (time series of measures), ``sweep`` (two-axis
grid of time averages), ``analytic`` (closed forms alone), and ``compare``
(numeric vs closed form, with a tolerance gate on the exit code).

Each cell is ``f"{x:.17g}"`` of a Python float, so the CSV round-trips to
bit-identical doubles; identical invocations produce byte-identical files.
A flat ``key = value`` config file can supply any run option; explicit flags win.
Argv, config files and help all come from one table of options, ``_COMMANDS``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import analytic
from .harness import (REGIMES, AxisSpec, InsufficientMemoryError, NoAnalyticOracleError,
                      RunConfig, SweepConfig, SweepPointError, compare_numeric_analytic,
                      run_time_series, sweep_grid)
from .statevec import ChainParams

_AXIS_NAMES = {"jx": "j_x", "j_x": "j_x", "b": "b_field", "b_field": "b_field", "theta": "theta"}

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_NO_ORACLE = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _require(args: SimpleNamespace, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError("missing required parameter(s): " + ", ".join(sorted(missing)))


def _finite(text: str) -> float:
    """The type of every float option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _int(text: str) -> int:
    """The type of every whole-number option."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected a whole number, got {text!r}") from None


def _parse_axis(text: str, option: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"{option} must be given as name:min:max:count, got {text!r}")
    name, lo, hi, count = parts
    if name not in _AXIS_NAMES:
        raise ValueError(f"{option} name must be one of {sorted(set(_AXIS_NAMES))}, "
                         f"got {name!r}")
    try:
        bounds = _finite(lo), _finite(hi)
    except ValueError as exc:
        raise ValueError(f"{option} bound: {exc}") from None
    try:
        points = _int(count)
    except ValueError as exc:
        raise ValueError(f"{option} count: {exc}") from None
    if points < 2:
        raise ValueError(f"{option} count: need at least 2 points, got {points}")
    return AxisSpec(_AXIS_NAMES[name], *bounds, points)


# ------------------------------------------------------------------- evolve

def _cmd_evolve(args: SimpleNamespace) -> int:
    _require(args, ["L", "jx", "b", "theta", "steps"])
    params = ChainParams(args.L, args.jx, args.b, args.theta, args.boundary)
    config = RunConfig(params=params, steps=args.steps, initial=args.initial,
                       sample_every=args.sample_every)
    lines = ["t,q,n_tangle,residual_tangle,nn_concurrence,sum_two_tangles"]
    lines += [",".join([str(r.t), *map(_fmt, (r.q_measure, r.n_tangle, r.residual_tangle,
                                              r.nn_concurrence, r.sum_two_tangles))])
              for r in run_time_series(config)]
    _write_lines(args.output, lines)
    return EXIT_OK


# -------------------------------------------------------------------- sweep

def _cmd_sweep(args: SimpleNamespace) -> int:
    _require(args, ["axis1", "axis2", "L", "kicks"])
    axis1, axis2 = _parse_axis(args.axis1, "--axis1"), _parse_axis(args.axis2, "--axis2")
    fixed = ChainParams(args.L, args.jx, args.b, args.theta, args.boundary)
    config = SweepConfig(axis1=axis1, axis2=axis2, fixed=fixed, steps=args.kicks,
                         measure=args.measure, initial=args.initial)
    grid = sweep_grid(config)
    v1s, v2s = ([_fmt(v) for v in axis.values().tolist()] for axis in (axis1, axis2))
    lines = ["axis1,axis2,value"]
    for v1, row in zip(v1s, grid):
        lines.extend(f"{v1},{v2},{_fmt(x)}" for v2, x in zip(v2s, row.tolist()))
    _write_lines(args.output, lines)
    return EXIT_OK


# ----------------------------------------------------------------- analytic

_FORMULAS = ("cluster_q", "cluster_nn_concurrence", "cluster_n_tangle", "sym_n_tangle", "jw_q")


def _cmd_analytic(args: SimpleNamespace) -> int:
    _require(args, ["formula"])
    if args.formula not in _FORMULAS:
        raise ValueError(f"formula must be one of {_FORMULAS}, got {args.formula!r}")
    _require(args, ["jx", "tmax"])
    if args.formula == "jw_q":
        _require(args, ["L", "b"])
        if args.tmin != 0.0 or not args.tmax.is_integer():
            raise ValueError(f"jw_q counts whole kicks from 0: need --tmin 0 and an integer "
                             f"--tmax, got --tmin {args.tmin:g} --tmax {args.tmax:g}")
        if args.tmax < 0:
            raise ValueError(f"jw_q counts kicks forward: need --tmax >= 0, got {args.tmax:g}")
        ts = np.arange(0, int(args.tmax) + 1)
        values = analytic.jw_q_vacuum(args.L, args.jx, args.b, ts)
    else:
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        ts = np.linspace(args.tmin, args.tmax, args.samples)
        if args.formula == "cluster_q":
            if args.boundary == "open":
                _require(args, ["L"])
            values = analytic.cluster_q(args.jx, ts, args.boundary, args.L)
        elif args.formula == "cluster_nn_concurrence":
            values = analytic.cluster_nn_concurrence(args.jx, ts)
        elif args.formula == "cluster_n_tangle":
            _require(args, ["L"])
            values = analytic.cluster_n_tangle(args.jx, ts, args.L)
        else:
            _require(args, ["L"])
            values = analytic.sym_cluster_n_tangle(args.jx, ts, args.L)
    t_texts = map(str if args.formula == "jw_q" else _fmt, ts.tolist())
    cells = map(_fmt, np.atleast_1d(values).tolist())
    lines = ["t,value", *map(",".join, zip(t_texts, cells))]
    _write_lines(args.output, lines)
    return EXIT_OK


# ------------------------------------------------------------------ compare

def _cmd_compare(args: SimpleNamespace) -> int:
    _require(args, ["regime", "L", "jx", "tmax"])
    try:
        if args.regime not in REGIMES:
            raise NoAnalyticOracleError(f"no analytic oracle for regime {args.regime!r}")
        regime = REGIMES[args.regime]
        params = replace(ChainParams(args.L, args.jx, args.b, args.theta, args.boundary),
                         **regime.pinned)
        deviations = compare_numeric_analytic(params, args.tmax, initial=regime.initial,
                                              regime=args.regime)
    except NoAnalyticOracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ORACLE
    lines = ["measure,max_abs_deviation"]
    lines += [f"{name},{_fmt(deviations[name])}" for name in sorted(deviations)]
    _write_lines(args.output, lines)
    worst = max(deviations.values())
    ok = worst <= args.tol
    print(f"max deviation {_fmt(worst)} vs tolerance {_fmt(args.tol)}: "
          f"{'OK' if ok else 'EXCEEDED'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_TOLERANCE


# -------------------------------------------------------------------- wiring

_Option = namedtuple("_Option", "type default help choices", defaults=(None, "", None))
_L, _JX = _Option(_int, None, "chain length in qubits"), _Option(_finite, None, "coupling j_x")
_B, _THETA = _Option(_finite, None, "field B"), _Option(_finite, None, "field tilt theta")
_BOUNDARY = _Option(str, "periodic", "chain boundary", ("periodic", "open"))
_INITIAL = _Option(str, "vacuum", "start: vacuum, all_up, ghz or a bitstring")

# subcommand -> (help, what it runs, the options that a config file may set too)
_COMMANDS = {
    "evolve": ("time series of entanglement measures", _cmd_evolve, {
        "L": _L, "jx": _JX, "b": _B, "theta": _THETA, "steps": _Option(_int, None, "kicks"),
        "boundary": _BOUNDARY, "initial": _INITIAL,
        "sample_every": _Option(_int, 1, "kicks between samples")}),
    "sweep": ("two-axis grid of time-averaged measures", _cmd_sweep, {
        "axis1": _Option(str, None, "swept axis as name:min:max:count"),
        "axis2": _Option(str, None, "second swept axis"), "L": _L,
        "jx": _JX._replace(default=0.0), "b": _B._replace(default=0.0),
        "theta": _THETA._replace(default=0.0), "kicks": _Option(_int, None, "window in kicks"),
        "measure": _Option(str, "q", "measure to average"),
        "boundary": _BOUNDARY, "initial": _INITIAL}),
    "analytic": ("closed-form curves as CSV", _cmd_analytic, {
        "formula": _Option(str, None, "one of " + ", ".join(_FORMULAS)),
        "L": _L, "jx": _JX, "b": _B, "boundary": _BOUNDARY,
        "tmin": _Option(_finite, 0.0, "first time"), "tmax": _Option(_finite, None, "last time"),
        "samples": _Option(_int, 100, "times from tmin to tmax")}),
    "compare": ("numeric evolution vs closed form", _cmd_compare, {
        "regime": _Option(str, None, "one of " + ", ".join(REGIMES)), "L": _L, "jx": _JX,
        "b": _B._replace(default=0.0), "theta": _THETA._replace(default=0.0),
        "boundary": _BOUNDARY, "tmax": _Option(_int, None, "kicks to compare"),
        "tol": _Option(_finite, 1e-8, "largest deviation that exits 0")}),
}
_INVOCATION = {"config": _Option(str, None, "flat 'key = value' config file; flags override"),
               "output": _Option(str, None, "output CSV path (default: stdout)")}
_TOP_HELP = "\n".join([
    "usage: kicked-ising {" + ",".join(_COMMANDS) + "} [--option VALUE ...]", "",
    "Kicked Ising chain: evolution, entanglement measures, closed forms.", "", "commands:",
    *(f"  {name:<10}{about}" for name, (about, _, _) in _COMMANDS.items()), "",
    "exit codes: 0 done, 1 compare exceeded --tol, 2 bad usage or input, 3 no closed form"])


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _help(command: str) -> str:
    about, _, table = _COMMANDS[command]
    rows = [("-h, --help", "show this help and exit")] + [
        (_flag(name) + " " + ("{" + ",".join(o.choices) + "}" if o.choices else name.upper()),
         o.help + ("" if o.default is None else f" (default: {o.default})"))
        for name, o in {**table, **_INVOCATION}.items()]
    return (f"usage: kicked-ising {command} [--option VALUE ...]\n\n{about}\n\noptions:\n"
            + "\n".join(f"  {spec:<24}  {text}" for spec, text in rows))


def _typed(name: str, option: _Option, text: str) -> object:
    """``text`` as the value of option ``name``, or a ValueError that names the option."""
    try:
        value = option.type(text)
    except ValueError as exc:
        raise ValueError(f"argument {_flag(name)}: {exc}") from None
    if option.choices is not None and value not in option.choices:
        raise ValueError(f"argument {_flag(name)}: invalid choice: {text!r} (choose from "
                         + ", ".join(map(repr, option.choices)) + ")")
    return value


def _usage_error(prog: str, message: str):
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _parse(argv: list[str]) -> tuple[str, dict[str, object]]:
    """The subcommand ``argv`` names and the typed options it gives, read as
    argparse would: ``--opt value`` or ``--opt=value``, any unique prefix of
    an option, the last occurrence winning, and a value that may start with
    ``-`` but not ``--``.  Exits 0 at help, and 2 at the first usage error."""
    if argv[:1] in (["-h"], ["--h"], ["--he"], ["--hel"], ["--help"]):
        print(_TOP_HELP)
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in _COMMANDS:
        _usage_error("kicked-ising", (f"unknown subcommand {argv[0]!r}" if argv else
                                      "no subcommand") + ": choose from " + ", ".join(_COMMANDS))
    command, rest, given = argv[0], iter(argv[1:]), {}
    prog, options = f"kicked-ising {command}", {**_COMMANDS[command][2], **_INVOCATION}
    flags = {_flag(name): name for name in [*options, "help"]} | {"-h": "help"}
    for arg in rest:
        flag, has_value, value = arg.partition("=")
        matches = [flag] if flag in flags else [f for f in flags
                                                if flag.startswith("--") and f.startswith(flag)]
        if len(matches) != 1:
            _usage_error(prog, f"ambiguous option: {flag} could match {', '.join(matches)}"
                         if matches else f"unrecognized argument {arg!r}")
        name = flags[matches[0]]
        if name == "help":
            print(_help(command))
            raise SystemExit(EXIT_OK)
        if not has_value:
            value = next(rest, "--")
            if value.startswith("--"):
                _usage_error(prog, f"argument {_flag(name)}: expected one argument")
        try:
            given[name] = _typed(name, options[name], value)
        except ValueError as exc:
            _usage_error(prog, str(exc))
    return command, given


def _config_values(path: str, table: dict[str, _Option]) -> dict[str, object]:
    """The values a flat ``key = value`` file gives ``table``'s options, typed
    and checked as flags are."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, text = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in table:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = _typed(key, table[key], text.strip())
    return out


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand ``argv`` names with the table's defaults, over them
    the ``--config`` file's values, and over both the flags."""
    command, given = _parse(sys.argv[1:] if argv is None else argv)
    _, run, table = _COMMANDS[command]
    values = {name: option.default for name, option in {**table, **_INVOCATION}.items()}
    try:
        if given.get("config"):
            values.update(_config_values(given["config"], table))
        return run(SimpleNamespace(**(values | given)))
    except (ValueError, OSError, InsufficientMemoryError, SweepPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
