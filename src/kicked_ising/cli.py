"""Command-line front end: experiment configuration, execution, CSV emission.

Four subcommands: ``evolve`` (time series of measures), ``sweep`` (two-axis
grid of time averages), ``analytic`` (closed forms alone), and ``compare``
(numeric vs closed form, with a tolerance gate on the exit code).

Each cell is ``f"{x:.17g}"`` of a Python float, so the CSV round-trips to
bit-identical doubles; identical invocations produce byte-identical files.
A flat ``key = value`` config file can supply any run option; explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import analytic
from .harness import (
    REGIMES,
    AxisSpec,
    InsufficientMemoryError,
    NoAnalyticOracleError,
    RunConfig,
    SweepConfig,
    SweepPointError,
    compare_numeric_analytic,
    run_time_series,
    sweep_grid,
)
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


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# options about the invocation itself rather than the run
_NOT_IN_CONFIG = frozenset({"help", "config", "output"})


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _config_as_defaults(sub: argparse.ArgumentParser, path: str) -> None:
    """Make the file's values the defaults of ``sub``'s own options.

    argparse converts string defaults through each option's ``type``, and
    flags given on the command line still win.  It checks ``choices`` only on
    flags, so the file's values are checked here.
    """
    values = _parse_config_file(path)
    options = {action.dest: action for action in sub._actions
               if action.dest not in _NOT_IN_CONFIG}
    for key, value in values.items():
        if key not in options:
            raise ValueError(f"unknown config key {key!r}")
        action = options[key]
        if action.choices is not None and (action.type or str)(value) not in action.choices:
            raise ValueError(f"config key {key!r} must be one of {list(action.choices)}, "
                             f"got {value!r}")
    sub.set_defaults(**values)


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError("missing required parameter(s): " + ", ".join(sorted(missing)))


def _finite(text: str) -> float:
    """The argparse ``type`` of every float option: a finite float.

    argparse names the option in the message when this raises.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{option} bound: {exc}") from None
    try:
        points = int(count)
    except ValueError:
        raise ValueError(f"{option} count: expected a whole number, got {count!r}") from None
    if points < 2:
        raise ValueError(f"{option} count: need at least 2 points, got {points}")
    return AxisSpec(_AXIS_NAMES[name], *bounds, points)


# ------------------------------------------------------------------- evolve

def _cmd_evolve(args: argparse.Namespace) -> int:
    _require(args, ["L", "jx", "b", "theta", "steps"])
    params = ChainParams(args.L, args.jx, args.b, args.theta, args.boundary)
    config = RunConfig(params=params, steps=args.steps, initial=args.initial,
                       sample_every=args.sample_every)
    series = run_time_series(config)
    lines = ["t,q,n_tangle,residual_tangle,nn_concurrence,sum_two_tangles"]
    for r in series:
        lines.append(",".join([
            str(r.t), _fmt(r.q_measure), _fmt(r.n_tangle), _fmt(r.residual_tangle),
            _fmt(r.nn_concurrence), _fmt(r.sum_two_tangles),
        ]))
    _write_lines(args.output, lines)
    return EXIT_OK


# -------------------------------------------------------------------- sweep

def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, ["axis1", "axis2", "L", "kicks"])
    axis1 = _parse_axis(args.axis1, "--axis1")
    axis2 = _parse_axis(args.axis2, "--axis2")
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


def _cmd_analytic(args: argparse.Namespace) -> int:
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
    lines = ["t,value"]
    for t, v in zip(ts, np.atleast_1d(values)):
        t_text = str(int(t)) if args.formula == "jw_q" else _fmt(float(t))
        lines.append(f"{t_text},{_fmt(float(v))}")
    _write_lines(args.output, lines)
    return EXIT_OK


# ------------------------------------------------------------------ compare

def _cmd_compare(args: argparse.Namespace) -> int:
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
    for name in sorted(deviations):
        lines.append(f"{name},{_fmt(deviations[name])}")
    _write_lines(args.output, lines)
    worst = max(deviations.values())
    ok = worst <= args.tol
    print(f"max deviation {_fmt(worst)} vs tolerance {_fmt(args.tol)}: "
          f"{'OK' if ok else 'EXCEEDED'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_TOLERANCE


# -------------------------------------------------------------------- wiring

def _evolve_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--L", type=int)
    p.add_argument("--jx", type=_finite)
    p.add_argument("--b", type=_finite)
    p.add_argument("--theta", type=_finite)
    p.add_argument("--steps", type=int)
    p.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p.add_argument("--initial", default="vacuum")
    p.add_argument("--sample-every", dest="sample_every", type=int, default=1)


def _sweep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--axis1", help="swept axis as name:min:max:count")
    p.add_argument("--axis2", help="second swept axis")
    p.add_argument("--L", type=int)
    p.add_argument("--jx", type=_finite, default=0.0)
    p.add_argument("--b", type=_finite, default=0.0)
    p.add_argument("--theta", type=_finite, default=0.0)
    p.add_argument("--kicks", type=int, help="time-average window in kicks")
    p.add_argument("--measure", default="q", help="measure to average (default q)")
    p.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p.add_argument("--initial", default="vacuum")


def _analytic_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", help="one of " + ", ".join(_FORMULAS))
    p.add_argument("--L", type=int)
    p.add_argument("--jx", type=_finite)
    p.add_argument("--b", type=_finite)
    p.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p.add_argument("--tmin", type=_finite, default=0.0)
    p.add_argument("--tmax", type=_finite)
    p.add_argument("--samples", type=int, default=100)


def _compare_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--regime", help="one of " + ", ".join(REGIMES))
    p.add_argument("--L", type=int)
    p.add_argument("--jx", type=_finite)
    p.add_argument("--b", type=_finite, default=0.0)
    p.add_argument("--theta", type=_finite, default=0.0)
    p.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p.add_argument("--tmax", type=int)
    p.add_argument("--tol", type=_finite, default=1e-8)


# subcommand -> (help, its options, what it runs)
_COMMANDS = {
    "evolve": ("time series of entanglement measures", _evolve_options, _cmd_evolve),
    "sweep": ("two-axis grid of time-averaged measures", _sweep_options, _cmd_sweep),
    "analytic": ("closed-form curves as CSV", _analytic_options, _cmd_analytic),
    "compare": ("numeric evolution vs closed form", _compare_options, _cmd_compare),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of the four subcommands.  Given the ``argv`` it will parse,
    only the subcommand that ``argv`` names gets its options, as a call never
    parses the others'; every subcommand gets them when ``argv`` names none,
    so that help and errors still list them all."""
    parser = argparse.ArgumentParser(
        prog="kicked-ising",
        description="Kicked Ising chain: evolution, entanglement measures, closed forms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv or () if not a.startswith("-")), None)
    for name, (help_text, options, func) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if named == name or named not in _COMMANDS:
            options(sub)
            sub.add_argument("--config", help="flat 'key = value' config file; flags override")
            sub.add_argument("--output", help="output CSV path (default: stdout)")
            sub.set_defaults(func=func, subparser=sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            _config_as_defaults(args.subparser, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, InsufficientMemoryError, SweepPointError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
