"""Time one layer of the package as the runs call it, in two or more source
trees side by side.

Each layer in ``LAYERS`` names the package functions it times, the cases
that call them through a whole run, and the ``BENCH_*.json`` file its record
goes to:

- ``jw_average``: ``analytic.jw_q_average``, timed inside ``harness.sweep_grid``
  (``BENCH_jw_average.json``).  Cases: ``grid``, the seed-0 ``sweep-jw-L20``
  grid of ``perfbench`` (51 x 51 points of (j_x, B) at theta = pi/2, L = 20,
  1000 kicks); and ``window-T``, the 4 x 4 grid spanning the same ranges at
  L = 20, for windows of T = 10^2, 10^4 and 10^6 kicks.
- ``report``: the report work of a time series with every measure, timed
  inside ``harness.run_time_series`` (``BENCH_report.json``):
  ``measures.ReportBatch.add``, which measures a group of sampled states,
  and ``measures.ReportBatch.finish``, which finishes a batch of groups'
  reports.  Cases: ``L12``, the seed-0 ``evolve-pairs-L12`` run (L = 12,
  40 kicks, a vacuum ring); ``L16`` and ``L20``, the same
  couplings at L = 16 and 20 for 3 kicks; and ``L20-pair-rdms``, whose
  ``series_s`` is one call of the kernel that gives the ten ring-distance
  pair RDMs of the ``L20`` run's last state (``measures._ring_pair_rdms``).
- ``series``: ``harness.run_time_series`` with the measure ``q`` alone, as
  ``compare --regime transverse`` calls it (``BENCH_series.json``).  Case:
  ``L20``, the seed-0 ``compare-transverse-L20`` run (L = 20, 3 kicks from
  the vacuum ring at theta = pi/2).
- ``kick``: the kick, timed inside runs from the vacuum ring at a tilted
  field (``BENCH_kick.json``): ``statevec.XFrameKick.__init__``, which
  builds it, ``statevec.XFrameKick.plan``, which binds a kick between two
  stacks, and ``statevec._KickPlan.__call__``, which runs it.
  Cases: ``L16``, ``L17``, ``L19``, ``L20``, ``L22`` and ``L24``, a
  ``harness.run_time_series`` of 3 kicks measuring ``q`` alone at the
  seed-0 ``evolve-pairs-L12`` couplings; ``L12``, one row of those couplings
  kicked 40 times; and ``sweep-tilt-L6``, the stack of the 55 evolved points
  of the seed-0 ``sweep-tilt-L6`` grid kicked 100 times.  ``L12`` and
  ``sweep-tilt-L6`` write each sample into its group, unmeasured, as their
  runs do (through ``harness._evolve``), with t = 0 sampled in ``L12``
  only.  Each of these cases also records ``peak_bytes``, the
  ``tracemalloc`` peak of its untimed run: every array the run allocates,
  the state included.  Two cases are cold:
  ``build-sweep-tilt-L6`` and ``build-L12`` build the first ``XFrameKick``
  of a fresh interpreter, for that stack of 55 points and for that L = 12
  row, from the points' parameter arrays.
- ``concurrence``: ``measures.concurrences``, timed inside ``cli.main``
  (``BENCH_concurrence.json``).  Cases: ``evolve-pairs-L12``, the seed-0 run
  of ``perfbench`` (one call, 246 pair matrices); and ``sweep-nn-L6``,
  ``NN_SWEEP``, a 50-point, 100-kick ``nn_concurrence`` sweep at L = 6.
- ``sweep``: ``cli.main``, a whole ``kicked-ising sweep`` call with its CSV
  written by ``--output`` to a temporary file (``BENCH_sweep.json``).  Cases:
  the seed-0 ``sweep-jw-L20`` and ``sweep-tilt-L6`` argv of ``perfbench``.
- ``cli``: ``cli.main`` as above, cold: the first call of a fresh interpreter,
  as the benchmark makes it, on the seed-0 argv of all four ``perfbench``
  workloads (``BENCH_cli.json``).  Each case runs in its own interpreter, with
  no warm-up run, and also records ``import_s``, the seconds of importing
  ``kicked_ising.cli`` there (numpy is imported before, by this tool).  A
  first call varies more than a warm one, so this layer takes
  ``COLD_REPEATS`` rounds.

A timed function is wrapped wherever the package holds it: on its class, or
in every ``kicked_ising`` module that imported it by name.  A call made
inside another timed call counts once.  A tree times those of the layer's
functions it has, and fails if it has none; the record lists them under
``timed``.  A warm case whose untimed run took under ``SHORT_RUN_S`` is
timed ``SHORT_RUNS`` times a round, and the round records the medians, so
that a case of a few milliseconds is not ranked by one run's noise.

Each ``LABEL=SRC_DIR`` names a tree whose ``kicked_ising`` package is timed.
The trees take turns: each of the layer's rounds (``REPEATS``) starts one fresh
interpreter per tree, the first tree of a round rotating, and that
interpreter runs every warm case once untimed and then timed (a cold
case's round, of ``COLD_REPEATS``, starts one interpreter per tree and case,
which runs the case once).
So every tree sees the same host phases, and a before/after pair recorded
in one invocation is comparable; one tree per invocation is not, as the
host's speed drifts between invocations by more than the quartiles within
one.  The median and
quartiles of the layer's seconds per run, and of the whole run, are merged
into the layer's file at the repository root under each label, next to what
other labels recorded.  BLAS runs one thread unless the environment says
otherwise.

Run from the repository root, with a second tree checked out elsewhere:

    python3 tools/bench_layer.py report before=../parent/src after=src
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WINDOWS = (10 ** 2, 10 ** 4, 10 ** 6)
REPEATS = 9  # rounds per warm case and tree
# a cold case's rounds: at 9, two invocations on the same trees put the first
# sweep-tilt-L6 call at 9.2 and 11.0 ms, quartiles overlapping across trees
COLD_REPEATS = 30
# a warm case shorter than this is timed this many times a round, and the round
# takes the medians: with one run a round, the 100 kicks of the sweep-tilt-L6
# stack read 3.42 [2.28, 3.58] ms against 2.76 [2.69, 3.78] between two trees
# whose kicks, paired in one process, took 21 and 28 us
SHORT_RUN_S, SHORT_RUNS = 0.1, 7
CHILD_FLAG = "--time-this-interpreter"
# every point and kick of this sweep measures its ring's pairs
NN_SWEEP = ("sweep", "--axis1", "b:0.1:2:10", "--axis2", "theta:0.1:1.4:5", "--jx", "0.9",
            "--L", "6", "--kicks", "100", "--measure", "nn_concurrence")


def _invocation(workload: str):
    """``perfbench``'s seed-0 invocation of ``workload``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS[workload].generate(0, False)


def _seed0(workload: str):
    """The flags and sweep axes of ``perfbench``'s seed-0 invocation of ``workload``."""
    inv = _invocation(workload)
    return dict(zip(inv.argv[1::2], inv.argv[2::2])), inv.axes


def _chain_arrays(points) -> tuple:
    """``(num_qubits, boundary, j_x, b_field, theta)`` of ``ChainParams`` on one chain."""
    return (points[0].num_qubits, points[0].boundary,
            *(np.array([getattr(p, name) for p in points]) for name in ("j_x", "b_field", "theta")))


def _jw_average_cases() -> dict:
    from kicked_ising.harness import AxisSpec, SweepConfig, sweep_grid
    from kicked_ising.statevec import ChainParams

    flags, ((lo1, hi1, n1), (lo2, hi2, n2)) = _seed0("sweep-jw-L20")
    fixed = ChainParams(int(flags["--L"]), 0.0, 0.0, float(flags["--theta"]))
    grids = {"grid": (n1, n2, int(flags["--kicks"]))}
    grids.update((f"window-{steps}", (4, 4, steps)) for steps in WINDOWS)
    cases = {}
    for name, (c1, c2, steps) in grids.items():
        config = SweepConfig(AxisSpec("j_x", lo1, hi1, c1), AxisSpec("b_field", lo2, hi2, c2),
                             fixed, steps)
        cases[name] = (lambda config=config: sweep_grid(config),
                       {"points": c1 * c2, "num_qubits": fixed.num_qubits, "kicks": steps})
    return cases


def _report_cases() -> dict:
    from kicked_ising import measures
    from kicked_ising.harness import RunConfig, _evolve, run_time_series
    from kicked_ising.statevec import ChainParams

    flags, _ = _seed0("evolve-pairs-L12")
    jx, b, theta = (float(flags[f]) for f in ("--jx", "--b", "--theta"))
    cases = {}
    for L, steps in ((int(flags["--L"]), int(flags["--steps"])), (16, 3), (20, 3)):
        config = RunConfig(ChainParams(L, jx, b, theta), steps)
        cases[f"L{L}"] = (lambda config=config: run_time_series(config),
                          {"num_qubits": L, "kicks": steps})

    @functools.cache
    def state():  # the L20 case's state after its 3 kicks, built at the first run
        for _, amps in _evolve(*_chain_arrays([ChainParams(20, jx, b, theta)]), "vacuum", 3):
            pass
        return amps

    cases["L20-pair-rdms"] = (lambda: measures._ring_pair_rdms(state()),
                              {"num_qubits": 20, "pairs": 10})
    return cases


def _series_cases() -> dict:
    from kicked_ising import harness
    from kicked_ising.statevec import ChainParams

    flags, _ = _seed0("compare-transverse-L20")
    L, steps = int(flags["--L"]), int(flags["--tmax"])
    config = harness.RunConfig(ChainParams(L, float(flags["--jx"]), float(flags["--b"]),
                                           math.pi / 2.0), steps, measures=frozenset({"q"}))
    # the module attribute, as timed
    return {f"L{L}": (lambda: harness.run_time_series(config), {"num_qubits": L, "kicks": steps})}


def _kick_cases() -> dict:
    from kicked_ising import harness, statevec
    from kicked_ising.statevec import ChainParams

    def kicked(points, kicks, sample_start):  # a run's kicks into its sample groups, unmeasured
        for _ in harness._evolve(*_chain_arrays(points), "vacuum", kicks,
                                 sample_start=sample_start):
            pass

    def built(points):  # the kick's construction from its run's arrays
        args = _chain_arrays(points)
        return lambda: statevec.XFrameKick(*args)

    flags, _ = _seed0("evolve-pairs-L12")
    jx, b, theta = (float(flags[f]) for f in ("--jx", "--b", "--theta"))
    cases = {"L12": (lambda: kicked([ChainParams(12, jx, b, theta)], 40, True),
                     {"num_qubits": 12, "points": 1, "kicks": 40})}
    for L in (16, 17, 19, 20, 22, 24):
        config = harness.RunConfig(ChainParams(L, jx, b, theta), 3, measures=frozenset({"q"}))
        cases[f"L{L}"] = (lambda config=config: harness.run_time_series(config),
                          {"num_qubits": L, "points": 1, "kicks": 3})
    flags, ((lo1, hi1, n1), (lo2, hi2, n2)) = _seed0("sweep-tilt-L6")
    L, steps = int(flags["--L"]), int(flags["--kicks"])
    # the grid's (B, theta) points off the transverse line, which its closed form takes
    points = [ChainParams(L, float(flags["--jx"]), b, theta)
              for b in np.linspace(lo1, hi1, n1).tolist()
              for theta in np.linspace(lo2, hi2, n2).tolist() if abs(theta - math.pi / 2) > 1e-12]
    cases["sweep-tilt-L6"] = (lambda: kicked(points, steps, False),
                              {"num_qubits": L, "points": len(points), "kicks": steps})
    cases["build-sweep-tilt-L6"] = (built(points), {"num_qubits": L, "points": len(points)})
    cases["build-L12"] = (built([ChainParams(12, jx, b, theta)]), {"num_qubits": 12, "points": 1})
    return cases


def _main_case(argv, covers: dict) -> tuple:
    """A case that runs ``cli.main(argv)``, its CSV written to a temporary file."""
    def run():
        # here, not when the cases are built: main lists a cold layer's cases
        # in an interpreter that cannot import the package
        from kicked_ising import cli

        with tempfile.TemporaryDirectory() as tmp:
            # the module attribute, as timed
            if cli.main([*argv, "--output", os.path.join(tmp, "out.csv")]) != 0:
                raise RuntimeError(f"kicked-ising {' '.join(argv)} failed")

    return run, covers


def _main_cases(workloads: tuple[str, ...]) -> dict:
    cases = {}
    for workload in workloads:
        inv = _invocation(workload)
        cases[workload] = _main_case(inv.argv, {"num_qubits": inv.num_qubits,
                                                "points": inv.work["csv_rows"]})
    return cases


def _concurrence_cases() -> dict:
    cases = _main_cases(("evolve-pairs-L12",))
    cases["sweep-nn-L6"] = _main_case(NN_SWEEP, {"num_qubits": 6, "points": 50, "kicks": 100})
    return cases


@dataclass(frozen=True)
class Layer:
    """Timed package functions, the runs that call them, and where they are recorded."""

    module: str  # the kicked_ising module that defines the timed functions
    functions: tuple[str, ...]  # each a ``function`` or ``Class.method``; their seconds add up
    run: str  # what one case runs; its seconds are recorded as ``<run>_s``
    cases: Callable[[], dict]  # case name -> (run it, what it covers), built per tree
    output: str
    peak: bool = False  # record the tracemalloc peak of each warm case's untimed run
    cold: bool = False  # time each case's first run in its own interpreter, and the import
    cold_cases: tuple[str, ...] = ()  # the cases timed so in a layer that is not cold

    def is_cold(self, case: str) -> bool:
        return self.cold or case in self.cold_cases


LAYERS = {
    "jw_average": Layer("analytic", ("jw_q_average",), "sweep", _jw_average_cases,
                        "BENCH_jw_average.json"),
    "report": Layer("measures", ("ReportBatch.add", "ReportBatch.finish"), "series",
                    _report_cases, "BENCH_report.json"),
    "series": Layer("harness", ("run_time_series",), "series", _series_cases,
                    "BENCH_series.json"),
    "kick": Layer("statevec", ("XFrameKick.__init__", "XFrameKick.plan", "_KickPlan.__call__"),
                  "series", _kick_cases, "BENCH_kick.json", peak=True,
                  cold_cases=("build-sweep-tilt-L6", "build-L12")),
    "concurrence": Layer("measures", ("concurrences",), "call", _concurrence_cases,
                         "BENCH_concurrence.json"),
    "sweep": Layer("cli", ("main",), "call",
                   functools.partial(_main_cases, ("sweep-jw-L20", "sweep-tilt-L6")),
                   "BENCH_sweep.json"),
    "cli": Layer("cli", ("main",), "call",
                 functools.partial(_main_cases, ("evolve-pairs-L12", "compare-transverse-L20",
                                                 "sweep-tilt-L6", "sweep-jw-L20")),
                 "BENCH_cli.json", cold=True),
}


def _holders(layer: Layer) -> dict[str, list[tuple[object, str, Callable]]]:
    """Each of the layer's functions this tree has, with every ``(owner,
    attribute, function)`` through which the package calls it: its class, or
    its module and each package module that imported it by name.

    A name resolves only from its owner's own namespace: a class lacking
    ``__call__`` still has one through ``type``, which must not be wrapped."""
    module = importlib.import_module(f"kicked_ising.{layer.module}")
    out = {}
    for name in layer.functions:
        *path, function = name.split(".")
        try:
            owner = functools.reduce(getattr, path, module)  # the module, or a class in it
            original = vars(owner)[function]
        except (AttributeError, KeyError):
            continue
        out[name] = [(owner, function, original)]
        if not path:
            out[name] += [(other, attr, original)
                          for key, other in sorted(sys.modules.items())
                          if key.startswith("kicked_ising.") and other is not module
                          for attr, value in vars(other).items() if value is original]
    if not out:
        raise AttributeError(f"kicked_ising.{layer.module} has none of {layer.functions}")
    return out


def _time_cases(layer: Layer, names=None) -> dict:
    """The cases in ``names`` (or every warm case) timed in this interpreter: seconds
    inside the layer, seconds in the whole run, how often the run called the
    layer, and which of the layer's functions were timed.  A warm case runs
    once untimed and then timed, ``SHORT_RUNS`` times if it is short, each
    figure the median of those runs.  A cold case runs once, timed, after a
    timed import of the layer's module, and must be the only case named."""
    imported = {}
    if names is not None and all(layer.is_cold(name) for name in names):
        start = time.perf_counter()
        importlib.import_module(f"kicked_ising.{layer.module}")
        imported["import_s"] = time.perf_counter() - start
    holders = _holders(layer)
    tally = {"layer": 0.0, "calls": 0}
    depth = [0]  # timed calls under way

    def timed(original):
        @functools.wraps(original)  # so that its signature is the original's
        def call(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tally["layer"] += time.perf_counter() - start
                tally["calls"] += 1
                depth[0] -= 1

        return call

    for places in holders.values():
        for owner, attr, original in places:
            setattr(owner, attr, timed(original))  # on a class, it is called as a method
    out = {}
    try:
        cases = layer.cases()
        for name in [n for n in cases if not layer.is_cold(n)] if names is None else names:
            run, covers = cases[name]
            extra, runs = {}, 1
            if not layer.is_cold(name):
                start = time.perf_counter()
                if layer.peak:  # the warm-up, traced: tracing slows allocations, not the timed run
                    tracemalloc.start()
                    run()
                    extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                else:
                    run()  # warm-up
                if time.perf_counter() - start < SHORT_RUN_S:
                    runs = extra["runs_per_round"] = SHORT_RUNS
            times = []
            for _ in range(runs):
                tally.update(layer=0.0, calls=0)
                start = time.perf_counter()
                run()
                times.append((time.perf_counter() - start, tally["layer"]))
            out[name] = {"run": statistics.median(t for t, _ in times),
                         "layer": statistics.median(t for _, t in times), "calls": tally["calls"],
                         **covers, **extra, **imported, "timed": sorted(holders)}
    finally:
        for places in holders.values():
            for owner, attr, original in places:
                setattr(owner, attr, original)
    return out


def _spread(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "kicked_ising").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tree(text: str) -> tuple[str, Path]:
    import argparse

    label, sep, src = text.partition("=")
    if not (sep and label and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC_DIR, got {text!r}")
    path = Path(src).resolve()
    if not (path / "kicked_ising" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no kicked_ising package under {path}")
    return label, path


def _run_child(layer: str, src: Path, *case: str) -> dict:
    """The warm cases of ``layer`` (or the one named) timed in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, CHILD_FLAG, layer, *case], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    import argparse  # here, not at the top: a cold layer's interpreters must not import it

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("layer", choices=sorted(LAYERS))
    parser.add_argument("trees", nargs="+", type=_tree, metavar="LABEL=SRC_DIR",
                        help="source trees to time alternately, two or more")
    args = parser.parse_args(argv)
    labels = [label for label, _ in args.trees]
    if len(args.trees) < 2 or len(set(labels)) != len(labels):
        parser.error("need two or more trees with distinct labels")
    layer = LAYERS[args.layer]
    cold = list(layer.cases()) if layer.cold else layer.cold_cases
    rounds = {label: {} for label in labels}  # label -> case -> its record of each round
    for r in range(COLD_REPEATS if cold else REPEATS):
        k = r % len(args.trees)
        for label, src in args.trees[k:] + args.trees[:k]:
            # every warm case in one interpreter, and each cold case in its own
            timed = _run_child(args.layer, src) if not layer.cold and r < REPEATS else {}
            for name in cold:
                timed.update(_run_child(args.layer, src, name))
            for name, case in timed.items():
                rounds[label].setdefault(name, []).append(case)
    output = ROOT / layer.output
    record = json.loads(output.read_text()) if output.exists() else {}
    host = {"cpu": _cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    # a sample's key -> the key of its median and quartiles in the record
    spread = {"layer": "layer_s", "run": f"{layer.run}_s", "peak_bytes": "peak_bytes",
              "import_s": "import_s"}
    for label, src in args.trees:
        cases = {name: {key: value for key, value in samples[0].items() if key not in spread}
                 | {spread[key]: _spread([s[key] for s in samples])
                    for key in spread if key in samples[0]}
                 for name, samples in rounds[label].items()}
        record.setdefault("runs", {})[label] = {
            "source_sha256": _source_digest(src), "host": host, "cases": cases,
            "alternated_with": [other for other in labels if other != label]}
        for name, case in cases.items():
            print(f"{label} {name}: layer {case['layer_s']['median'] * 1e3:.2f} ms "
                  f"[{case['layer_s']['q1'] * 1e3:.2f}, {case['layer_s']['q3'] * 1e3:.2f}], "
                  f"{layer.run} {case[f'{layer.run}_s']['median'] * 1e3:.2f} ms"
                  + (f", peak {case['peak_bytes']['median'] / 2 ** 20:.1f} MiB"
                     if "peak_bytes" in case else "")
                  + (f", import {case['import_s']['median'] * 1e3:.2f} ms"
                     if "import_s" in case else ""))
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == [CHILD_FLAG]:
        print(json.dumps(_time_cases(LAYERS[sys.argv[2]], sys.argv[3:] or None)))
        sys.exit(0)
    sys.exit(main())
