"""Time the JW window-average layer, ``analytic.jw_q_average``, as sweeps call it,
in two or more source trees side by side.

Two cases, each run as a ``harness.sweep_grid`` call with the layer's calls
timed inside it:

- ``grid``: the seed-0 ``sweep-jw-L20`` grid of ``perfbench`` (51 x 51
  points of (j_x, B) at theta = pi/2, L = 20, 1000 kicks);
- ``window-T``: the 4 x 4 grid spanning the same ranges at L = 20, for
  windows of T = 10^2, 10^4 and 10^6 kicks.

Each ``LABEL=SRC_DIR`` names a tree whose ``kicked_ising`` package is timed.
The trees take turns: each of the ``REPEATS`` rounds starts one fresh
interpreter per tree, the first tree of a round rotating, and that
interpreter runs every case once untimed and once timed.  So every tree sees
the same host phases, and a before/after pair recorded in one invocation is
comparable; one tree per invocation is not, as the host's speed drifts
between invocations by more than the quartiles within one.  The median and
quartiles of the layer's seconds per sweep, and of the whole ``sweep_grid``
call, are merged into ``BENCH_jw_average.json`` at the repository root under
each label, next to what other labels recorded.  BLAS runs one thread unless
the environment says otherwise.

Run from the repository root, with a second tree checked out elsewhere:

    python3 tools/bench_jw_average.py before=../parent/src after=src
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_jw_average.json"
WINDOWS = (10 ** 2, 10 ** 4, 10 ** 6)
REPEATS = 9  # timed sweeps per case and tree
CHILD_FLAG = "--time-this-interpreter"


def _cases() -> dict:
    from kicked_ising.harness import AxisSpec, SweepConfig
    from kicked_ising.statevec import ChainParams

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    inv = WORKLOADS["sweep-jw-L20"].generate(0, False)
    flags = dict(zip(inv.argv[1::2], inv.argv[2::2]))
    (lo1, hi1, n1), (lo2, hi2, n2) = inv.axes
    fixed = ChainParams(inv.num_qubits, 0.0, 0.0, float(flags["--theta"]))
    cases = {"grid": SweepConfig(AxisSpec("j_x", lo1, hi1, n1), AxisSpec("b_field", lo2, hi2, n2),
                                 fixed, int(flags["--kicks"]))}
    for steps in WINDOWS:
        cases[f"window-{steps}"] = SweepConfig(AxisSpec("j_x", lo1, hi1, 4),
                                               AxisSpec("b_field", lo2, hi2, 4), fixed, steps)
    return cases


def _time_cases() -> dict:
    """One untimed and one timed sweep per case in this interpreter: seconds
    inside ``jw_q_average``, seconds in the whole sweep, and how many chunks
    the sweep handed the layer."""
    from kicked_ising import analytic, harness

    average = analytic.jw_q_average
    tally = {"layer": 0.0, "calls": 0}

    def timed(*args):
        start = time.perf_counter()
        try:
            return average(*args)
        finally:
            tally["layer"] += time.perf_counter() - start
            tally["calls"] += 1

    analytic.jw_q_average = timed
    out = {}
    try:
        for name, config in _cases().items():
            harness.sweep_grid(config)  # warm-up
            tally.update(layer=0.0, calls=0)
            start = time.perf_counter()
            harness.sweep_grid(config)
            out[name] = {"sweep": time.perf_counter() - start, **tally,
                         "points": config.axis1.count * config.axis2.count,
                         "num_qubits": config.fixed.num_qubits, "kicks": config.steps}
    finally:
        analytic.jw_q_average = average
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
    label, sep, src = text.partition("=")
    if not (sep and label and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC_DIR, got {text!r}")
    path = Path(src).resolve()
    if not (path / "kicked_ising" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no kicked_ising package under {path}")
    return label, path


def _run_child(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, CHILD_FLAG], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=_tree, metavar="LABEL=SRC_DIR",
                        help="source trees to time alternately, two or more")
    args = parser.parse_args(argv)
    labels = [label for label, _ in args.trees]
    if len(args.trees) < 2 or len(set(labels)) != len(labels):
        parser.error("need two or more trees with distinct labels")
    rounds = {label: [] for label in labels}
    for r in range(REPEATS):
        k = r % len(args.trees)
        for label, src in args.trees[k:] + args.trees[:k]:
            rounds[label].append(_run_child(src))
    record = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    host = {"cpu": _cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    for label, src in args.trees:
        samples = rounds[label]
        cases = {name: {key: first[key] for key in ("points", "num_qubits", "kicks", "calls")}
                 | {"layer_s": _spread([s[name]["layer"] for s in samples]),
                    "sweep_s": _spread([s[name]["sweep"] for s in samples])}
                 for name, first in samples[0].items()}
        record.setdefault("runs", {})[label] = {
            "source_sha256": _source_digest(src), "host": host, "cases": cases,
            "alternated_with": [other for other in labels if other != label]}
        for name, case in cases.items():
            print(f"{label} {name}: layer {case['layer_s']['median'] * 1e3:.2f} ms "
                  f"[{case['layer_s']['q1'] * 1e3:.2f}, {case['layer_s']['q3'] * 1e3:.2f}], "
                  f"sweep {case['sweep_s']['median'] * 1e3:.2f} ms")
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == [CHILD_FLAG]:
        print(json.dumps(_time_cases()))
        sys.exit(0)
    sys.exit(main())
