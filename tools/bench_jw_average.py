"""Time the JW window-average layer, ``analytic.jw_q_average``, as sweeps call it.

Two cases, each run as a ``harness.sweep_grid`` call with the layer's calls
timed inside it:

- ``grid``: the seed-0 ``sweep-jw-L20`` grid of ``perfbench`` (51 x 51
  points of (j_x, B) at theta = pi/2, L = 20, 1000 kicks);
- ``window-T``: the 4 x 4 grid spanning the same ranges at L = 20, for
  windows of T = 10^2, 10^4 and 10^6 kicks.

Every case runs ``REPEATS`` times in this one process, after one untimed
warm-up. The median and quartiles of the layer's seconds per sweep, and of
the whole ``sweep_grid`` call, are merged into ``BENCH_jw_average.json`` at
the repository root under ``--label``, next to what other labels recorded.
BLAS runs one thread unless the environment says otherwise.

Run from the repository root, with the source tree to time first on the path:

    PYTHONPATH=src python3 tools/bench_jw_average.py --label after
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
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from kicked_ising import analytic, harness  # noqa: E402
from kicked_ising.harness import AxisSpec, SweepConfig  # noqa: E402
from kicked_ising.statevec import ChainParams  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

OUTPUT = ROOT / "BENCH_jw_average.json"
WINDOWS = (10 ** 2, 10 ** 4, 10 ** 6)
REPEATS = 9  # timed sweeps per case


def _cases() -> dict[str, SweepConfig]:
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


def _spread(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def _time_case(config: SweepConfig) -> dict:
    """Seconds inside ``jw_q_average`` and in the whole sweep, per sweep, and
    how many chunks the sweep handed the layer."""
    layer, calls = [], []
    average = analytic.jw_q_average

    def timed(*args):
        start = time.perf_counter()
        try:
            return average(*args)
        finally:
            layer[-1] += time.perf_counter() - start
            calls[-1] += 1

    analytic.jw_q_average = timed
    sweeps = []
    try:
        for _ in range(REPEATS + 1):  # the first is the warm-up
            layer.append(0.0)
            calls.append(0)
            start = time.perf_counter()
            harness.sweep_grid(config)
            sweeps.append(time.perf_counter() - start)
    finally:
        analytic.jw_q_average = average
    return {"points": config.axis1.count * config.axis2.count,
            "num_qubits": config.fixed.num_qubits, "kicks": config.steps, "calls": calls[-1],
            "layer_s": _spread(layer[1:]), "sweep_s": _spread(sweeps[1:])}


def _source_digest() -> str:
    package = Path(analytic.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the JSON file")
    args = parser.parse_args(argv)
    cases = {name: _time_case(config) for name, config in _cases().items()}
    record = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "source_sha256": _source_digest(),
        "host": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "cases": cases,
    }
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, case in cases.items():
        print(f"{args.label} {name}: layer {case['layer_s']['median'] * 1e3:.2f} ms "
              f"[{case['layer_s']['q1'] * 1e3:.2f}, {case['layer_s']['q3'] * 1e3:.2f}], "
              f"sweep {case['sweep_s']['median'] * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
