#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the
repository root.

* ``BENCHMARK.json`` is exactly what ``metrics.py`` generates.
* The output checks reject a perturbed reference value, rows out of
  row-major order, and a residual tangle that breaks monogamy.
* Each workload runs at toy size, untraced and traced: every metric named in
  ``BENCHMARK.json`` appears with its unit, no invocation fails, and both
  runs wrote byte-identical CSV.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import benchmark_json
from workloads import WORKLOADS, check_output, check_reference, linspace

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 7  # not the default seed, so no reference is involved


def _expect_rejected(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"the check accepted {what}")


def check_checks() -> None:
    inv = WORKLOADS["sweep-tilt-L6"].generate(SEED, True)
    rows = ["axis1,axis2,value"]
    for a in linspace(*inv.axes[0]):
        for b in linspace(*inv.axes[1]):
            rows.append(f"{a!r},{b!r},0.5")
    good = "\n".join(rows) + "\n"
    check_output(inv, 0, good)
    swapped = "\n".join([rows[0], rows[2], rows[1]] + rows[3:]) + "\n"
    _expect_rejected("rows out of row-major order", check_output, inv, 0, swapped)
    _expect_rejected("a non-zero exit code", check_output, inv, 1, good)
    _expect_rejected("a value above 1", check_output, inv, 0, good.replace(",0.5\n", ",1.5\n", 1))
    check_reference(good, good.replace(",0.5\n", ",0.500000000001\n", 1))
    _expect_rejected("a value 1e-7 off the reference", check_reference,
                     good, good.replace(",0.5\n", ",0.5000001\n", 1))

    inv = WORKLOADS["evolve-pairs-L12"].generate(SEED, True)
    header = "t,q,n_tangle,residual_tangle,nn_concurrence,sum_two_tangles"
    rows = [f"{t},0.5,0.1,{-1e-9 if t else 0.0},0.2,0.3" for t in range(inv.work["csv_rows"])]
    check_output(inv, 0, "\n".join([header] + rows) + "\n")
    rows[1] = "1,0.5,0.1,-1e-7,0.2,0.3"
    _expect_rejected("a CKW-violating residual tangle", check_output, inv, 0,
                     "\n".join([header] + rows) + "\n")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads(spec: dict) -> None:
    units = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: "
                                     f"{proc.stderr.strip()}")
            lines = proc.stdout.strip().splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2].removeprefix("record "))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace={trace} failed: {record['errors']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units[str(trace)]:
                raise AssertionError(f"{workload} trace={trace}: metrics or units differ from "
                                     f"BENCHMARK.json: {sorted(set(got) ^ set(units[str(trace)]))}")
            digests.add(record["csv_sha256"])
        if len(digests) != 1:
            raise AssertionError(f"{workload}: traced and untraced CSV bytes differ")
        print(f"selftest: {workload} ok", flush=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_state" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, next(iter(WORKLOADS)), 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("the benchmark reported a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if spec != benchmark_json():
        raise AssertionError("BENCHMARK.json differs from `python3 perfbench/metrics.py`")
    check_checks()
    check_bare_directory()
    check_workloads(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
