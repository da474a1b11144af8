#!/usr/bin/env python3
"""Benchmark the ``kicked-ising`` CLI on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every invocation is a fresh process calling
``kicked_ising.cli.main(argv)`` (see ``child.py``), because a CLI user pays
the import and the cache fill on every call.  Invocations repeat until
``--seconds`` is used up; each is checked (exit code, value ranges, row
order, byte-identical CSV, recorded reference values at the default seed)
and capped in wall time, so a stall fails instead of hanging.

With ``--trace 0`` the last line reports the end-to-end metrics: the lower
decile of the call's wall and CPU times, the median set-up time and peak
memory, each timing scaled by the host's speed as gauged by ``hostspeed.py``
next to every invocation.  With ``--trace 1`` it reports the per-layer metrics from single-worker traced
invocations, interleaved with untraced ones that give the tracing overhead
and the pool efficiency.  The line before it is the run record: machine,
library versions, worker and BLAS thread counts, computed work counts, and
every timing's quartiles and sample count.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
from metrics import END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS
from workloads import DEFAULT_SEED, WORKLOADS, Invocation, check_output, check_reference, kick_bytes

HERE = Path(__file__).resolve().parent
STATE_DIR = ".perfbench_state"  # scratch and first-run CSV digests, inside the checkout
MIN_CYCLES = 3
BUDGET_S = 150.0  # caps shrink so that invocations end by this time after the start
LAST_CYCLE_S = 90.0  # no cycle starts after this time after the start
TOY_CAP_S = 20.0


@dataclass
class Sample:
    """One invocation: its timings (None where it produced no result) and verdict."""

    kind: tuple
    elapsed_s: float
    error: str | None = None
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    blas_threads: int | None = None
    kernel_s: dict | None = None  # hostspeed parts, run just before
    csv_bytes: int = 0
    trace: dict | None = None


def _sha256_of_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine() -> dict:
    model, llc = "unknown", None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        llc = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    return {"nproc": os.cpu_count() or 1, "cpu_model": model, "llc_size": llc}


def _quartiles(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    if len(values) == 1:
        return {"n": 1, "p10": values[0], "q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p10": _p10(values), "q1": q1,
            "median": statistics.median(values), "q3": q3}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p10(values: list[float]) -> float:
    """Lower decile, interpolated between the sorted values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[0]


STATISTICS = {"median": _median, "p10": _p10}


class Bench:
    """Runs and checks invocations of one generated workload."""

    def __init__(self, root: Path, name: str, inv: Invocation, seed: int, toy: bool):
        self.root, self.name, self.inv, self.seed, self.toy = root, name, inv, seed, toy
        self.state = root / STATE_DIR
        self.state.mkdir(exist_ok=True)
        self.t_start = time.monotonic()
        self.src_sha = _sha256_of_tree(root / "src")
        key = hashlib.sha256((self.src_sha + "\0" + "\0".join(inv.argv)).encode()).hexdigest()
        self.digest_file = self.state / f"csv-{key[:24]}.sha256"
        self.csv_sha: str | None = None
        self.reference_checked = False
        self.cap_s = TOY_CAP_S if toy else WORKLOADS[name].cap_s
        self.gauge = hostspeed.Gauge(1)

    def _env(self, workers: int, blas: int) -> dict:
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                    KICKED_ISING_WORKERS=str(workers), OPENBLAS_NUM_THREADS=str(blas),
                    OMP_NUM_THREADS=str(blas), MKL_NUM_THREADS=str(blas))

    def _spawn(self, child_args: list[str], workers: int, blas: int):
        """Run child.py; return (elapsed, spawn time, result dict or None, error or None)."""
        result = self.state / f"result-{os.getpid()}.json"
        result.unlink(missing_ok=True)
        remaining = BUDGET_S - (time.monotonic() - self.t_start)
        cap = max(5.0, min(self.cap_s, remaining))
        cmd = [sys.executable, str(HERE / "child.py"), str(result)] + child_args
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self._env(workers, blas),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                start_new_session=True)
        error = None
        try:
            _, err = proc.communicate(timeout=cap)
        except subprocess.TimeoutExpired:
            error = f"timed out after {cap:.0f} s"
            os.killpg(proc.pid, signal.SIGKILL)  # its session also holds its pool workers
            _, err = proc.communicate()
        elapsed = time.monotonic() - t0
        data = None
        if error is None:
            try:
                data = json.loads(result.read_text())
            except (OSError, ValueError):
                tail = err.decode(errors="replace").strip().splitlines()[-3:]
                error = f"exit code {proc.returncode}, no result: {' | '.join(tail)}"
        result.unlink(missing_ok=True)
        return elapsed, t0, data, error

    def probe(self) -> dict | None:
        _, t0, data, error = self._spawn(["probe"], 1, 1)
        if data is None:
            print(f"error: cannot import kicked_ising from {self.root / 'src'}: {error}",
                  file=sys.stderr)
        return data

    def invoke(self, kind: tuple) -> Sample:
        workers, blas, traced = kind
        out = self.state / f"out-{os.getpid()}.csv"
        spans = self.state / f"spans-{self.name}.csv"
        out.unlink(missing_ok=True)
        kernel_s = self.gauge.kernel_s()
        args = ["1" if traced else "0", str(spans), "--", *self.inv.argv, "--output", str(out)]
        elapsed, t0, data, error = self._spawn(args, workers, blas)
        sample = Sample(kind, elapsed, error, wall_s=elapsed,  # a lower bound if it timed out
                        kernel_s=kernel_s)
        if data is not None:
            sample.setup_s = data["ready"] - t0
            sample.wall_s = data["wall_s"]
            sample.cpu_s = data["cpu_s"]
            sample.peak_rss_mb = data["peak_rss_kb"] / 1024.0
            sample.blas_threads = data["blas_threads"]
            sample.trace = data.get("trace")
            try:
                csv = out.read_bytes()
                sample.csv_bytes = len(csv)
                self._check(data["returncode"], csv)
            except (OSError, ValueError) as exc:
                sample.error = str(exc)
        out.unlink(missing_ok=True)
        return sample

    def _check(self, returncode: int, csv: bytes) -> None:
        check_output(self.inv, returncode, csv.decode())
        sha = hashlib.sha256(csv).hexdigest()
        if self.csv_sha is None:
            # the first run of this argv on this source tree fixes the bytes
            if not self.digest_file.exists():
                self.digest_file.write_text(sha)
            self.csv_sha = self.digest_file.read_text().strip()
        if sha != self.csv_sha:
            raise ValueError(f"CSV bytes differ from the first run ({sha[:12]} != {self.csv_sha[:12]})")
        if self.seed == DEFAULT_SEED and not self.toy and not self.reference_checked:
            ref = json.loads(gzip.decompress((HERE / "reference" / f"{self.name}.json.gz")
                                             .read_bytes()))
            if ref["argv"] != self.inv.argv:
                raise ValueError("default-seed argv differs from the recorded reference")
            check_reference(csv.decode(), ref["csv"])
            self.reference_checked = True

    def measure(self, seconds: float, kinds: list[tuple]) -> list[Sample]:
        """Cycle through ``kinds`` until another cycle would overrun ``seconds``."""
        samples, cycle_s = [], []
        t0 = time.monotonic()
        while True:
            c0 = time.monotonic()
            samples += [self.invoke(kind) for kind in kinds]
            cycle_s.append(time.monotonic() - c0)
            elapsed = time.monotonic() - t0
            if len(cycle_s) >= MIN_CYCLES and elapsed + statistics.median(cycle_s) > seconds:
                break
            if time.monotonic() - self.t_start > LAST_CYCLE_S:
                break
        return samples


def _values(samples: list[Sample], attr: str) -> list[float]:
    return [getattr(s, attr) for s in samples if getattr(s, attr) is not None]


def _layer_metrics(sample: Sample, inv: Invocation) -> dict:
    """Per-layer metrics of one traced invocation, from its span summary."""
    traced = sample.trace
    by_name = traced["by_name"]

    def get(span: str, key: str) -> float:
        return by_name.get(span, {}).get(key, 0.0)

    L = inv.num_qubits
    steps = get("statevec.step", "calls")
    step_s = get("statevec.step", "s")
    layer_self = {layer: sum(e["self_s"] for n, e in by_name.items() if n.split(".")[0] == layer)
                  for layer in LAYERS}
    layer_errors = {layer: sum(e["errors"] for n, e in by_name.items() if n.split(".")[0] == layer)
                    for layer in LAYERS}
    out = {
        "statevec.step.calls": steps,
        "statevec.step.self_s": get("statevec.step", "self_s"),
        "statevec.field_kick.s": get("statevec.field_kick", "s"),
        "statevec.ising_kick.s": get("statevec.ising_kick", "s"),
        "statevec.fwht.s": get("statevec.fwht", "s"),
        "statevec.step.call_ms.p50": 1e3 * get("statevec.step", "p50"),
        "statevec.step.call_ms.p90": 1e3 * get("statevec.step", "p90"),
        "statevec.ns_per_amp_update": 1e9 * step_s / (steps * L * 2 ** L) if steps else 0.0,
        "statevec.bytes_computed": steps * kick_bytes(L),
        "measures.report.calls": get("measures.report", "calls"),
        "measures.report.self_s": get("measures.report", "self_s"),
        "measures.n_tangle.s": get("measures.n_tangle", "s"),
        "measures.one_tangle.s": get("measures.one_tangle", "s"),
        "measures.one_tangle.calls": get("measures.one_tangle", "calls"),
        "measures.rdm_pair.s": get("measures.rdm_pair", "s"),
        "measures.rdm_pair.calls": get("measures.rdm_pair", "calls"),
        "measures.concurrence.s": get("measures.concurrence", "s"),
        "measures.concurrence.calls": get("measures.concurrence", "calls"),
        "measures.concurrence.call_us.p50": 1e6 * get("measures.concurrence", "p50"),
        "measures.concurrence.call_us.p99": 1e6 * get("measures.concurrence", "p99"),
        "jacobi.eigh_small.s": get("jacobi.eigh_small", "s"),
        "jacobi.eigh_small.calls": get("jacobi.eigh_small", "calls"),
        "jacobi.eigh_small.call_us.p50": 1e6 * get("jacobi.eigh_small", "p50"),
        "jacobi.eigh_small.call_us.p99": 1e6 * get("jacobi.eigh_small", "p99"),
        "analytic.jw_q_vacuum.s": get("analytic.jw_q_vacuum", "s"),
        "analytic.jw_q_vacuum.calls": get("analytic.jw_q_vacuum", "calls"),
        "harness.run_time_series.s": get("harness.run_time_series", "s"),
        "harness.sweep_grid.self_s": get("harness.sweep_grid", "self_s"),
        "harness.points_numeric": traced["points"]["numeric"],
        "harness.points_jw": traced["points"]["jw"],
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.csv_bytes": sample.csv_bytes,
        # wall time of the call measured around it, less every span's self time
        "trace.unattributed_s": sample.wall_s - sum(layer_self.values()),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.errors"] = layer_errors[layer]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test; skips the reference check")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kicked_ising" / "cli.py").is_file():
        print(f"error: {root} holds no src/kicked_ising; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inv = workload.generate(args.seed, args.toy)
    bench = Bench(root, workload.name, inv, args.seed, args.toy)
    versions = bench.probe()  # also the warm-up: compiles bytecode, fills the page cache
    if versions is None:
        return 1

    nproc = os.cpu_count() or 1
    workers = nproc if workload.pooled else 1
    e2e = (workers, 1, False)  # a second BLAS thread only adds noise on a shared host
    base, traced = (1, 1, False), (1, 1, True)
    kinds = list(dict.fromkeys([e2e, base, traced] if args.trace else [e2e]))
    with hostspeed.Gauge(workers) as bench.gauge:
        samples = bench.measure(args.seconds, kinds)
    by_kind = {kind: [s for s in samples if s.kind == kind] for kind in kinds}

    record = {
        "workload": workload.name, "seed": args.seed, "toy": args.toy, "argv": inv.argv,
        "machine": _machine(),
        "software": {k: versions[k] for k in ("python", "numpy", "blas")},
        "git_sha": _git_sha(root), "src_sha256": bench.src_sha,
        "csv_sha256": bench.csv_sha,
        "work_computed": inv.work,
        "failed_frac": sum(s.error is not None for s in samples) / len(samples),
        "errors": sorted({s.error for s in samples if s.error})[:5],
        "kinds": [],
    }
    for (w, blas, tr), group in by_kind.items():
        threads = {s.blas_threads for s in group}
        record["kinds"].append({
            "workers": w, "blas_threads_set": blas, "blas_threads_seen": sorted(threads - {None}),
            "traced": tr, "within_nproc": w * blas <= nproc,
            **{m: _quartiles(_values(group, m))
               for m in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "elapsed_s")},
            "kernel_s": {part: _quartiles([s.kernel_s[part] for s in group])
                         for part in hostspeed.PARTS},
        })

    if args.trace:
        per_inv = [_layer_metrics(s, inv) for s in by_kind[traced] if s.trace]
        metrics = {m.name: _median([float(p[m.name]) for p in per_inv if m.name in p])
                   for m in PER_LAYER}
        e2e_wall = _median(_values(by_kind[e2e], "wall_s"))
        e2e_cpu = _median(_values(by_kind[e2e], "cpu_s"))
        base_wall = _median(_values(by_kind[base], "wall_s"))
        traced_wall = _median(_values(by_kind[traced], "wall_s"))
        metrics["harness.pool_efficiency"] = e2e_cpu / (e2e_wall * workers) if e2e_wall else 0.0
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = traced_wall / base_wall - 1.0 if base_wall else 0.0
        units = {m.name: m.unit for m in PER_LAYER}
    else:
        group = by_kind[e2e]
        raw = {name: STATISTICS[stat](_values(group, name))
               for name, _, _, _, stat, _, _ in END_TO_END}
        # seconds on a host where the matching kernel parts take their REFERENCE_S
        speed = {}
        for parts in {workload.host_parts, ("python",)}:
            now = _p10([sum(s.kernel_s[p] for p in parts) for s in group])
            speed[parts] = hostspeed.reference_s(parts) / now
        scale = {"workload": speed[workload.host_parts], "python": speed[("python",)], None: 1.0}
        metrics = {name: raw[name] * scale[by] for name, _, _, _, _, by, _ in END_TO_END}
        record["host_speed"] = {"factors": {"+".join(k): v for k, v in speed.items()},
                                "unscaled": raw}
        units = {name: unit for name, unit, *_ in END_TO_END}

    failed = sum(s.error is not None for s in samples)
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and bench.csv_sha is not None,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
