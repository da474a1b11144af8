"""The benchmark's metrics: one table that ``BENCHMARK.json`` is generated
from, recording for each per-layer metric which end-to-end metric it should
move and on which workloads.

``python3 perfbench/metrics.py`` prints the ``BENCHMARK.json`` contents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import WORKLOADS

EVOLVE, COMPARE, TILT, JW = WORKLOADS

RUN_SECONDS = 30

# Share of the parent's median by which a metric may worsen before a change
# counts as a regression.  The timings get the largest bound allowed: on the
# 2-core KVM guest this was tuned on, other tenants slow invocations by
# 20-40% in bursts of seconds and by up to 50% in phases of minutes, CPU time
# included.  Two things steady them (see hostspeed.py and README.md): the
# call's timings report the lower decile of a run's invocations ("p10"),
# since interference only ever adds time, and every timing is scaled by the
# host's speed, gauged by calibration kernel parts run next to each
# invocation: the parts that match the workload's work ("workload") or, for
# the import, the pure-Python part ("python").  Memory is not scaled.
END_TO_END = (
    # name, unit, better, bound, statistic over the run's invocations,
    # host speed it is scaled by, meaning
    ("wall_s", "s", "lower", 0.25, "p10", "workload",
     "wall time of the cli.main call, entry to return"),
    ("cpu_s", "s", "lower", 0.25, "p10", "workload",
     "user + system CPU of the call, with pool workers and BLAS threads"),
    ("setup_s", "s", "lower", 0.25, "median", "python",
     "process start until kicked_ising is imported and ready"),
    ("peak_rss_mb", "MB", "lower", 0.05, "median", None,
     "highest peak resident memory of the process or a worker"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str = ""  # the end-to-end metric a change in this one should move
    on: tuple[str, ...] = ()  # workloads where it should move that metric
    not_on: tuple[str, ...] = ()  # workloads where it should leave it unchanged


def _layer(prefix, moves="", on=(), not_on=(), rows=()):
    return [LayerMetric(f"{prefix}.{name}", unit, better, moves, on, not_on)
            for name, unit, better in rows]


_KICK = dict(moves="wall_s", on=(COMPARE, TILT), not_on=(EVOLVE, JW))
_PAIRS = dict(moves="wall_s", on=(EVOLVE,), not_on=(JW,))
_ERRORS = ("errors", "count", "lower")

PER_LAYER = (
    _layer("statevec", rows=(
        ("step.calls", "count", "lower"), ("step.self_s", "s", "lower"),
        ("field_kick.s", "s", "lower"), ("ising_kick.s", "s", "lower"),
        ("fwht.s", "s", "lower"), ("step.call_ms.p50", "ms", "lower"),
        ("step.call_ms.p90", "ms", "lower"), ("ns_per_amp_update", "ns", "lower"),
        ("bytes_computed", "B", "lower"), ("self_s", "s", "lower"), _ERRORS), **_KICK)
    + _layer("measures", rows=(
        ("report.calls", "count", "lower"), ("report.self_s", "s", "lower"),
        ("n_tangle.s", "s", "lower"), ("self_s", "s", "lower"), _ERRORS),
        moves="wall_s", on=(EVOLVE, COMPARE, TILT), not_on=(JW,))
    + _layer("measures", rows=(
        ("one_tangle.s", "s", "lower"), ("one_tangle.calls", "count", "lower")),
        moves="wall_s", on=(COMPARE, TILT), not_on=(JW,))
    + _layer("measures", rows=(
        ("rdm_pair.s", "s", "lower"), ("rdm_pair.calls", "count", "lower"),
        ("concurrence.s", "s", "lower"), ("concurrence.calls", "count", "lower"),
        ("concurrence.call_us.p50", "us", "lower"), ("concurrence.call_us.p99", "us", "lower")),
        **_PAIRS)
    + _layer("jacobi", rows=(
        ("eigh_small.s", "s", "lower"), ("eigh_small.calls", "count", "lower"),
        ("eigh_small.call_us.p50", "us", "lower"), ("eigh_small.call_us.p99", "us", "lower"),
        ("self_s", "s", "lower"), _ERRORS), **_PAIRS)
    + _layer("analytic", rows=(
        ("jw_q_vacuum.s", "s", "lower"), ("jw_q_vacuum.calls", "count", "lower"),
        ("self_s", "s", "lower"), _ERRORS),
        moves="wall_s", on=(JW,), not_on=(EVOLVE,))
    + _layer("harness", rows=(
        ("run_time_series.s", "s", "lower"), ("sweep_grid.self_s", "s", "lower"),
        ("points_numeric", "count", "lower"), ("points_jw", "count", "higher"),
        ("self_s", "s", "lower"), _ERRORS),
        moves="wall_s", on=(TILT, JW))
    + _layer("harness", rows=(("pool_efficiency", "ratio", "higher"),),
             moves="cpu_s", on=(TILT, JW))
    + _layer("cli", rows=(
        ("main.self_s", "s", "lower"), ("csv_bytes", "B", "lower"),
        ("self_s", "s", "lower"), _ERRORS),
        moves="wall_s", on=(JW,))
    # the tracer's own health: attribution remainder and overhead
    + _layer("trace", rows=(
        ("wall_s", "s", "lower"), ("unattributed_s", "s", "lower"),
        ("overhead_frac", "ratio", "lower")))
)

LAYERS = ("statevec", "measures", "jacobi", "analytic", "harness", "cli")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, *_ in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
