"""The four benchmark workloads: seeded argv generation, computed work
counts, and the checks every CLI output must pass.

Each workload is one ``kicked-ising`` invocation.  The seed jitters the fixed
couplings and the axis ranges by a few percent, so a claim can be re-checked
on inputs it was not tuned on; the program only ever sees the generated argv.
The jitter never moves a parameter onto or off an integrable line: theta stays
exactly pi/2 where the free-fermion (JW) fast path is meant to fire, and
stays well inside (0, pi/2) everywhere else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
HALF_PI = math.pi / 2.0

# The harness takes the JW fast path for |theta - pi/2| below this.
_JW_WINDOW = 1e-3
# 1e-8 is the closed-form gate of ``compare`` and of the acceptance criteria.
COMPARE_TOL = 1e-8
MONOGAMY_SLACK = 1e-8
# Time averages of clamped measures may only overshoot [0, 1] by rounding.
RANGE_SLACK = 1e-12


def kick_bytes(num_qubits: int) -> int:
    """Bytes one kick reads and writes, computed from array sizes.

    The model: each of the 3L butterfly passes (L for the field rotation, 2L
    for the two Walsh-Hadamard transforms) and the Ising phase multiply reads
    and writes the 16-byte complex state once.  Cache hits are ignored, so
    this is computed traffic, not measured bandwidth.
    """
    return 2 * 16 * 2 ** num_qubits * (3 * num_qubits + 1)


def _num(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class Invocation:
    """One generated CLI call plus what the benchmark knows about it."""

    argv: list[str]
    num_qubits: int
    work: dict[str, int]  # computed work counts, exact for this argv
    axes: tuple[tuple[float, float, int], ...] = ()  # sweeps only


def _jitter(rng: random.Random, x: float, rel: float) -> float:
    return x * (1.0 + rel * rng.uniform(-1.0, 1.0))


def linspace(lo: float, hi: float, n: int) -> list[float]:
    # matches numpy.linspace, whose last element is exactly ``hi``
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


def _series_work(L: int, kicks: int, reports: int, pairs: bool) -> dict[str, int]:
    n_pairs = reports * L * (L - 1) // 2 if pairs else 0
    return {
        "kicks": kicks,
        "amp_qubit_updates": kicks * L * 2 ** L,
        "kick_bytes": kicks * kick_bytes(L),
        "reports": reports,
        "one_tangles": reports * L,
        "pair_concurrences": n_pairs,
        "eigh_small_calls": 2 * n_pairs,
    }


def evolve_pairs(seed: int, toy: bool) -> Invocation:
    rng = random.Random(seed)
    L, steps = (6, 4) if toy else (12, 40)
    jx, b, theta = _jitter(rng, 0.9, 0.03), _jitter(rng, 1.1, 0.03), _jitter(rng, 0.6, 0.05)
    argv = ["evolve", "--L", str(L), "--jx", _num(jx), "--b", _num(b), "--theta", _num(theta),
            "--steps", str(steps)]
    work = _series_work(L, steps, steps + 1, pairs=True)
    work["csv_rows"] = steps + 1
    return Invocation(argv, L, work)


def compare_transverse(seed: int, toy: bool) -> Invocation:
    rng = random.Random(seed)
    L, tmax = (8, 3) if toy else (20, 3)
    jx, b = _jitter(rng, 1.1, 0.03), _jitter(rng, 0.7, 0.03)
    argv = ["compare", "--regime", "transverse", "--L", str(L), "--jx", _num(jx),
            "--b", _num(b), "--tmax", str(tmax)]
    work = _series_work(L, tmax, tmax + 1, pairs=False)
    work["jw_q_vacuum_calls"] = 1
    work["csv_rows"] = 1
    return Invocation(argv, L, work)


def _sweep_work(L: int, kicks: int, points: int, jw: int) -> dict[str, int]:
    numeric = points - jw
    work = _series_work(L, numeric * kicks, numeric * (kicks + 1), pairs=False)
    work.update(points_numeric=numeric, points_jw=jw, jw_q_vacuum_calls=jw, csv_rows=points)
    return work


def sweep_tilt(seed: int, toy: bool) -> Invocation:
    rng = random.Random(seed)
    L, n1, n2, kicks = (4, 3, 3, 10) if toy else (6, 11, 6, 100)
    jx = _jitter(rng, math.pi / 4.0, 0.03)
    axis1 = (_jitter(rng, 0.05, 0.2), _jitter(rng, 2 * math.pi - 0.05, 0.005), n1)
    axis2 = (_jitter(rng, 0.1, 0.2), HALF_PI, n2)
    argv = ["sweep", "--axis1", "b:{}:{}:{}".format(_num(axis1[0]), _num(axis1[1]), n1),
            "--axis2", "theta:{}:{}:{}".format(_num(axis2[0]), _num(axis2[1]), n2),
            "--jx", _num(jx), "--L", str(L), "--kicks", str(kicks), "--measure", "q"]
    jw = n1 * sum(abs(theta - HALF_PI) < _JW_WINDOW for theta in linspace(*axis2))
    return Invocation(argv, L, _sweep_work(L, kicks, n1 * n2, jw), (axis1, axis2))


def sweep_jw(seed: int, toy: bool) -> Invocation:
    rng = random.Random(seed)
    L, n, kicks = (8, 5, 50) if toy else (20, 51, 1000)
    axis1 = (_jitter(rng, 0.05, 0.2), _jitter(rng, 2 * math.pi - 0.05, 0.005), n)
    axis2 = (_jitter(rng, 0.05, 0.2), _jitter(rng, 2 * math.pi - 0.05, 0.005), n)
    argv = ["sweep", "--axis1", "jx:{}:{}:{}".format(_num(axis1[0]), _num(axis1[1]), n),
            "--axis2", "b:{}:{}:{}".format(_num(axis2[0]), _num(axis2[1]), n),
            "--theta", _num(HALF_PI), "--L", str(L), "--kicks", str(kicks), "--measure", "q"]
    return Invocation(argv, L, _sweep_work(L, kicks, n * n, n * n), (axis1, axis2))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, bool], Invocation]  # (seed, toy)
    pooled: bool  # a sweep: run with one worker process per core
    cap_s: float  # wall-time cap of one invocation at full size
    host_parts: tuple[str, ...]  # hostspeed kernel parts that match its work


WORKLOADS = {w.name: w for w in (
    Workload("evolve-pairs-L12",
             "evolve with all measures at L=12: pair concurrences and their 4x4 spectra "
             "dominate, the kick kernel barely shows",
             evolve_pairs, pooled=False, cap_s=30.0,
             host_parts=("python", "small")),
    Workload("compare-transverse-L20",
             "transverse compare at L=20 against the free-fermion form: a 16 MiB state, "
             "bound by the field and Ising kicks and one-tangles",
             compare_transverse, pooled=False, cap_s=40.0,
             host_parts=("stream",)),
    Workload("sweep-tilt-L6",
             "(B, theta) sweep at L=6 with one JW column: tiny states, so per-call "
             "overhead and process dispatch dominate",
             sweep_tilt, pooled=True, cap_s=30.0,
             host_parts=("python", "small")),
    Workload("sweep-jw-L20",
             "(j_x, B) sweep at theta=pi/2, L=20: every point on the JW fast path, "
             "stressing JW mode sums, dispatch and CSV writing",
             sweep_jw, pooled=True, cap_s=30.0,
             host_parts=("python", "small")),
)}


# ------------------------------------------------------------------ checks

def _float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {text!r}")
    return x


def _in_unit(x: float, what: str) -> None:
    if not -RANGE_SLACK <= x <= 1.0 + RANGE_SLACK:
        raise ValueError(f"{what} = {x!r} outside [0, 1]")


def check_output(inv: Invocation, returncode: int, csv_text: str) -> None:
    """Raise ValueError unless the invocation's exit code and CSV are right."""
    if returncode != 0:
        raise ValueError(f"exit code {returncode}")
    lines = csv_text.splitlines()
    if not csv_text.endswith("\n") or len(lines) != inv.work["csv_rows"] + 1:
        raise ValueError(f"expected {inv.work['csv_rows']} data rows, got {len(lines) - 1}")
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    command = inv.argv[0]
    if command == "evolve":
        if header != "t,q,n_tangle,residual_tangle,nn_concurrence,sum_two_tangles":
            raise ValueError(f"unexpected header {header!r}")
        for k, row in enumerate(rows):
            if len(row) != 6 or int(row[0]) != k:
                raise ValueError(f"row {k} is malformed: {row}")
            q, nt, resid, nn, s2 = map(_float, row[1:])
            _in_unit(q, f"q at t={k}")
            _in_unit(nt, f"n_tangle at t={k}")
            _in_unit(nn, f"nn_concurrence at t={k}")
            if resid < -MONOGAMY_SLACK:
                raise ValueError(f"residual tangle {resid!r} at t={k} breaks CKW monogamy")
            if s2 < 0.0:
                raise ValueError(f"sum of two-tangles {s2!r} at t={k} is negative")
    elif command == "compare":
        if header != "measure,max_abs_deviation":
            raise ValueError(f"unexpected header {header!r}")
        for name, dev in rows:
            if not _float(dev) <= COMPARE_TOL:
                raise ValueError(f"{name} deviates by {dev} > {COMPARE_TOL}")
    elif command == "sweep":
        if header != "axis1,axis2,value":
            raise ValueError(f"unexpected header {header!r}")
        v1s, v2s = (linspace(*axis) for axis in inv.axes)
        want = [(a, b) for a in v1s for b in v2s]  # row-major in axis1
        for k, (row, (a, b)) in enumerate(zip(rows, want)):
            if len(row) != 3:
                raise ValueError(f"row {k} is malformed: {row}")
            a_got, b_got, value = map(_float, row)
            if not (math.isclose(a_got, a, rel_tol=1e-12, abs_tol=1e-12)
                    and math.isclose(b_got, b, rel_tol=1e-12, abs_tol=1e-12)):
                raise ValueError(f"row {k} is at ({a_got}, {b_got}), expected ({a}, {b}): "
                                 "points are not in row-major order")
            _in_unit(value, f"sweep value at row {k}")
    else:
        raise ValueError(f"no check for command {command!r}")


def check_reference(csv_text: str, ref_text: str, tol: float = 1e-8) -> None:
    """Raise ValueError unless two CSVs agree field by field, floats within ``tol``."""
    got, want = csv_text.splitlines(), ref_text.splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        raise ValueError("CSV shape or header differs from the recorded reference")
    for k, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), 1):
        g_row, w_row = g_line.split(","), w_line.split(",")
        if len(g_row) != len(w_row):
            raise ValueError(f"line {k} has {len(g_row)} fields, reference has {len(w_row)}")
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            try:
                close = abs(float(g) - float(w)) <= tol
            except ValueError:
                close = False
            if not close:
                raise ValueError(f"line {k}: {g!r} differs from reference {w!r} by more than {tol}")
