"""Time-series runs, stationary time averages, parameter sweeps, and the
numeric-vs-analytic comparison drivers.

Every run goes through one kick loop, :func:`_evolve`, which builds a
``(P, 2**L)`` stack of states, one row per parameter point, and kicks it in
the frame of :class:`~kicked_ising.statevec.XFrameKick`, which it never
leaves; a time series is a stack of one.  A run's start is named by
:func:`_start_terms` and built in the frame directly.  Each sampled state is
kicked straight into its slot of a group, which is measured where it was
written, and the reports are finished in batches (:func:`_finished`).
A run of Q alone on a ring from a shift-invariant product start evolves
only its light cone, a ring of 2t + 1 qubits for t kicks (:func:`_light_cone`).
Sweeps take their grid in chunks, the transverse points from the free-fermion
closed form and the rest as stacks, in a fixed row-major order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .measures import MeasureReport, ReportBatch, n_tangle, one_tangles
from .statevec import ChainParams, XFrameKick

MEASURES = frozenset(
    {"q", "n_tangle", "one_tangle", "nn_concurrence", "residual_tangle", "sum_two_tangles"}
)
_PAIR_MEASURES = frozenset({"nn_concurrence", "residual_tangle", "sum_two_tangles"})
# Q is the mean one-tangle: one number under two names
_Q_MEASURES = frozenset({"q", "one_tangle"})
SWEEP_PARAMETERS = ("j_x", "b_field", "theta")

_NAMED_INITIALS = ("vacuum", "all_up", "ghz")

# a regime's pinned field (B = 0, theta = pi/2) must hold to this, because
# its closed forms are exact only there; any wider window would swap
# numerics for an approximation without saying so
_PIN_ATOL = 1e-12

# complex state-sized arrays alive at once in a time series: the state
# alone, as the kick streams it through buffers of a chunk's size; the
# n-tangle's cached sign pattern is at most 1 MiB, and the rest is headroom.  Above
# the bare interpreter (VmHWM, one BLAS thread), an evolve with every measure
# peaks at 1.4 copies for 20 qubits (22.1 MiB) and 1.1 for 24 (283 MiB, of
# them 4 MiB for the kick's embedded lowest-block factors)
_LIVE_STATE_COPIES = 2

# numbers in a sweep chunk: the complex amplitudes of its stack of states, or
# its JW points' (L/2)^2 real Dirichlet kernels each; a point larger than this
# is a chunk of its own
_CHUNK_AMPLITUDES = 1 << 14

# the most stacks a group of samples holds: a run binds a kick plan per pair of
# slots it kicks between, and by 64 samples a group spreads the measures'
# per-call cost thin (with 4096 slots of 2 qubits, building the plans made a
# 10^4-kick run 40% slower)
_GROUP_SLOTS = 64


class NoAnalyticOracleError(ValueError):
    """Requested a closed-form comparison where no closed form applies."""


class InsufficientMemoryError(RuntimeError):
    """A run needs more memory than the system has available."""


class SweepPointError(RuntimeError):
    """A sweep point failed; carries the grid coordinates."""

    def __init__(self, i: int, j: int, value1: float, value2: float, cause: BaseException):
        super().__init__(f"sweep point ({i}, {j}) at axis values "
                         f"({value1!r}, {value2!r}) failed: {cause}")
        self.grid_index = (i, j)
        self.axis_values = (value1, value2)


def _start_terms(num_qubits: int, initial: str) -> list[tuple[int, float]]:
    """A named initial state or a bitstring as its (basis index, amplitude) terms."""
    top = 2 ** num_qubits - 1
    if initial == "vacuum":
        return [(0, 1.0)]
    if initial == "all_up":
        return [(top, 1.0)]
    if initial == "ghz":
        return [(0, 1.0 / math.sqrt(2.0)), (top, 1.0 / math.sqrt(2.0))]
    if len(initial) == num_qubits and set(initial) <= {"0", "1"}:
        return [(int(initial, 2), 1.0)]
    raise ValueError(
        f"initial must be one of {_NAMED_INITIALS} or a bitstring of length {num_qubits}, "
        f"got {initial!r}"
    )


def _shift_invariant(params: ChainParams, initial: str) -> bool:
    """Whether every state of a run is its own image under the ring shift.

    True on a ring started from a named state or from a bitstring of one
    repeated bit: each start is shift-invariant, and the uniform kick commutes
    with the shift.  Decided from the run's input alone, never from its
    amplitudes; :class:`~kicked_ising.measures.ReportBatch` and
    :func:`~kicked_ising.measures.one_tangles` take it as given.
    """
    L = params.num_qubits
    return params.boundary == "periodic" and initial in (*_NAMED_INITIALS, "0" * L, "1" * L)


def _light_cone(params: ChainParams, initial: str, measures, steps: int) -> tuple[int, str]:
    """The qubits a run evolves and its start there: ``(L, initial)``, or for
    Q alone on a ring of more than ``2 steps + 1`` qubits from a
    shift-invariant product start, that ring of ``2 steps + 1`` qubits.

    A kick is one-qubit gates and then nearest-neighbour ones, so after t
    kicks a qubit's reduced density matrix depends only on the 2t + 1
    qubits within t sites of it (the Lieb-Robinson light cone): on every
    ring of at least 2t + 1 qubits from the same product start a qubit has
    the same one-tangle, and a shift-invariant ring has Q equal to it.  GHZ
    is no product, and its one-tangles see the whole ring.  Decided from the
    run's input alone, never from its amplitudes.
    """
    L = params.num_qubits
    start = {"0" * L: "vacuum", "1" * L: "all_up"}.get(initial, initial)
    if (measures <= _Q_MEASURES and params.boundary == "periodic"
            and start in ("vacuum", "all_up") and 2 * steps + 1 < L):
        return 2 * steps + 1, start
    return L, initial


@dataclass(frozen=True)
class RunConfig:
    """One time-series experiment."""

    params: ChainParams
    steps: int
    initial: str = "vacuum"
    measures: frozenset = MEASURES
    sample_every: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        unknown = frozenset(self.measures) - MEASURES
        if unknown:
            raise ValueError(f"unknown measures {sorted(unknown)}; known: {sorted(MEASURES)}")
        object.__setattr__(self, "measures", frozenset(self.measures))


def _available_memory_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where the system does not say."""
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:  # ASCII; utf-8 is loaded at start-up
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    return None


def _check_memory(num_qubits: int, points: int = 1) -> None:
    """Raise InsufficientMemoryError before allocating a run that cannot fit."""
    need = 16 * 2 ** num_qubits * _LIVE_STATE_COPIES * points
    have = _available_memory_bytes()
    if have is not None and need > have:
        raise InsufficientMemoryError(
            f"a {num_qubits}-qubit run needs about {need / 2 ** 30:.2f} GiB "
            f"({_LIVE_STATE_COPIES * points} arrays of 2^{num_qubits} complex amplitudes), "
            f"but only {have / 2 ** 30:.2f} GiB is available"
        )


def _evolve(num_qubits: int, boundary: str, j_x, b_field, theta, initial: str, steps: int,
            sample_every: int = 1, sample_start: bool = True):
    """The kick loop: evolve every point of one chain from ``initial`` together,
    and yield the samples in groups.

    The samples are t = 0 if ``sample_start``, and every ``sample_every``
    kicks.  Each is the ``(P, 2**L)`` stack whose row p is at point p of the
    ``(P,)`` arrays ``j_x``, ``b_field`` and ``theta``, on one chain, in the
    frame of :class:`~kicked_ising.statevec.XFrameKick` (the z-basis state
    under a Hadamard and a diagonal phase gate on every qubit, where every
    reported measure takes the same value as in the z basis).  Yields
    ``(ts, amps)``: the sampled kicks and their stacks, one after another in
    the rows of ``amps``, up to ``k = _CHUNK_AMPLITUDES // (P 2**L)`` of them,
    and at most ``_GROUP_SLOTS``.

    The run holds one buffer of k slots, a stack each, and each sampled stack
    is kicked straight into the slot of its group where it is measured: a
    kick writes the slot of the next sample, the first kick after a sample
    out of the previous one, and the rest in place.  The start is built in
    its slot, or where k <= 1 is the buffer's one slot.
    A group is yielded full before its slots are written again, and the
    caller measures it before the loop goes on.
    """
    L, P = num_qubits, len(j_x)
    _check_memory(L, P)
    size = max(1, min(_CHUNK_AMPLITUDES // (P << L), _GROUP_SLOTS))
    ts, at = ([0], 0) if sample_start else ([], size - 1)  # the start's slot
    kick = XFrameKick(L, boundary, j_x, b_field, theta)
    try:
        buffer = np.empty((size, P, 1 << L), dtype=complex)
    except MemoryError as exc:
        raise InsufficientMemoryError(
            f"state vector for {L} qubits does not fit in memory") from exc
    kick.start(_start_terms(L, initial), out=buffer[at])
    plans = {}  # (from slot, to slot) -> the kick between them, at most 2k
    for t in range(1, steps + 1):
        if len(ts) == size:
            yield ts, buffer.reshape(-1, 1 << L)
            ts = []
        to = len(ts)
        if (at, to) not in plans:
            plans[at, to] = kick.plan(buffer[at], buffer[to])
        plans[at, to]()
        at = to
        if t % sample_every == 0:
            ts.append(t)
    if ts:
        yield ts, buffer[:len(ts)].reshape(-1, 1 << L)


def _finished(groups, finish, **options):
    """``(ts, amps)`` groups measured as they come into a
    :class:`~kicked_ising.measures.ReportBatch`, and ``finish(batch)`` of each
    batch (its reports or its columns): a batch closes when its pending pair
    RDMs reach ``_CHUNK_AMPLITUDES`` complex entries, and at the end."""
    batch = ReportBatch(**options)
    for ts, amps in groups:
        batch.add(amps, ts)
        if batch.pending >= _CHUNK_AMPLITUDES:
            yield finish(batch)
    yield finish(batch)


def run_time_series(config: RunConfig) -> list[MeasureReport]:
    """Evolve and sample, measuring the samples in groups; the t=0 report is always included.

    A run that :func:`_light_cone` takes to a shorter ring evolves that
    ring, and its reports are given back the chain's length: ``num_qubits``
    L and ``one_tangles`` a read-only view of L equal values.
    """
    params = config.params
    L, (qubits, initial) = params.num_qubits, _light_cone(params, config.initial,
                                                          config.measures, config.steps)
    pairs, shift = bool(config.measures & _PAIR_MEASURES), _shift_invariant(params, config.initial)
    groups = _evolve(qubits, params.boundary, [params.j_x], [params.b_field], [params.theta],
                     initial, config.steps, config.sample_every)
    batches = _finished(groups, ReportBatch.finish, pair_measures=pairs,
                        n_tangle_measure="n_tangle" in config.measures,
                        boundary=params.boundary, shift_invariant=shift)
    reports = [r for reports in batches for r in reports]
    if qubits < L:
        reports = [replace(r, num_qubits=L, one_tangles=np.broadcast_to(r.one_tangles[0], L))
                   for r in reports]
    return reports


def time_average(series: list[MeasureReport], measure: str) -> float:
    """Arithmetic mean over the sampled kicks with t >= 1.

    t = 0 is excluded: the initial product state is not generated by the map.
    Stationarity is the caller's responsibility through the window length.
    """
    if not series:
        raise ValueError("empty series")
    values = [r.value(measure) for r in series if r.t >= 1]
    if not values:
        raise ValueError("series contains no samples with t >= 1")
    return float(np.mean(values))


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: name in SWEEP_PARAMETERS plus a linspace."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in SWEEP_PARAMETERS:
            raise ValueError(f"axis name must be one of {SWEEP_PARAMETERS}, got {self.name!r}")
        for end in ("start", "stop"):
            if not math.isfinite(getattr(self, end)):
                raise ValueError(f"axis {self.name} {end} must be a finite number, "
                                 f"got {getattr(self, end)!r}")
        if self.count < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.count}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """A two-parameter grid of time-averaged measures."""

    axis1: AxisSpec
    axis2: AxisSpec
    fixed: ChainParams
    steps: int
    measure: str = "q"
    initial: str = "vacuum"

    def __post_init__(self):
        if self.axis1.name == self.axis2.name:
            raise ValueError(f"axes must sweep distinct parameters, both are {self.axis1.name!r}")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}; known: {sorted(MEASURES)}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def _jw_mask(config: SweepConfig, thetas: np.ndarray) -> np.ndarray:
    """Which points take mean Q from the free-fermion closed form: those the
    transverse regime's Q oracle holds for, as ``compare`` takes them.  Of a
    point's parameters only theta decides it, so each distinct theta is
    decided once, through a set (np.unique's sort alone raises a small
    sweep's peak memory by ~0.3 MB), and the points of a theta taken are
    found by one vectorised comparison.  The rest are evolved."""
    transverse = REGIMES["transverse"]

    def takes(theta: float) -> bool:
        p = replace(config.fixed, theta=theta)
        return (config.measure in _Q_MEASURES and transverse.contains(p, config.initial)
                and transverse.oracles["q"].holds(p))

    mask = np.zeros(thetas.shape, dtype=bool)
    for theta in set(thetas.tolist()):
        if takes(theta):
            mask |= thetas == theta
    return mask


def _jw_averages(config: SweepConfig, axes: dict[str, np.ndarray], ks: list[int]) -> np.ndarray:
    """Mean Q over kicks 1..steps of transverse points, from the closed form."""
    return analytic.jw_q_average(config.fixed.num_qubits, axes["j_x"][ks], axes["b_field"][ks],
                                 config.steps)


def _numeric_averages(config: SweepConfig, axes: dict[str, np.ndarray],
                      ks: list[int]) -> np.ndarray:
    """Mean measure over kicks 1..steps of points evolved as one stack, the
    sampled stacks measured in groups, and a pair measure read from the
    columns of batches (:func:`_finished`)."""
    fixed, P = config.fixed, len(ks)
    values = np.empty((P, config.steps))  # a row per point, as time_average sums
    shift = _shift_invariant(fixed, config.initial)
    qubits, initial = _light_cone(fixed, config.initial, {config.measure}, config.steps)
    groups = _evolve(qubits, fixed.boundary, *(axes[n][ks] for n in SWEEP_PARAMETERS), initial,
                     config.steps, sample_start=False)
    if config.measure in _PAIR_MEASURES:
        got = [x for columns in _finished(((np.repeat(ts, P), amps) for ts, amps in groups),
                                          ReportBatch.columns, n_tangle_measure=False,
                                          boundary=fixed.boundary, shift_invariant=shift)
               for x in columns.get(config.measure, ())]
        values[:] = np.reshape(got, (config.steps, P)).T
    else:
        for ts, amps in groups:  # a shift-invariant row's qubits share one one-tangle
            got = (n_tangle(amps) if config.measure not in _Q_MEASURES
                   else one_tangles(amps, shift)[:, 0] if shift
                   else one_tangles(amps, shift).mean(axis=1))
            values[:, ts[0] - 1:ts[-1]] = np.reshape(got, (len(ts), P)).T
    return values.mean(axis=1)


def _located(evaluate, config: SweepConfig, axes: dict[str, np.ndarray], ks: list[int]):
    """``evaluate(config, axes, ks)``; if the chunk fails, each point again on
    its own, so that a failure is raised as the SweepPointError of its grid
    point.  Only a point's own failures are located; any other exception
    propagates."""
    try:
        return evaluate(config, axes, ks)
    except (ValueError, InsufficientMemoryError) as exc:
        if len(ks) == 1:
            i, j = divmod(ks[0], config.axis2.count)
            raise SweepPointError(i, j, float(config.axis1.values()[i]),
                                  float(config.axis2.values()[j]), exc) from exc
    return np.concatenate([_located(evaluate, config, axes, [k]) for k in ks])


def sweep_grid(config: SweepConfig) -> np.ndarray:
    """Time-averaged measure on the axis1 x axis2 grid, row-major in axis1.

    Points where the free-fermion closed form gives Q exactly take it, the
    rest are evolved together as stacks of states; both in chunks of at most
    ``_CHUNK_AMPLITUDES`` complex numbers, or of one point.
    """
    v1, v2 = np.meshgrid(config.axis1.values(), config.axis2.values(), indexing="ij")
    swept = {config.axis1.name: v1.ravel(), config.axis2.name: v2.ravel()}
    axes = {name: swept.get(name, np.full(v1.size, float(getattr(config.fixed, name))))
            for name in SWEEP_PARAMETERS}
    jw = _jw_mask(config, axes["theta"])
    out = np.empty(v1.size)
    # Free a block of 8 chunks first: glibc then raises its mmap threshold to
    # its size and its trim threshold to twice that, so each chunk's temporaries
    # reuse the heap the last chunk freed instead of going back to the OS and
    # being faulted in again (~2000 page faults, 15-25% of a 51 x 51 transverse
    # sweep at L = 20, unless an earlier free raised the thresholds already).
    np.empty(8 * _CHUNK_AMPLITUDES)
    L = config.fixed.num_qubits
    qubits = _light_cone(config.fixed, config.initial, {config.measure}, config.steps)[0]
    for closed_form, evaluate, size in ((True, _jw_averages, (L // 2) ** 2),
                                        (False, _numeric_averages, 2 ** qubits)):
        todo = np.flatnonzero(jw == closed_form).tolist()
        chunk = max(1, _CHUNK_AMPLITUDES // size)
        for start in range(0, len(todo), chunk):
            ks = todo[start:start + chunk]
            out[ks] = _located(evaluate, config, axes, ks)
    return out.reshape(config.axis1.count, config.axis2.count)


# ------------------------------------------------------------------ regimes

def _ring(min_qubits: int, even: bool = False) -> Callable[[ChainParams], bool]:
    """Periodic chains of at least ``min_qubits`` qubits, an even count if ``even``."""
    return lambda p: (p.boundary == "periodic" and p.num_qubits >= min_qubits
                      and not (even and p.num_qubits % 2))


@dataclass(frozen=True)
class Oracle:
    """A measure's closed form over the sampled kicks and the chains it holds on."""

    exact: Callable[[ChainParams, np.ndarray], np.ndarray]
    holds: Callable[[ChainParams], bool]


@dataclass(frozen=True)
class Regime:
    """An exactly solvable line: its initial state, the ChainParams fields it
    pins, and an oracle per comparable measure."""

    initial: str
    pinned: dict[str, float]
    oracles: dict[str, Oracle]

    def contains(self, params: ChainParams, initial: str) -> bool:
        return initial == self.initial and all(
            abs(getattr(params, field) - value) < _PIN_ATOL
            for field, value in self.pinned.items())


# searched in this order, so a vacuum start with B = 0 and theta = pi/2 is zero-field
REGIMES = {
    "zero-field": Regime("vacuum", {"b_field": 0.0}, {
        "q": Oracle(lambda p, ts: analytic.cluster_q(p.j_x, ts, p.boundary, p.num_qubits),
                    lambda p: p.boundary == "open" or p.num_qubits >= 3),
        "nn_concurrence": Oracle(lambda p, ts: analytic.cluster_nn_concurrence(p.j_x, ts),
                                 _ring(4)),
        "n_tangle": Oracle(lambda p, ts: analytic.cluster_n_tangle(p.j_x, ts, p.num_qubits),
                           _ring(4, even=True)),
    }),
    "symmetrized": Regime("ghz", {"b_field": 0.0}, {
        "q": Oracle(lambda p, ts: np.ones_like(ts), _ring(2, even=True)),
        "n_tangle": Oracle(lambda p, ts: analytic.sym_cluster_n_tangle(p.j_x, ts, p.num_qubits),
                           _ring(2, even=True)),
    }),
    "transverse": Regime("vacuum", {"theta": math.pi / 2.0}, {
        "q": Oracle(lambda p, ts: analytic.jw_q_vacuum(p.num_qubits, p.j_x, p.b_field, ts),
                    _ring(4, even=True)),
    }),
}


def _measured(r: MeasureReport, measure: str):
    """A report's value of ``measure``; for nn_concurrence every ring bond, not their mean."""
    if measure == "nn_concurrence":
        sites = np.arange(r.num_qubits)
        return r.pair_concurrences[sites, (sites + 1) % r.num_qubits]
    return r.value(measure)


def compare_numeric_analytic(params: ChainParams, t_max: int, initial: str = "vacuum",
                             regime: str | None = None) -> dict[str, float]:
    """Run the numerical evolution against its closed forms.

    The run must lie on ``regime``, or if that is None on the first of the
    ``REGIMES`` that contains it; every measure whose closed form holds on
    this chain is compared, and ``NoAnalyticOracleError`` is raised, before
    anything is evolved, when none does.  Returns the max absolute deviation
    per compared measure over t <= t_max.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if regime is not None and regime not in REGIMES:
        raise NoAnalyticOracleError(f"unknown regime {regime!r}, not one of {', '.join(REGIMES)}")
    names = list(REGIMES) if regime is None else [regime]
    name = next((n for n in names if REGIMES[n].contains(params, initial)), None)
    if name is None:
        raise NoAnalyticOracleError(
            "no analytic oracle: need B = 0 (vacuum or ghz start) or theta = pi/2 (vacuum start)"
            if regime is None else f"the run does not lie on the {regime} regime")
    oracles = {m: o for m, o in REGIMES[name].oracles.items() if o.holds(params)}
    if not oracles:
        raise NoAnalyticOracleError(f"no closed form of the {name} regime holds for "
                                    f"{params.num_qubits} qubits, {params.boundary} boundary")
    ts = np.arange(t_max + 1, dtype=float)  # the series samples every kick
    wants = {m: o.exact(params, ts) for m, o in oracles.items()}
    series = run_time_series(RunConfig(params=params, steps=t_max, initial=initial,
                                       measures=frozenset(oracles)))
    return {m: max(float(np.max(np.abs(_measured(r, m) - want)))
                   for r, want in zip(series, wants[m]))
            for m in oracles}
