"""Time-series runs, stationary time averages, parameter sweeps, and the
numeric-vs-analytic comparison drivers.

Time series are sequential (state evolution is ordered); sweeps are
data-parallel over grid points, each point owning a private state, with
results assembled in a fixed row-major order so the output is deterministic
for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .measures import MeasureReport, report
from .statevec import ChainParams, PureState, make_basis_state, make_ghz, make_vacuum, step

MEASURES = frozenset(
    {"q", "n_tangle", "one_tangle", "nn_concurrence", "residual_tangle", "sum_two_tangles"}
)
_PAIR_MEASURES = frozenset({"nn_concurrence", "residual_tangle", "sum_two_tangles"})
SWEEP_PARAMETERS = ("j_x", "b_field", "theta")

_NAMED_INITIALS = ("vacuum", "all_up", "ghz")


class NoAnalyticOracleError(ValueError):
    """Requested a closed-form comparison where no closed form applies."""


class SweepPointError(RuntimeError):
    """A sweep point failed; carries the grid coordinates."""

    def __init__(self, i: int, j: int, value1: float, value2: float, cause: BaseException):
        super().__init__(f"sweep point ({i}, {j}) at axis values "
                         f"({value1!r}, {value2!r}) failed: {cause}")
        self.grid_index = (i, j)
        self.axis_values = (value1, value2)


def initial_state(params: ChainParams, initial: str) -> PureState:
    """Build a named initial state ('vacuum', 'all_up', 'ghz') or a bitstring."""
    L = params.num_qubits
    if initial == "vacuum":
        return make_vacuum(L)
    if initial == "all_up":
        return make_basis_state(L, "1" * L)
    if initial == "ghz":
        return make_ghz(L)
    if len(initial) == L and set(initial) <= {"0", "1"}:
        return make_basis_state(L, initial)
    raise ValueError(
        f"initial must be one of {_NAMED_INITIALS} or a bitstring of length {L}, "
        f"got {initial!r}"
    )


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


def run_time_series(config: RunConfig) -> list[MeasureReport]:
    """Evolve and sample; the t=0 report is always included."""
    pair_measures = bool(config.measures & _PAIR_MEASURES)
    boundary = config.params.boundary
    try:
        state = initial_state(config.params, config.initial)
        out = [report(state, 0, pair_measures=pair_measures, boundary=boundary)]
        for t in range(1, config.steps + 1):
            state = step(state, config.params)
            if t % config.sample_every == 0:
                out.append(report(state, t, pair_measures=pair_measures, boundary=boundary))
    except MemoryError as exc:
        raise RuntimeError(
            f"state vector for {config.params.num_qubits} qubits does not fit in memory"
        ) from exc
    return out


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
    allow_jw: bool = True

    def __post_init__(self):
        if self.axis1.name == self.axis2.name:
            raise ValueError(f"axes must sweep distinct parameters, both are {self.axis1.name!r}")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def _jw_fast_path_applies(config: SweepConfig, params: ChainParams) -> bool:
    return (
        config.allow_jw
        and config.measure == "q"
        and config.initial == "vacuum"
        and params.boundary == "periodic"
        and params.num_qubits % 2 == 0
        and params.num_qubits >= 4
        and abs(params.theta - math.pi / 2.0) < 1e-3
    )


def _point_average(config: SweepConfig, value1: float, value2: float) -> float:
    params = replace(config.fixed, **{config.axis1.name: value1, config.axis2.name: value2})
    if _jw_fast_path_applies(config, params):
        ts = np.arange(1, config.steps + 1)
        return float(np.mean(analytic.jw_q_vacuum(params.num_qubits, params.j_x,
                                                  params.b_field, ts)))
    run = RunConfig(params=params, steps=config.steps, initial=config.initial,
                    measures=frozenset({config.measure}))
    return time_average(run_time_series(run), config.measure)


def _point_task(args) -> float:
    config, i, j, v1, v2 = args
    try:
        return _point_average(config, v1, v2)
    except Exception as exc:  # re-raised with coordinates attached
        raise SweepPointError(i, j, v1, v2, exc) from exc


def sweep_grid(config: SweepConfig, workers: int = 1) -> np.ndarray:
    """Time-averaged measure on the axis1 x axis2 grid, row-major in axis1."""
    v1s = config.axis1.values()
    v2s = config.axis2.values()
    tasks = [
        (config, i, j, float(v1), float(v2))
        for i, v1 in enumerate(v1s)
        for j, v2 in enumerate(v2s)
    ]
    if workers <= 1:
        flat = [_point_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_point_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    return np.array(flat).reshape(config.axis1.count, config.axis2.count)


def compare_numeric_analytic(params: ChainParams, t_max: int,
                             initial: str = "vacuum") -> dict[str, float]:
    """Run the numerical evolution against its closed form.

    Supported regimes: zero field (B = 0, any tilt) from the vacuum or from
    the GHZ state, and the transverse field (theta = pi/2) from the vacuum.
    Returns the max absolute deviation per comparable measure over t <= t_max.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    L = params.num_qubits
    zero_field = abs(params.b_field) < 1e-12
    transverse = (
        abs(params.theta - math.pi / 2.0) < 1e-12
        and params.boundary == "periodic"
        and L % 2 == 0
        and initial == "vacuum"
    )
    if zero_field and initial == "vacuum":
        pair_measures = params.boundary == "periodic"
        run = RunConfig(params=params, steps=t_max, initial=initial,
                        measures=frozenset({"q", "nn_concurrence"}) if pair_measures
                        else frozenset({"q"}))
        series = run_time_series(run)
        ts = np.array([r.t for r in series], dtype=float)
        devs = {"q": float(np.max(np.abs(
            np.array([r.q_measure for r in series])
            - cluster_q_for(params, ts))))}
        if pair_measures:
            want = analytic.cluster_nn_concurrence(params.j_x, ts)
            bond_dev = 0.0
            for n, r in enumerate(series):
                bonds = [r.pair_concurrences[i, (i + 1) % L] for i in range(L)]
                bond_dev = max(bond_dev, float(np.max(np.abs(np.array(bonds) - want[n]))))
            devs["nn_concurrence"] = bond_dev
            if L % 2 == 0 and L >= 4:
                want_nt = analytic.cluster_n_tangle(params.j_x, ts, L)
                devs["n_tangle"] = float(np.max(np.abs(
                    np.array([r.n_tangle for r in series]) - want_nt)))
        return devs
    if zero_field and initial == "ghz":
        if L % 2:
            raise NoAnalyticOracleError("symmetrized-state closed forms need an even qubit count")
        run = RunConfig(params=params, steps=t_max, initial=initial,
                        measures=frozenset({"q", "n_tangle"}))
        series = run_time_series(run)
        ts = np.array([r.t for r in series], dtype=float)
        q_dev = float(np.max(np.abs(np.array([r.q_measure for r in series]) - 1.0)))
        want_nt = analytic.sym_cluster_n_tangle(params.j_x, ts, L)
        nt_dev = float(np.max(np.abs(np.array([r.n_tangle for r in series]) - want_nt)))
        return {"q": q_dev, "n_tangle": nt_dev}
    if transverse:
        run = RunConfig(params=params, steps=t_max, initial=initial,
                        measures=frozenset({"q"}))
        series = run_time_series(run)
        ts = np.array([r.t for r in series])
        want = analytic.jw_q_vacuum(L, params.j_x, params.b_field, ts)
        return {"q": float(np.max(np.abs(np.array([r.q_measure for r in series]) - want)))}
    raise NoAnalyticOracleError(
        "no analytic oracle: need B = 0 (vacuum or ghz start) or theta = pi/2 "
        "(vacuum start, periodic, even L)"
    )


def cluster_q_for(params: ChainParams, t):
    """Closed-form Q for the zero-field evolution with these chain parameters."""
    return analytic.cluster_q(params.j_x, t, params.boundary, params.num_qubits)
