"""Kicked Ising chain: fast state-vector evolution, multipartite entanglement
measures, and the matching closed-form solutions."""

from .analytic import (
    cluster_n_tangle,
    cluster_nn_concurrence,
    cluster_q,
    jw_q_vacuum,
    jw_sz_profile,
    sym_cluster_n_tangle,
)
from .harness import (
    AxisSpec,
    InsufficientMemoryError,
    NoAnalyticOracleError,
    RunConfig,
    SweepConfig,
    SweepPointError,
    compare_numeric_analytic,
    run_time_series,
    sweep_grid,
    time_average,
)
from .measures import (
    MeasureReport,
    ReportBatch,
    concurrences,
    n_tangle,
    one_tangles,
)
from .statevec import ChainParams

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "ChainParams",
    "InsufficientMemoryError",
    "MeasureReport",
    "NoAnalyticOracleError",
    "ReportBatch",
    "RunConfig",
    "SweepConfig",
    "SweepPointError",
    "cluster_n_tangle",
    "cluster_nn_concurrence",
    "cluster_q",
    "compare_numeric_analytic",
    "concurrences",
    "jw_q_vacuum",
    "jw_sz_profile",
    "n_tangle",
    "one_tangles",
    "run_time_series",
    "sweep_grid",
    "sym_cluster_n_tangle",
    "time_average",
]
