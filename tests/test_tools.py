"""The layer timing tool: every layer names functions the package has, its
cases build, and a timed case sees its layer called."""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from kicked_ising import measures

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_layer():
    environ = dict(os.environ)  # the tool pins BLAS threads for the processes it starts
    spec = importlib.util.spec_from_file_location("bench_layer", ROOT / "tools" / "bench_layer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        os.environ.clear()
        os.environ.update(environ)
    return module


def test_every_layer_function_resolves(bench_layer):
    for layer in bench_layer.LAYERS.values():
        assert set(bench_layer._holders(layer)) == set(layer.functions)


def test_a_class_member_resolves_only_from_its_class(bench_layer):
    # through type every class has a __call__: a member its class lacks is
    # left out, not wrapped, and a layer of such members alone fails
    kick = bench_layer.LAYERS["kick"]
    layer = dataclasses.replace(kick, functions=("XFrameKick.__call__", "_KickPlan.__call__"))
    assert set(bench_layer._holders(layer)) == {"_KickPlan.__call__"}
    with pytest.raises(AttributeError, match="has none of"):
        bench_layer._holders(dataclasses.replace(kick, functions=("XFrameKick.__call__",)))


def test_every_layers_cases_build(bench_layer):
    for layer in bench_layer.LAYERS.values():
        cases = layer.cases()
        assert cases
        for run, covers in cases.values():
            assert callable(run) and covers["num_qubits"] >= 1


def test_a_timed_report_case_counts_its_calls(bench_layer):
    add, finish = measures.ReportBatch.add, measures.ReportBatch.finish
    case = bench_layer._time_cases(bench_layer.LAYERS["report"], {"L12"})["L12"]
    # eleven groups of four samples measured, and one batch finished
    assert case["calls"] == 12
    assert 0.0 < case["layer"] < case["run"]
    assert (measures.ReportBatch.add, measures.ReportBatch.finish) == (add, finish)


def test_a_timed_concurrence_case_counts_its_calls(bench_layer):
    concurrences = measures.concurrences
    layer = bench_layer.LAYERS["concurrence"]
    assert set(layer.cases()) == {"evolve-pairs-L12", "sweep-nn-L6"}
    case = bench_layer._time_cases(layer, {"evolve-pairs-L12"})["evolve-pairs-L12"]
    # the run's 41 reports finished as one batch: one call for their pairs
    assert case["calls"] == 1 and case["timed"] == ["concurrences"]
    assert 0.0 < case["layer"] < case["run"]
    assert measures.concurrences is concurrences


def test_a_cold_cli_case_times_a_first_call(bench_layer):
    layer = bench_layer.LAYERS["cli"]
    assert layer.cold and set(layer.cases()) == {
        "evolve-pairs-L12", "compare-transverse-L20", "sweep-tilt-L6", "sweep-jw-L20"}
    # one fresh interpreter: the import of the CLI timed, then its first call
    case = bench_layer._run_child("cli", ROOT / "src", "sweep-tilt-L6")
    assert list(case) == ["sweep-tilt-L6"]
    case = case["sweep-tilt-L6"]
    assert case["calls"] == 1 and case["import_s"] > 0.0
    assert 0.0 < case["layer"] <= case["run"]


def test_a_timed_kick_case_times_every_plan_and_kick(bench_layer):
    from kicked_ising import statevec

    init, plan, call = (statevec.XFrameKick.__init__, statevec.XFrameKick.plan,
                        statevec._KickPlan.__call__)
    case = bench_layer._time_cases(bench_layer.LAYERS["kick"], {"L12"})["L12"]
    # one kick built, then 40 kicks through the four slots of a group: four
    # plans, bound once each; a short case, timed several times a round
    assert case["calls"] == 45 and case["peak_bytes"] > 0
    assert case["runs_per_round"] == bench_layer.SHORT_RUNS
    assert 0.0 < case["layer"] < case["run"]
    assert (statevec.XFrameKick.__init__, statevec.XFrameKick.plan,
            statevec._KickPlan.__call__) == (init, plan, call)


def test_a_cold_kick_case_times_a_first_construction(bench_layer):
    layer = bench_layer.LAYERS["kick"]
    assert not layer.cold and set(layer.cold_cases) == {"build-sweep-tilt-L6", "build-L12"}
    # one fresh interpreter: the import of the kick's module timed, then its first kick built
    case = bench_layer._run_child("kick", ROOT / "src", "build-sweep-tilt-L6")
    assert list(case) == ["build-sweep-tilt-L6"]
    case = case["build-sweep-tilt-L6"]
    assert case["calls"] == 1 and case["points"] == 55 and case["import_s"] > 0.0
    assert 0.0 < case["layer"] <= case["run"] and "peak_bytes" not in case
