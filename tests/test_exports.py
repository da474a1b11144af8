"""The package's public names."""

import importlib
import importlib.util
import inspect

import pytest

import kicked_ising

# each duplicated a path that remains: one_tangles and ReportBatch give the
# one-tangles and residual tangles; a field-only or coupling-only kick is the
# kick at j_x = 0 or b = 0; the streamed kick builds its phase tables per chunk
# (_bond_phases), not as a state-sized vector from a cached flip count.  The
# z-basis layer (one-state PureState, its constructors, step, the
# Walsh-Hadamard transform, the frame's enter and leave, and the one-state
# measures) served no run: every run evolves a stack in the kick's frame, and
# a start is built there from its terms.  Each job has one way in: reports is
# a ReportBatch of one group, concurrence is concurrences of one matrix,
# MeasureReport's __post_init__ derived the pair columns a batch always
# passes, its one_tangle equals q_measure, a kick in place is
# kick.plan(s, s)(), and no code read ChainParams.num_bonds.  A streamed
# run's half-chain factors (kicked_ising.factored, the rank limit and
# _evolve's states flag) served Q-only few-kick rings, which evolve their
# light cone instead
DELETED = {
    "kicked_ising": ("PureState", "apply_field_kick", "apply_ising_kick", "concurrence",
                     "fwht_inplace", "initial_state", "make_basis_state", "make_ghz",
                     "make_vacuum", "one_tangle", "q_measure", "rdm_pair", "rdm_single",
                     "report", "reports", "residual_tangle", "step"),
    "kicked_ising.harness": ("FactoredKick", "_FACTORED_RANK", "_x_frame_start",
                             "initial_state"),
    "kicked_ising.measures": ("MeasureReport.__post_init__", "MeasureReport.one_tangle",
                              "concurrence", "one_tangle", "q_measure", "rdm_pair",
                              "rdm_single", "report", "reports", "residual_tangle"),
    "kicked_ising.statevec": ("ChainParams.num_bonds", "PureState", "XFrameKick.__call__",
                              "XFrameKick.enter", "XFrameKick.leave",
                              "_bond_alignment", "_bond_flips", "_ising_phase_vector",
                              "_ising_phases", "_z_frame_kick", "apply_field_kick",
                              "apply_ising_kick", "apply_product_gate", "fwht_inplace",
                              "make_basis_state", "make_ghz", "make_vacuum", "step"),
}


def test_every_exported_name_resolves():
    for name in kicked_ising.__all__:
        assert getattr(kicked_ising, name) is not None


def test_exports_are_sorted_and_unique():
    assert kicked_ising.__all__ == sorted(set(kicked_ising.__all__))


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_names_are_gone(module):
    for name in DELETED[module]:
        owner = importlib.import_module(module)
        *path, attr = name.split(".")  # a method is named by its class
        for part in path:
            owner = getattr(owner, part)
        # the owner's own namespace: through type, every class has a __call__
        assert attr not in vars(owner), name
        assert name not in kicked_ising.__all__


def test_the_factored_module_and_flag_are_gone():
    from kicked_ising.harness import _evolve

    assert importlib.util.find_spec("kicked_ising.factored") is None
    assert "states" not in inspect.signature(_evolve).parameters
