"""The package's public names."""

import importlib

import pytest

import kicked_ising

# each duplicated a path that remains: one_tangles and report give the
# one-tangles and residual tangles, and step is the x-frame kick between two
# Walsh-Hadamard transforms, so a field-only or coupling-only kick is step at
# j_x = 0 or b = 0; the streamed kick builds its phase tables per chunk
# (_bond_phases), not as a state-sized vector from a cached flip count
DELETED = {
    "kicked_ising": ("apply_field_kick", "apply_ising_kick", "one_tangle", "rdm_single",
                     "residual_tangle"),
    "kicked_ising.measures": ("one_tangle", "rdm_single", "residual_tangle"),
    "kicked_ising.statevec": ("_bond_alignment", "_bond_flips", "_ising_phase_vector",
                              "_ising_phases", "_z_frame_kick", "apply_field_kick",
                              "apply_ising_kick", "apply_product_gate"),
}


def test_every_exported_name_resolves():
    for name in kicked_ising.__all__:
        assert getattr(kicked_ising, name) is not None


def test_exports_are_sorted_and_unique():
    assert kicked_ising.__all__ == sorted(set(kicked_ising.__all__))


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_names_are_gone(module):
    for name in DELETED[module]:
        assert not hasattr(importlib.import_module(module), name)
        assert name not in kicked_ising.__all__
