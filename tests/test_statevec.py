"""State construction, kick kernels, and the Walsh-Hadamard transform."""

import re
import time

import numpy as np
import pytest

import helpers
from kicked_ising import (
    ChainParams,
    PureState,
    RunConfig,
    fwht_inplace,
    make_basis_state,
    make_ghz,
    make_vacuum,
    n_tangle,
    q_measure,
    run_time_series,
    step,
    statevec,
)
from kicked_ising.harness import _evolve
from kicked_ising.statevec import (
    _SIGN,
    BLOCK_QUBITS,
    CHUNK_QUBITS,
    XFrameKick,
    _block_gates,
    _bond_phases,
    _fused_pass,
    _real_factor,
    _split_field_gates,
    blocks,
    field_unitary,
)


def field_kick(state, b, theta):
    """The field alone: one kick at zero coupling."""
    return step(state, ChainParams(state.num_qubits, 0.0, b, theta))


def ising_kick(state, jx, boundary="periodic"):
    """The coupling alone: one kick at zero field."""
    return step(state, ChainParams(state.num_qubits, jx, 0.0, 0.0, boundary))


def overlap(a, b):
    return abs(np.vdot(a.amplitudes if isinstance(a, PureState) else a,
                       b.amplitudes if isinstance(b, PureState) else b))


class TestConstruction:
    def test_basis_state_all_zero(self):
        s = make_basis_state(4, "0000")
        assert s.amplitudes[0] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_basis_state_all_one(self):
        s = make_basis_state(3, "111")
        assert s.amplitudes[7] == 1.0

    def test_basis_state_bit_convention(self):
        # "10" in ket order: qubit1 = 1, qubit0 = 0 -> index 2
        s = make_basis_state(2, "10")
        assert s.amplitudes[2] == 1.0

    def test_basis_state_rejects_small_chain(self):
        with pytest.raises(ValueError):
            make_basis_state(1, "0")

    def test_basis_state_rejects_bad_string(self):
        with pytest.raises(ValueError):
            make_basis_state(3, "012")
        with pytest.raises(ValueError):
            make_basis_state(3, "01")

    def test_ghz_amplitudes(self):
        s = make_ghz(2)
        assert np.allclose(s.amplitudes, [2 ** -0.5, 0, 0, 2 ** -0.5])

    def test_ghz_q_measure_is_one(self):
        assert q_measure(make_ghz(3)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_n_tangle_is_one(self):
        assert n_tangle(make_ghz(4)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_rejects_small_chain(self):
        with pytest.raises(ValueError):
            make_ghz(1)

    def test_pure_state_validates_norm(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))

    def test_pure_state_rejects_a_nan_norm(self):
        # NaN compares false with every tolerance, so the check must not pass it
        with pytest.raises(ValueError, match="norm nan"):
            PureState(2, np.array([np.nan, 0.0, 0.0, 0.0], dtype=complex))

    def test_pure_state_validates_length(self):
        with pytest.raises(ValueError):
            PureState(3, np.ones(4, dtype=complex) / 2)

    def test_chain_params_validate(self):
        with pytest.raises(ValueError):
            ChainParams(1, 0.1, 0.1, 0.0)
        with pytest.raises(ValueError):
            ChainParams(4, 0.1, 0.1, 0.0, boundary="moebius")
        assert ChainParams(5, 0.1, 0.1, 0.0, "open").num_bonds == 4
        assert ChainParams(5, 0.1, 0.1, 0.0).num_bonds == 5


class TestFwht:
    def test_first_column(self):
        a = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(fwht_inplace(a), [0.5, 0.5, 0.5, 0.5])

    def test_involution_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for L in (2, 5, 9):
            v = helpers.random_state(L, rng)
            roundtrip = fwht_inplace(fwht_inplace(v.copy()))
            assert np.max(np.abs(roundtrip - v)) < 1e-12

    def test_matches_dense_hadamard(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        dense = np.kron(h, h)
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(fwht_inplace(v.copy()), dense @ v, atol=1e-14)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht_inplace(np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matches_the_dense_kronecker_product_in_either_dtype(self, dtype):
        # a real array takes the lowest block's plain factor, a complex one its
        # 2x2 embedding; both on a stack of three rows
        rng = np.random.default_rng(8)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        dense = np.ones((1, 1))
        for L in range(1, 11):
            dense = np.kron(h, dense)
            stack = rng.normal(size=(3, 2 ** L)).astype(dtype)
            if dtype == np.complex128:
                stack += 1j * rng.normal(size=stack.shape)
            want = stack @ dense.T
            got = fwht_inplace(stack)
            assert got.dtype == dtype
            assert np.max(np.abs(got - want)) < 1e-13


class TestProductGate:
    def test_blocks_cover_the_chain(self):
        for L in range(1, 31):
            layout = blocks(L)
            assert len(layout) == -(-L // BLOCK_QUBITS)
            assert [lo for lo, _ in layout] == list(np.cumsum([0] + [s for _, s in layout])[:-1])
            sizes = [s for _, s in layout]
            assert sum(sizes) == L and max(sizes) <= BLOCK_QUBITS
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1

    def test_matches_dense_kron(self):
        # L < 5 is one block; 6..9 are two blocks of unequal or equal sizes.
        # The kernel takes real gates: a rotation and a general real matrix,
        # the lowest as its right factor on the complex amplitudes' real view
        rng = np.random.default_rng(11)
        for L in range(2, 10):
            angle = rng.uniform(0, 2 * np.pi)
            for w in (np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]),
                      rng.normal(size=(2, 2))):
                psi = helpers.random_state(L, rng)
                gates = _block_gates(blocks(L), w)
                gates[0] = (0, _real_factor(gates[0][1].T, psi.dtype))
                out, _ = _fused_pass(psi.copy(), gates, np.empty_like(psi))
                expect = helpers.apply_local_unitaries(psi, [w] * L)
                assert np.max(np.abs(out - expect)) < 1e-12

    def test_embedded_factor_is_the_complex_product(self):
        # each entry f of a complex right factor becomes [[Re f, Im f], [-Im f, Re f]]
        # on the interleaved real view: one shared factor, and one per row
        rng = np.random.default_rng(14)
        for L in (3, 6, 9):
            stack = rng.normal(size=(3, 2 ** L)) + 1j * rng.normal(size=(3, 2 ** L))
            for shape in ((8, 8), (3, 8, 8)):
                f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                factor = _real_factor(f, complex)
                assert factor.dtype == np.float64 and factor.shape == (*shape[:-2], 16, 16)
                out, _ = _fused_pass(stack.copy(), [(0, factor)], np.empty_like(stack))
                want = (stack.reshape(3, -1, 8) @ f).reshape(3, -1)
                assert np.max(np.abs(out - want)) < 1e-14

    def test_fwht_stays_in_place(self):
        # an odd block count (L=11 and 12: three blocks) ends the alternation in
        # the spare buffer, and L=17 goes in panels and chunks; the oracle
        # applies H one qubit at a time
        rng = np.random.default_rng(12)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for L in (3, 7, 11, 12, 17):  # 17 streams
            v = helpers.random_state(L, rng)
            expect = v
            for k in range(L):
                expect = np.einsum("ij,ajb->aib", h, expect.reshape(-1, 2, 2 ** k)).ravel()
            out = fwht_inplace(v)
            assert out is v
            assert np.max(np.abs(v - expect)) < 1e-12


class TestXFrameKick:
    def test_is_step_conjugated_by_hadamards(self):
        # entering the frame, three kicks and leaving it give H^{(x)L} U^3 H^{(x)L},
        # with U the dense kick
        rng = np.random.default_rng(13)
        for L, boundary in ((3, "open"), (6, "periodic"), (8, "open"), (9, "periodic")):
            psi = helpers.random_state(L, rng)
            kick = XFrameKick([ChainParams(L, 1.3, 0.8, 0.5, boundary)])
            x_frame = kick.enter(fwht_inplace(psi.copy())[None])
            for _ in range(3):
                x_frame = kick(x_frame)
            x_frame = kick.leave(x_frame)
            u = helpers.step_dense(L, 1.3, 0.8, 0.5, boundary)
            expect = fwht_inplace(u @ u @ u @ psi)
            assert x_frame.shape == (1, 2 ** L)
            assert np.max(np.abs(x_frame[0] - expect)) < 1e-12

    @pytest.mark.parametrize("L", [5, 10, 15, 17])
    def test_kick_matches_the_reference(self, L):
        # rows of 5, 10 and 15 qubits have a five-qubit lowest block, whose
        # right factor is embedded; 17 streams, with a three-qubit lowest
        # block carrying phases.  The dense kick up to 10 qubits, the
        # per-qubit reference kick above
        rng = np.random.default_rng(16 + L)
        assert blocks(L)[0] == (0, 5) or statevec._chunk_qubits(L) < L
        for boundary in ("periodic", "open"):
            params = ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi),
                                 boundary)
            psi = helpers.random_state(L, rng)
            got = step(PureState(L, psi), params).amplitudes
            if L <= 10:
                want = helpers.step_dense(L, params.j_x, params.b_field, params.theta,
                                          boundary) @ psi
            else:
                want = helpers.kick_reference(psi, L, params.j_x, params.b_field, params.theta,
                                              boundary)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_field_gate_splits_into_phases_and_a_real_rotation(self):
        # H u H = diag(l) R diag(r), also where a = 0 or b = 0 in [[a, -b*], [b, a*]]
        rng = np.random.default_rng(19)
        fields = [*zip(rng.uniform(-7, 7, 20), rng.uniform(-4, 4, 20)),
                  (0.0, 0.7), (np.pi, np.pi / 2), (2 * np.pi, 0.4), (1.2, 0.0), (np.pi, 0.0)]
        u = np.array([field_unitary(b, theta) for b, theta in fields])
        left, rotation, right = _split_field_gates(u)
        assert rotation.dtype == np.float64
        assert np.max(np.abs(rotation @ rotation.swapaxes(-1, -2) - np.eye(2))) < 1e-15
        w = _SIGN @ u @ _SIGN / 2.0
        split = left[:, :, None] * rotation * right[:, None, :]
        assert np.max(np.abs(split - w)) < 1e-15

    def test_checks_the_norm(self):
        kick = XFrameKick([ChainParams(4, 1.0, 0.5, 0.3)])
        with pytest.raises(ValueError, match="norm"):
            kick(np.full((1, 16), 0.3, dtype=complex))

    def test_stack_rows_are_kicked_at_their_own_points(self):
        # per-row frames, field gates and Ising phases: a stack equals its rows
        # kicked alone, and each row leaves the frame as H U^3 H of its own
        # point; L=17 is streamed
        rng = np.random.default_rng(17)
        for L, boundary in ((4, "periodic"), (7, "open"), (11, "periodic"), (17, "open")):
            points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi),
                                  boundary) for _ in range(5)]
            psis = np.array([helpers.random_state(L, rng) for _ in points])
            kick = XFrameKick(points)
            stack = kick.enter(fwht_inplace(psis.copy()))
            rows = stack.copy()
            for _ in range(3):
                stack = kick(stack)
            for params, psi, row, got in zip(points, psis, rows, stack):
                single = XFrameKick([params])
                row = row[None].copy()
                for _ in range(3):
                    row = single(row)
                assert np.array_equal(row[0], got)
                if L < 8:
                    u = helpers.step_dense(L, params.j_x, params.b_field, params.theta, boundary)
                    expect = fwht_inplace(u @ u @ u @ psi)
                    assert np.max(np.abs(single.leave(row)[0] - expect)) < 1e-12

    def test_stack_norm_check_sees_every_row(self):
        for L in (4, 17):  # 17 sums each row's norm over its chunks
            points = [ChainParams(L, 1.0, 0.5, 0.3)] * 3
            stack = fwht_inplace(np.tile(np.eye(1, 2 ** L, dtype=complex), (3, 1)))
            stack[2] *= 1.01
            with pytest.raises(ValueError, match="norm"):
                XFrameKick(points)(stack)

    @pytest.mark.parametrize("scale", [np.nan, 1.0 + 2e-10])
    def test_stack_norm_check_names_the_failing_value(self, scale):
        # one comparison over the rows; the error names the row that fails
        stack = np.tile(np.eye(1, 16, dtype=complex), (3, 1))
        stack[1] *= scale
        norm = float(np.sqrt(np.vdot(stack[1], stack[1]).real))
        with pytest.raises(ValueError, match=f"norm {re.escape(repr(norm))} is not 1"):
            statevec._check_norm(stack)

    def test_frame_refuses_a_stack_it_cannot_multiply_in_place(self):
        # a column-major stack would be reshaped into a copy, and the phases lost
        kick = XFrameKick([ChainParams(4, 1.0, 0.5, 0.3)] * 2)
        stack = np.asfortranarray(fwht_inplace(np.tile(np.eye(16, dtype=complex)[0], (2, 1))))
        with pytest.raises(ValueError, match="contiguous"):
            kick.enter(stack)

    def test_stack_points_share_one_chain(self):
        with pytest.raises(ValueError, match="share"):
            XFrameKick([ChainParams(4, 1.0, 0.5, 0.3), ChainParams(4, 1.0, 0.5, 0.3, "open")])


class TestIsingPhases:
    @staticmethod
    def exp_per_index(L, j_x, boundary):
        """exp(-i (j_x/4) sum_n s_n s_{n+1}), one exponential per basis index."""
        idx = np.arange(2 ** L)
        bits = (idx[:, None] >> np.arange(L)) & 1
        s = 1.0 - 2.0 * bits
        pairs = s[:, :-1] * s[:, 1:]
        alignment = pairs.sum(axis=1) + (s[:, -1] * s[:, 0] if boundary == "periodic" else 0)
        return np.exp(-0.25j * np.asarray(j_x, dtype=float)[..., None] * alignment)

    def test_table_gather_is_bitwise_the_per_index_exponential(self):
        # each factor table of the kick is a gather from one exponential per alignment
        rng = np.random.default_rng(29)
        for L in range(2, 15):
            for boundary in ("periodic", "open"):
                for j_x in (rng.uniform(-7, 7, 1), rng.uniform(-7, 7, 3), [0.0], [np.pi]):
                    got = _bond_phases(L, np.array(j_x), boundary == "periodic")
                    want = self.exp_per_index(L, j_x, boundary)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_streamed_factors_multiply_to_the_chain_phases(self, monkeypatch):
        # at zero field the frame and the rotation are the identity, so a kick
        # multiplies by the phases alone: the low table, the high row's factor
        # and the two bonds across the cut.  Their product takes the angle in
        # pieces, each rounded to its own size, so it may differ from the one
        # exponential of the whole alignment by a few ulp of the largest
        # angle, |j_x| L / 4 <= 31 rad, about 7e-15; 1e-14 bounds that
        monkeypatch.setattr(statevec, "_WHOLE_ROW_QUBITS", CHUNK_QUBITS)
        rng = np.random.default_rng(30)
        for L, boundary in ((CHUNK_QUBITS + 1, "periodic"), (CHUNK_QUBITS + 2, "open"),
                            (CHUNK_QUBITS + 3, "periodic")):
            j_x = rng.uniform(-7, 7, 2)
            points = [ChainParams(L, j, 0.0, 0.4, boundary) for j in j_x]
            psis = np.array([helpers.random_state(L, rng) for _ in points])
            got = XFrameKick(points)(psis.copy())
            want = self.exp_per_index(L, j_x, boundary) * psis
            assert np.max(np.abs(got - want)) < 1e-14


class TestStreamedKick:
    """Chains longer than CHUNK_QUBITS against the per-qubit reference kick.

    L = CHUNK_QUBITS + 1 and + 2 are one row each unless streaming is forced;
    it is, so that high parts of one and two qubits are checked too."""

    CASES = [  # L, boundary, theta, forced to stream
        (CHUNK_QUBITS + 1, "periodic", 0.6, True),
        (CHUNK_QUBITS + 2, "open", np.pi / 2, True),
        (17, "periodic", np.pi / 2, False),
        (18, "open", 0.6, False),
        (20, "periodic", 0.6, False),
    ]

    def test_step_matches_the_reference_kick(self, monkeypatch):
        rng = np.random.default_rng(41)
        for L, boundary, theta, forced in self.CASES:
            monkeypatch.setattr(statevec, "_WHOLE_ROW_QUBITS",
                                CHUNK_QUBITS if forced else statevec._WHOLE_ROW_QUBITS)
            assert forced or statevec._chunk_qubits(L) < L
            psi = helpers.random_state(L, rng)
            got = step(PureState(L, psi), ChainParams(L, 1.3, 0.8, theta, boundary))
            want = helpers.kick_reference(psi, L, 1.3, 0.8, theta, boundary)
            assert np.max(np.abs(got.amplitudes - want)) < 1e-12

    def test_time_series_matches_the_reference_kick(self, monkeypatch):
        # the run's rows are the reference states under diag(r) H on every
        # qubit, and its Q is theirs
        for L, boundary, theta, forced in self.CASES[:-1]:
            monkeypatch.setattr(statevec, "_WHOLE_ROW_QUBITS",
                                CHUNK_QUBITS if forced else statevec._WHOLE_ROW_QUBITS)
            params = ChainParams(L, 1.3, 0.8, theta, boundary)
            frame = np.diag(XFrameKick([params])._right[0]) @ np.array([[1, 1], [1, -1]])
            psi = make_vacuum(L).amplitudes
            series = run_time_series(RunConfig(params, 2, measures=frozenset({"q"})))
            for t, amps in _evolve([params], "vacuum", 2):
                want = psi
                for k in range(L):
                    want = helpers.apply_one_qubit_gate(want, frame / np.sqrt(2.0), k)
                assert np.max(np.abs(amps[0] - want)) < 1e-12
                assert abs(series[t].q_measure - q_measure(PureState(L, psi))) < 1e-12
                psi = helpers.kick_reference(psi, L, 1.3, 0.8, theta, boundary)

    def test_any_chunk_size_kicks_as_a_whole_row(self, monkeypatch):
        # small chunks make tall stacks of narrow panels, and high parts of
        # one to three blocks
        rng = np.random.default_rng(44)
        L, boundary = 10, "periodic"
        points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi), boundary)
                  for _ in range(3)]
        psis = np.array([helpers.random_state(L, rng) for _ in points])
        whole, hadamard = XFrameKick(points)(psis.copy()), fwht_inplace(psis.copy())
        monkeypatch.setattr(statevec, "_WHOLE_ROW_QUBITS", 2)
        for chunk in (4, 6, 9):
            monkeypatch.setattr(statevec, "CHUNK_QUBITS", chunk)
            assert statevec._chunk_qubits(L) == chunk
            assert np.max(np.abs(XFrameKick(points)(psis.copy()) - whole)) < 1e-13
            assert np.max(np.abs(fwht_inplace(psis.copy()) - hadamard)) < 1e-13


class TestFieldKick:
    def test_zero_field_is_identity(self):
        rng = np.random.default_rng(1)
        s = PureState(4, helpers.random_state(4, rng))
        out = field_kick(s, 0.0, 1.2)
        assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_z_eigenstate_gets_phase_only(self):
        s = make_vacuum(4)
        out = field_kick(s, np.pi, np.pi / 2)
        assert overlap(out, s) == pytest.approx(1.0, abs=1e-12)

    def test_pi_pulse_along_x_flips(self):
        # dense one-qubit exponential oracle
        out = field_kick(make_vacuum(2), np.pi, 0.0)
        expect = helpers.field_kick_dense(2, np.pi, 0.0) @ make_vacuum(2).amplitudes
        assert overlap(out.amplitudes, expect) == pytest.approx(1.0, abs=1e-12)
        assert abs(out.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_on_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            L = int(rng.integers(2, 6))
            b, theta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2)
            s = PureState(L, helpers.random_state(L, rng))
            out = field_kick(s, b, theta)
            expect = helpers.field_kick_dense(L, b, theta) @ s.amplitudes
            assert np.max(np.abs(out.amplitudes - expect)) < 1e-12


class TestIsingKick:
    def test_zero_coupling_is_identity(self):
        rng = np.random.default_rng(3)
        s = PureState(3, helpers.random_state(3, rng))
        out = ising_kick(s, 0.0)
        assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_two_qubit_bell_generation(self):
        # one kick at j_x = pi: cos(pi/4)|11> - i sin(pi/4)|00>
        out = ising_kick(make_basis_state(2, "11"), np.pi, "open")
        expect = np.array([-1j * np.sin(np.pi / 4), 0, 0, np.cos(np.pi / 4)])
        assert np.max(np.abs(out.amplitudes - expect)) < 1e-12

    def test_four_qubit_cluster_point(self):
        # the j_x t = pi state from all-up; amplitude signs fixed by the
        # dense oracle (and by the general product-expansion formula), which
        # also agree on the {0000, 0101, 1010, 1111} support
        out = ising_kick(make_basis_state(4, "1111"), np.pi, "periodic")
        expect = helpers.ising_kick_dense(4, np.pi, "periodic") @ make_basis_state(4, "1111").amplitudes
        assert np.max(np.abs(out.amplitudes - expect)) < 1e-12
        support = {0b0000, 0b0101, 0b1010, 0b1111}
        ref = out.amplitudes[0]
        for idx in range(16):
            if idx in support:
                target = -ref if idx == 0b1111 else ref
                assert out.amplitudes[idx] == pytest.approx(target, abs=1e-12)
                assert abs(out.amplitudes[idx]) == pytest.approx(0.5, abs=1e-12)
            else:
                assert abs(out.amplitudes[idx]) < 1e-12

    def test_matches_dense_on_random_states(self):
        rng = np.random.default_rng(4)
        for boundary in ("periodic", "open"):
            for _ in range(4):
                L = int(rng.integers(2, 7))
                jx = rng.uniform(0, 2 * np.pi)
                s = PureState(L, helpers.random_state(L, rng))
                out = ising_kick(s, jx, boundary)
                expect = helpers.ising_kick_dense(L, jx, boundary) @ s.amplitudes
                assert np.max(np.abs(out.amplitudes - expect)) < 1e-12


class TestStep:
    def test_zero_field_step_is_pure_coupling(self):
        params = ChainParams(4, 0.9, 0.0, 0.7)
        out = step(make_vacuum(4), params)
        expect = helpers.ising_kick_dense(4, 0.9, "periodic") @ make_vacuum(4).amplitudes
        assert np.max(np.abs(out.amplitudes - expect)) < 1e-12

    def test_no_coupling_keeps_product_state(self):
        params = ChainParams(4, 0.0, 0.3, np.pi / 2)
        s = make_vacuum(4)
        for t in range(5):
            s = step(s, params)
            assert q_measure(s) < 1e-12

    def test_field_acts_before_coupling(self):
        rng = np.random.default_rng(5)
        params = ChainParams(3, 1.1, 0.8, 0.4, "open")
        s = PureState(3, helpers.random_state(3, rng))
        out = step(s, params)
        expect = helpers.step_dense(3, 1.1, 0.8, 0.4, "open") @ s.amplitudes
        wrong_order = (helpers.field_kick_dense(3, 0.8, 0.4)
                       @ helpers.ising_kick_dense(3, 1.1, "open") @ s.amplitudes)
        assert np.max(np.abs(out.amplitudes - expect)) < 1e-12
        assert np.max(np.abs(out.amplitudes - wrong_order)) > 1e-3

    def test_transverse_q_matches_free_fermion_formula(self):
        from kicked_ising import jw_q_vacuum
        params = ChainParams(10, np.pi / 2, np.pi / 3, np.pi / 2)
        s = make_vacuum(10)
        for t in range(1, 51):
            s = step(s, params)
            assert q_measure(s) == pytest.approx(jw_q_vacuum(10, np.pi / 2, np.pi / 3, t),
                                                 abs=1e-8)

    def test_rejects_mismatched_state(self):
        with pytest.raises(ValueError):
            step(make_vacuum(4), ChainParams(5, 0.1, 0.1, 0.1))


class TestInvariants:
    def test_norm_conservation_long_run(self):
        params = ChainParams(4, 2.31, 1.77, 0.9)
        s = make_vacuum(4)
        for _ in range(10_000):
            s = step(s, params)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-10

    def test_step_equals_dense_unitary(self):
        rng = np.random.default_rng(6)
        for L in (2, 3, 4, 5, 6):
            jx, b = rng.uniform(0, 2 * np.pi, size=2)
            theta = rng.uniform(0, np.pi / 2)
            boundary = "periodic" if rng.integers(2) else "open"
            dense = helpers.step_dense(L, jx, b, theta, boundary)
            s = PureState(L, helpers.random_state(L, rng))
            out = step(s, ChainParams(L, jx, b, theta, boundary))
            assert np.max(np.abs(out.amplitudes - dense @ s.amplitudes)) < 1e-12

    def test_step_equals_dense_unitary_where_the_field_gate_degenerates(self):
        # fields whose sigma_x-frame gate has a zero entry: B = 0, B = pi at
        # theta = pi/2, B = 2 pi, and theta = 0
        rng = np.random.default_rng(8)
        for b, theta in ((0.0, 0.7), (np.pi, np.pi / 2), (2 * np.pi, 0.4), (1.2, 0.0)):
            for L, boundary in ((5, "periodic"), (6, "open")):
                dense = helpers.step_dense(L, 0.9, b, theta, boundary)
                s = PureState(L, helpers.random_state(L, rng))
                out = step(s, ChainParams(L, 0.9, b, theta, boundary))
                assert np.max(np.abs(out.amplitudes - dense @ s.amplitudes)) < 1e-12

    def test_translational_invariance_from_vacuum(self):
        params = ChainParams(6, 1.3, 0.7, 0.5)
        s = make_vacuum(6)
        for _ in range(7):
            s = step(s, params)
        rdms = [helpers.brute_rdm1(s.amplitudes, k, 6) for k in range(6)]
        for r in rdms[1:]:
            assert np.max(np.abs(r - rdms[0])) < 1e-12

    def test_ghz_keeps_unit_q_under_zero_field_map(self):
        params = ChainParams(6, 0.83, 0.0, 0.0)
        s = make_ghz(6)
        for _ in range(40):
            s = step(s, params)
            assert q_measure(s) == pytest.approx(1.0, abs=1e-12)

    def test_step_at_20_qubits_is_fast(self):
        params = ChainParams(20, 1.0, 0.5, 0.7)
        s = make_vacuum(20)
        s = step(s, params)
        best = min(_timed_step(s, params) for _ in range(3))
        assert best < 1.0, f"one step took {best:.2f}s at L=20"


def _timed_step(state, params):
    t0 = time.perf_counter()
    step(state, params)
    return time.perf_counter() - t0
