"""Chain parameters, the kick kernel and its frame, and the run's start.

The package evolves only in the frame of ``XFrameKick``.  Where a test needs
the z basis it takes a state there and back by the one-qubit gates
``diag(r) H`` and ``H diag(r*)`` on every qubit, applied by the oracle
``helpers.apply_one_qubit_gate``.
"""

import math
import re
import time

import numpy as np
import pytest

import helpers
from kicked_ising import (
    ChainParams,
    RunConfig,
    one_tangles,
    run_time_series,
    statevec,
)
from kicked_ising.harness import _evolve, _start_terms
from kicked_ising.statevec import (
    BLOCK_QUBITS,
    CHUNK_QUBITS,
    XFrameKick,
    _block_gates,
    _bond_phases,
    _field_split,
    _products,
    _real_factor,
    blocks,
)

HADAMARD = helpers.HADAMARD

# fields whose sigma_x-frame gate [[a, -b*], [b, a*]] has a zero entry, or
# nearly: b = 0 at B = 0 and at theta = 0, a = 0 at B = pi with theta = pi/2
# (to the rounding of cos(pi/2)), and B = 2 pi
DEGENERATE_FIELDS = [(0.0, 0.7), (np.pi, np.pi / 2), (2 * np.pi, 0.4), (1.2, 0.0), (np.pi, 0.0),
                     (0.0, 0.0), (-np.pi, -np.pi / 2)]


def on_every_qubit(psi, g):
    """The one-qubit gate ``g`` on every qubit of ``psi``, one qubit at a time."""
    for k in range(psi.shape[-1].bit_length() - 1):
        psi = helpers.apply_one_qubit_gate(psi, g, k)
    return psi


def into_frame(kick, psis):
    """The z-basis rows ``psis`` in the frame of ``kick``: ``diag(r_p) H`` on
    every qubit of row p."""
    return np.array([on_every_qubit(psi, np.diag(r) @ HADAMARD)
                     for psi, r in zip(psis, kick._right)])


def out_of_frame(kick, stack):
    """The inverse of :func:`into_frame`."""
    return np.array([on_every_qubit(row, HADAMARD @ np.diag(r.conj()))
                     for row, r in zip(stack, kick._right)])


def product_pass(stack, gates):
    """The block products of ``gates`` applied to ``stack`` in place, as one
    chunk, through one spare; returns the array that holds the product."""
    chunk = stack.reshape(1, -1, stack.shape[-1])
    steps, out = _products(chunk, chunk, [(lo, g[None]) for lo, g in gates],
                           np.empty_like(chunk[0]))
    for f, a, b, product in steps:
        f(a[0], b[0], out=product[0])
    return out[0].reshape(stack.shape)


def z_kick(psi, params, kicks=1):
    """``kicks`` kicks of the z-basis state ``psi`` by ``XFrameKick``, in its frame."""
    kick = helpers.kick_of([params])
    stack = into_frame(kick, psi[None])
    in_place = kick.plan(stack, stack)
    for _ in range(kicks):
        in_place()
    return out_of_frame(kick, stack)[0]


def field_kick(psi, b, theta):
    """The field alone: one kick at zero coupling."""
    return z_kick(psi, ChainParams(psi.shape[-1].bit_length() - 1, 0.0, b, theta))


def ising_kick(psi, jx, boundary="periodic"):
    """The coupling alone: one kick at zero field."""
    return z_kick(psi, ChainParams(psi.shape[-1].bit_length() - 1, jx, 0.0, 0.0, boundary))


def overlap(a, b):
    return abs(np.vdot(a, b))


def q_trace(params, steps, initial="vacuum"):
    series = run_time_series(RunConfig(params, steps, initial, frozenset({"q"})))
    return [r.q_measure for r in series]


class TestConstruction:
    def test_basis_state_all_zero(self):
        s = helpers.z_start(4, "0000")[0]
        assert s[0] == 1.0
        assert np.count_nonzero(s) == 1

    def test_basis_state_all_one(self):
        assert helpers.z_start(3, "111")[0, 7] == 1.0

    def test_basis_state_bit_convention(self):
        # "10" in ket order: qubit1 = 1, qubit0 = 0 -> index 2
        assert _start_terms(2, "10") == [(2, 1.0)]

    def test_basis_state_rejects_bad_string(self):
        with pytest.raises(ValueError):
            _start_terms(3, "012")
        with pytest.raises(ValueError):
            _start_terms(3, "01")

    def test_ghz_amplitudes(self):
        assert np.allclose(helpers.z_start(2, "ghz")[0], [2 ** -0.5, 0, 0, 2 ** -0.5])

    def test_ghz_q_measure_is_one(self):
        assert q_trace(ChainParams(3, 0.7, 0.4, 0.3), 1, "ghz")[0] == pytest.approx(1.0, abs=1e-12)

    def test_ghz_n_tangle_is_one(self):
        r = run_time_series(RunConfig(ChainParams(4, 0.7, 0.4, 0.3), 1, "ghz"))[0]
        assert r.n_tangle == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_validates_norm(self):
        with pytest.raises(ValueError):
            statevec._check_norm(np.array([[1.0, 1.0, 0.0, 0.0]], dtype=complex))

    def test_pure_state_rejects_a_nan_norm(self):
        # NaN compares false with every tolerance, so the check must not pass it
        with pytest.raises(ValueError, match="norm nan"):
            statevec._check_norm(np.array([[np.nan, 0.0, 0.0, 0.0]], dtype=complex))

    def test_chain_params_validate(self):
        with pytest.raises(ValueError):
            ChainParams(1, 0.1, 0.1, 0.0)
        with pytest.raises(ValueError):
            ChainParams(4, 0.1, 0.1, 0.0, boundary="moebius")

    @pytest.mark.parametrize("field", ["j_x", "b_field", "theta"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_chain_params_refuse_a_value_that_is_not_finite(self, field, value):
        # at construction, naming the field: not late, from the gates or the norm check
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            ChainParams(**{"num_qubits": 4, "j_x": 1.0, "b_field": 1.0, "theta": 1.0,
                           field: value})


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
                gates[0] = (0, _real_factor(gates[0][1].T))
                out = product_pass(psi.copy(), gates)
                expect = helpers.apply_local_unitaries(psi, [w] * L)
                assert np.max(np.abs(out - expect)) < 1e-12

    def test_embedded_factor_is_the_complex_product(self):
        # each entry f of a complex right factor becomes [[Re f, Im f], [-Im f, Re f]]
        # on the interleaved real view: one shared factor, one per row, and one
        # per half of each row
        rng = np.random.default_rng(14)
        for L in (3, 6, 9):
            stack = rng.normal(size=(3, 2 ** L)) + 1j * rng.normal(size=(3, 2 ** L))
            for shape in ((8, 8), (3, 8, 8), (3, 2, 8, 8)):  # the last: one per half of a row
                if len(shape) == 4 and L == 3:  # a row of one block has no halves
                    continue
                f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                factor = _real_factor(f)
                assert factor.dtype == np.float64 and factor.shape == (*shape[:-2], 16, 16)
                out = product_pass(stack.copy(), [(0, factor)])
                want = (stack.reshape(3, *shape[1:-2], -1, 8) @ f).reshape(3, -1)
                assert np.max(np.abs(out - want)) < 1e-14

    def test_kick_stays_in_place(self):
        # an odd block count (L=11 and 12: three blocks) ends the alternation in
        # the spare buffer, and L=17 goes in panels and chunks; the oracle
        # kicks one qubit at a time
        rng = np.random.default_rng(12)
        for L in (3, 7, 11, 12, 17):
            kick = helpers.kick_of([ChainParams(L, 1.3, 0.8, 0.6)])
            psi = helpers.random_state(L, rng)
            stack = into_frame(kick, psi[None])
            want = into_frame(kick, helpers.kick_reference(psi, L, 1.3, 0.8, 0.6)[None])
            assert kick.plan(stack, stack)() is stack
            assert np.max(np.abs(stack - want)) < 1e-12


class TestXFrameKick:
    def test_is_step_conjugated_by_hadamards(self):
        # entering the frame, three kicks and leaving it give U^3, with U the
        # dense kick
        rng = np.random.default_rng(13)
        for L, boundary in ((3, "open"), (6, "periodic"), (8, "open"), (9, "periodic")):
            psi = helpers.random_state(L, rng)
            kick = helpers.kick_of([ChainParams(L, 1.3, 0.8, 0.5, boundary)])
            x_frame = into_frame(kick, psi[None])
            for _ in range(3):
                x_frame = kick.plan(x_frame, x_frame)()
            assert x_frame.shape == (1, 2 ** L)
            u = helpers.step_dense(L, 1.3, 0.8, 0.5, boundary)
            assert np.max(np.abs(out_of_frame(kick, x_frame)[0] - u @ u @ u @ psi)) < 1e-12

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
            got = z_kick(psi, params)
            if L <= 10:
                want = helpers.step_dense(L, params.j_x, params.b_field, params.theta,
                                          boundary) @ psi
            else:
                want = helpers.kick_reference(psi, L, params.j_x, params.b_field, params.theta,
                                              boundary)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_field_split_is_bitwise_the_one_point_form(self):
        # the split of a stack rounds as the split of each point alone, at
        # random fields and where the gate degenerates
        rng = np.random.default_rng(18)
        b, theta = np.concatenate([rng.uniform(-7, 7, (2, 1000)), np.transpose(DEGENERATE_FIELDS)],
                                  axis=1)
        got = _field_split(b, theta)
        assert [x.dtype for x in got] == [np.complex128, np.float64, np.complex128]
        assert [x.shape for x in got] == [(len(b), 2), (len(b), 2, 2), (len(b), 2)]
        assert got[1].flags.c_contiguous
        for p in (0, 1, 999, *range(1000, len(b))):
            one = _field_split(b[p:p + 1], theta[p:p + 1])
            assert all(x[p:p + 1].tobytes() == y.tobytes() for x, y in zip(got, one))

    def test_field_gate_splits_into_phases_and_a_real_rotation(self):
        # H u H = diag(l) R diag(r) to rounding, against the dense gate u of
        # each point, also where a = 0 or b = 0 in [[a, -b*], [b, a*]]; and
        # r_0 = 1 exactly, which the start's gather relies on
        rng = np.random.default_rng(19)
        fields = [*zip(rng.uniform(-7, 7, 200), rng.uniform(-4, 4, 200)), *DEGENERATE_FIELDS]
        left, rotation, right = _field_split(*np.transpose(fields))
        assert np.max(np.abs(rotation @ rotation.swapaxes(-1, -2) - np.eye(2))) < 1e-15
        assert np.all(rotation[:, 0, 0] >= 0) and np.all(rotation[:, 1, 0] >= 0)
        assert np.max(np.abs(np.abs(left) - 1.0)) < 1e-15 and np.all(right[:, 0] == 1.0)
        sign = np.array([[1.0, 1.0], [1.0, -1.0]])
        w = np.array([sign @ helpers.field_unitary_reference(b, theta) @ sign / 2.0
                      for b, theta in fields])
        split = left[:, :, None] * rotation * right[:, None, :]
        assert np.max(np.abs(split - w)) < 1e-15

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("L, rows", [(6, 3), (12, 1), (17, 2)])
    def test_out_of_place_kick_is_a_copy_kicked_in_place(self, L, rows, boundary):
        # a stack of one chunk, a row of three blocks, and streamed rows (panels,
        # then chunks): the kick into another stack leaves its source as it was
        # and writes what a copy kicked in place holds, bit for bit; a plan
        # called again kicks again
        rng = np.random.default_rng(45 + L)
        points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi), boundary)
                  for _ in range(rows)]
        kick = helpers.kick_of(points)
        source = into_frame(kick, [helpers.random_state(L, rng) for _ in points])
        before, target = source.copy(), np.empty_like(source)
        assert kick.plan(source, target)() is target
        assert np.array_equal(source, before)
        again = before.copy()
        assert np.array_equal(target, kick.plan(again, again)())
        in_place = kick.plan(target, target)
        in_place()
        in_place()
        for _ in range(2):
            kick.plan(again, again)()
        assert np.array_equal(target, again)

    def test_checks_the_norm(self):
        kick = helpers.kick_of([ChainParams(4, 1.0, 0.5, 0.3)])
        stack = np.full((1, 16), 0.3, dtype=complex)
        with pytest.raises(ValueError, match="norm"):
            kick.plan(stack, stack)()

    def test_stack_rows_are_kicked_at_their_own_points(self):
        # per-row frames, field gates and Ising phases: a stack equals its rows
        # kicked alone, and each row leaves the frame as U^3 of its own
        # point; L=17 is streamed
        rng = np.random.default_rng(17)
        for L, boundary in ((4, "periodic"), (7, "open"), (11, "periodic"), (17, "open")):
            points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi),
                                  boundary) for _ in range(5)]
            psis = np.array([helpers.random_state(L, rng) for _ in points])
            kick = helpers.kick_of(points)
            stack = into_frame(kick, psis)
            rows = stack.copy()
            for _ in range(3):
                stack = kick.plan(stack, stack)()
            for params, psi, row, got in zip(points, psis, rows, stack):
                single = helpers.kick_of([params])
                row = row[None].copy()
                for _ in range(3):
                    row = single.plan(row, row)()
                assert np.array_equal(row[0], got)
                if L < 8:
                    u = helpers.step_dense(L, params.j_x, params.b_field, params.theta, boundary)
                    assert np.max(np.abs(out_of_frame(single, row)[0] - u @ u @ u @ psi)) < 1e-12

    def test_stack_norm_check_sees_every_row(self):
        for L in (4, 17):  # 17 sums each row's norm over its chunks
            kick = helpers.kick_of([ChainParams(L, 1.0, 0.5, 0.3)] * 3)
            stack = kick.start([(0, 1.0)])
            stack[2] *= 1.01
            with pytest.raises(ValueError, match="norm"):
                kick.plan(stack, stack)()

    def test_kick_brings_a_drifted_row_back_to_norm_1(self):
        # a row whose norm left 1 by more than the rescale band, but not by the
        # 1e-10 of the check, leaves the kick at norm 1: in a stack, and in a
        # streamed row.  The norms are summed exactly: a dot product of 2**17
        # amplitudes rounds by about 1e-14
        for L, scales in ((6, (1.0 + 5e-11, 1.0, 1.0 - 5e-11)), (17, (1.0 - 5e-11,))):
            kick = helpers.kick_of([ChainParams(L, 1.3, 0.8, 0.6)] * len(scales))
            stack = kick.start([(0, 1.0)]) * np.array(scales)[:, None]
            kick.plan(stack, stack)()
            for row in stack.view(float):
                assert abs(math.sqrt(math.fsum((row * row).tolist())) - 1.0) < 1e-14

    @pytest.mark.parametrize("scale", [np.nan, 1.0 + 2e-10])
    def test_stack_norm_check_names_the_failing_value(self, scale):
        # one comparison over the rows; the error names the row that fails
        stack = np.tile(np.eye(1, 16, dtype=complex), (3, 1))
        stack[1] *= scale
        norm = float(np.sqrt(np.vdot(stack[1], stack[1]).real))
        with pytest.raises(ValueError, match=f"norm {re.escape(repr(norm))} is not 1"):
            statevec._check_norm(stack)

    def test_frame_refuses_a_stack_it_cannot_multiply_in_place(self):
        # a column-major stack would be reshaped into a copy, and the phases
        # or the streamed passes lost
        phases = np.asfortranarray(np.ones((2, 16), dtype=complex))
        with pytest.raises(ValueError, match="contiguous"):
            statevec._times_diagonal_power(phases, np.ones((2, 2), dtype=complex))
        kick = helpers.kick_of([ChainParams(17, 1.0, 0.5, 0.3)] * 2)
        stack = np.asfortranarray(kick.start([(0, 1.0)]))
        with pytest.raises(ValueError, match="contiguous"):
            kick.plan(stack, stack)

    def test_takes_the_chain_once_and_each_parameter_as_an_array(self):
        # arrays or lists of the points' parameters make the same kick, and
        # each row of the stack is kicked bit for bit as its point alone
        rng = np.random.default_rng(46)
        points = rng.uniform(0, 2 * np.pi, (3, 4))  # j_x, B and theta of four points
        kick = XFrameKick(7, "open", *points)
        stack = kick.start([(5, 1.0)])
        kick.plan(stack, stack)()
        listed = XFrameKick(7, "open", *points.tolist())
        start = listed.start([(5, 1.0)])
        assert np.array_equal(listed.plan(start, start)(), stack)
        for p, row in enumerate(stack):
            one = XFrameKick(7, "open", *points[:, p:p + 1])
            start = one.start([(5, 1.0)])
            assert np.array_equal(one.plan(start, start)()[0], row)

    def test_norm_check_reads_the_extreme_squares(self):
        # the drift from the largest and smallest squared norm is, bit for
        # bit, the largest |norm - 1| over every row
        rng = np.random.default_rng(47)
        for rows in (1, 2, 55):
            for spread in (1e-16, 1e-13, 3e-12):
                squares = 1.0 + spread * rng.standard_normal(rows)
                want = np.max(np.abs(np.sqrt(squares) - 1.0))
                assert statevec._check_squared_norms(squares) == want


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
            got = helpers.kick_of(points).plan(psis, np.empty_like(psis))()
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
            got = z_kick(psi, ChainParams(L, 1.3, 0.8, theta, boundary))
            want = helpers.kick_reference(psi, L, 1.3, 0.8, theta, boundary)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_time_series_matches_the_reference_kick(self, monkeypatch):
        # the run's rows are the reference states under diag(r) H on every
        # qubit, and its Q is theirs
        for L, boundary, theta, forced in self.CASES[:-1]:
            monkeypatch.setattr(statevec, "_WHOLE_ROW_QUBITS",
                                CHUNK_QUBITS if forced else statevec._WHOLE_ROW_QUBITS)
            params = ChainParams(L, 1.3, 0.8, theta, boundary)
            kick = helpers.kick_of([params])
            psi = helpers.z_start(L, "vacuum")[0]
            series = run_time_series(RunConfig(params, 2, measures=frozenset({"q"})))
            for t, amps in helpers.samples([params], "vacuum", 2):
                assert np.max(np.abs(amps - into_frame(kick, psi[None]))) < 1e-12
                assert abs(series[t].q_measure - one_tangles(psi[None]).mean()) < 1e-12
                psi = helpers.kick_reference(psi, L, 1.3, 0.8, theta, boundary)

    def test_any_chunk_size_kicks_as_a_whole_row(self, monkeypatch):
        # small chunks make tall stacks of narrow panels, and high parts of
        # one and two blocks
        rng = np.random.default_rng(44)
        L, boundary = 10, "periodic"
        points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi), boundary)
                  for _ in range(3)]
        psis = np.array([helpers.random_state(L, rng) for _ in points])
        whole = helpers.kick_of(points).plan(psis, np.empty_like(psis))()
        monkeypatch.setattr(statevec, "_WHOLE_ROW_QUBITS", 2)
        for chunk in (4, 6, 9):
            monkeypatch.setattr(statevec, "CHUNK_QUBITS", chunk)
            assert statevec._chunk_qubits(L) == chunk
            got = helpers.kick_of(points).plan(psis, np.empty_like(psis))()
            assert np.max(np.abs(got - whole)) < 1e-13

    @pytest.mark.parametrize("columns", [4, statevec._PANEL_COLUMNS])
    def test_three_high_blocks_kick_as_a_whole_row(self, monkeypatch, columns):
        # chunks of 4 qubits leave 11 high qubits of 15, three blocks, whose
        # products pass through two intermediates in turn; panels of 4 columns
        # reuse them panel after panel
        rng = np.random.default_rng(46)
        L = 15
        points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi), "open")
                  for _ in range(2)]
        psis = np.array([helpers.random_state(L, rng) for _ in points])
        whole = helpers.kick_of(points).plan(psis, np.empty_like(psis))()
        monkeypatch.setattr(statevec, "_WHOLE_ROW_QUBITS", 2)
        monkeypatch.setattr(statevec, "CHUNK_QUBITS", 4)
        monkeypatch.setattr(statevec, "_PANEL_COLUMNS", columns)
        kick = helpers.kick_of(points)
        in_place, target = psis.copy(), np.empty_like(psis)
        kick.plan(in_place, in_place)()
        kick.plan(psis, target)()
        assert len(kick._high) == 3  # built at the first plan
        assert np.array_equal(in_place, target)
        assert np.max(np.abs(target - whole)) < 1e-13


class TestPanelPass:
    """A streamed kick's panel pass reads and writes the state where it lies:
    one high block out of place, or two, in place or not, write the target
    straight; one in place goes through the buffer and is copied back."""

    @pytest.mark.parametrize("L, rows, in_place", [(17, 1, True), (18, 1, False), (20, 2, True)])
    def test_a_planned_kick_allocates_no_temporary(self, L, rows, in_place):
        import tracemalloc

        kick = helpers.kick_of([ChainParams(L, 1.1, 0.7, 0.6 + 0.1 * p) for p in range(rows)])
        source = kick.start([(0, 1.0)])
        plan = kick.plan(source, source if in_place else np.empty_like(source))
        plan()
        tracemalloc.start()
        try:
            plan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4096

    @pytest.mark.parametrize("L", [17, 20])
    def test_in_place_is_out_of_place_and_each_row_its_point_alone(self, L):
        # one high block at 17 qubits (the copy back in place), two at 20
        rng = np.random.default_rng(47 + L)
        j_x, b_field, theta = rng.uniform(0, 2 * np.pi, (2, 3)).tolist() + [
            rng.uniform(0, np.pi, 3).tolist()]
        kick = XFrameKick(L, "periodic", j_x, b_field, theta)
        source = np.array([helpers.random_state(L, rng) for _ in range(3)])
        in_place, target = source.copy(), np.empty_like(source)
        kick.plan(in_place, in_place)()
        kick.plan(source, target)()
        assert np.array_equal(in_place, target)
        for p in range(3):
            alone = XFrameKick(L, "periodic", j_x[p:p + 1], b_field[p:p + 1], theta[p:p + 1])
            row = source[p:p + 1].copy()
            assert np.array_equal(alone.plan(row, row)()[0], target[p])


class TestKickedStart:
    """A run's start, built from its half-chain factors (``XFrameKick.factors``),
    and its first kick, a plan, as the kick loop takes them."""

    # rows whose field gate degenerates (B = 0 and pi, theta = 0 and pi/2),
    # and a tilted one, for stacks of three rows; stacks of two from 17 qubits
    POINTS = [(0.9, 0.0, np.pi / 2), (1.7, np.pi, 0.0), (2.3, 1.1, 0.6)]

    @staticmethod
    def kicked(kick, terms):
        """The start of ``terms`` kicked once by a plan."""
        start = kick.start(terms)
        return kick.plan(start, np.empty_like(start))()

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("L", range(2, 21))
    def test_is_the_start_kicked_by_a_plan(self, L, boundary):
        # the start is the product of its factors, a term a column, bitwise
        # the reference built one qubit at a time, and the kick loop's t = 1
        # is it kicked by a plan, bit for bit, for one-chunk and streamed rows
        rng = np.random.default_rng(60 + L)
        points = np.array(self.POINTS[:3 if L <= 16 else 2]).T
        kick = XFrameKick(L, boundary, *points)
        bits = "".join(rng.choice(["0", "1"], L))
        for initial in ("vacuum", "all_up", "ghz", bits):
            terms = _start_terms(L, initial)
            high, low = kick.factors(terms)
            assert high.shape[:2] == low.shape[:2] == (len(points[0]), len(terms))
            want = helpers.x_frame_start_reference(kick._right, L, terms)
            assert np.array_equal(kick.start(terms), want)
            (ts, amps), = _evolve(L, boundary, *points, initial, 1, sample_start=False)
            assert ts == [1] and np.array_equal(amps, self.kicked(kick, terms))

    @pytest.mark.parametrize("L, boundary", [(2, "periodic"), (5, "open"), (12, "periodic"),
                                             (17, "open")])
    def test_a_row_is_bitwise_that_row_built_alone(self, L, boundary):
        points = np.array(self.POINTS).T
        for initial in ("vacuum", "ghz"):
            terms = _start_terms(L, initial)
            stack = self.kicked(XFrameKick(L, boundary, *points), terms)
            for p, row in enumerate(stack):
                alone = XFrameKick(L, boundary, *points[:, p:p + 1])
                assert np.array_equal(self.kicked(alone, terms)[0], row)

    def test_writes_out_and_returns_it(self):
        kick = XFrameKick(17, "periodic", *np.array(self.POINTS[:2]).T)
        out = np.empty((2, 2 ** 17), dtype=complex)
        assert kick.start([(0, 1.0)], out=out) is out
        assert np.array_equal(out, kick.start([(0, 1.0)]))

    @pytest.mark.parametrize("L", [4, 17])
    def test_refuses_terms_that_are_not_normalised(self, L):
        kick = XFrameKick(L, "open", *np.array(self.POINTS[:2]).T)
        for terms in ([(0, 1.0), (3, 1.0)], [(1, 0.5)]):
            with pytest.raises(ValueError, match="norm"):
                kick.start(terms)

    def test_holds_a_drifted_start_to_norm_1_as_a_kick_does(self):
        # terms off norm 1 by more than the rescale band, but within the 1e-10
        # of the check, give rows of norm 1, as a kick does, and so does its kick
        kick = helpers.kick_of([ChainParams(17, 1.3, 0.8, 0.6)])
        terms = [(0, 1.0 - 5e-11)]
        for stack in (kick.start(terms), self.kicked(kick, terms)):
            for row in stack.view(float):
                assert abs(math.sqrt(math.fsum((row * row).tolist())) - 1.0) < 1e-14


class TestFieldKick:
    def test_zero_field_is_identity(self):
        rng = np.random.default_rng(1)
        psi = helpers.random_state(4, rng)
        assert np.allclose(field_kick(psi, 0.0, 1.2), psi, atol=1e-15)

    def test_z_eigenstate_gets_phase_only(self):
        vacuum = helpers.z_start(4, "vacuum")[0]
        assert overlap(field_kick(vacuum, np.pi, np.pi / 2), vacuum) == pytest.approx(1.0,
                                                                                   abs=1e-12)

    def test_pi_pulse_along_x_flips(self):
        # dense one-qubit exponential oracle
        vacuum = helpers.z_start(2, "vacuum")[0]
        out = field_kick(vacuum, np.pi, 0.0)
        expect = helpers.field_kick_dense(2, np.pi, 0.0) @ vacuum
        assert overlap(out, expect) == pytest.approx(1.0, abs=1e-12)
        assert abs(out[3]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_on_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            L = int(rng.integers(2, 6))
            b, theta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2)
            psi = helpers.random_state(L, rng)
            expect = helpers.field_kick_dense(L, b, theta) @ psi
            assert np.max(np.abs(field_kick(psi, b, theta) - expect)) < 1e-12


class TestIsingKick:
    def test_zero_coupling_is_identity(self):
        rng = np.random.default_rng(3)
        psi = helpers.random_state(3, rng)
        assert np.allclose(ising_kick(psi, 0.0), psi, atol=1e-15)

    def test_two_qubit_bell_generation(self):
        # one kick at j_x = pi: cos(pi/4)|11> - i sin(pi/4)|00>
        out = ising_kick(helpers.z_start(2, "11")[0], np.pi, "open")
        expect = np.array([-1j * np.sin(np.pi / 4), 0, 0, np.cos(np.pi / 4)])
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_four_qubit_cluster_point(self):
        # the j_x t = pi state from all-up; amplitude signs fixed by the
        # dense oracle (and by the general product-expansion formula), which
        # also agree on the {0000, 0101, 1010, 1111} support
        all_up = helpers.z_start(4, "1111")[0]
        out = ising_kick(all_up, np.pi, "periodic")
        expect = helpers.ising_kick_dense(4, np.pi, "periodic") @ all_up
        assert np.max(np.abs(out - expect)) < 1e-12
        support = {0b0000, 0b0101, 0b1010, 0b1111}
        ref = out[0]
        for idx in range(16):
            if idx in support:
                target = -ref if idx == 0b1111 else ref
                assert out[idx] == pytest.approx(target, abs=1e-12)
                assert abs(out[idx]) == pytest.approx(0.5, abs=1e-12)
            else:
                assert abs(out[idx]) < 1e-12

    def test_dense_oracle_is_the_product_of_the_bond_unitaries(self):
        # the oracle's sigma_x-basis phases against cos(j_x/4) - i sin(j_x/4) X_n X_{n+1}
        # multiplied bond by bond
        for L in range(2, 7):
            for boundary in ("periodic", "open"):
                x = [helpers.op_on(helpers.SX, n, L) for n in range(L)]
                u = np.eye(2 ** L, dtype=complex)
                for n in range(L if boundary == "periodic" else L - 1):
                    xx = x[n] @ x[(n + 1) % L]
                    u = (np.cos(1.3 / 4.0) * np.eye(2 ** L) - 1j * np.sin(1.3 / 4.0) * xx) @ u
                assert np.max(np.abs(helpers.ising_kick_dense(L, 1.3, boundary) - u)) < 1e-13

    def test_matches_dense_on_random_states(self):
        rng = np.random.default_rng(4)
        for boundary in ("periodic", "open"):
            for _ in range(4):
                L = int(rng.integers(2, 7))
                jx = rng.uniform(0, 2 * np.pi)
                psi = helpers.random_state(L, rng)
                expect = helpers.ising_kick_dense(L, jx, boundary) @ psi
                assert np.max(np.abs(ising_kick(psi, jx, boundary) - expect)) < 1e-12


class TestStep:
    def test_zero_field_step_is_pure_coupling(self):
        vacuum = helpers.z_start(4, "vacuum")[0]
        out = z_kick(vacuum, ChainParams(4, 0.9, 0.0, 0.7))
        expect = helpers.ising_kick_dense(4, 0.9, "periodic") @ vacuum
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_no_coupling_keeps_product_state(self):
        assert max(q_trace(ChainParams(4, 0.0, 0.3, np.pi / 2), 5)) < 1e-12

    def test_field_acts_before_coupling(self):
        rng = np.random.default_rng(5)
        psi = helpers.random_state(3, rng)
        out = z_kick(psi, ChainParams(3, 1.1, 0.8, 0.4, "open"))
        expect = helpers.step_dense(3, 1.1, 0.8, 0.4, "open") @ psi
        wrong_order = (helpers.field_kick_dense(3, 0.8, 0.4)
                       @ helpers.ising_kick_dense(3, 1.1, "open") @ psi)
        assert np.max(np.abs(out - expect)) < 1e-12
        assert np.max(np.abs(out - wrong_order)) > 1e-3

    def test_transverse_q_matches_free_fermion_formula(self):
        from kicked_ising import jw_q_vacuum
        trace = q_trace(ChainParams(10, np.pi / 2, np.pi / 3, np.pi / 2), 50)
        for t in range(1, 51):
            assert trace[t] == pytest.approx(jw_q_vacuum(10, np.pi / 2, np.pi / 3, t), abs=1e-8)


class TestInvariants:
    def test_norm_conservation_long_run(self):
        params = ChainParams(4, 2.31, 1.77, 0.9)
        for _, amps in helpers.samples([params], "vacuum", 10_000, 10_000):
            pass
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

    def test_step_equals_dense_unitary(self):
        rng = np.random.default_rng(6)
        for L in (2, 3, 4, 5, 6):
            jx, b = rng.uniform(0, 2 * np.pi, size=2)
            theta = rng.uniform(0, np.pi / 2)
            boundary = "periodic" if rng.integers(2) else "open"
            dense = helpers.step_dense(L, jx, b, theta, boundary)
            psi = helpers.random_state(L, rng)
            out = z_kick(psi, ChainParams(L, jx, b, theta, boundary))
            assert np.max(np.abs(out - dense @ psi)) < 1e-12

    def test_step_equals_dense_unitary_where_the_field_gate_degenerates(self):
        # fields whose sigma_x-frame gate has a zero entry: B = 0, B = pi at
        # theta = pi/2, B = 2 pi, and theta = 0
        rng = np.random.default_rng(8)
        for b, theta in ((0.0, 0.7), (np.pi, np.pi / 2), (2 * np.pi, 0.4), (1.2, 0.0)):
            for L, boundary in ((5, "periodic"), (6, "open")):
                dense = helpers.step_dense(L, 0.9, b, theta, boundary)
                psi = helpers.random_state(L, rng)
                out = z_kick(psi, ChainParams(L, 0.9, b, theta, boundary))
                assert np.max(np.abs(out - dense @ psi)) < 1e-12

    def test_translational_invariance_from_vacuum(self):
        # the frame is one gate on every qubit, so it keeps the RDMs' equality
        for _, amps in helpers.samples([ChainParams(6, 1.3, 0.7, 0.5)], "vacuum", 7, 7):
            pass
        rdms = [helpers.brute_rdm1(amps[0], k, 6) for k in range(6)]
        for r in rdms[1:]:
            assert np.max(np.abs(r - rdms[0])) < 1e-12

    def test_ghz_keeps_unit_q_under_zero_field_map(self):
        trace = q_trace(ChainParams(6, 0.83, 0.0, 0.0), 40, "ghz")
        assert max(abs(q - 1.0) for q in trace) < 1e-12

    def test_step_at_20_qubits_is_fast(self):
        kick = helpers.kick_of([ChainParams(20, 1.0, 0.5, 0.7)])
        amps = kick.start([(0, 1.0)])
        kick.plan(amps, amps)()
        best = min(_timed_kick(kick, amps) for _ in range(3))
        assert best < 1.0, f"one kick took {best:.2f}s at L=20"


def _timed_kick(kick, amps):
    t0 = time.perf_counter()
    kick.plan(amps, amps)()
    return time.perf_counter() - t0
