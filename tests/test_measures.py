"""Reduced density matrices and entanglement measures against brute force.

The measures take a ``(P, 2**L)`` stack; a state here is a stack of one row.
"""

import itertools
import math

import numpy as np
import pytest

import helpers
from kicked_ising import (
    ChainParams,
    ReportBatch,
    concurrences,
    n_tangle,
    one_tangles,
)
from kicked_ising import measures


def vacuum(L):
    return helpers.z_start(L, "vacuum")


def ghz(L):
    return helpers.z_start(L, "ghz")


def cluster_state(L, jx_t, boundary="periodic"):
    """Vacuum evolved by the bare coupling to accumulated phase jx_t (dense oracle)."""
    return vacuum(L) @ helpers.ising_kick_dense(L, jx_t, boundary).T


def random_pure(L, seed):
    return helpers.random_state(L, np.random.default_rng(seed))[None]


def kicked(params, kicks, initial="vacuum"):
    """The run's stack after ``kicks`` kicks, in the kick's frame."""
    for _, amps in helpers.samples([params], initial, kicks, kicks):
        pass
    return amps


def rdm(s, i, j):
    """The 4x4 reduced density matrix of qubits (i, j) of a one-row stack."""
    return measures._pair_rdms(s, [(i, j)])[0, 0]


def q_of(s):
    return float(one_tangles(s).mean())


def report_of(s, t, **options):
    """The report of a one-row stack at kick count ``t``: a batch of one group."""
    (report,) = helpers.batch_reports(s, [t], **options)
    return report


def corner_matrix(jx_t):
    """The cluster-evolution corner matrix of ``test_corner_matrix_spectrum``."""
    a = np.sin(jx_t / 2) ** 2 / 4
    b = abs(np.sin(jx_t)) / 4
    rho = np.diag([a, a, a, 1 - 3 * a]).astype(complex)
    rho[0, 3] = -1j * b
    rho[3, 0] = 1j * b
    return rho


def assert_valid_rdm(rho, dim):
    assert rho.shape == (dim, dim)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestRdmPair:
    def test_product_state(self):
        rho = rdm(vacuum(4), 0, 2)
        assert np.allclose(rho, np.diag([1.0, 0, 0, 0]))

    def test_cluster_distant_pairs_factorize(self):
        # strict factorization needs ring distance >= 3 (closer pairs share a
        # neighbour and pick up classical correlations); the entanglement
        # still vanishes for every non-nearest pair, tested below
        s = cluster_state(6, 1.3)
        for pair in [(0, 3), (1, 4)]:
            rho = rdm(s, *pair)
            product = np.kron(helpers.brute_rdm1(s[0], pair[0], 6),
                              helpers.brute_rdm1(s[0], pair[1], 6))
            assert np.max(np.abs(rho - product)) < 1e-12

    def test_cluster_non_neighbours_carry_no_concurrence(self):
        s = cluster_state(6, 1.3)
        for pair in [(0, 2), (0, 3), (1, 4)]:
            assert concurrences(rdm(s, *pair)) < 1e-10

    def test_matches_brute_force(self):
        s = random_pure(4, 22)
        assert np.max(np.abs(rdm(s, 1, 3) - helpers.brute_rdm2(s[0], 1, 3, 4))) < 1e-13
        assert np.max(np.abs(rdm(s, 3, 1) - helpers.brute_rdm2(s[0], 3, 1, 4))) < 1e-13

    def test_invariants_on_random_states(self):
        s = random_pure(5, 23)
        for (i, j) in [(0, 1), (2, 4), (4, 0)]:
            assert_valid_rdm(rdm(s, i, j), 4)

    def test_summed_over_slices(self, monkeypatch):
        # chunks small enough to slice the qubits below, between and above the pair
        s = random_pure(7, 25)
        pairs = list(itertools.permutations(range(7), 2))
        whole = [rdm(s, i, j) for i, j in pairs]
        for chunk in (4, 16, 64):
            monkeypatch.setattr(measures, "_RDM_CHUNK", chunk)
            for (i, j), want in zip(pairs, whole):
                assert np.max(np.abs(rdm(s, i, j) - want)) < 1e-15

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            rdm(vacuum(4), 1, 1)
        with pytest.raises(IndexError):
            rdm(vacuum(4), 0, 4)


class TestPairRdms:
    @pytest.mark.parametrize("num_qubits", range(2, 9))
    def test_every_ordered_pair_of_a_stack_matches_brute_force(self, num_qubits):
        # the pairs with lo = 0 have no qubits below them, so their quarters
        # are reduced along a strided axis
        rng = np.random.default_rng(800 + num_qubits)
        amps = np.array([helpers.random_state(num_qubits, rng) for _ in range(3)])
        pairs = list(itertools.permutations(range(num_qubits), 2))
        rdms = measures._pair_rdms(amps, pairs)
        assert rdms.shape == (3, len(pairs), 4, 4)
        for psi, row in zip(amps, rdms):
            for (i, j), rho in zip(pairs, row):
                assert np.max(np.abs(rho - helpers.brute_rdm2(psi, i, j, num_qubits))) < 1e-13


class TestConcurrence:
    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2 ** -0.5
        assert concurrences(np.outer(bell, bell.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert concurrences(np.diag([1.0, 0, 0, 0]).astype(complex)) == 0.0

    def test_separable_pure_pairs_read_zero(self):
        # rho rho~ of a product state has a spectrum of rounding noise only,
        # which a square root would lift to ~1e-8
        rng = np.random.default_rng(26)
        a = rng.normal(size=(2000, 2, 2)) @ np.array([1, 1j])
        b = rng.normal(size=(2000, 2, 2)) @ np.array([1, 1j])
        pair = (a[:, :, None] * b[:, None, :]).reshape(2000, 4)
        pair /= np.linalg.norm(pair, axis=1, keepdims=True)
        rho = pair[:, :, None] * pair[:, None, :].conj()
        assert np.max(concurrences(rho)) < 1e-13

    def test_cluster_nearest_neighbour_value(self):
        s = cluster_state(4, np.pi / 2)
        for i in range(4):
            c = concurrences(rdm(s, i, (i + 1) % 4))
            assert c == pytest.approx(0.25, abs=1e-12)

    def test_matches_nonhermitian_oracle_on_random_rdms(self):
        for seed in range(20):
            s = random_pure(4, 100 + seed)
            rho = rdm(s, 0, 2)
            assert concurrences(rho) == pytest.approx(helpers.concurrence_oracle(rho), abs=1e-10)

    def test_oracle_matches_on_rank_deficient_open_chain_rdms(self):
        # zero-field open chains give pair RDMs whose product rho rho~ is rank-deficient
        for jx in (0.7, 1.3, 2.1):
            s = vacuum(6)
            for _ in range(7):  # z-basis states; the oracle's eigenvalues are less exact in the frame
                s = s @ helpers.ising_kick_dense(6, jx, "open").T
                for i, j in itertools.combinations(range(6), 2):
                    rho = rdm(s, i, j)
                    assert concurrences(rho) == pytest.approx(helpers.concurrence_oracle(rho),
                                                             abs=1e-12)

    def test_factor_oracle_matches_on_rank_deficient_frame_rdms(self):
        # the same chains' sigma_x-frame states after 3 and 6 kicks, where the
        # oracle above misses by up to 1.5e-8, against the spectrum taken from
        # each pair's factor at 50 digits (skipped without mpmath)
        for jx in (0.7, 1.3, 2.1):
            kick = helpers.kick_of([ChainParams(6, jx, 0.0, 0.0, "open")])
            s = kick.start([(0, 1.0)])
            in_place = kick.plan(s, s)
            for t in range(1, 7):
                in_place()
                for i, j in itertools.combinations(range(6), 2) if t % 3 == 0 else ():
                    want = helpers.concurrence_factor_oracle(helpers.pair_factor(s[0], i, j, 6))
                    assert concurrences(rdm(s, i, j)) == pytest.approx(want, abs=1e-12)

    def test_corner_matrix_spectrum(self):
        # density matrices that are diagonal except for one anti-diagonal
        # corner have square-root spectrum {|b|+g, a, a, -|b|+g} with
        # g = sqrt(a(1-3a)); the cluster evolution produces exactly these
        for jx_t in (0.4, 1.1, 2.0, 2.9):
            a = np.sin(jx_t / 2) ** 2 / 4
            b = abs(np.sin(jx_t)) / 4
            rho = np.diag([a, a, a, 1 - 3 * a]).astype(complex)
            rho[0, 3] = -1j * b
            rho[3, 0] = 1j * b
            flip = np.kron(helpers.SY, helpers.SY)
            lam = np.sqrt(np.clip(np.linalg.eigvals(rho @ flip @ rho.conj() @ flip).real, 0, None))
            lam[::-1].sort()
            g = np.sqrt(a * (1 - 3 * a))
            assert np.max(np.abs(lam - [b + g, a, a, g - b])) < 1e-12
            got = concurrences(rho)
            assert got == pytest.approx(max(0.0, 2 * b - 2 * a), abs=1e-12)

            # the vacuum-seeded evolution gives the spin-flipped pattern:
            # the heavy diagonal element sits on |00> instead of |11>
            numeric = rdm(cluster_state(6, jx_t), 2, 3)
            assert np.max(np.abs(np.diag(numeric).real - [1 - 3 * a, a, a, a])) < 1e-12
            assert abs(numeric[0, 3]) == pytest.approx(b, abs=1e-12)

    def test_rejects_invalid_matrix(self):
        bad = np.diag([1.1, 0, 0, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            concurrences(bad)
        with pytest.raises(ValueError):
            concurrences(np.eye(3, dtype=complex))


class TestConcurrenceStack:
    def stack(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2 ** -0.5
        fixed = [np.outer(bell, bell.conj()), np.diag([1.0, 0, 0, 0]).astype(complex)]
        fixed += [corner_matrix(jx_t) for jx_t in (0.4, 1.1, 2.0, 2.9)]
        randoms = []
        for seed in range(20):
            s = random_pure(4, 100 + seed)
            randoms += [rdm(s, 0, 2), rdm(s, 3, 1)]
        return np.array(fixed + randoms)

    def test_matches_oracle_elementwise(self):
        rhos = self.stack()
        got = concurrences(rhos)
        assert got.shape == (len(rhos),)
        want = [helpers.concurrence_oracle(rho) for rho in rhos]
        assert np.max(np.abs(got - want)) < 1e-10
        # leading axes are batch axes
        assert np.max(np.abs(concurrences(rhos.reshape(-1, 2, 4, 4)) - got.reshape(-1, 2))) < 1e-14

    def test_one_invalid_matrix_fails_the_stack(self):
        rhos = self.stack()
        rhos[5] = np.diag([1.1, 0, 0, -0.1])
        with pytest.raises(ValueError):
            concurrences(rhos)
        with pytest.raises(ValueError):
            concurrences(np.zeros((3, 3, 3), dtype=complex))

    def test_report_table_matches_single_calls(self):
        s = kicked(ChainParams(8, 0.9, 1.1, 0.6), 4)
        table = report_of(s, 4).pair_concurrences
        for i in range(8):
            assert table[i, i] == 0.0
            for j in range(8):
                if i != j:
                    assert table[i, j] == pytest.approx(concurrences(rdm(s, i, j)), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_a_non_finite_matrix(self, bad):
        # a NaN spectrum would pass the eigenvalue floor, and an inf fails inside
        # LAPACK; such a matrix is refused first, and never reads as separable
        rhos = self.stack()
        rhos[7, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            concurrences(rhos)
        with pytest.raises(ValueError, match="non-finite"):
            concurrences(rhos[7])


def werner(p, rng):
    """p |psi-><psi-| + (1 - p) I/4 under a random local unitary: C = max(0, (3p - 1)/2),
    separable exactly for p <= 1/3."""
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2.0)
    u = np.kron(helpers.random_unitary_2x2(rng), helpers.random_unitary_2x2(rng))
    rho = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    return u @ rho @ u.conj().T


def partial_transpose(rhos):
    """rho^{T_B} of a (..., 4, 4) stack: <ab|rho^{T_B}|cd> = <ad|rho|cb>."""
    out = np.empty_like(rhos)
    for a, b, c, d in itertools.product(range(2), repeat=4):
        out[..., 2 * a + b, 2 * c + d] = rhos[..., 2 * a + d, 2 * c + b]
    return out


def screened(rhos):
    """Which matrices of a (N, 4, 4) stack skip the Wootters spectrum."""
    return measures._proven_separable(measures._hermitian_part(rhos))


class TestPptScreen:
    """The partial-transpose screen: separable pairs read exactly 0.0 without
    ``eigh`` or ``svd``, and every other pair its Wootters value, unchanged."""

    def stacks(self):
        rng = np.random.default_rng(28)
        out = {}
        for rank in (2, 3, 4):
            g = rng.normal(size=(300, 4, rank)) + 1j * rng.normal(size=(300, 4, rank))
            rho = g @ g.conj().swapaxes(-1, -2)
            out[f"mixed-rank-{rank}"] = rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
        states = [random_pure(4, 100 + seed) for seed in range(20)]
        out["pure-state-rdms"] = np.array([rdm(s, 0, 2) for s in states]
                                          + [rdm(s, 3, 1) for s in states])
        pure = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        pure /= np.linalg.norm(pure, axis=1, keepdims=True)
        out["pure"] = pure[:, :, None] * pure[:, None, :].conj()
        factors = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
        product = (factors[:, 0, :, None] * factors[:, 1, None, :]).reshape(50, 4)
        product /= np.linalg.norm(product, axis=1, keepdims=True)
        out["product"] = product[:, :, None] * product[:, None, :].conj()
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2.0)
        out["bell"] = np.outer(bell, bell)[None].astype(complex)
        out["corner"] = np.array([corner_matrix(x) for x in np.linspace(0.1, 3.0, 30)])
        open_chain = []
        for jx in (0.7, 1.3, 2.1):  # rank-deficient pairs
            s = vacuum(6)
            for _ in range(7):
                s = s @ helpers.ising_kick_dense(6, jx, "open").T
                open_chain += [rdm(s, i, j) for i, j in itertools.combinations(range(6), 2)]
        out["open-chain"] = np.array(open_chain)
        return out

    def test_matches_the_unscreened_path_bitwise(self, monkeypatch):
        stacks = self.stacks()
        got = {name: concurrences(rhos) for name, rhos in stacks.items()}
        mask = {name: screened(rhos) for name, rhos in stacks.items()}
        monkeypatch.setattr(measures, "_PPT_MARGIN", np.inf)  # nothing screened
        assert not any(screened(rhos).any() for rhos in stacks.values())
        for name, rhos in stacks.items():
            assert np.array_equal(got[name], concurrences(rhos)), name
        # both paths ran: the screen on mixed pairs; never on a pure pair,
        # whose partial transpose is singular or not positive
        for name in ("mixed-rank-3", "mixed-rank-4", "pure-state-rdms", "corner", "open-chain"):
            assert 0 < mask[name].sum() < len(mask[name]), name
        for name in ("pure", "product", "bell"):
            assert not mask[name].any(), name

    def test_screened_matrices_have_a_positive_partial_transpose(self):
        rhos = np.concatenate(list(self.stacks().values()))
        mask = screened(rhos)
        pt = partial_transpose(measures._hermitian_part(rhos))
        assert np.linalg.eigvalsh(pt[mask]).min() > measures._PPT_MARGIN
        assert np.all(concurrences(rhos)[mask] == 0.0)

    def test_werner_states_across_the_separable_edge(self):
        rng = np.random.default_rng(3)
        edge = 1.0 / 3.0
        ps = np.concatenate([np.linspace(0.0, 1.0, 61),
                             edge + np.array([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])])
        rhos = np.array([werner(p, rng) for p in ps])
        got = concurrences(rhos)
        below = ps < edge
        assert np.all(got[below] == 0.0)
        assert np.max(np.abs(got[~below] - (3 * ps[~below] - 1) / 2)) < 1e-12
        # far below the edge the screen proves it, near it the Wootters path reads 0.0
        mask = screened(rhos)
        assert mask[ps < edge - 1e-3].all() and not mask[~below].any()
        assert not mask[np.abs(ps - edge) <= 1e-9].any()

    def test_an_invalid_ppt_matrix_still_fails_the_stack(self):
        # p = -0.4: eigenvalue -0.05, but a positive partial transpose
        rng = np.random.default_rng(4)
        bad = werner(-0.4, rng)
        assert np.linalg.eigvalsh(bad).min() == pytest.approx(-0.05, abs=1e-12)
        assert np.linalg.eigvalsh(partial_transpose(bad)).min() > 0.1
        rhos = np.array([werner(p, rng) for p in (0.1, 0.9)] + [bad])
        assert screened(rhos).tolist() == [True, False, True]
        with pytest.raises(ValueError, match="eigenvalue -5"):
            concurrences(rhos)


class TestTangles:
    def test_one_tangle_product(self):
        assert one_tangles(vacuum(4))[0, 1] == 0.0

    def test_one_tangle_ghz(self):
        assert one_tangles(ghz(5))[0, 3] == pytest.approx(1.0, abs=1e-12)

    def test_one_tangle_cluster_value(self):
        s = cluster_state(6, np.pi / 3)
        assert one_tangles(s)[0, 2] == pytest.approx(1 - np.cos(np.pi / 6) ** 4, abs=1e-12)

    def test_q_vacuum(self):
        assert q_of(vacuum(5)) == 0.0

    def test_q_ghz(self):
        assert q_of(ghz(4)) == pytest.approx(1.0, abs=1e-12)

    def test_q_cluster_maximum(self):
        assert q_of(cluster_state(4, np.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_q_equals_spin_expectation_formula(self):
        for seed in range(5):
            s = random_pure(5, 200 + seed)
            total = 0.0
            for k in range(5):
                rho = helpers.brute_rdm1(s[0], k, 5)
                for pauli in (helpers.SX, helpers.SY, helpers.SZ):
                    total += np.trace(rho @ pauli / 2).real ** 2
            assert q_of(s) == pytest.approx(1 - 4 * total / 5, abs=1e-12)

    def test_n_tangle_ghz(self):
        assert n_tangle(ghz(4))[0] == pytest.approx(1.0, abs=1e-12)

    def test_n_tangle_vanishes_for_odd_counts(self):
        for L in (3, 5, 7):
            assert n_tangle(random_pure(L, 300 + L))[0] < 1e-12

    def test_n_tangle_cluster_value(self):
        assert n_tangle(cluster_state(6, np.pi / 2))[0] == pytest.approx(0.0625, abs=1e-12)

    def test_n_tangle_global_phase_invariant(self):
        s = random_pure(4, 42)
        rotated = np.exp(0.73j) * s
        assert n_tangle(rotated)[0] == pytest.approx(n_tangle(s)[0], abs=1e-12)

    def test_residual_tangle_product(self):
        assert report_of(vacuum(4), 0).residual_tangles[0] == pytest.approx(0.0, abs=1e-12)

    def test_residual_tangle_ghz3(self):
        assert report_of(ghz(3), 0).residual_tangles[0] == pytest.approx(1.0, abs=1e-12)

    def test_residual_tangle_cluster_maximum(self):
        s = cluster_state(4, np.pi)
        assert report_of(s, 0).residual_tangles[1] == pytest.approx(1.0, abs=1e-12)

    def test_monogamy_on_random_states(self):
        for seed in range(10):
            s = random_pure(5, 400 + seed)
            residual = report_of(s, 0).residual_tangles
            for focus in range(5):
                assert residual[focus] >= -1e-9

    def test_pair_concurrence_squared_is_one_tangle_for_two_qubits(self):
        for seed in range(10):
            s = random_pure(2, 700 + seed)
            c2 = concurrences(rdm(s, 0, 1)) ** 2
            assert c2 == pytest.approx(one_tangles(s)[0, 0], abs=1e-10)
            assert c2 == pytest.approx(one_tangles(s)[0, 1], abs=1e-10)


class TestBlockOneTangles:
    def test_matches_per_qubit_one_tangle(self):
        rng = np.random.default_rng(21)
        for L in range(2, 13):
            s = helpers.random_state(L, rng)[None]
            dets = [np.linalg.det(helpers.brute_rdm1(s[0], k, L)).real
                    for k in range(L)]
            want = np.clip(4.0 * np.array(dets), 0.0, 1.0)
            assert np.max(np.abs(one_tangles(s)[0] - want)) < 1e-12

    def test_summed_over_slices(self, monkeypatch):
        # slices smaller than a block row and than a block column
        rng = np.random.default_rng(22)
        states = [helpers.random_state(L, rng)[None] for L in (7, 11, 12)]
        whole = [(one_tangles(s), one_tangles(s, shift_invariant=True)) for s in states]
        monkeypatch.setattr(measures, "_RDM_CHUNK", 4)
        for s, (want, want_shift) in zip(states, whole):
            assert np.max(np.abs(one_tangles(s) - want)) < 1e-13
            assert np.max(np.abs(one_tangles(s, shift_invariant=True) - want_shift)) < 1e-13

    def test_product_and_cluster_values(self):
        assert np.all(one_tangles(vacuum(7)) == 0.0)
        assert np.allclose(one_tangles(ghz(9)), 1.0, atol=1e-12)
        s = cluster_state(8, np.pi / 2)
        assert np.allclose(one_tangles(s), 1 - np.cos(np.pi / 4) ** 4, atol=1e-12)


class TestShiftInvariantOneTangles:
    def test_match_the_block_path_on_kicked_rings(self):
        rng = np.random.default_rng(23)
        for L in range(2, 15):
            for initial in ("vacuum", "all_up", "ghz"):
                points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi))
                          for _ in range(3)]
                for stack in (points[:1], points):
                    for t, amps in helpers.samples(stack, initial, 3):
                        got = one_tangles(amps, shift_invariant=True)
                        assert got.shape == (len(stack), L)
                        assert np.max(np.abs(got - one_tangles(amps))) < 1e-12

    @pytest.mark.parametrize("chunk", [16, 256])
    def test_three_dots_a_slice_are_the_three_separate_sums(self, monkeypatch, chunk):
        # one pass over the slices takes the three dot products of the halves
        # in the same slices and order as three passes would: bit for bit
        def sliced(a, b):  # one pass of one dot product
            out = np.vecdot(a[:, :chunk], b[:, :chunk])
            for r in range(chunk, a.shape[-1], chunk):
                out += np.vecdot(a[:, r:r + chunk], b[:, r:r + chunk])
            return out

        monkeypatch.setattr(measures, "_RDM_CHUNK", chunk)
        rng = np.random.default_rng(31)
        for L in range(2, 19):
            stack = np.array([helpers.random_state(L, rng) for _ in range(2)])
            lo, hi = stack[:, :2 ** (L - 1)], stack[:, 2 ** (L - 1):]
            det = sliced(lo, lo).real * sliced(hi, hi).real - np.abs(sliced(lo, hi)) ** 2
            want = np.repeat(np.clip(4.0 * det, 0.0, 1.0)[:, None], L, axis=1)
            assert np.array_equal(one_tangles(stack, shift_invariant=True), want)


class TestNTangleSlices:
    def test_summed_over_slices(self, monkeypatch):
        rng = np.random.default_rng(24)
        stacks = [np.array([helpers.random_state(L, rng) for _ in range(3)]) for L in (6, 9, 12)]
        whole = [n_tangle(a) for a in stacks]
        monkeypatch.setattr(measures, "_RDM_CHUNK", 4)
        for a, want in zip(stacks, whole):
            assert np.max(np.abs(n_tangle(a) - want)) < 1e-13


    def test_parity_signs_from_the_index_halves(self):
        for L in range(1, 15):
            idx = np.arange(2 ** L)
            popcount = sum((idx >> k) & 1 for k in range(L))
            signs = measures._parity_signs(L)
            assert signs.dtype == np.int8
            assert np.array_equal(signs, 1 - 2 * (popcount & 1))


class TestNTangleHalfSum:
    """The n-tangle sums half the basis and makes no stack-wide temporary."""

    @staticmethod
    def full_sum(a):
        # the sum over every basis index with the int8 signs of the whole row
        L = a.shape[-1].bit_length() - 1
        signs = measures._parity_signs(L)
        total = np.matmul((a[:, ::-1] * signs)[:, None, :], a[:, :, None])[:, 0, 0]
        return np.minimum(np.hypot(total.real, total.imag) ** 2, 1.0)

    def test_matches_the_full_sum_on_random_states(self):
        rng = np.random.default_rng(25)
        for L in range(2, 17, 2):
            a = np.array([helpers.random_state(L, rng) for _ in range(3)])
            want = self.full_sum(a)
            assert np.max(np.abs(n_tangle(a) - want) / want) < 1e-14

    def test_as_exact_as_the_full_sum_on_kicked_states(self):
        # near 0 the n-tangle has no relative precision to compare, so the
        # sum's modulus is compared with the exactly added products of the
        # full sum (math.fsum): a sum of 2^L terms of total modulus <= 1 is
        # good to about sqrt(2^L) roundings.  The half sum keeps within it;
        # the full sum it replaced errs by up to 6.4e-14 at L = 16, just over
        rng = np.random.default_rng(26)
        for L in (4, 8, 12, 16):
            signs = measures._parity_signs(L)
            for initial in ("vacuum", "ghz"):
                points = [ChainParams(L, *rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi))
                          for _ in range(3)]
                for _, amps in helpers.samples(points, initial, 4):
                    terms = amps[:, ::-1] * signs * amps
                    exact = np.array([min(abs(complex(math.fsum(t.real), math.fsum(t.imag))), 1.0)
                                      for t in terms])  # clipped, as the measure is
                    bound = 2 ** (L / 2) * np.finfo(float).eps
                    assert np.max(np.abs(np.sqrt(n_tangle(amps)) - exact)) < bound

    def test_odd_counts_read_exactly_zero(self):
        rng = np.random.default_rng(27)
        for L in (1, 3, 5, 7, 9):
            a = np.array([helpers.random_state(L, rng) for _ in range(2)])
            assert np.array_equal(n_tangle(a), np.zeros(2))

    def test_no_temporary_spans_the_stack(self):
        import tracemalloc

        rng = np.random.default_rng(28)
        for rows in (4, 16):
            a = np.array([helpers.random_state(12, rng) for _ in range(rows)])
            n_tangle(a)  # fills the sign cache
            tracemalloc.start()
            try:
                n_tangle(a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # half of the 322 KiB the full sum over the stack took for 4 rows
            assert peak <= 161 * 1024


class TestRingPairRdms:
    """The pairs (L-1-d, L-1) of a row from its halves' Gram and cross blocks."""

    def test_matches_brute_force_for_every_ring_distance(self):
        rng = np.random.default_rng(29)
        for L in range(2, 15):
            stack = np.array([helpers.random_state(L, rng) for _ in range(3)])
            for rows in (stack[:1], stack):
                got = measures._ring_pair_rdms(rows)
                assert got.shape == (len(rows), L // 2, 4, 4)
                for p, row in enumerate(rows):
                    for d in range(1, L // 2 + 1):
                        want = helpers.brute_rdm2(row, L - 1 - d, L - 1, L)
                        assert np.max(np.abs(got[p, d - 1] - want)) < 1e-13

    @pytest.mark.parametrize("chunk", [4, 16, 64])
    def test_summed_over_slices(self, monkeypatch, chunk):
        rng = np.random.default_rng(30)
        stacks = [np.array([helpers.random_state(L, rng) for _ in range(3)]) for L in (7, 10, 13)]
        whole = [measures._ring_pair_rdms(a) for a in stacks]
        monkeypatch.setattr(measures, "_RDM_CHUNK", chunk)
        for a, want in zip(stacks, whole):
            assert np.max(np.abs(measures._ring_pair_rdms(a) - want)) < 1e-15

    def test_no_temporary_outgrows_a_slice(self):
        import tracemalloc

        a = helpers.random_state(18, np.random.default_rng(31))[None]  # a 4 MiB row
        measures._ring_pair_rdms(a)
        tracemalloc.start()
        try:
            measures._ring_pair_rdms(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * measures._RDM_CHUNK


class TestLocalUnitaryInvariance:
    def test_measures_preserved(self):
        rng = np.random.default_rng(55)
        s = random_pure(4, 500)
        us = [helpers.random_unitary_2x2(rng) for _ in range(4)]
        rotated = helpers.apply_local_unitaries(s[0], us)[None]
        assert q_of(rotated) == pytest.approx(q_of(s), abs=1e-10)
        for k in range(4):
            assert one_tangles(rotated)[0, k] == pytest.approx(one_tangles(s)[0, k], abs=1e-10)
        for (i, j) in [(0, 1), (1, 3)]:
            assert concurrences(rdm(rotated, i, j)) == pytest.approx(
                concurrences(rdm(s, i, j)), abs=1e-10)


class TestReport:
    def test_vacuum_report_all_zero(self):
        r = report_of(vacuum(4), 0)
        assert r.q_measure == 0.0
        assert r.n_tangle == 0.0
        assert r.nn_concurrence == 0.0
        assert r.residual_tangle == 0.0
        assert r.sum_two_tangles == 0.0

    def test_ghz_report(self):
        r = report_of(ghz(4), 3)
        assert r.t == 3
        assert r.q_measure == pytest.approx(1.0, abs=1e-12)
        assert r.n_tangle == pytest.approx(1.0, abs=1e-12)
        assert np.max(r.pair_concurrences) < 1e-9
        assert r.value("one_tangle") == r.q_measure == pytest.approx(r.one_tangles.mean(),
                                                                    abs=1e-15)

    def test_monogamy_inside_report(self):
        r = report_of(random_pure(6, 600), 0)
        slack = r.one_tangles - r.sum_two_tangles_per_qubit
        assert slack.min() >= -1e-9
        assert np.min(r.residual_tangles) >= -1e-9

    def test_nn_concurrence_averages_the_chain_bonds(self):
        for L in range(2, 7):
            table = np.arange(L * L, dtype=float).reshape(L, L)
            table = table + table.T
            for boundary, closed in (("periodic", L > 2), ("open", False)):
                (got,) = measures._pair_columns(np.zeros((1, L)), table[None],
                                                boundary)["nn_concurrence"]
                bonds = [table[i, i + 1] for i in range(L - 1)] + [table[0, L - 1]] * closed
                assert got == pytest.approx(np.mean(bonds), abs=1e-12)

    def test_pairwise_skip(self):
        r = report_of(random_pure(5, 601), 2, pair_measures=False)
        assert r.pair_concurrences is None
        assert r.nn_concurrence is None
        assert r.q_measure >= 0.0
        with pytest.raises(ValueError):
            r.value("nn_concurrence")

    def test_n_tangle_skip(self):
        r = report_of(random_pure(5, 602), 2, n_tangle_measure=False)
        assert r.n_tangle is None
        assert r.pair_concurrences is not None
        with pytest.raises(ValueError):
            r.value("n_tangle")

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError):
            report_of(vacuum(4), 0, boundary="ring")

    def test_shift_invariant_table_needs_a_ring(self):
        with pytest.raises(ValueError, match="ring shift"):
            report_of(vacuum(4), 0, boundary="open", shift_invariant=True)

    @pytest.mark.parametrize("num_qubits", [6, 7])
    def test_shift_invariant_table_is_filled_by_ring_distance(self, num_qubits):
        L = num_qubits
        s = kicked(ChainParams(L, 0.9, 1.1, 0.6), 3)
        full = report_of(s, 3).pair_concurrences
        reduced = report_of(s, 3, shift_invariant=True).pair_concurrences
        assert np.max(np.abs(reduced - full)) < 1e-12
        for i, j in itertools.permutations(range(L), 2):
            d = min(abs(i - j), L - abs(i - j))
            assert reduced[i, j] == reduced[0, d]
        assert np.all(np.diag(reduced) == 0.0)

    def test_batched_columns_equal_a_report_alone(self):
        # a batch reduces each report's row as a batch of that row alone
        # does: every field of every report agrees bit for bit
        for boundary in ("periodic", "open"):
            amps = np.concatenate([kicked(ChainParams(7, 0.9, 1.1, 0.6, boundary), t)
                                   for t in range(5)])
            batch = ReportBatch(boundary=boundary)
            batch.add(amps, list(range(5)))
            for p, r in enumerate(batch.finish()):
                alone = report_of(amps[p:p + 1], p, boundary=boundary)
                for name, value in vars(r).items():
                    assert np.array_equal(value, getattr(alone, name)), name

    def test_value_lookup(self):
        r = report_of(ghz(4), 1)
        assert r.value("q") == r.q_measure
        assert r.value("n_tangle") == r.n_tangle
        with pytest.raises(KeyError):
            r.value("entropy")

    def test_measures_in_range_on_dynamical_states(self):
        for t, s in helpers.samples([ChainParams(5, 1.2, 0.9, 0.6)], "vacuum", 5):
            r = report_of(s, t)
            assert -1e-9 <= r.q_measure <= 1 + 1e-9
            assert -1e-9 <= r.n_tangle <= 1 + 1e-9
            assert np.all(r.pair_concurrences >= -1e-9)
            assert np.all(r.pair_concurrences <= 1 + 1e-9)
