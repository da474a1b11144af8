"""Closed forms against their definitions and against brute-force evolution."""

import numpy as np
import pytest

import helpers
from kicked_ising import (
    ChainParams,
    RunConfig,
    cluster_n_tangle,
    cluster_nn_concurrence,
    cluster_q,
    jw_q_vacuum,
    jw_sz_profile,
    one_tangles,
    run_time_series,
    sym_cluster_n_tangle,
)
from kicked_ising.analytic import _even_momenta, _mode_arrays, jw_q_average

# the lines where the modes' eigenvector ratios degenerate: sin(j_x/2) = 0
# (j_x = 0, 2 pi), sin B = 0 (B = 0, pi), and small j_x and B together
DEGENERATE_COUPLINGS = (0.0, 2 * np.pi, 1e-8)
DEGENERATE_FIELDS = (0.0, np.pi, 1e-8)
# every pair of them, and each against a generic value of the other
DEGENERATE_POINTS = [(jx, b) for jx in DEGENERATE_COUPLINGS + (1.1,)
                     for b in DEGENERATE_FIELDS + (0.9,)][:-1]


def series(params, steps, initial="vacuum", measures=("q",)):
    """The run's reports at kicks 1..steps."""
    return run_time_series(RunConfig(params, steps, initial, frozenset(measures)))[1:]


def assert_matches_state_vector(L, jx, b, steps):
    """jw_q_vacuum kick by kick, and jw_q_average over the window, within 1e-12
    of the run's Q from the vacuum."""
    numeric = [r.q_measure for r in series(ChainParams(L, jx, b, np.pi / 2), steps)]
    assert np.max(np.abs(jw_q_vacuum(L, jx, b, np.arange(1, steps + 1)) - numeric)) < 1e-12
    assert abs(jw_q_average(L, np.array([jx]), np.array([b]), steps)[0] - np.mean(numeric)) < 1e-12


def z_basis_q(L, jx, b, steps):
    """Q at kicks 1..steps of the dense z-basis walk from the vacuum.  A product
    state's Q reads below 1e-20 there; in the run's frame, whose one-qubit
    gates spread every amplitude, it reads rounding (~3e-16)."""
    u = helpers.step_dense(L, jx, b, np.pi / 2)
    psi, out = helpers.z_start(L, "vacuum"), []
    for _ in range(steps):
        psi = psi @ u.T
        out.append(one_tangles(psi).mean())
    return out


class TestClusterQ:
    def test_zero_time(self):
        assert cluster_q(0.7, 0.0, "periodic", 6) == 0.0

    def test_periodic_maximum(self):
        jx = 0.9
        assert cluster_q(jx, np.pi / jx, "periodic", 8) == pytest.approx(1.0, abs=1e-12)

    def test_open_two_qubits_half_way(self):
        jx = 1.3
        t = np.pi / (2 * jx)
        assert cluster_q(jx, t, "open", 2) == pytest.approx(0.5, abs=1e-12)

    def test_open_two_qubits_reduces_to_pair_tangle(self):
        ts = np.linspace(0, 12, 200)
        got = cluster_q(0.8, ts, "open", 2)
        assert np.max(np.abs(got - np.sin(0.8 * ts / 2) ** 2)) < 1e-12

    def test_periodicity(self):
        jx = 1.1
        ts = np.linspace(0, 5, 50)
        assert np.max(np.abs(cluster_q(jx, ts, "periodic", 6)
                             - cluster_q(jx, ts + 2 * np.pi / jx, "periodic", 6))) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            cluster_q(0.5, 1.0, "periodic", 2)
        with pytest.raises(ValueError):
            cluster_q(0.5, 1.0, "open")
        with pytest.raises(ValueError):
            cluster_q(0.5, 1.0, "twisted", 4)


class TestClusterConcurrence:
    def test_zero_time(self):
        assert cluster_nn_concurrence(0.7, 0.0) == 0.0

    def test_vanishes_at_q_maximum(self):
        jx = 0.6
        assert cluster_nn_concurrence(jx, np.pi / jx) == 0.0

    def test_quarter_period_value(self):
        jx = 1.0
        assert cluster_nn_concurrence(jx, np.pi / 2) == pytest.approx(0.25, abs=1e-12)

    def test_dead_zone(self):
        # identically zero wherever |tan(jx t / 2)| > 2
        jx = 1.0
        ts = np.linspace(0.01, 2 * np.pi - 0.01, 800)
        dead = np.abs(np.tan(jx * ts / 2)) > 2
        vals = cluster_nn_concurrence(jx, ts)
        assert np.all(vals[dead] == 0.0)
        assert np.all(vals[~dead] >= 0.0)


class TestClusterNTangle:
    def test_zero_time(self):
        assert cluster_n_tangle(0.9, 0.0, 4) == 0.0

    def test_vanishes_at_q_maximum(self):
        jx = 0.9
        assert cluster_n_tangle(jx, np.pi / jx, 4) == pytest.approx(0.0, abs=1e-14)

    def test_quarter_period_values(self):
        jx = 2.0
        assert cluster_n_tangle(jx, np.pi / (2 * jx), 4) == pytest.approx(0.25, abs=1e-12)
        assert cluster_n_tangle(jx, np.pi / (2 * jx), 6) == pytest.approx(0.0625, abs=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            cluster_n_tangle(1.0, 0.5, 5)
        with pytest.raises(ValueError):
            cluster_n_tangle(1.0, 0.5, 2)


class TestSymmetrizedNTangle:
    def test_initial_ghz(self):
        assert sym_cluster_n_tangle(0.7, 0.0, 4) == pytest.approx(1.0, abs=1e-14)

    def test_return_to_unity(self):
        jx = 0.7
        for L in (4, 6, 8):
            assert sym_cluster_n_tangle(jx, np.pi / jx, L) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_period_vanishes_at_four_qubits(self):
        # |cos^2(pi/4) + i^2 sin^2(pi/4)|^4 = 0; confirmed by direct evolution
        jx = 1.0
        assert sym_cluster_n_tangle(jx, np.pi / (2 * jx), 4) == pytest.approx(0.0, abs=1e-14)

    def test_matches_numeric_ghz_evolution(self):
        for L in (4, 6):
            jx = 0.83
            for r in series(ChainParams(L, jx, 0.0, 0.0), 15, "ghz", ("n_tangle",)):
                assert r.n_tangle == pytest.approx(sym_cluster_n_tangle(jx, r.t, L), abs=1e-10)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            sym_cluster_n_tangle(1.0, 0.5, 5)


class TestModes:
    def test_even_momentum_grid(self):
        assert _even_momenta(4) == pytest.approx([np.pi / 4, 3 * np.pi / 4])

    def test_normalization(self):
        for (jx, b) in [(np.pi / 2, np.pi / 3), (1.1, 0.4), (2.7, 2.0), (0.3, 2.9)]:
            _, cos_2phi, sin_2phi = _mode_arrays(_even_momenta(10), jx, b)
            assert cos_2phi ** 2 + sin_2phi ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_quasi_energy_angle(self):
        jx, b = 1.7, 0.6
        qs = _even_momenta(8)
        want = np.cos(b) * np.cos(jx / 2) - np.cos(qs) * np.sin(b) * np.sin(jx / 2)
        assert np.cos(_mode_arrays(qs, jx, b)[0]) == pytest.approx(want, abs=1e-12)
        assert np.all(np.abs(want) <= 1.0)

    def test_mode_form_evolves_the_dense_block(self):
        # V^t e_0 = pref^t (conj zeta_q, -i e^{iB} eta_q) with
        # zeta_q = cos(theta t) - i cos(2phi) sin(theta t), eta_q = sin(2phi) sin(theta t)
        qs = _even_momenta(8)
        for (jx, b) in [(np.pi / 2, np.pi / 3), (1.1, 0.4), (2.7, 2.0)] + DEGENERATE_POINTS:
            theta, cos_2phi, sin_2phi = _mode_arrays(qs, jx, b)
            for k, q in enumerate(qs):
                block = helpers.v_q_block(jx, b, q)
                prefactor = np.exp(-1j * ((jx / 2) * np.cos(q) + b))
                v = np.array([1.0, 0.0], dtype=complex)
                for t in range(40):
                    c, s = np.cos(theta[k] * t), np.sin(theta[k] * t)
                    want = prefactor ** t * np.array(
                        [c + 1j * cos_2phi[k] * s, -1j * np.exp(1j * b) * sin_2phi[k] * s])
                    assert np.max(np.abs(v - want)) < 1e-12
                    v = block @ v

    def test_mode_unitarity_over_time(self):
        ts = np.arange(0, 200)[:, None]
        for (jx, b) in [(1.3, 0.8)] + DEGENERATE_POINTS:
            theta, cos_2phi, sin_2phi = _mode_arrays(_even_momenta(6), jx, b)
            cos_t, sin_t = np.cos(theta * ts), np.sin(theta * ts)  # (kick, q)
            zeta = cos_t - 1j * cos_2phi * sin_t
            eta = sin_2phi * sin_t
            budget = np.abs(zeta) ** 2 + np.abs(eta) ** 2
            assert np.max(np.abs(budget - 1.0)) < 1e-14

    def test_rejects_odd_chain(self):
        with pytest.raises(ValueError):
            jw_q_vacuum(5, 1.0, 0.5, np.arange(3))
        with pytest.raises(ValueError):
            jw_q_average(5, np.array([1.0]), np.array([0.5]), 10)
        with pytest.raises(ValueError):
            jw_sz_profile(5, 1.0, 0.5, [0, 1], 3)


class TestJwQ:
    def test_zero_time(self):
        assert jw_q_vacuum(8, 1.0, 0.7, 0) == pytest.approx(0.0, abs=1e-14)

    def test_matches_numeric_evolution(self):
        L = 10
        for r in series(ChainParams(L, np.pi / 2, np.pi / 3, np.pi / 2), 30):
            assert r.q_measure == pytest.approx(jw_q_vacuum(L, np.pi / 2, np.pi / 3, r.t),
                                                abs=1e-8)

    def test_window_average_is_the_mean_of_the_trace(self):
        # j_x = pi pairs the quasi-energies; on sin(j_x/2) = 0 and sin B = 0 the
        # eigenvector ratios degenerate, and on sin B = 0 the quasi-energies are
        # all j_x/2, so the 2 j_x term resonates at j_x = pi
        jx = np.array([0.3, np.pi, 2 * np.pi, 1.1, 4.0, 0.0, 5.5, np.pi, 9.5, -1.3])
        b = np.array([0.4, 0.9, 0.5, 0.0, np.pi, 1.3, 2.9, 0.0, np.pi, 0.0])
        for L, steps in ((4, 1), (6, 2), (8, 37), (20, 1000), (40, 3000), (8, 10 ** 5)):
            got = jw_q_average(L, jx, b, steps)
            for k in range(len(jx)):
                trace = jw_q_vacuum(L, jx[k], b[k], np.arange(1, steps + 1))
                assert abs(got[k] - np.mean(trace)) < 1e-12

    @pytest.mark.parametrize("steps", [0, -3, 2.5, np.float64(4.0)])
    def test_window_must_be_whole_kicks(self, steps):
        with pytest.raises(ValueError, match="steps"):
            jw_q_average(8, np.array([1.1]), np.array([0.4]), steps)
        assert jw_q_average(8, np.array([1.1]), np.array([0.4]), np.int64(3)).shape == (1,)

    def test_dirichlet_kernel_is_the_window_mean_of_its_phases(self):
        from kicked_ising.analytic import _PI_LO, _dirichlet

        # h = 0 is the 0/0 of the ratio; float(pi) and 2 float(pi) miss their
        # multiples of pi by 1.2e-16 and 2.4e-16, and 1e-13 is as near to zero
        hs = np.array([0.0, 1e-13, -4e-10, 0.3, np.pi / 2, np.pi, np.pi - 2e-11, -2.5,
                       2 * np.pi, 6.1])
        for steps in (1, 7, 1000, 10 ** 5):
            t = np.arange(1, steps + 1, dtype=np.longdouble)
            want = np.cos(2 * np.outer(hs.astype(np.longdouble), t)).mean(axis=1)
            assert np.max(np.abs(_dirichlet(hs, 0.0, steps) - want)) < 1e-14
            # float(pi) plus its low part is pi to within 1e-32, a resonance
            assert abs(_dirichlet(np.pi, _PI_LO, steps) - 1.0) < 1e-14

    @pytest.mark.parametrize("steps", [1, 7, 1000, 10 ** 6])
    def test_dirichlet_kernel_is_bitwise_the_reference(self, steps):
        # the kernel changes only the reference's array handling, so every
        # element takes the same operations: where |d| T < 1e-6 (the series;
        # 0 and pi with its low part are the 0/0 of the tangent form), where
        # it is not, on a mix, and on scalars and 0-d arrays
        from kicked_ising.analytic import _PI_LO, _dirichlet

        rng = np.random.default_rng(41)
        tiny = 9e-7 / steps
        small = np.concatenate([[0.0, np.pi, -2 * np.pi], rng.uniform(-tiny, tiny, 20),
                                np.pi + rng.uniform(-tiny, tiny, 20)])
        large = rng.choice([-1.0, 1.0], 40) * rng.uniform(0.05, 3.09, 40)
        mixed = rng.permutation(np.concatenate([small, large, rng.uniform(-6.2, 6.2, 37)]))
        # the distance to the nearest multiple of pi sets which form a point takes
        assert np.all(np.abs(np.remainder(small + np.pi / 2, np.pi) - np.pi / 2) * steps < 1e-6)
        for hi in (small, large, mixed, mixed.reshape(12, 10).T):
            for lo in (0.0, np.where(np.abs(hi) > 3.0, np.sign(hi) * _PI_LO, 0.0)):
                got, want = _dirichlet(hi, lo, steps), helpers.dirichlet_reference(hi, lo, steps)
                assert np.array_equal(got, want)
                # the caller's sums add in the result's memory order
                assert got.flags.f_contiguous == want.flags.f_contiguous
        for hi, lo in ((np.pi, _PI_LO), (0.3, 0.0), (np.float64(1e-12), 0.0),
                       (np.array(-2.9), 0.0), (np.array(4e-8 / steps), 1e-20), (0.0, 0.0)):
            got = _dirichlet(hi, lo, steps)
            assert np.ndim(got) == 0
            assert np.array_equal(got, helpers.dirichlet_reference(hi, lo, steps))

    def test_average_is_bitwise_with_the_reference_kernel(self, monkeypatch):
        # the pair sums add in the memory order of the kernel's result, so
        # with the reference kernel swapped in the average is the same to the bit
        from kicked_ising import analytic

        rng = np.random.default_rng(43)
        jx, b = rng.uniform(0.0, 2 * np.pi, (2, 60))
        jx[:4], b[:4] = [np.pi, 0.0, np.pi + 1e-9, 1e-13], [0.9, 1.3, 2.2, 0.0]
        for L in (4, 10, 20):
            for steps in (1, 1000, 10 ** 6):
                got = jw_q_average(L, jx, b, steps)
                with monkeypatch.context() as patch:
                    patch.setattr(analytic, "_dirichlet", helpers.dirichlet_reference)
                    want = jw_q_average(L, jx, b, steps)
                assert np.array_equal(got, want)

    def test_window_average_is_exact_at_resonances_of_long_windows(self):
        # near j_x = pi, theta_q + theta_{pi-q} lies within ~1e-9 of pi, so the
        # Dirichlet kernel needs that distance to full relative precision
        steps = 10 ** 6
        jx = np.array([np.pi, np.pi + 1e-9, np.pi - 1e-9, np.pi - 1e-6])
        for b in (0.9, 2.2):
            got = jw_q_average(8, jx, np.full(len(jx), b), steps)
            for k in range(len(jx)):
                trace = jw_q_vacuum(8, jx[k], b, np.arange(1, steps + 1))
                assert abs(got[k] - np.mean(trace)) < 1e-12

    def test_near_zero_field_takes_the_generic_modes(self):
        for b in (3e-12, 1e-11, 4e-11, np.pi - 3e-12):
            assert_matches_state_vector(8, 0.5, b, 30)

    def test_degenerate_parameters_match_the_state_vector(self):
        # an eigenvector ratio written (P -/+ sin(theta_q)) / (sin(j_x/2) sin q)
        # is 0/0 on these lines, and was off by 0.97 at j_x = B = 1e-8
        for (jx, b) in DEGENERATE_POINTS:
            assert_matches_state_vector(8, jx, b, 200)
        assert_matches_state_vector(12, 1e-8, 1e-8, 50)

    def test_small_coupling_and_field_match_the_state_vector(self):
        # that ratio cancels as sin(theta_q) sin(q) sin(j_x/2) shrinks: it was
        # off by 1.8e-11 at (1e-4, 1e-3), and at (4e-6, 1.848e-6) the product
        # is 5.9e-13 for q = 7 pi/8
        for (jx, b) in [(1e-4, 1e-3), (4e-6, 1.848e-6)]:
            assert_matches_state_vector(8, jx, b, 200)

    def test_special_point_all_or_nothing(self):
        L = 10
        for t in range(1, 26):
            want = 0.0 if t % (L // 2) == 0 else 1.0
            assert jw_q_vacuum(L, np.pi, np.pi / 2, t) == pytest.approx(want, abs=1e-12)

    def test_zero_field_routes_to_cluster_form(self):
        ts = np.arange(0, 50)
        got = jw_q_vacuum(8, 1.3, 0.0, ts)
        assert np.max(np.abs(got - cluster_q(1.3, ts, "periodic", 8))) < 1e-12
        # B = pi commutes with the coupling just like B = 0
        got_pi = jw_q_vacuum(8, 1.3, np.pi, ts)
        assert np.max(np.abs(got_pi - cluster_q(1.3, ts, "periodic", 8))) < 1e-12

    def test_trivial_coupling_never_entangles(self):
        # sin(j_x/2) is 0 and 1e-16: the state vector stays a product state
        for jx in (0.0, 2 * np.pi):
            assert_matches_state_vector(8, jx, 0.5, 1000)
            assert np.max(z_basis_q(8, jx, 0.5, 1000)) < 1e-20

    def test_weak_coupling_matches_the_state_vector(self):
        # sin(j_x/2) sin(pi/L) is 8e-13: the state vector stays a product state
        # to 1e-20, and both closed forms follow it with no route of their own
        assert_matches_state_vector(8, 4e-12, 0.5, 1000)
        assert np.max(z_basis_q(8, 4e-12, 0.5, 1000)) < 1e-20

    def test_degenerate_routing_matches_numeric(self):
        # B = pi commutes with the coupling, as B = 0 does
        assert_matches_state_vector(6, 0.9, np.pi, 12)


class TestSzProfile:
    def test_vacuum_is_uniform(self):
        out = jw_sz_profile(8, 1.1, 0.6, [], 7)
        assert np.max(np.abs(out - out[0])) < 1e-12
        # uniform level ties back to Q = 4x(1-x)
        x = out[0] + 0.5
        assert 4 * x * (1 - x) == pytest.approx(jw_q_vacuum(8, 1.1, 0.6, 7), abs=1e-12)

    def test_initial_condition(self):
        out = jw_sz_profile(8, 1.1, 0.6, [2, 5], 0)
        want = np.full(8, -0.5)
        want[[2, 5]] = 0.5
        assert np.max(np.abs(out - want)) < 1e-10

    def test_matches_brute_force_evolution(self):
        # the decisive check of every sign and phase convention in the modes
        L = 8
        cases = [((0, 1), np.pi / 2, np.pi / 3, 3),
                 ((0, 1), 1.1, 0.4, 5),
                 ((2, 5), 2.7, 2.0, 4),
                 ((1, 2, 4, 7), 1.9, 0.8, 6),
                 ((0, 3), 1.1, 0.0, 5),  # sin B = 0, where the field commutes
                 ((1, 6), 0.9, np.pi, 4),
                 ((2, 5), 1e-8, 1e-8, 7)]
        for sites, jx, b, t_max in cases:
            bits = ["0"] * L
            for s_ in sites:
                bits[L - 1 - s_] = "1"
            psi = np.zeros(2 ** L, dtype=complex)
            psi[int("".join(bits), 2)] = 1.0
            dense = helpers.step_dense(L, jx, b, np.pi / 2)
            for _ in range(t_max):
                psi = dense @ psi
            want = helpers.sz_profile_dense(psi, L)
            got = jw_sz_profile(L, jx, b, list(sites), t_max)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_trivial_coupling_keeps_occupations(self):
        out = jw_sz_profile(6, 0.0, 0.9, [1, 4], 9)
        want = np.full(6, -0.5)
        want[[1, 4]] = 0.5
        assert np.allclose(out, want)

    def test_rejects_odd_fermion_number(self):
        with pytest.raises(ValueError):
            jw_sz_profile(8, 1.0, 0.5, [3], 2)

    def test_rejects_bad_sites(self):
        with pytest.raises(ValueError):
            jw_sz_profile(8, 1.0, 0.5, [3, 3], 2)
        with pytest.raises(ValueError):
            jw_sz_profile(8, 1.0, 0.5, [3, 9], 2)


class TestWholeKicks:
    """The modes are exact only at whole kicks, so the mode forms take no other t."""

    @pytest.mark.parametrize("t", [2.5, -3, -3.0, np.nan, np.inf])
    def test_rejects_t_off_the_kick_grid(self, t):
        with pytest.raises(ValueError):
            jw_q_vacuum(8, 1.1, 0.4, t)
        with pytest.raises(ValueError):
            jw_q_vacuum(8, 1.1, 0.4, np.array([0.0, 1.0, t]))
        with pytest.raises(ValueError):
            jw_sz_profile(8, 1.1, 0.4, [2, 5], t)

    def test_accepts_whole_valued_floats(self):
        # compare samples its closed forms at np.arange(t_max + 1, dtype=float)
        ts = np.arange(6)
        assert np.array_equal(jw_q_vacuum(8, 1.1, 0.4, ts.astype(float)),
                              jw_q_vacuum(8, 1.1, 0.4, ts))
        assert jw_q_vacuum(8, 1.1, 0.4, 3.0) == jw_q_vacuum(8, 1.1, 0.4, np.int64(3))
        assert np.array_equal(jw_sz_profile(8, 1.1, 0.4, [2, 5], 3.0),
                              jw_sz_profile(8, 1.1, 0.4, [2, 5], 3))


class TestOracleAgreement:
    """Trimmed version of the full closed-form-vs-numeric sweep (the
    acceptance suite runs the L in {4,6,8,10}, t <= 100 version)."""

    def test_cluster_forms_track_numeric(self):
        for L, jx in [(4, 0.7), (6, np.pi / 2)]:
            for r in series(ChainParams(L, jx, 0.0, 0.0), 25, measures=("q", "n_tangle")):
                assert r.q_measure == pytest.approx(
                    cluster_q(jx, r.t, "periodic", L), abs=1e-10)
                assert r.n_tangle == pytest.approx(
                    cluster_n_tangle(jx, r.t, L), abs=1e-10)

    def test_transverse_forms_track_numeric(self):
        for L, jx, b in [(4, 1.1, 0.4), (6, 2.7, 2.0)]:
            for r in series(ChainParams(L, jx, b, np.pi / 2), 25):
                assert r.q_measure == pytest.approx(jw_q_vacuum(L, jx, b, r.t), abs=1e-8)
