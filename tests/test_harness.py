"""Time series, averaging, sweeps, and the numeric-vs-analytic drivers."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import helpers
from kicked_ising import (
    AxisSpec,
    ChainParams,
    NoAnalyticOracleError,
    RunConfig,
    SweepConfig,
    SweepPointError,
    cluster_q,
    compare_numeric_analytic,
    jw_q_vacuum,
    run_time_series,
    sweep_grid,
    sym_cluster_n_tangle,
    time_average,
)
from kicked_ising import measures
from kicked_ising.harness import (
    MEASURES,
    REGIMES,
    SWEEP_PARAMETERS,
    _evolve,
    _jw_mask,
    _shift_invariant,
    _start_terms,
)

# time-averaged Q for (L=6, j_x=B=theta=pi/4, 1000 kicks); recorded from the
# first validated build, pinned here as the determinism fixture
GOLDEN_TILTED_Q_AVG = 0.4998684172838856


def quick_params(**kw):
    base = dict(num_qubits=4, j_x=0.7, b_field=0.0, theta=0.0, boundary="periodic")
    base.update(kw)
    return ChainParams(**base)


def per_point_averages(cfg):
    """The sweep's reference: each grid point's own time series, averaged."""
    out = np.empty((cfg.axis1.count, cfg.axis2.count))
    for i, v1 in enumerate(cfg.axis1.values()):
        for j, v2 in enumerate(cfg.axis2.values()):
            params = replace(cfg.fixed, **{cfg.axis1.name: v1, cfg.axis2.name: v2})
            run = RunConfig(params=params, steps=cfg.steps, initial=cfg.initial,
                            measures=frozenset({cfg.measure}))
            out[i, j] = time_average(run_time_series(run), cfg.measure)
    return out


class TestInitialState:
    def test_named_states(self):
        assert _start_terms(4, "vacuum") == [(0, 1.0)]
        assert _start_terms(4, "all_up") == [(15, 1.0)]
        (low, a), (high, b) = _start_terms(4, "ghz")
        assert (low, high) == (0, 15) and a == b == pytest.approx(2 ** -0.5)
        assert _start_terms(4, "0110") == [(0b0110, 1.0)]

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            _start_terms(4, "thermal")
        with pytest.raises(ValueError):
            _start_terms(4, "01")


class TestXFrameStart:
    def test_is_the_transformed_start_in_the_frame(self):
        # the z-basis start under each row's own diag(r) H on every qubit, one
        # qubit at a time, to rounding: the product vector multiplies the same
        # factors in another order
        rng = np.random.default_rng(31)
        for L in (2, 3, 6, 9, 14, 17):
            bitstrings = ["".join(rng.choice(["0", "1"], L)) for _ in range(2)]
            for boundary in ("periodic", "open"):
                points = [quick_params(num_qubits=L, boundary=boundary, b_field=b, theta=theta)
                          for b, theta in rng.uniform(0, 3, (3, 2))]
                kick = helpers.kick_of(points)
                for initial in ("vacuum", "all_up", "ghz", *bitstrings):
                    want = np.tile(helpers.z_start(L, initial), (3, 1))
                    for p, r in enumerate(kick._right):
                        for k in range(L):
                            want[p] = helpers.apply_one_qubit_gate(
                                want[p], np.diag(r) @ helpers.HADAMARD, k)
                    got = kick.start(_start_terms(L, initial))
                    assert np.max(np.abs(got - want)) <= 1e-15

    def test_is_bitwise_the_product_vector_reference(self):
        # as r_0 = 1 exactly, the gather from the powers of r_1 multiplies the
        # same factors in the same order as a product built one qubit at a
        # time; B = 0 gives r_1 = 1, and theta = pi/2 gives r_1 = -i, with a zero part
        rng = np.random.default_rng(37)
        for L in (2, 3, 5, 8, 13, 16):
            bitstrings = ["".join(rng.choice(["0", "1"], L)) for _ in range(2)]
            fields = [*rng.uniform(-3, 3, (3, 2)), (0.0, 1.1), (0.8, np.pi / 2)]
            for boundary in ("periodic", "open"):
                kick = helpers.kick_of([quick_params(num_qubits=L, boundary=boundary, b_field=b,
                                                     theta=theta) for b, theta in fields])
                for initial in ("vacuum", "all_up", "ghz", *bitstrings):
                    want = helpers.x_frame_start_reference(kick._right, L,
                                                           _start_terms(L, initial))
                    assert np.array_equal(kick.start(_start_terms(L, initial)), want)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="initial must be"):
            next(_evolve(*helpers.chain_arrays([quick_params()]), "thermal", 1))


class TestRunTimeSeries:
    def test_includes_time_zero_and_sampling(self):
        cfg = RunConfig(params=quick_params(), steps=10, sample_every=3,
                        measures=frozenset({"q"}))
        series = run_time_series(cfg)
        assert [r.t for r in series] == [0, 3, 6, 9]

    def test_computes_only_the_measures_asked_for(self):
        for measures, pairs, tangle in ((frozenset({"q"}), False, False),
                                        (frozenset({"n_tangle"}), False, True),
                                        (frozenset({"nn_concurrence"}), True, False)):
            r = run_time_series(RunConfig(params=quick_params(), steps=1, measures=measures))[-1]
            assert (r.pair_concurrences is not None) == pairs
            assert (r.n_tangle is not None) == tangle

    def test_zero_field_q_trace_is_cluster_formula(self):
        cfg = RunConfig(params=quick_params(num_qubits=6, j_x=0.9), steps=40,
                        measures=frozenset({"q"}))
        for r in run_time_series(cfg):
            assert r.q_measure == pytest.approx(cluster_q(0.9, r.t, "periodic", 6), abs=1e-10)

    def test_parallel_tilt_q_trace_still_cluster(self):
        # theta = 0 keeps the field along the coupling axis; the rotations
        # commute with the coupling and drop out of every local purity
        cfg = RunConfig(params=quick_params(num_qubits=10, j_x=0.1, b_field=0.1),
                        steps=100, measures=frozenset({"q"}))
        series = run_time_series(cfg)
        for r in series:
            assert r.q_measure == pytest.approx(cluster_q(0.1, r.t, "periodic", 10), abs=1e-10)
        values = [r.q_measure for r in series]
        assert max(values) > 0.9 and min(values[1:]) < 0.1

    def test_transverse_q_trace_matches_free_fermions(self):
        cfg = RunConfig(params=quick_params(num_qubits=10, j_x=np.pi / 2,
                                            b_field=np.pi / 3, theta=np.pi / 2),
                        steps=50, measures=frozenset({"q"}))
        for r in run_time_series(cfg):
            assert r.q_measure == pytest.approx(
                jw_q_vacuum(10, np.pi / 2, np.pi / 3, r.t), abs=1e-8)

    def test_open_chain_nn_concurrence_averages_its_bonds(self):
        # an open chain has L - 1 bonds; the end pair (0, L-1) is not one of them
        cfg = RunConfig(params=quick_params(num_qubits=6, boundary="open"), steps=3)
        last = run_time_series(cfg)[-1]
        assert last.t == 3
        psi = helpers.z_start(6, "vacuum")[0]
        step_matrix = helpers.step_dense(6, 0.7, 0.0, 0.0, "open")
        for _ in range(3):
            psi = step_matrix @ psi
        bonds = [helpers.concurrence_oracle(helpers.brute_rdm2(psi, i, i + 1, 6))
                 for i in range(5)]
        # these RDMs are rank-deficient; the oracle zeroes their eigenvalue noise
        assert last.nn_concurrence == pytest.approx(np.mean(bonds), abs=1e-12)
        assert last.nn_concurrence == pytest.approx(0.20588, abs=1e-5)

    def test_matches_z_frame_step_and_report(self):
        # the series is evolved in the sigma_x frame; each reported measure must
        # equal that of the z-basis walk of the reference kick
        cases = [(6, 1.3, 0.9, 0.6, "vacuum"), (6, 0.7, 0.0, 0.0, "vacuum"),
                 (6, 1.1, 0.5, 1.2, "ghz"), (5, 2.1, 1.7, 0.3, "ghz"),
                 (7, 0.9, 1.2, 0.8, "0110100"), (12, 1.0, 0.6, 0.7, "100000000001")]
        for boundary in ("periodic", "open"):
            for L, jx, b, theta, initial in cases:
                params = ChainParams(L, jx, b, theta, boundary)
                series = run_time_series(RunConfig(params=params, steps=8, initial=initial))
                psi = helpers.z_start(L, initial)[0]
                for r in series:
                    if r.t:
                        psi = helpers.kick_reference(psi, L, jx, b, theta, boundary)
                    want = helpers.batch_reports(psi[None], [r.t], boundary=boundary)[0]
                    assert r.q_measure == pytest.approx(want.q_measure, abs=1e-10)
                    assert r.n_tangle == pytest.approx(want.n_tangle, abs=1e-10)
                    assert np.max(np.abs(r.one_tangles - want.one_tangles)) < 1e-10
                    assert np.max(np.abs(r.pair_concurrences - want.pair_concurrences)) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(params=quick_params(), steps=0)
        with pytest.raises(ValueError):
            RunConfig(params=quick_params(), steps=5, sample_every=0)
        with pytest.raises(ValueError):
            RunConfig(params=quick_params(), steps=5, measures=frozenset({"entropy"}))


class TestMemoryPreflight:
    def test_refuses_a_run_that_cannot_fit_before_allocating(self, monkeypatch):
        from kicked_ising import harness

        def no_kick(*args):
            raise AssertionError("the kick and its state were built before the memory check")

        monkeypatch.setattr(harness, "_available_memory_bytes", lambda: 1 << 20)
        monkeypatch.setattr(harness, "XFrameKick", no_kick)
        with pytest.raises(RuntimeError, match="16-qubit run needs"):
            run_time_series(RunConfig(params=quick_params(num_qubits=16), steps=1))

    def test_runs_when_it_fits_or_the_system_does_not_say(self, monkeypatch):
        from kicked_ising import harness

        cfg = RunConfig(params=quick_params(num_qubits=10), steps=2, measures=frozenset({"q"}))
        for available in (None, harness._LIVE_STATE_COPIES * 16 * 2 ** 10):
            monkeypatch.setattr(harness, "_available_memory_bytes", lambda: available)
            assert [r.t for r in run_time_series(cfg)] == [0, 1, 2]


class TestKickMemory:
    @staticmethod
    def traced_peak(config):
        """The tracemalloc peak of one run_time_series call, in bytes."""
        import tracemalloc

        tracemalloc.start()
        try:
            run_time_series(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_streamed_run_holds_one_state(self):
        # a 3-kick run at L = 18 streams its kicks through buffers and tables
        # of a chunk's size; a state-sized spare or phase vector would double
        # the peak
        L = 18
        state_bytes = 16 * 2 ** L
        cfg = RunConfig(params=ChainParams(L, 1.1, 0.7, 0.6), steps=3, measures=frozenset({"q"}))
        assert self.traced_peak(cfg) - state_bytes <= state_bytes / 4

    def test_a_row_larger_than_a_group_is_measured_where_it_lies(self):
        # no two rows of 16 qubits fit in a group of _CHUNK_AMPLITUDES, so each
        # sampled row is measured in place.  With every measure the run holds
        # the state, the kick's row-sized buffer and phase table and one slice
        # of the n-tangle: ~4.2 states.  The per-report path peaked at 5.0,
        # and a copy of the row would add one state
        L = 16
        cfg = RunConfig(params=ChainParams(L, 1.1, 0.7, 0.6), steps=3)
        assert self.traced_peak(cfg) <= 5 * 16 * 2 ** L


class TestTimeAverage:
    def test_constant_series(self):
        cfg = RunConfig(params=quick_params(), steps=5, initial="ghz",
                        measures=frozenset({"q"}))
        assert time_average(run_time_series(cfg), "q") == pytest.approx(1.0, abs=1e-12)

    def test_alternating_cluster_average(self):
        # j_x = pi samples 1 - cos^4(pi t / 2): 0 on even kicks, 1 on odd
        cfg = RunConfig(params=quick_params(num_qubits=4, j_x=np.pi), steps=1000,
                        measures=frozenset({"q"}))
        assert time_average(run_time_series(cfg), "q") == pytest.approx(0.5, abs=1e-12)

    def test_excludes_time_zero(self):
        cfg = RunConfig(params=quick_params(j_x=np.pi), steps=1,
                        measures=frozenset({"q"}))
        # the only averaged sample is t=1 (Q=1); including t=0 would give 0.5
        assert time_average(run_time_series(cfg), "q") == pytest.approx(1.0, abs=1e-12)

    def test_golden_tilted_average_reproducible(self):
        cfg = RunConfig(params=ChainParams(6, np.pi / 4, np.pi / 4, np.pi / 4),
                        steps=1000, measures=frozenset({"q"}))
        first = time_average(run_time_series(cfg), "q")
        second = time_average(run_time_series(cfg), "q")
        assert first == second
        assert first == pytest.approx(GOLDEN_TILTED_Q_AVG, abs=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            time_average([], "q")


class TestSweepGrid:
    def test_degenerate_grid_is_flat(self):
        cfg = SweepConfig(
            axis1=AxisSpec("b_field", 0.0, 0.0, 2),
            axis2=AxisSpec("theta", 0.0, 0.0, 2),
            fixed=quick_params(num_qubits=6, j_x=0.7),
            steps=50,
        )
        grid = sweep_grid(cfg)
        assert grid.shape == (2, 2)
        assert np.all(grid == grid[0, 0])
        cluster_avg = np.mean(cluster_q(0.7, np.arange(1, 51), "periodic", 6))
        assert grid[0, 0] == pytest.approx(cluster_avg, abs=1e-10)

    def test_jw_fast_path_agrees_with_numeric(self):
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.8, 2.2, 2),
                          axis2=AxisSpec("b_field", 0.4, 1.7, 2),
                          fixed=quick_params(num_qubits=6, theta=np.pi / 2), steps=40)
        assert np.max(np.abs(sweep_grid(cfg) - per_point_averages(cfg))) < 1e-8

    def test_jw_fast_path_is_exact_only(self):
        # 9e-4 off the transverse line the closed form sits ~1e-5 from the dynamics
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.8, 2.2, 2),
                          axis2=AxisSpec("b_field", 0.4, 1.7, 2),
                          fixed=quick_params(num_qubits=6, theta=np.pi / 2 - 9e-4), steps=100)
        assert np.max(np.abs(sweep_grid(cfg) - per_point_averages(cfg))) < 1e-10

    def test_long_state_vector_window_matches_the_closed_form(self, monkeypatch):
        # 10^5 kicks of the vacuum ring on the transverse line, evolved (the closed
        # form turned off) against jw_q_average, which is exact to rounding at any
        # window.  Q is quadratic in the amplitudes, and every kick holds the norm
        # to 1e-10, so an exact kick's Q may sit that far from the closed form.
        from kicked_ising import analytic, harness

        monkeypatch.setattr(harness, "_jw_mask",
                            lambda config, thetas: np.zeros(thetas.shape, dtype=bool))
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.7, 2.3, 2),
                          axis2=AxisSpec("b_field", 0.4, 1.9, 2),
                          fixed=quick_params(num_qubits=6, theta=np.pi / 2), steps=10 ** 5)
        jx, b = np.meshgrid(cfg.axis1.values(), cfg.axis2.values(), indexing="ij")
        want = analytic.jw_q_average(6, jx.ravel(), b.ravel(), cfg.steps).reshape(2, 2)
        assert np.max(np.abs(sweep_grid(cfg) - want)) < 1e-10

    def test_numeric_sweep_keeps_the_phase_caches_small(self):
        # the kick's phase tables live and die with it; the n-tangle's parity
        # signs are the one cache left
        measures._parity_signs.cache_clear()
        for num_qubits in (4, 5, 6):  # each chain length needs its own 2^L-sized entries
            cfg = SweepConfig(axis1=AxisSpec("j_x", 0.3, 2.7, 6),
                              axis2=AxisSpec("b_field", 0.4, 1.1, 2),
                              fixed=quick_params(num_qubits=num_qubits, theta=0.7), steps=3,
                              measure="n_tangle")
            sweep_grid(cfg)
        info = measures._parity_signs.cache_info()
        assert info.maxsize <= 2 and info.currsize <= 2

    def test_point_failures_carry_coordinates(self):
        cfg = SweepConfig(
            axis1=AxisSpec("j_x", 0.5, 1.0, 2),
            axis2=AxisSpec("b_field", 0.5, 1.0, 2),
            fixed=quick_params(),
            steps=5,
            initial="01",  # wrong length for 4 qubits: every point fails
        )
        with pytest.raises(SweepPointError) as err:
            sweep_grid(cfg)
        assert err.value.grid_index == (0, 0)
        assert err.value.axis_values == (0.5, 0.5)

    @pytest.mark.parametrize("end", ["start", "stop"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_an_axis_end_that_is_not_finite_is_refused(self, end, value):
        # at construction, naming the axis and its end, not as the norm or
        # the axis values of a failed sweep point
        ends = {"start": 0.5, "stop": 1.0, end: value}
        for name in SWEEP_PARAMETERS:
            with pytest.raises(ValueError, match=f"axis {name} {end} must be a finite number"):
                AxisSpec(name, ends["start"], ends["stop"], 3)

    def test_a_nan_state_fails_its_point(self, monkeypatch):
        # a NaN state must not pass the norm check and average to NaN values
        from kicked_ising import statevec

        split = statevec._field_split

        def poisoned(b_field, theta):
            left, rotation, right = split(b_field, theta)
            rotation[np.asarray(b_field) == 1.0] = np.nan
            return left, rotation, right

        monkeypatch.setattr(statevec, "_field_split", poisoned)
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.5, 1.0, 2),
                          axis2=AxisSpec("b_field", 0.5, 1.0, 2),
                          fixed=quick_params(theta=0.7), steps=3, measure="q")
        with pytest.raises(SweepPointError, match="norm nan") as err:
            sweep_grid(cfg)
        assert err.value.grid_index == (0, 1)

    def test_closed_form_points_are_decided_by_their_theta(self):
        # each distinct theta decided once and mapped back to every point of it;
        # a measure without a closed form takes none
        cfg = SweepConfig(axis1=AxisSpec("b_field", 0.3, 1.5, 3),
                          axis2=AxisSpec("theta", 0.0, np.pi, 3), fixed=quick_params(), steps=5)
        thetas = np.tile(cfg.axis2.values(), 3)
        assert _jw_mask(cfg, thetas).tolist() == [False, True, False] * 3
        assert not _jw_mask(replace(cfg, measure="n_tangle"), thetas).any()
        assert not _jw_mask(replace(cfg, initial="ghz"), thetas).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(axis1=AxisSpec("j_x", 0, 1, 2), axis2=AxisSpec("j_x", 0, 1, 2),
                        fixed=quick_params(), steps=5)
        with pytest.raises(ValueError):
            AxisSpec("j_x", 0, 1, 1)
        with pytest.raises(ValueError):
            AxisSpec("coupling", 0, 1, 4)


class TestStackedSweep:
    """A sweep kicks its grid as stacks of states; each point must read as if run alone."""

    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_every_measure_matches_the_per_point_series(self, measure):
        for boundary, initial in (("periodic", "ghz"), ("open", "010110")):
            cfg = SweepConfig(axis1=AxisSpec("j_x", 0.4, 2.9, 3),
                              axis2=AxisSpec("theta", 0.3, 1.2, 3),
                              fixed=quick_params(num_qubits=6, b_field=0.9, boundary=boundary),
                              steps=12, measure=measure, initial=initial)
            assert np.max(np.abs(sweep_grid(cfg) - per_point_averages(cfg))) < 1e-12

    def test_theta_axis_ending_on_the_transverse_line(self, monkeypatch):
        from kicked_ising import analytic, harness

        jw_points = []
        average = analytic.jw_q_average

        def counted(num_qubits, j_x, b_field, steps):
            jw_points.extend(j_x)
            return average(num_qubits, j_x, b_field, steps)

        monkeypatch.setattr(analytic, "jw_q_average", counted)
        monkeypatch.setattr(harness, "_CHUNK_AMPLITUDES", 3 * 2 ** 6)  # chunks of 3 rows
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.5, 2.5, 4),
                          axis2=AxisSpec("theta", 0.2, np.pi / 2, 3),
                          fixed=quick_params(num_qubits=6, b_field=0.7), steps=25)
        grid = sweep_grid(cfg)
        assert len(jw_points) == 4  # the theta = pi/2 column, and nothing else
        assert np.max(np.abs(grid - per_point_averages(cfg))) < 1e-12

    def test_jw_points_match_the_closed_form_on_its_degenerate_lines(self):
        # the grid holds sin(j_x/2) = 0 (j_x = 0, 2 pi) and sin B = 0 (B = 0, pi)
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.0, 2 * np.pi, 5),
                          axis2=AxisSpec("b_field", 0.0, np.pi, 5),
                          fixed=quick_params(num_qubits=8, theta=np.pi / 2), steps=60)
        grid = sweep_grid(cfg)
        ts = np.arange(1, 61)
        for i, jx in enumerate(cfg.axis1.values()):
            for j, b in enumerate(cfg.axis2.values()):
                assert abs(grid[i, j] - np.mean(jw_q_vacuum(8, jx, b, ts))) < 1e-12

    def test_small_coupling_and_field_take_the_closed_form(self, monkeypatch):
        from kicked_ising import analytic

        jw_points = []
        average = analytic.jw_q_average

        def counted(num_qubits, j_x, b_field, steps):
            jw_points.extend(zip(j_x, b_field))
            return average(num_qubits, j_x, b_field, steps)

        monkeypatch.setattr(analytic, "jw_q_average", counted)
        # at (j_x, B) = (4e-6, 1.848e-6) one eigenvector ratio is ~1e-6 of the other
        cfg = SweepConfig(axis1=AxisSpec("j_x", 4e-6, 1.0, 2),
                          axis2=AxisSpec("b_field", 1.848e-6, 1.0, 2),
                          fixed=quick_params(num_qubits=8, theta=np.pi / 2), steps=200)
        grid = sweep_grid(cfg)
        assert (4e-6, 1.848e-6) in jw_points and len(jw_points) == 4
        assert np.max(np.abs(grid - per_point_averages(cfg))) < 1e-12

    def test_jw_chunks_do_not_depend_on_the_window(self, monkeypatch):
        from kicked_ising import analytic

        chunks = []
        average = analytic.jw_q_average

        def counted(num_qubits, j_x, b_field, steps):
            chunks.append(len(j_x))
            return average(num_qubits, j_x, b_field, steps)

        monkeypatch.setattr(analytic, "jw_q_average", counted)
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.5, 2.5, 3),
                          axis2=AxisSpec("b_field", 0.3, 1.5, 3),
                          fixed=quick_params(num_qubits=20, theta=np.pi / 2), steps=10 ** 4)
        grid = sweep_grid(cfg)
        assert chunks == [9]
        ts = np.arange(1, cfg.steps + 1)
        for i, jx in enumerate(cfg.axis1.values()):
            for j, b in enumerate(cfg.axis2.values()):
                assert abs(grid[i, j] - np.mean(jw_q_vacuum(20, jx, b, ts))) < 1e-12

    def test_a_row_failing_mid_chunk_names_its_own_point(self, monkeypatch):
        from kicked_ising import harness, statevec

        cfg = SweepConfig(axis1=AxisSpec("b_field", 0.3, 1.5, 3),
                          axis2=AxisSpec("theta", 0.2, 1.0, 3),
                          fixed=quick_params(j_x=0.9), steps=5)
        bad = (cfg.axis1.values()[1], cfg.axis2.values()[2])
        split = statevec._field_split

        def leaky(b_field, theta):  # one grid point's field rotation loses its unitarity
            left, rotation, right = split(b_field, theta)
            rotation[(np.asarray(b_field) == bad[0]) & (np.asarray(theta) == bad[1])] *= 1.01
            return left, rotation, right

        monkeypatch.setattr(statevec, "_field_split", leaky)
        assert harness._CHUNK_AMPLITUDES >= 9 * 2 ** 4  # all nine points in one stack
        with pytest.raises(SweepPointError) as err:
            sweep_grid(cfg)
        assert err.value.grid_index == (1, 2)
        assert err.value.axis_values == bad
        assert "norm" in str(err.value)

    def test_chunks_pass_the_memory_preflight(self, monkeypatch):
        from kicked_ising import harness

        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.5, 1.5, 3),
                          axis2=AxisSpec("b_field", 0.3, 1.5, 3),
                          fixed=quick_params(num_qubits=10, theta=0.4), steps=3)
        one_point = harness._LIVE_STATE_COPIES * 16 * 2 ** 10
        monkeypatch.setattr(harness, "_available_memory_bytes", lambda: one_point)
        # the stack of nine does not fit, so its points go one at a time
        assert np.max(np.abs(sweep_grid(cfg) - per_point_averages(cfg))) < 1e-12
        monkeypatch.setattr(harness, "_available_memory_bytes", lambda: one_point - 1)
        with pytest.raises(SweepPointError, match="needs about") as err:
            sweep_grid(cfg)
        assert err.value.grid_index == (0, 0)


class TestCompare:
    def test_zero_field_regime(self):
        devs = compare_numeric_analytic(quick_params(num_qubits=8), t_max=50)
        assert set(devs) == {"q", "nn_concurrence", "n_tangle"}
        assert max(devs.values()) < 1e-10

    def test_zero_field_open_chain(self):
        devs = compare_numeric_analytic(quick_params(num_qubits=6, boundary="open"),
                                        t_max=40)
        assert set(devs) == {"q"}
        assert devs["q"] < 1e-10

    def test_transverse_regime(self):
        params = quick_params(num_qubits=10, j_x=np.pi / 2, b_field=np.pi / 3,
                              theta=np.pi / 2)
        devs = compare_numeric_analytic(params, t_max=100)
        assert devs["q"] < 1e-8

    def test_symmetrized_regime(self):
        devs = compare_numeric_analytic(quick_params(num_qubits=6, j_x=1.1),
                                        t_max=30, initial="ghz")
        assert devs["q"] < 1e-12
        assert devs["n_tangle"] < 1e-10

    def test_near_transverse_regime_rejected(self):
        params = quick_params(num_qubits=6, b_field=0.4, theta=np.pi / 2 - 9e-4)
        with pytest.raises(NoAnalyticOracleError):
            compare_numeric_analytic(params, t_max=10)
        with pytest.raises(NoAnalyticOracleError):
            compare_numeric_analytic(replace(params, num_qubits=2, theta=np.pi / 2), t_max=10)

    def test_tilted_regime_rejected(self):
        with pytest.raises(NoAnalyticOracleError):
            compare_numeric_analytic(quick_params(b_field=0.4, theta=np.pi / 4), t_max=10)

    @pytest.mark.parametrize("num_qubits, measures", [(3, {"q"}), (5, {"q", "nn_concurrence"})])
    def test_odd_rings(self, num_qubits, measures):
        # the nearest-neighbour form needs a ring of L >= 4; a triangle misses it by 0.14
        devs = compare_numeric_analytic(quick_params(num_qubits=num_qubits), t_max=20)
        assert set(devs) == measures
        assert max(devs.values()) < 1e-12

    def test_open_symmetrized_chain_rejected(self):
        with pytest.raises(NoAnalyticOracleError):
            compare_numeric_analytic(quick_params(boundary="open"), t_max=20, initial="ghz")

    def test_no_closed_form_fails_before_evolving(self, monkeypatch):
        from kicked_ising import harness

        def no_run(config):
            raise AssertionError("evolved a run that has no closed form")

        monkeypatch.setattr(harness, "run_time_series", no_run)
        with pytest.raises(NoAnalyticOracleError):
            compare_numeric_analytic(quick_params(num_qubits=2), t_max=20)
        with pytest.raises(NoAnalyticOracleError):
            compare_numeric_analytic(quick_params(num_qubits=5), t_max=20, initial="ghz")

    def test_named_regime_is_the_one_compared(self):
        # B = 0 puts a vacuum start with theta = pi/2 on the zero-field line as well
        params = quick_params(num_qubits=6, theta=np.pi / 2)
        assert set(compare_numeric_analytic(params, t_max=20)) == {"q", "nn_concurrence",
                                                                   "n_tangle"}
        devs = compare_numeric_analytic(params, t_max=20, regime="transverse")
        assert set(devs) == {"q"}
        assert devs["q"] < 1e-12
        with pytest.raises(NoAnalyticOracleError):
            compare_numeric_analytic(quick_params(b_field=0.3), t_max=20, regime="zero-field")

    def test_unknown_regime_is_named_with_the_known_ones(self, monkeypatch):
        from kicked_ising import harness

        def no_run(config):
            raise AssertionError("evolved a run with no regime")

        monkeypatch.setattr(harness, "run_time_series", no_run)
        with pytest.raises(NoAnalyticOracleError) as error:
            compare_numeric_analytic(quick_params(), t_max=3, regime="bogus")
        message = str(error.value)
        assert "unknown regime 'bogus'" in message and "does not lie" not in message
        assert all(name in message for name in REGIMES)

    def test_symmetrized_formula_reference(self):
        # the formula the ghz comparison uses, spot-checked at one point
        assert sym_cluster_n_tangle(1.1, np.pi / 1.1, 6) == pytest.approx(1.0, abs=1e-12)


class TestShiftReducedTables:
    """A ring run from a shift-invariant start fills its pair table by ring distance."""

    def test_decided_by_boundary_and_start(self):
        ring, chain = quick_params(num_qubits=5), quick_params(num_qubits=5, boundary="open")
        for initial in ("vacuum", "all_up", "ghz", "00000", "11111"):
            assert _shift_invariant(ring, initial)
            assert not _shift_invariant(chain, initial)
        for initial in ("00001", "01010", "0000", "000000"):
            assert not _shift_invariant(ring, initial)

    @pytest.mark.parametrize("num_qubits", range(2, 13))
    def test_reduced_table_matches_the_full_one(self, num_qubits):
        rng = np.random.default_rng(1200 + num_qubits)
        for initial in ("vacuum", "all_up", "ghz"):
            jx, b, theta = rng.uniform(0.0, 2.0 * np.pi, 3)
            params = ChainParams(num_qubits, jx, b, theta)
            series = run_time_series(RunConfig(params=params, steps=5, initial=initial))
            for r, (t, amps) in zip(series, helpers.samples([params], initial, 5)):
                full = helpers.batch_reports(amps, [t])[0].pair_concurrences
                assert r.t == t
                assert np.max(np.abs(r.pair_concurrences - full)) < 1e-12

    @pytest.mark.parametrize("boundary, initial", [("open", "vacuum"), ("open", "ghz"),
                                                   ("periodic", "0110100")])
    def test_other_runs_keep_the_full_table(self, boundary, initial):
        params = ChainParams(7, 1.3, 0.9, 0.6, boundary)
        series = run_time_series(RunConfig(params=params, steps=4, initial=initial))
        for r, (t, amps) in zip(series, helpers.samples([params], initial, 4)):
            full = helpers.batch_reports(amps, [t], boundary=boundary)[0]
            assert np.array_equal(r.pair_concurrences, full.pair_concurrences)

    def test_one_pair_rdm_per_ring_distance(self, monkeypatch):
        # a ring's pairs come from one ring-kernel call a group, L // 2 RDMs a
        # row; an open chain's from one all-pairs call a group, 28 RDMs a row
        built = []  # (kernel, the pair RDMs of the call: rows times pairs)
        ring, pair = measures._ring_pair_rdms, measures._pair_rdms
        monkeypatch.setattr(measures, "_ring_pair_rdms",
                            lambda amps: built.append(("ring", len(amps) * 4)) or ring(amps))
        monkeypatch.setattr(measures, "_pair_rdms",
                            lambda amps, pairs: built.append(("pairs", len(amps) * len(pairs)))
                            or pair(amps, pairs))
        for boundary, kernel, per_report in (("periodic", "ring", 4), ("open", "pairs", 28)):
            built.clear()
            run_time_series(RunConfig(params=quick_params(num_qubits=8, theta=0.6,
                                                          boundary=boundary), steps=2))
            assert built == [(kernel, 3 * per_report)]  # the three reports are one group
        built.clear()
        sweep_grid(SweepConfig(axis1=AxisSpec("j_x", 0.5, 1.0, 2),
                               axis2=AxisSpec("b_field", 0.5, 1.0, 2),
                               fixed=quick_params(num_qubits=8, theta=0.6), steps=2,
                               measure="nn_concurrence"))
        # both sampled kicks in one group: kicks x points x distances
        assert built == [("ring", 2 * 4 * 4)]


class TestGroupedReports:
    """A series measures its samples in groups; each report against a dense walk."""

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("initial", ["vacuum", "ghz", "random"])
    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_matches_a_dense_walk(self, monkeypatch, boundary, initial, sample_every):
        from kicked_ising import harness

        L, steps, jx, b, theta = 6, 41, 1.1, 0.8, 0.7
        if initial == "random":
            initial = "".join(np.random.default_rng(61).choice(["0", "1"], L))
            assert len(set(initial)) == 2  # not shift-invariant
        # groups of 4 rows: 42 or 14 samples end on a partial group
        monkeypatch.setattr(harness, "_CHUNK_AMPLITUDES", 4 * 2 ** L)
        params = ChainParams(L, jx, b, theta, boundary)
        series = run_time_series(RunConfig(params=params, steps=steps, initial=initial,
                                           sample_every=sample_every))
        assert [r.t for r in series] == list(range(0, steps + 1, sample_every))
        y_all = np.array([[1.0]])
        for _ in range(L):
            y_all = np.kron(y_all, helpers.SY)
        pairs = np.triu_indices(L, k=1)
        psi = helpers.z_start(L, initial)[0]
        t = 0
        for r in series:
            while t < r.t:
                psi = helpers.kick_reference(psi, L, jx, b, theta, boundary)
                t += 1
            tangles = [4.0 * np.linalg.det(helpers.brute_rdm1(psi, k, L)).real for k in range(L)]
            rdms = [helpers.brute_rdm2(psi, i, j, L) for i, j in zip(*pairs)]
            table = np.zeros((L, L))
            table[pairs] = measures.concurrences(np.array(rdms))
            assert np.max(np.abs(r.one_tangles - tangles)) < 1e-12
            assert r.q_measure == pytest.approx(np.mean(tangles), abs=1e-12)
            assert r.n_tangle == pytest.approx(abs(psi @ y_all @ psi) ** 2, abs=1e-12)
            assert np.max(np.abs(r.pair_concurrences - (table + table.T))) < 1e-12


class TestReportBatches:
    """A series finishes its reports in batches of pending pair RDMs."""

    @pytest.mark.parametrize("boundary, initial, batches", [("periodic", "vacuum", 7),
                                                            ("open", "vacuum", 21),
                                                            ("periodic", "01101001", 21)])
    def test_several_batches_equal_one(self, monkeypatch, boundary, initial, batches):
        from dataclasses import fields

        from kicked_ising import harness

        config = RunConfig(params=ChainParams(8, 1.1, 0.8, 0.7, boundary), steps=20,
                           initial=initial)
        whole = run_time_series(config)
        calls = []
        stack = measures.concurrences
        monkeypatch.setattr(measures, "concurrences",
                            lambda rho: calls.append(len(rho)) or stack(rho))
        # 192 entries: a batch of three ring reports (4 RDMs each), or of one
        # report of 28; groups of one live stack
        monkeypatch.setattr(harness, "_CHUNK_AMPLITUDES", 3 * 4 * 16)
        batched = run_time_series(config)
        assert len(calls) == batches
        assert len(batched) == len(whole) == 21
        for r, want in zip(batched, whole):
            for field in fields(r):
                assert np.array_equal(getattr(r, field.name), getattr(want, field.name))

    def test_a_whole_l12_run_is_one_batch(self, monkeypatch):
        # 41 reports of 6 ring distances: 246 RDMs, one concurrence call
        calls = []
        stack = measures.concurrences
        monkeypatch.setattr(measures, "concurrences",
                            lambda rho: calls.append(rho.shape) or stack(rho))
        series = run_time_series(RunConfig(params=ChainParams(12, 0.9, 1.4, 0.6), steps=40))
        assert len(series) == 41
        assert calls == [(41, 6, 4, 4)]


class TestGroups:
    """Sampled stacks are measured in groups of kicks, in a time series and a sweep alike."""

    def test_a_group_of_one_stack_is_the_live_stack(self):
        # at 14 qubits a group of _CHUNK_AMPLITUDES holds one row: the run keeps
        # one stack and kicks it in place, and each sample is that stack
        from kicked_ising import harness

        L = 14
        assert harness._CHUNK_AMPLITUDES // 2 ** L == 1
        params = ChainParams(L, 1.3, 0.8, 0.6)
        kick, groups, want = helpers.kick_of([params]), [], None
        for ts, amps in _evolve(*helpers.chain_arrays([params]), "vacuum", 2):
            groups.append((ts, amps))
            want = (kick.start(_start_terms(L, "vacuum")) if want is None
                    else kick.plan(want, want)())
            assert np.array_equal(amps, want)
        assert [ts for ts, _ in groups] == [[0], [1], [2]]
        assert all(got.__array_interface__ == groups[0][1].__array_interface__
                   for _, got in groups)

    def test_a_group_holds_its_samples_stacks_in_order(self, monkeypatch):
        # four stacks of three a group; each sample is the stack before it
        # kicked in place, bit for bit
        from kicked_ising import harness

        monkeypatch.setattr(harness, "_CHUNK_AMPLITUDES", 4 * 3 * 2 ** 4)
        points = [ChainParams(4, 1.3, b, 0.6) for b in (0.4, 0.8, 1.9)]
        groups = [(ts, amps.copy())
                  for ts, amps in _evolve(*helpers.chain_arrays(points), "vacuum", 7,
                                          sample_start=False)]
        assert [ts for ts, _ in groups] == [[1, 2, 3, 4], [5, 6, 7]]
        kick = helpers.kick_of(points)
        stack, want = kick.start(_start_terms(4, "vacuum")), []
        in_place = kick.plan(stack, stack)
        for _ in range(7):
            want.append(in_place().copy())
        assert np.array_equal(np.concatenate([amps for _, amps in groups]),
                              np.concatenate(want))

    @pytest.mark.parametrize("sample_every", [2, 3])
    @pytest.mark.parametrize("L, boundary, initial, steps", [(12, "periodic", "vacuum", 20),
                                                             (11, "open", "ghz", 40)])
    def test_a_sampled_run_is_the_every_kick_run_subsampled(self, L, boundary, initial, steps,
                                                            sample_every):
        # groups of 4 (L = 12) and 8 (L = 11) stacks, which the samples of
        # every 2 or 3 kicks fill no whole number of, and the unsampled kicks
        # stay in their slot: states and reports are bit for bit the
        # every-kick run's
        params = ChainParams(L, 0.9, 1.1, 0.6, boundary)
        every = run_time_series(RunConfig(params, steps, initial))
        sampled = run_time_series(RunConfig(params, steps, initial, sample_every=sample_every))
        assert [r.t for r in sampled] == list(range(0, steps + 1, sample_every))
        for got in sampled:
            want = every[got.t]
            for field in dataclasses.fields(got):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
        states = {t: amps.copy() for t, amps in helpers.samples([params], initial, steps)}
        for t, amps in helpers.samples([params], initial, steps, sample_every):
            assert np.array_equal(amps, states[t])

    def test_a_group_holds_at_most_64_stacks(self):
        # 2**14 amplitudes would be 4096 states of two qubits, and a kick plan
        # per pair of slots; 64 slots fill groups of 64
        from kicked_ising import harness

        assert harness._GROUP_SLOTS == 64
        chain = helpers.chain_arrays([ChainParams(2, 0.9, 1.1, 0.6)])
        got = [ts for ts, _ in _evolve(*chain, "vacuum", 150)]
        assert [len(ts) for ts in got] == [64, 64, 23]
        assert sum(got, []) == list(range(151))

    def test_each_group_is_measured_where_it_was_written(self, monkeypatch):
        # every group a run yields, and every group a series and a sweep
        # measure, is a view of the run's one buffer
        from kicked_ising import harness

        def one_buffer(stacks):
            return all(amps.base is stacks[0].base and np.shares_memory(amps, stacks[0])
                       for amps in stacks)

        points = [ChainParams(5, 0.9, b, 0.6) for b in (0.4, 1.9)]
        chain = helpers.chain_arrays(points)
        assert one_buffer([amps for _, amps in _evolve(*chain, "vacuum", 40)])
        measured = []
        add = measures.ReportBatch.add
        monkeypatch.setattr(measures.ReportBatch, "add",
                            lambda batch, amps, ts: measured.append(amps) or add(batch, amps, ts))
        run_time_series(RunConfig(ChainParams(12, 0.9, 1.1, 0.6), 20, sample_every=3))
        assert len(measured) == 2 and one_buffer(measured)
        measured.clear()
        sweep_grid(SweepConfig(axis1=AxisSpec("b_field", 0.4, 1.9, 3),
                               axis2=AxisSpec("theta", 0.3, 1.2, 3),
                               fixed=ChainParams(6, 0.9, 0.0, 0.0), steps=30,
                               measure="nn_concurrence"))
        assert len(measured) == 2 and one_buffer(measured)

    @pytest.mark.parametrize("measure", ["q", "n_tangle", "nn_concurrence"])
    def test_a_window_that_is_not_a_whole_number_of_groups(self, monkeypatch, measure):
        # six points at L = 5 in groups of four kicks: 7 kicks end on a group of three
        from kicked_ising import harness

        monkeypatch.setattr(harness, "_CHUNK_AMPLITUDES", 4 * 6 * 2 ** 5)
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.4, 2.9, 2), axis2=AxisSpec("theta", 0.3, 1.2, 3),
                          fixed=quick_params(num_qubits=5, b_field=0.9), steps=7, measure=measure)
        assert np.max(np.abs(sweep_grid(cfg) - per_point_averages(cfg))) < 1e-12

    @pytest.mark.parametrize("steps", [7, 8, 9])
    def test_a_numeric_chunk_measures_once_a_group(self, monkeypatch, steps):
        from kicked_ising import harness

        calls = []
        tangles = harness.one_tangles
        monkeypatch.setattr(harness, "one_tangles",
                            lambda amps, shift: calls.append(len(amps)) or tangles(amps, shift))
        monkeypatch.setattr(harness, "_CHUNK_AMPLITUDES", 4 * 6 * 2 ** 5)  # k = 4 kicks
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.4, 2.9, 2), axis2=AxisSpec("theta", 0.3, 1.2, 3),
                          fixed=quick_params(num_qubits=5, b_field=0.9), steps=steps)
        sweep_grid(cfg)
        assert len(calls) == -(-steps // 4)
        assert sum(calls) == 6 * steps

    def test_a_one_point_sweep_copies_no_state(self):
        # at L = 15 a chunk is one point and a group one stack, so each kick is
        # measured where it lies: the sweep holds the state, the kick's buffer
        # and phase table and small temporaries (3.1 states); a copy adds one
        import tracemalloc

        L = 15
        cfg = SweepConfig(axis1=AxisSpec("j_x", 0.5, 1.0, 2),
                          axis2=AxisSpec("b_field", 0.5, 1.0, 2),
                          fixed=ChainParams(L, 0.7, 0.6, 0.6), steps=3)
        tracemalloc.start()
        try:
            sweep_grid(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 16 * 2 ** L
