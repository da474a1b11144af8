"""The command-line front end: flags, config files, CSV contracts, exit codes."""

import math
import re

import numpy as np
import pytest

from kicked_ising import cli, cluster_q, jw_q_vacuum
from kicked_ising.cli import main


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


def parse_csv(blob):
    lines = blob.decode("utf-8").split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestEvolve:
    def test_header_and_zero_coupling(self, tmp_path):
        code, blob = run_cli(["evolve", "--L", "4", "--jx", "0", "--b", "0.5",
                              "--theta", "1.0", "--steps", "10"], tmp_path)
        assert code == 0
        header, rows = parse_csv(blob)
        assert header == ["t", "q", "n_tangle", "residual_tangle",
                          "nn_concurrence", "sum_two_tangles"]
        assert len(rows) == 11  # t = 0 .. 10
        assert all(abs(float(r[1])) < 1e-12 for r in rows)

    def test_cluster_columns_match_formula(self, tmp_path):
        code, blob = run_cli(["evolve", "--L", "6", "--jx", "0.1", "--b", "0.1",
                              "--theta", "0", "--steps", "30"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        for r in rows:
            t = int(r[0])
            assert float(r[1]) == pytest.approx(cluster_q(0.1, t, "periodic", 6), abs=1e-10)

    def test_transverse_matches_free_fermion_formula(self, tmp_path):
        code, blob = run_cli(["evolve", "--L", "10", "--jx", "1.5707963",
                              "--b", "1.0471975", "--theta", "1.5707963",
                              "--steps", "50"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        for r in rows:
            want = jw_q_vacuum(10, 1.5707963, 1.0471975, int(r[0]))
            # the flags round pi/2 to 8 digits; the residual tilt costs ~1e-6
            assert float(r[1]) == pytest.approx(want, abs=1e-5)

    def test_seventeen_digit_round_trip(self, tmp_path):
        code, blob = run_cli(["evolve", "--L", "5", "--jx", "1.234", "--b", "0.77",
                              "--theta", "0.3", "--steps", "8"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        for r in rows:
            for field in r[1:]:
                x = float(field)
                assert f"{x:.17g}" == field

    def test_lf_only_line_endings(self, tmp_path):
        _, blob = run_cli(["evolve", "--L", "4", "--jx", "1", "--b", "0",
                           "--theta", "0", "--steps", "3"], tmp_path)
        assert b"\r" not in blob

    def test_missing_parameters_fail(self, tmp_path, capsys):
        code = main(["evolve", "--L", "4", "--jx", "1"])
        assert code == 2
        assert "missing required" in capsys.readouterr().err

    def test_memory_preflight_is_a_clean_error(self, monkeypatch, capsys):
        from kicked_ising import harness

        monkeypatch.setattr(harness, "_available_memory_bytes", lambda: 1)
        code = main(["evolve", "--L", "6", "--jx", "0.9", "--b", "0.4", "--theta", "0.7",
                     "--steps", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: a 6-qubit run needs about")

    def test_a_light_cone_run_passes_the_memory_preflight(self, monkeypatch, tmp_path):
        # Q alone on a ring of 40 qubits for 3 kicks evolves its light cone of
        # 7, which fits in 1 MiB where the ring's 2^40 amplitudes would not
        from kicked_ising import harness

        monkeypatch.setattr(harness, "_available_memory_bytes", lambda: 1 << 20)
        code, blob = run_cli(["compare", "--regime", "transverse", "--L", "40", "--jx", "1.1",
                              "--b", "0.7", "--tmax", "3"], tmp_path)
        assert code == 0
        header, rows = parse_csv(blob)
        assert header == ["measure", "max_abs_deviation"] and rows[0][0] == "q"
        assert float(rows[0][1]) <= 1e-12

    def test_identical_invocations_byte_identical(self, tmp_path):
        args = ["evolve", "--L", "5", "--jx", "0.9", "--b", "0.4",
                "--theta", "0.7", "--steps", "12"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second

    @pytest.mark.parametrize("named, bits", [("vacuum", "000000000000"),
                                             ("all_up", "111111111111")])
    def test_uniform_bitstring_equals_its_named_start(self, tmp_path, named, bits):
        args = ["evolve", "--L", "12", "--jx", "0.9", "--b", "1.1", "--theta", "0.6",
                "--steps", "6", "--initial"]
        _, by_name = run_cli(args + [named], tmp_path, "a.csv")
        _, by_bits = run_cli(args + [bits], tmp_path, "b.csv")
        assert by_name == by_bits


class TestConfigFile:
    def test_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 5\njx = 0.9\nb = 0.4\ntheta = 0.7\nsteps = 12\n"
                       "# comment line\n")
        _, from_flags = run_cli(["evolve", "--L", "5", "--jx", "0.9", "--b", "0.4",
                                 "--theta", "0.7", "--steps", "12"], tmp_path, "a.csv")
        _, from_file = run_cli(["evolve", "--config", str(cfg)], tmp_path, "b.csv")
        assert from_flags == from_file

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 5\njx = 0.9\nb = 0.4\ntheta = 0.7\nsteps = 12\n")
        _, overridden = run_cli(["evolve", "--config", str(cfg), "--jx", "1.3"],
                                tmp_path, "a.csv")
        _, direct = run_cli(["evolve", "--L", "5", "--jx", "1.3", "--b", "0.4",
                             "--theta", "0.7", "--steps", "12"], tmp_path, "b.csv")
        assert overridden == direct

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 5\nfrequency = 2\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["config", "output", "workers"])
    def test_invocation_keys_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"axis1 = jx:0:1:2\naxis2 = b:2:3:2\nL = 4\nkicks = 5\n{key} = 2\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_every_compare_key_equals_its_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("regime = zero-field\nL = 6\njx = 0.7\nb = 0.3\ntheta = 0.4\n"
                       "boundary = open\ntmax = 20\ntol = 1e-9\n")
        code_file, from_file = run_cli(["compare", "--config", str(cfg)], tmp_path, "a.csv")
        code_flags, from_flags = run_cli(
            ["compare", "--regime", "zero-field", "--L", "6", "--jx", "0.7", "--b", "0.3",
             "--theta", "0.4", "--boundary", "open", "--tmax", "20", "--tol", "1e-9"],
            tmp_path, "b.csv")
        assert code_file == code_flags == 0
        assert from_file == from_flags

    def test_values_obey_choices(self, tmp_path, capsys):
        # this formula never reads the boundary, so only the choices can catch it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("formula = cluster_nn_concurrence\njx = 1\ntmax = 5\n"
                       "boundary = sideways\n")
        code, blob = run_cli(["analytic", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert blob == b""
        assert "sideways" in capsys.readouterr().err

    def test_flag_wins_even_when_it_is_the_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 5\njx = 0.9\nb = 0\ntheta = 0\nsteps = 4\nboundary = open\n")
        _, overridden = run_cli(["evolve", "--config", str(cfg), "--boundary", "periodic"],
                                tmp_path, "a.csv")
        _, direct = run_cli(["evolve", "--L", "5", "--jx", "0.9", "--b", "0", "--theta", "0",
                             "--steps", "4"], tmp_path, "b.csv")
        assert overridden == direct


class TestSweep:
    def test_degenerate_grid_four_equal_values(self, tmp_path):
        code, blob = run_cli(["sweep", "--axis1", "b:0:0:2", "--axis2", "theta:0:0:2",
                              "--jx", "0.7", "--L", "6", "--kicks", "40",
                              "--measure", "q"], tmp_path)
        assert code == 0
        header, rows = parse_csv(blob)
        assert header == ["axis1", "axis2", "value"]
        values = {r[2] for r in rows}
        assert len(rows) == 4 and len(values) == 1

    def test_row_major_order(self, tmp_path):
        _, blob = run_cli(["sweep", "--axis1", "jx:0:1:2", "--axis2", "b:2:3:2",
                           "--theta", "1.5707963267948966", "--L", "4",
                           "--kicks", "5"], tmp_path)
        _, rows = parse_csv(blob)
        firsts = [float(r[0]) for r in rows]
        seconds = [float(r[1]) for r in rows]
        assert firsts == [0.0, 0.0, 1.0, 1.0]
        assert seconds == [2.0, 3.0, 2.0, 3.0]

    def test_overlapping_axes_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--axis1", "jx:0:1:2", "--axis2", "jx:0:1:2",
                     "--L", "4", "--kicks", "5"])
        assert code == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["--axis1", "--axis2"])
    @pytest.mark.parametrize("count", ["x", "2.0", ""])
    def test_axis_count_names_its_option(self, axis, count, capsys):
        argv = ["sweep", "--axis1", "jx:0:1:2", "--axis2", "b:2:3:2", "--L", "4", "--kicks", "5"]
        argv[argv.index(axis) + 1] = argv[argv.index(axis) + 1][:-1] + count
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {axis} count: expected a whole number, got {count!r}")

    @pytest.mark.parametrize("axis", ["--axis1", "--axis2"])
    @pytest.mark.parametrize("count", ["1", "0", "-3"])
    def test_axis_too_few_points_names_its_option(self, axis, count, capsys):
        argv = ["sweep", "--axis1", "jx:0:1:2", "--axis2", "b:2:3:2", "--L", "4", "--kicks", "5"]
        argv[argv.index(axis) + 1] = argv[argv.index(axis) + 1][:-1] + count
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {axis} count: need at least 2 points, got {count}")

    def test_unknown_measure_lists_the_known_ones(self, capsys):
        code = main(["sweep", "--axis1", "jx:0:1:2", "--axis2", "b:2:3:2",
                     "--L", "4", "--kicks", "5", "--measure", "entropy"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'entropy'" in err
        assert all(name in err for name in ("'q'", "'n_tangle'", "'nn_concurrence'"))

    def test_near_zero_field_points(self, tmp_path):
        # 1e-12 <= |sin B| < 4e-11 takes the generic free-fermion modes
        code, blob = run_cli(["sweep", "--axis1", "jx:0.5:1:2", "--axis2", "b:3e-12:1:2",
                              "--theta", "1.5707963267948966", "--L", "8", "--kicks", "20"],
                             tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        ts = list(range(1, 21))
        for jx, b, value in rows:
            want = sum(jw_q_vacuum(8, float(jx), float(b), ts)) / len(ts)
            assert float(value) == pytest.approx(want, abs=1e-12)

    def test_seventeen_digit_round_trip(self, tmp_path):
        # each cell is f"{x:.17g}" of its axis value or its grid value, and
        # reads back as the same double: on a grid whose theta = pi/2 column
        # takes the closed form and whose other points are evolved, with a
        # field axis that crosses 0
        from kicked_ising import AxisSpec, ChainParams, SweepConfig, sweep_grid
        from kicked_ising.harness import _jw_mask

        code, blob = run_cli(["sweep", "--axis1", "b:-1.3:0.9:5", "--axis2",
                              "theta:0.2:1.5707963267948966:3", "--jx", "0.9", "--L", "6",
                              "--kicks", "12"], tmp_path)
        assert code == 0
        config = SweepConfig(AxisSpec("b_field", -1.3, 0.9, 5),
                             AxisSpec("theta", 0.2, math.pi / 2, 3),
                             ChainParams(6, 0.9, 0.0, 0.0), 12)
        v1, v2 = config.axis1.values(), config.axis2.values()
        assert v1.min() < 0.0 < v1.max()
        assert _jw_mask(config, np.repeat(v2[None], 5, axis=0).ravel()).sum() == 5
        grid = sweep_grid(config)
        _, rows = parse_csv(blob)
        assert len(rows) == grid.size
        for (i, j), row in zip(np.ndindex(grid.shape), rows):
            want = (v1[i], v2[j], grid[i, j])
            assert row == [f"{x:.17g}" for x in want]
            assert [float(cell) for cell in row] == [float(x) for x in want]

    @pytest.mark.parametrize("theta", ["1.5707963267948966", "0.9"])
    def test_one_tangle_is_q(self, tmp_path, theta):
        # Q is the mean one-tangle: on the transverse line both names take
        # the closed form, off it both are evolved
        blobs = [run_cli(["sweep", "--axis1", "jx:0.4:2.9:3", "--axis2", "b:0.2:1.7:3",
                          "--theta", theta, "--L", "8", "--kicks", "30",
                          "--measure", measure], tmp_path, f"{measure}.csv")
                 for measure in ("q", "one_tangle")]
        assert blobs[0][0] == blobs[1][0] == 0
        assert blobs[0][1] == blobs[1][1]

    def test_failing_point_is_a_clean_error(self, monkeypatch, capsys):
        from kicked_ising import harness

        monkeypatch.setattr(harness, "_available_memory_bytes", lambda: 1)
        code = main(["sweep", "--axis1", "jx:0.5:1:2", "--axis2", "b:0.3:1:2",
                     "--theta", "0.4", "--L", "6", "--kicks", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point (0, 0)")
        assert "needs about" in err

    def test_long_window_holds_its_norm(self):
        # 10**5 kicks drift the norm by about 1e-10 without the kick's rescale
        assert main(["sweep", "--axis1", "b:1.2897741477722866:1.3:2",
                     "--axis2", "theta:0.6825325327249898:0.69:2", "--jx", "0.8016286607747516",
                     "--L", "6", "--kicks", "100000", "--measure", "q"]) == 0

    def test_other_failures_keep_their_traceback(self, monkeypatch):
        from kicked_ising import cli, harness

        def broken(*args):
            raise RuntimeError("a bug, not a bad input")

        monkeypatch.setattr(harness, "_numeric_averages", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["sweep", "--axis1", "jx:0.5:1:2", "--axis2", "b:0.3:1:2",
                  "--theta", "0.4", "--L", "6", "--kicks", "3"])
        monkeypatch.setattr(cli, "run_time_series", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["evolve", "--L", "6", "--jx", "0.9", "--b", "0.4", "--theta", "0.7",
                  "--steps", "3"])

    @pytest.mark.parametrize("command", ["evolve", "sweep", "analytic", "compare"])
    def test_workers_flag_refused(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "2"])
        assert exc.value.code == 2


class TestAnalytic:
    def test_cluster_q_curve(self, tmp_path):
        code, blob = run_cli(["analytic", "--formula", "cluster_q", "--jx", "1",
                              "--tmin", "0", "--tmax", "6.2832", "--samples", "100",
                              "--boundary", "periodic"], tmp_path)
        assert code == 0
        header, rows = parse_csv(blob)
        assert header == ["t", "value"]
        assert len(rows) == 100
        for r in rows:
            t = float(r[0])
            assert float(r[1]) == pytest.approx(1 - math.cos(t / 2) ** 4, abs=1e-12)

    def test_jw_q_special_point(self, tmp_path):
        code, blob = run_cli(["analytic", "--formula", "jw_q", "--L", "10",
                              "--jx", "3.141592653589793", "--b", "1.5707963267948966",
                              "--tmax", "20"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        for r in rows:
            t = int(r[0])
            want = 0.0 if t % 5 == 0 else 1.0
            assert float(r[1]) == pytest.approx(want, abs=1e-9)

    def test_jw_q_refuses_times_it_cannot_honour(self, capsys):
        # the mode formula takes whole kicks from 0; a fractional end or a
        # later start would otherwise be rounded or dropped without a word,
        # and a negative end would print a bare header
        for extra in (["--tmax", "2.9"], ["--tmin", "2", "--tmax", "5"], ["--tmax", "-2"]):
            code = main(["analytic", "--formula", "jw_q", "--L", "6", "--jx", "1",
                         "--b", "0.5", *extra])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and "--tmax" in err

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_a_curve_needs_a_sample(self, samples, capsys):
        # no samples would print a bare header and exit 0, or numpy's own message
        assert main(["analytic", "--formula", "cluster_q", "--jx", "1", "--tmax", "1",
                     "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: --samples")

    def test_odd_chain_rejected(self, tmp_path, capsys):
        code = main(["analytic", "--formula", "cluster_n_tangle", "--L", "5",
                     "--jx", "1", "--tmax", "5"])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_unknown_formula_rejected(self, capsys):
        assert main(["analytic", "--formula", "entropy", "--jx", "1", "--tmax", "5"]) == 2


class TestCompare:
    def test_zero_field_passes(self, tmp_path, capsys):
        code, blob = run_cli(["compare", "--regime", "zero-field", "--L", "8",
                              "--jx", "0.7", "--tmax", "50"], tmp_path)
        assert code == 0
        header, rows = parse_csv(blob)
        assert header == ["measure", "max_abs_deviation"]
        assert {r[0] for r in rows} == {"q", "nn_concurrence", "n_tangle"}
        assert all(float(r[1]) < 1e-10 for r in rows)

    def test_transverse_passes(self, tmp_path):
        code, _ = run_cli(["compare", "--regime", "transverse", "--L", "10",
                           "--jx", "1.5707963", "--b", "1.0471975",
                           "--tmax", "100"], tmp_path)
        assert code == 0

    def test_symmetrized_passes(self, tmp_path):
        code, _ = run_cli(["compare", "--regime", "symmetrized", "--L", "6",
                           "--jx", "0.9", "--tmax", "30"], tmp_path)
        assert code == 0

    def test_tilted_regime_distinct_exit(self, capsys):
        assert main(["compare", "--regime", "tilted", "--L", "6", "--jx", "0.5",
                     "--tmax", "10"]) == 3

    def test_three_ring_compares_q_only(self, tmp_path):
        code, blob = run_cli(["compare", "--regime", "zero-field", "--L", "3",
                              "--jx", "0.7", "--tmax", "20"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        assert [r[0] for r in rows] == ["q"]

    def test_open_symmetrized_chain_has_no_oracle(self, tmp_path):
        code, blob = run_cli(["compare", "--regime", "symmetrized", "--boundary", "open",
                              "--L", "4", "--jx", "0.7", "--tmax", "20"], tmp_path)
        assert code == 3
        assert blob == b""

    def test_two_ring_fails_before_evolving(self, monkeypatch, capsys):
        from kicked_ising import harness

        def no_run(config):
            raise AssertionError("evolved a run that has no closed form")

        monkeypatch.setattr(harness, "run_time_series", no_run)
        assert main(["compare", "--regime", "zero-field", "--L", "2", "--jx", "0.7",
                     "--tmax", "20"]) == 3
        assert "no closed form" in capsys.readouterr().err

    def test_transverse_at_zero_field_compares_the_transverse_regime(self, tmp_path):
        # a vacuum start at B = 0, theta = pi/2 lies on the zero-field line too; the
        # transverse regime's only closed form is the free-fermion Q
        code, blob = run_cli(["compare", "--regime", "transverse", "--L", "6", "--jx", "0.7",
                              "--b", "0", "--tmax", "20"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        assert [r[0] for r in rows] == ["q"]
        assert float(rows[0][1]) < 1e-12

    def test_transverse_near_zero_field(self, tmp_path):
        # |sin B| of 3e-12 takes the same free-fermion modes as any other field
        code, blob = run_cli(["compare", "--regime", "transverse", "--L", "8", "--jx", "0.5",
                              "--b", "3e-12", "--tmax", "20"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        assert [r[0] for r in rows] == ["q"]
        assert float(rows[0][1]) < 1e-12

    def test_transverse_small_coupling_and_field(self, tmp_path):
        # one eigenvector ratio of the free-fermion modes is ~1e-6 of the other
        code, blob = run_cli(["compare", "--regime", "transverse", "--L", "8", "--jx", "4e-6",
                              "--b", "1.848e-6", "--tmax", "20"], tmp_path)
        assert code == 0
        _, rows = parse_csv(blob)
        assert [r[0] for r in rows] == ["q"]
        assert float(rows[0][1]) < 1e-12

    def test_tolerance_gate(self, tmp_path):
        # an impossible tolerance flips the exit code to 1
        code, _ = run_cli(["compare", "--regime", "transverse", "--L", "8",
                           "--jx", "1.1", "--b", "0.4", "--tmax", "20",
                           "--tol", "1e-18"], tmp_path)
        assert code == 1


_RUNS = {
    "evolve": ["evolve", "--L", "4", "--jx", "0.9", "--b", "0.4", "--theta", "0.7",
               "--steps", "3"],
    "sweep": ["sweep", "--axis1", "jx:0:1:2", "--axis2", "b:0:1:2", "--jx", "0.9",
              "--b", "0.4", "--theta", "0.7", "--L", "4", "--kicks", "3"],
    "analytic": ["analytic", "--formula", "jw_q", "--L", "4", "--jx", "0.9", "--b", "0.4",
                 "--tmin", "0", "--tmax", "3"],
    "compare": ["compare", "--regime", "transverse", "--L", "4", "--jx", "0.9", "--b", "0.4",
                "--theta", "0.7", "--tmax", "3", "--tol", "1e-8"],
}
_FLOAT_OPTIONS = [(command, option) for command, argv in _RUNS.items()
                  for option in argv if option in ("--jx", "--b", "--theta", "--tmin",
                                                   "--tmax", "--tol")
                  if (command, option) != ("compare", "--tmax")]  # a whole count of kicks


class TestParser:
    """Each subcommand takes the options of its row of the option table."""

    def test_named_subcommand_has_every_option(self, capsys):
        # its help lists exactly its own options, and it refuses the others'
        every = {name for _, _, table in cli._COMMANDS.values() for name in table}
        for command, (_, _, table) in cli._COMMANDS.items():
            assert len(table) > 3
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            listed = re.findall(r"^  (-h, --help|--[\w-]+)", capsys.readouterr().out, re.M)
            assert listed == ["-h, --help", *map(cli._flag, [*table, "config", "output"])]
            for other in sorted(every - set(table)):
                with pytest.raises(SystemExit) as exc:
                    main([command, cli._flag(other), "1"])
                assert exc.value.code == 2
                assert f"unrecognized argument '{cli._flag(other)}'" in capsys.readouterr().err

    def test_sweep_help_lists_its_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--axis1" in capsys.readouterr().out

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in ("evolve", "sweep", "analytic", "compare"))

    @pytest.mark.parametrize("command", ["evolve", "sweep", "analytic", "compare"])
    def test_config_fills_the_named_subcommands_defaults(self, tmp_path, command):
        from kicked_ising import cli

        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 7\nboundary = open\n")
        values = cli._config_values(str(cfg), cli._COMMANDS[command][2])
        assert values == {"L": 7, "boundary": "open"} and type(values["L"]) is int


class TestNonFiniteNumbers:
    """NaN and infinity are refused at the option that carries them, never run."""

    def test_every_float_option_is_covered(self):
        floats = {(command, cli._flag(name)) for command, (_, _, table) in cli._COMMANDS.items()
                  for name, option in table.items() if option.type not in (cli._int, str)}
        assert floats == set(_FLOAT_OPTIONS)

    @pytest.mark.parametrize("command, option", _FLOAT_OPTIONS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_float_option_refused(self, command, option, value, capsys):
        k = _RUNS[command].index(option)
        for given in ([f"{option}={value}"], [option, value]):  # "-inf" is a value, not a flag
            argv = _RUNS[command][:k] + given + _RUNS[command][k + 2:]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            errors = [line for line in err.splitlines() if "error:" in line]
            assert out == "" and len(errors) == 1
            assert option in errors[0] and repr(value) in errors[0]

    def test_nan_sweep_coupling_is_an_error_not_nan_rows(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis1", "b:0.5:1:2", "--axis2", "theta:0.3:0.6:2",
                  "--jx", "nan", "--L", "4", "--kicks", "3", "--measure", "q"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == [
            "kicked-ising sweep: error: argument --jx: expected a finite number, got 'nan'"]

    @pytest.mark.parametrize("axis", ["--axis1", "--axis2"])
    @pytest.mark.parametrize("bounds", ["0:nan", "inf:1", "-inf:nan"])
    def test_axis_bound_refused(self, axis, bounds, capsys):
        argv = list(_RUNS["sweep"])
        argv[argv.index(axis) + 1] = f"b:{bounds}:2" if axis == "--axis2" else f"jx:{bounds}:2"
        assert main(argv + ["--theta", "1.5707963267948966"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {axis} bound: expected a finite number")
        assert len(err.splitlines()) == 1

    def test_config_file_value_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 4\njx = 0.9\nb = inf\ntheta = 0.7\nsteps = 3\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: argument --b: expected a finite number, got 'inf'\n"


class TestArgvContract:
    """The argv forms argparse took keep their meaning; every other argv is a
    usage error of one line."""

    _FULL = ["evolve", "--L", "6", "--jx", "-0.5", "--b", "0.3", "--theta", "0.7",
             "--steps", "5", "--sample-every", "2", "--boundary", "open", "--output", "-"]

    @pytest.mark.parametrize("argv", [
        ["evolve", "--L=6", "--jx=-0.5", "--b=0.3", "--theta=0.7", "--steps=5",
         "--sample-every=2", "--boundary=open", "--output=-"],
        ["evolve", "--L", "6", "--j", "-0.5", "--b", "0.3", "--th", "0.7", "--st", "5",
         "--sa", "2", "--bo", "open", "--ou", "-"],
        ["evolve", "--L", "9", "--jx", "1", "--b", "0.3", "--theta", "0.7", "--steps", "5",
         "--sample-every", "2", "--boundary", "periodic", "--output", "x.csv",
         "--L=6", "--jx", "-0.5", "--boundary=open", "--output", "-"],
    ], ids=["equals", "prefixes", "last-wins"])
    def test_accepted_forms_mean_the_same(self, argv):
        assert cli._parse(argv) == cli._parse(self._FULL) == ("evolve", {
            "L": 6, "jx": -0.5, "b": 0.3, "theta": 0.7, "steps": 5, "sample_every": 2,
            "boundary": "open", "output": "-"})

    def test_exact_name_beats_a_longer_option(self):
        # --b names the field, though --boundary starts with it too
        assert cli._parse(["compare", "--b", "0.1"]) == ("compare", {"b": 0.1})

    def test_prefixed_run_writes_the_same_csv(self, tmp_path):
        full = self._FULL[:-2]
        _, want = run_cli(full, tmp_path, "a.csv")
        _, got = run_cli(["evolve", "--L=6", "--j", "-0.5", "--b=0.3", "--th", "0.7",
                          "--st", "5", "--sa=2", "--bo", "open"], tmp_path, "b.csv")
        assert got == want and want.count(b"\n") == 4

    @pytest.mark.parametrize("argv, names", [
        (["evolve", "--bogus", "1"], "'--bogus'"),
        (["evolve", "-L", "4"], "'-L'"),
        (["evolve", "--L"], "--L"),
        (["evolve", "--initial", "--L", "4"], "--initial"),
        (["evolve", "--L", "four"], "--L"),
        (["evolve", "--jx", "x"], "--jx"),
        (["evolve", "--boundary", "sideways"], "--boundary"),
        (["evolve", "stray"], "'stray'"),
        (["sweep", "--axis", "jx:0:1:2"], "--axis1, --axis2"),
        ([], "subcommand"),
        (["bogus", "--L", "4"], "'bogus'"),
        (["--L", "4", "evolve"], "'--L'"),
    ])
    def test_usage_error_is_one_line(self, argv, names, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert re.match(r"kicked-ising( \w+)?: error: ", err) and names in err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["evolve", "-h"],
                                      ["sweep", "--help"], ["compare", "--L", "4", "--h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: kicked-ising") and err == ""

    def test_config_keys_are_typed_checked_and_overridden(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 7\nsample-every = 3\njx = -1e-3\ninitial = ghz\n")
        table = cli._COMMANDS["evolve"][2]
        assert cli._config_values(str(cfg), table) == {
            "L": 7, "sample_every": 3, "jx": -1e-3, "initial": "ghz"}
        for bad, names in [("L = 7.5", "--L"), ("boundary = ring", "--boundary"),
                           ("L 7", "expected 'key = value'"), ("output = x", "'output'")]:
            cfg.write_text(bad + "\n")
            with pytest.raises(ValueError, match=re.escape(names)):
                cli._config_values(str(cfg), table)
            assert main(["evolve", "--config", str(cfg)]) == 2
            assert names in capsys.readouterr().err
        # a flag wins over the file; the file over the table's default
        cfg.write_text("L = 4\njx = 0.9\nb = 0.2\ntheta = 0.3\nsteps = 3\nboundary = open\n")
        _, from_file = run_cli(["evolve", "--config", str(cfg), "--steps", "2"], tmp_path)
        _, direct = run_cli(["evolve", "--L", "4", "--jx", "0.9", "--b", "0.2", "--theta", "0.3",
                             "--steps", "2", "--boundary", "open"], tmp_path, "b.csv")
        assert from_file == direct


def test_stdout_default(capsys):
    code = main(["analytic", "--formula", "cluster_nn_concurrence", "--jx", "1",
                 "--tmax", "3", "--samples", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("t,value\n")


class TestRuntimeImports:
    def test_a_run_imports_nothing_the_cli_import_did_not(self, tmp_path):
        # a fresh process pays for every module a run imports on its way: an
        # evolve, a sweep and a compare add nothing to sys.modules (reading
        # /proc/meminfo as ASCII once imported encodings.ascii)
        import os
        import subprocess
        import sys

        code = """if True:
            import os, sys
            import kicked_ising.cli as cli
            before = set(sys.modules)
            for argv in (
                    ["evolve", "--L", "6", "--jx", "0.9", "--b", "1.1", "--theta", "0.6",
                     "--steps", "3", "--sample-every", "2"],
                    ["sweep", "--axis1", "b:0.1:1:2", "--axis2", "theta:0.2:1.5707963:2",
                     "--jx", "0.9", "--L", "4", "--kicks", "3"],
                    ["compare", "--regime", "transverse", "--L", "6", "--jx", "1.1",
                     "--b", "0.7", "--tmax", "3"]):
                out = os.path.join(sys.argv[1], "out.csv")
                assert cli.main(argv + ["--output", out]) == 0
            print(sorted(set(sys.modules) - before))
        """
        src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"
