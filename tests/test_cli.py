import csv
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from zenopath import NonFiniteState, cli
from zenopath.cli import main


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_critical_points_command(tmp_path):
    out = tmp_path / "cp.csv"
    rc = main(["critical-points", "--lambda", "1.5", "--omega-s", "0.5", "-o", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header[0] == "point"
    p1 = dict(zip(header, rows[0]))
    assert float(p1["theta_rad"]) == pytest.approx(-0.729, abs=1e-3)
    assert float(p1["p_theta"]) == pytest.approx(0.894, abs=1e-3)
    sidecar = json.loads((tmp_path / "cp.config.json").read_text())
    assert sidecar["command"] == "critical-points"
    assert sidecar["config"]["lam"] == 1.5


def test_critical_points_at_huge_lambda(tmp_path):
    # lam^2 overflows a float here; the saddle's quantities do not
    out = tmp_path / "cp.csv"
    assert main(["critical-points", "--lambda", "1e200", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert len(rows) == 2
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])


@pytest.mark.parametrize("argv", [["--lambda", "1e308"], ["--lambda", "1e307", "--omega-s", "1e10"]],
                         ids=["separatrix", "exponents"])
def test_critical_points_overflow_is_named_and_writes_nothing(tmp_path, argv, capsys):
    # lam + sqrt(lam^2 - 1) overflows above about 9e307, and 2 Omega_s
    # sqrt(lam^2 - 1) where Omega_s lam does; a strict JSON parser rejects the
    # Infinity cells either would write
    out = tmp_path / "cp.json"
    assert main(["critical-points", *argv, "--format", "json", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error[NonFiniteState]" in err and f"lam = {float(argv[1])!r}" in err
    assert list(tmp_path.iterdir()) == []
    assert main(["critical-points", "--lambda", "1e200", "--format", "json", "-o", str(out)]) == 0

    def reject(token):
        raise ValueError(f"bare {token} is not JSON (RFC 8259)")

    rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
    assert all(math.isfinite(cell) for row in rows for cell in row[1:])


def test_transition_time_half_rabi(tmp_path):
    out = tmp_path / "tt.csv"
    assert main(["transition-time", "--lambda", "0", "--omega-s", "0.5", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    value = float(rows[0][header.index("time_ns")])
    assert value == pytest.approx(math.pi, abs=1e-12)


def test_trajectory_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["trajectory", "--alpha", "0", "--seed", "7", "--t-end", "1.0"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_round_trip(tmp_path):
    a = tmp_path / "a.csv"
    assert main(
        ["trajectory", "--lambda", "1.5", "--seed", "3", "--t-end", "0.5", "-o", str(a)]
    ) == 0
    c = tmp_path / "c.csv"
    assert main(
        ["trajectory", "--config", str(tmp_path / "a.config.json"), "-o", str(c)]
    ) == 0
    assert a.read_bytes() == c.read_bytes()


def test_config_file_key_value_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = 0.0\nomega_s = 0.5\n# comment\n")
    out = tmp_path / "t.csv"
    assert main(["transition-time", "--config", str(cfg), "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    assert float(rows[0][header.index("time_ns")]) == pytest.approx(math.pi)
    # explicit flag wins over the file value
    assert main(
        ["transition-time", "--config", str(cfg), "--lambda", "0.5", "-o", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    assert float(rows[0][header.index("time_ns")]) > math.pi


def test_numerical_failure_exit_code(tmp_path):
    rc = main(
        ["zeno-frequencies", "--lambda", "0.5", "-o", str(tmp_path / "x.csv")]
    )
    assert rc == 3


def test_validation_failure_exit_code(tmp_path):
    # a grid COUNT below 2 is argparse's usage error
    rc = _exit_code(
        ["density", "--zf-grid", "0.0", "0.5", "1", "-o", str(tmp_path / "x.csv")]
    )
    assert rc == 2


def test_full_precision_serialization(tmp_path):
    out = tmp_path / "tt.csv"
    assert main(["transition-time", "--lambda", "0.423", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    text = rows[0][header.index("time_ns")]
    from zenopath import transition_time_sub_zeno

    assert float(text) == transition_time_sub_zeno(0.423, 0.5)


def test_json_format(tmp_path):
    out = tmp_path / "cp.json"
    assert main(
        ["critical-points", "--lambda", "1.2", "--format", "json", "-o", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "point"
    assert len(payload["rows"]) == 2


def test_density_and_action_commands(tmp_path):
    out = tmp_path / "d.csv"
    assert main(
        ["density", "--lambda", "1.5", "--zf-grid", "-0.99", "0.99", "101", "-o", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    assert header == ["z_f", "probability_density"]
    assert len(rows) == 101

    out = tmp_path / "a.csv"
    assert main(["action", "--lambda", "0.5", "--method", "both", "-o", str(out)]) == 0
    header, rows = _read_csv(out)
    closed = float(rows[0][header.index("action")])
    quadrature = float(rows[1][header.index("action")])
    assert closed == pytest.approx(quadrature, abs=1e-6)


def test_mlp_and_ensemble_commands(tmp_path):
    out = tmp_path / "m.csv"
    assert main(
        ["mlp", "--lambda", "1.5", "--dt", "1e-3", "--t-end", "2.0", "-o", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    assert header[-1] == "stochastic_hamiltonian"
    h0 = float(rows[0][-1])
    h1 = float(rows[-1][-1])
    assert h1 == pytest.approx(h0, abs=1e-6)

    out = tmp_path / "e.csv"
    assert main(
        ["ensemble", "--alpha", "0", "--n", "3", "--t-end", "1.0", "-o", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    assert float(rows[-1][header.index("var_z")]) == 0.0
    # equal weights: n_eff is n
    assert all(float(r[header.index("n_eff")]) == pytest.approx(3.0, rel=1e-12) for r in rows)


def test_portrait_command(tmp_path):
    out = tmp_path / "p.csv"
    assert main(
        ["portrait", "--lambda", "0.5", "--theta-grid", "-3", "3", "61",
         "--energy-grid", "0.5", "1.5", "3", "-o", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    assert header == ["energy", "theta_rad", "p_theta"]
    assert len(rows) == 3 * 61


def test_portrait_skips_the_point_on_the_nullcline(tmp_path):
    # at lambda 1 the first grid angle, -pi/2, zeroes 1 + lam sin(theta): each
    # of the 8 default energies loses that row, so 8 x 4 rows are written
    out = tmp_path / "p.csv"
    assert main(["portrait", "--lambda", "1", "--theta-grid", "-1.5707963267948966", "0", "5",
                 "-o", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 32
    assert -math.pi / 2 not in {float(r[1]) for r in rows}


def test_ensemble_n_eff_below_n_when_weighted(tmp_path):
    out = tmp_path / "e.csv"
    assert main(
        ["ensemble", "--lambda", "1.5", "--n", "3", "--t-end", "1.0", "-o", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    n_eff = [float(r[header.index("n_eff")]) for r in rows]
    assert max(n_eff) <= 3.0 * (1.0 + 1e-12)
    assert n_eff[-1] < 3.0 - 1e-4


def test_ensemble_n_eff_exact_for_equal_weights(tmp_path):
    out = tmp_path / "e.csv"
    assert main(
        ["ensemble", "--alpha", "0", "--n", "3", "--t-end", "1.0", "-o", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    assert {r[header.index("n_eff")] for r in rows} == {"3"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_matches_csv_and_json_modules(tmp_path, monkeypatch, fmt):
    # blocks of 4 rows: 12 rows end on a partial block; non-finite cells included
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(cli, "_CSV_ROWS", 4)
    table = np.linspace(-3.0, 3.0, 30).reshape(10, 3) ** 3 / 7.0
    table[2, 1], table[7, 0], table[9, 2] = math.nan, math.inf, -math.inf
    # signed zeros, the least subnormal, a 3-digit exponent, an exact tie at the
    # 18th digit (rounded half to even) and an integer beyond 2^53
    table = np.vstack((table, [[-0.0, 0.0, 5e-324], [1e100, 2**-25, 123456789012345678.0]]))
    short = [("P1", 0.1, -0.0), ("P2", 1e-300, 2.5)]
    # the same table as an iterator of blocks smaller than, equal to and larger
    # than the writer's block
    streamed = [iter(np.split(table, range(size, 12, size))) for size in (1, 3, 4, 12)]
    for columns, rows, plain in (
        (["a", "b", "c"], table, table.tolist()),
        *((["a", "b", "c"], blocks, table.tolist()) for blocks in streamed),
        (["point", "x", "y"], short, short),
        (["a", "b", "c"], np.empty((0, 3)), []),
        (["a", "b", "c"], iter(()), []),
    ):
        path = tmp_path / f"t.{fmt}"
        with cli._outputs(path) as create, create(path) as fh:
            assert cli._write_table(fh, columns, rows, fmt) == len(plain)
        ref = tmp_path / f"ref.{fmt}"
        with open(ref, "w", newline="") as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(columns)
                for row in plain:
                    writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                                     for v in row])
            else:
                json.dump({"columns": columns, "rows": plain}, fh, indent=1)
                fh.write("\n")
        assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("key", ["lamda", "handler"])
def test_unknown_config_key_is_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 0.9\nomega_s = 0.5\n")
    out = tmp_path / "t.csv"
    assert main(["transition-time", "--config", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and key in err
    assert not out.exists()


def test_unwritable_output_exit_code(tmp_path, capsys):
    rc = main(["transition-time", "-o", str(tmp_path)])  # an existing directory
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[output]")


def test_unwritable_sidecar_removes_the_table_but_not_the_sidecar_path(tmp_path, capsys):
    out = tmp_path / "t.csv"
    (tmp_path / "t.config.json").mkdir()  # a sidecar that cannot be opened
    assert main(["transition-time", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error[output]")
    assert not out.exists()
    assert (tmp_path / "t.config.json").is_dir()
    # an output the run cannot open is left as it was
    assert main(["transition-time", "-o", str(tmp_path / "t.config.json")]) == 2
    assert (tmp_path / "t.config.json").is_dir()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_error_part_way_through_removes_the_table(tmp_path, fmt):
    def blocks():
        yield np.ones((3, 2))
        raise OSError(28, "No space left on device")

    path = tmp_path / f"t.{fmt}"
    with pytest.raises(OSError), cli._outputs(path) as create, create(path) as fh:
        cli._write_table(fh, ["a", "b"], blocks(), fmt)
    assert not path.exists()


@pytest.mark.parametrize("error, code", [(OSError(28, "No space left on device"), 2),
                                         (NonFiniteState("left the float range"), 3)])
def test_failed_run_removes_the_directories_it_made(tmp_path, monkeypatch, error, code):
    def handler(args):
        def blocks():
            yield np.ones((3, 2))
            raise error

        return ["a", "b"], blocks()

    monkeypatch.setitem(cli._SUBCOMMANDS, "mlp", (handler, *cli._SUBCOMMANDS["mlp"][1:]))
    (tmp_path / "old").mkdir()
    out = tmp_path / "old" / "new" / "sub" / "m.csv"
    assert main(["mlp", "-o", str(out)]) == code
    assert list(tmp_path.rglob("*")) == [tmp_path / "old"]


@pytest.mark.parametrize("stage", ["table", "sidecar"])
def test_interrupted_run_removes_everything_it_made(tmp_path, monkeypatch, stage):
    # an interrupt is re-raised, after the table, its sidecar and the
    # directories the run made are removed
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    if stage == "sidecar":  # the sidecar is the run's only json.dumps on a CSV table
        monkeypatch.setattr(cli.json, "dumps", interrupt)
    else:
        def handler(args):
            def blocks():
                yield np.ones((3, 2))
                interrupt()

            return ["a", "b"], blocks()

        monkeypatch.setitem(cli._SUBCOMMANDS, "transition-time",
                            (handler, *cli._SUBCOMMANDS["transition-time"][1:]))
    (tmp_path / "old").mkdir()
    with pytest.raises(KeyboardInterrupt):
        main(["transition-time", "-o", str(tmp_path / "old" / "new" / "t.csv")])
    assert list(tmp_path.rglob("*")) == [tmp_path / "old"]


def test_json_floats_read_back_identical(tmp_path):
    from zenopath import DiffusiveParams, ExtendedState, integrate_mlp

    out = tmp_path / "m.json"
    assert main(
        ["mlp", "--lambda", "1.5", "--dt", "1e-3", "--t-end", "0.5", "--format", "json",
         "-o", str(out)]
    ) == 0
    rows = json.loads(out.read_text())["rows"]
    params = DiffusiveParams.from_lambda(0.5, 1.5, tau=100.0)
    traj = integrate_mlp(ExtendedState(0.0, 0.4, 0.916, 0.5, 0.3, 0.2), params, 1e-3, 0.5)
    assert [r[1:7] for r in rows] == traj.states.tolist()
    assert [r[7] for r in rows] == traj.readout.tolist()


def test_trajectory_json_is_strict_with_one_readout_per_row(tmp_path):
    from zenopath import DiffusiveParams, _kernels, wiener_increments

    out = tmp_path / "t.json"
    assert main(["trajectory", "--lambda", "1.5", "--seed", "5", "--t-end", "1",
                 "--format", "json", "-o", str(out)]) == 0

    def reject(token):
        raise ValueError(f"bare {token} is not JSON (RFC 8259)")

    rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
    n, dt = 1000, 1e-3
    params = DiffusiveParams.from_lambda(0.5, 1.5, tau=100.0)
    psi = np.array(_kernels.psi_from_bloch(0.0, 0.0, 1.0))[:, None]
    psi_rows, _ = _kernels.diffusive_walk(psi, np.zeros(1), params.omega_s, params.alpha, dt,
                                          wiener_increments(5, dt, n)[:, None])
    bloch = _kernels.bloch_rows(psi_rows)[:, :, 0]
    bloch[0] = 0.0, 0.0, 1.0
    readout = math.sqrt(100.0) * wiener_increments(5, dt, n + 1) / dt
    assert rows == np.column_stack((np.arange(n + 1) * dt, bloch, readout)).tolist()


def test_config_numbers_take_the_option_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_s = 1\nlam = 0\n")
    out = tmp_path / "tt.json"
    assert main(["transition-time", "--config", str(cfg), "--format", "json",
                 "-o", str(out)]) == 0
    sidecar = (tmp_path / "tt.config.json").read_text()
    assert '"omega_s": 1.0' in sidecar and '"lam": 0.0' in sidecar
    assert json.loads(out.read_text())["rows"][0][:2] == [0.0, 1.0]


def test_config_value_the_type_rejects_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7.5\n")
    out = tmp_path / "t.csv"
    assert main(["trajectory", "--config", str(cfg), "--t-end", "0.01", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and "seed" in err
    assert not out.exists()


def test_config_method_outside_choices_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"method": "bogus"}')
    out = tmp_path / "a.csv"
    assert main(["action", "--config", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]")
    assert "method" in err and "'bogus'" in err and "closed, quadrature, both" in err
    assert not out.exists()


def test_config_format_outside_choices_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZENOPATH_OUTDIR", str(tmp_path))
    cfg = tmp_path / "run.json"
    cfg.write_text('{"format": "xml"}')
    assert main(["transition-time", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]")
    assert "format" in err and "'xml'" in err and "csv, json" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--t-end", "-1")])
def test_mlp_invalid_step_exits_2_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "m.csv"
    assert main(["mlp", flag, value, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error[invalid-config]")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mlp_leaving_the_float_range_exits_3_without_a_table(tmp_path, capsys, fmt):
    # the default step (dt 1e-3, t-end 10) is RK4-unstable from t = 8.766 on;
    # the rows written before that are removed and no sidecar is written
    out = tmp_path / f"m.{fmt}"
    assert main(["mlp", "--format", fmt, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[NonFiniteState]") and "t = 8.766" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_rerun_leaves_the_earlier_outputs_byte_identical(tmp_path, capsys, fmt):
    out = tmp_path / f"m.{fmt}"
    sidecar = tmp_path / "m.config.json"
    assert main(["mlp", "--dt", "1e-3", "--t-end", "1", "--format", fmt, "-o", str(out)]) == 0
    before = out.read_bytes(), sidecar.read_bytes()
    # the default t-end leaves the float range at t = 8.766, part way through the table
    assert main(["mlp", "--format", fmt, "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error[NonFiniteState]")
    assert (out.read_bytes(), sidecar.read_bytes()) == before
    assert sorted(tmp_path.iterdir()) == [sidecar, out]  # no temporary is left


def test_zeno_frequencies_below_lambda_one_is_no_zeno_regime(tmp_path, capsys):
    out = tmp_path / "z.csv"
    assert main(["zeno-frequencies", "--lambda", "0.5", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[NoZenoRegime]") and "lam > 1, got 0.5" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    # theta1 at lam 1.5 and one ulp above it: a math domain error and a
    # ZeroDivisionError before the start angle was checked
    pytest.param(["--theta-i=-0.7297276562269663"], id="-0.7297276562269663"),
    pytest.param(["--theta-i=-0.7297276562269662"], id="-0.7297276562269662"),
    # a grid end at cos(theta1): the same two failures before each z_f was
    # checked; at -cos(theta1) (theta2) a table with a capped weight
    pytest.param(["--zf-grid", "0.7453559924999299", "0.9", "2"], id="zf=cos-theta1"),
    pytest.param(["--zf-grid", "0.74535599249993", "0.9", "2"], id="zf=cos-theta1-ulp"),
    pytest.param(["--zf-grid", "-0.9", "-0.7453559924999299", "2"], id="zf=cos-theta2"),
])
def test_density_from_a_critical_angle_is_a_singular_endpoint(tmp_path, capsys, flags):
    out = tmp_path / "d.csv"
    assert main(["density", "--lambda", "1.5", *flags, "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error[SingularEndpoint]")
    assert list(tmp_path.iterdir()) == []


def test_mlp_memory_does_not_grow_with_the_path(tmp_path, monkeypatch):
    # the table flows in blocks: 6x the steps may not take 1.5x the peak memory.
    # Blocks of 16 rows keep both runs many blocks long at a size that is quick
    # to step under tracemalloc.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 16)
    peaks = {}
    for t_end in ("3", "0.5"):  # the longer run first, so one-off allocations count against it
        tracemalloc.start()
        try:
            assert main(["mlp", "--dt", "1e-3", "--t-end", t_end,
                         "-o", str(tmp_path / f"m{t_end}.csv")]) == 0
            peaks[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["3"] < 1.5 * peaks["0.5"], peaks


def test_table_writer_memory_does_not_grow_with_the_table(tmp_path):
    # 8x the blocks may not take 1.5x the peak memory (bound fixed before the
    # first run, as for the most-likely path above)
    block = np.random.default_rng(18).standard_normal((1024, 9))
    peaks = {}
    for n_blocks in (160, 20):  # the longer table first: one-off allocations count against it
        tracemalloc.start()
        try:
            path = tmp_path / f"w{n_blocks}.csv"
            with cli._outputs(path) as create, create(path) as fh:
                assert cli._write_table(fh, list("abcdefghi"),
                                        (block for _ in range(n_blocks)), "csv") == 1024 * n_blocks
            peaks[n_blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[160] < 1.5 * peaks[20], peaks


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


@pytest.mark.parametrize("command, flags, config, prefix, names", [
    ("trajectory", ["--x0", "nan"], None, "usage:", "--x0"),
    ("ensemble", ["--t-end", "inf"], None, "usage:", "--t-end"),
    ("portrait", ["--energy-grid", "0", "inf", "3"], None, "usage:", "--energy-grid"),
    ("portrait", ["--energy-grid", "0.25", "2", "8.7"], None, "usage:", "COUNT 8.7"),
    ("transition-time", [], "lam_grid = 3", "error[config]", "lam_grid"),
    ("trajectory", [], 'gaussian = "no"', "error[config]", "gaussian"),
    ("portrait", [], 'energy_grid = [0.25, 2, "x"]', "error[config]", "energy_grid"),
    ("transition-time", [], "lam = abc", "error[config]", "lam = 'abc'"),
    ("trajectory", ["--dt", "1e-300", "--t-end", "1e300"], None, "error[invalid-config]",
     "t_end / dt"),
    # finite but far more steps than an array can hold: nothing is allocated
    ("trajectory", ["--dt", "1e-300", "--t-end", "1"], None, "error[invalid-config]",
     "t_end / dt = 1.0 / 1e-300 asks for 1e+300 steps"),
    # the library's own checks, for the rates the params classes do not see
    ("transition-time", ["--omega-s", "0"], None, "error[invalid-config]",
     "omega_s must be positive"),
    ("transition-time", ["--omega-s", "-1"], None, "error[invalid-config]",
     "omega_s must be positive"),
    ("zeno-frequencies", ["--omega-s", "0"], None, "error[invalid-config]",
     "omega_s must be positive"),
    ("zeno-frequencies", ["--omega-s", "-0.5"], None, "error[invalid-config]",
     "omega_s must be positive"),
    ("portrait", ["--lambda", "-0.5"], None, "error[invalid-config]", "lam must be nonnegative"),
    # a grid COUNT below 2, by flag and by config value
    ("portrait", ["--theta-grid", "0", "1", "1"], None, "usage:",
     "--theta-grid: COUNT must be at least 2"),
    ("transition-time", [], "lam_grid = [0, 1, 1]", "error[config]", "lam_grid"),
    # a line that is not key = value, and a sidecar value that is an object
    ("transition-time", [], "lam 0.5", "error[config]", "expected key = value"),
    ("transition-time", [], '{"command": "transition-time", "config": {"lam": {"a": 1}}}',
     "error[config]", "expected numbers or strings"),
])
def test_bad_input_exits_2_with_a_named_error_and_writes_nothing(
        tmp_path, monkeypatch, capsys, command, flags, config, prefix, names):
    monkeypatch.setenv("ZENOPATH_OUTDIR", str(tmp_path / "out"))
    argv = [command, *flags]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and names in err
    assert not (tmp_path / "out").exists()


def test_output_in_a_config_file_is_rejected(tmp_path, monkeypatch, capsys):
    # the sidecar never records the output path, so a config file may not set it
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ZENOPATH_OUTDIR", raising=False)
    (tmp_path / "o.cfg").write_text('output = "cfgout.csv"\nomega_s = 0.5\n')
    assert main(["transition-time", "--config", "o.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and "output" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.cfg"]


#: Non-default flags for each subcommand, with a grid where it takes one.
ROUND_TRIPS = {
    "portrait": ["--lambda", "0.7", "--theta-grid", "-3", "3", "31",
                 "--energy-grid", "0.5", "1.5", "3"],
    "critical-points": ["--lambda", "1.2", "--omega-s", "0.25"],
    "action": ["--lambda", "0.3", "--theta-f", "-2", "--method", "closed"],
    "transition-time": ["--lambda-grid", "0", "0.9", "4", "--omega-s", "0.4"],
    "zeno-frequencies": ["--lambda-grid", "1.1", "2", "3", "--epsilon", "0.01"],
    "density": ["--lambda", "0.5", "--theta-i", "0.2", "--zf-grid", "-0.9", "0.9", "11"],
    "trajectory": ["--alpha", "2", "--seed", "4", "--gaussian", "--t-end", "0.2",
                   "--y0", "0.6", "--z0", "0.8"],
    "mlp": ["--lambda", "1.2", "--dt", "1e-3", "--t-end", "0.3", "--px0", "0.1",
            "--format", "json"],
    "ensemble": ["--lambda", "1.1", "--n", "3", "--seed", "2", "--gaussian",
                 "--t-end", "0.2", "--tau", "50"],
}


@pytest.mark.parametrize("command", ROUND_TRIPS)
def test_sidecar_round_trip_reproduces_table_and_sidecar(tmp_path, command):
    fmt = "json" if "json" in ROUND_TRIPS[command] else "csv"
    a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    assert main([command, *ROUND_TRIPS[command], "-o", str(a)]) == 0
    assert main([command, "--config", str(tmp_path / "a.config.json"), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.config.json").read_bytes() == (tmp_path / "b.config.json").read_bytes()


def test_grid_by_flag_and_by_config_write_the_same_sidecar(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam_grid = [0, 0.95, 96]\n")
    assert main(["transition-time", "--lambda-grid", "0", "0.95", "96",
                 "-o", str(tmp_path / "flag.csv")]) == 0
    assert main(["transition-time", "--config", str(cfg), "-o", str(tmp_path / "cfg.csv")]) == 0
    flag, by_config = tmp_path / "flag.config.json", tmp_path / "cfg.config.json"
    assert flag.read_bytes() == by_config.read_bytes()
    assert json.loads(flag.read_text())["config"]["lam_grid"] == [0.0, 0.95, 96]
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "cfg.csv").read_bytes()


def test_sidecar_with_string_grid_cells_reproduces_its_table(tmp_path):
    # sidecars once recorded a grid given by flag as its text
    old = tmp_path / "old.config.json"
    old.write_text(json.dumps({
        "command": "transition-time",
        "config": {"format": "csv", "lam": 0.0, "lam_grid": ["0", "0.95", "96"],
                   "omega_s": 0.5},
        "zenopath_version": "0.1.0",
    }))
    out = tmp_path / "t.csv"
    assert main(["transition-time", "--config", str(old), "-o", str(out)]) == 0
    # the table that sidecar's run wrote
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bbd11fcee3ad759e72157b09a660657e97678e9efe8c7d07aac9b2e9525c022b")


@pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
def test_help_of_each_subcommand_lists_its_own_options(command, capsys):
    # main adds the options of the named subcommand only
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    options = next(part for part in capsys.readouterr().out.split("\n\n")
                   if part.startswith("options:"))
    listed = {flag for line in re.findall(r"^  (-[\w-]+)[^,\n]*(?:, (-[\w-]+))?", options, re.M)
              for flag in line if flag}
    own = set(cli._SUBCOMMANDS[command][3])
    assert listed == {"-h", "--help", "-o", "--output", "--format", "--config", *own}
    # the parser built for one subcommand parses it as the whole parser does
    assert (vars(cli.build_parser(command).parse_args([command]))
            == vars(cli.build_parser().parse_args([command])))


def test_config_sets_the_defaults_of_the_one_subcommand_built(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('format = "json"\nomega_s = 0.25\nlam = 0.5\n')
    out = tmp_path / "t.json"
    assert main(["transition-time", "--config", str(cfg), "--lambda", "0.0",
                 "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0][:2] == [0.0, 0.25]  # the flag wins over the file's lam
    config = json.loads((tmp_path / "t.config.json").read_text())["config"]
    assert (config["format"], config["omega_s"], config["lam"]) == ("json", 0.25, 0.0)
