import csv
import json
import math

import numpy as np
import pytest

from zenopath import cli
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
    rc = main(
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
    # blocks of 4 rows: 10 rows end on a partial block; non-finite cells included
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    table = np.linspace(-3.0, 3.0, 30).reshape(10, 3) ** 3 / 7.0
    table[2, 1], table[7, 0], table[9, 2] = math.nan, math.inf, -math.inf
    short = [("P1", 0.1, -0.0), ("P2", 1e-300, 2.5)]
    for columns, rows, plain in (
        (["a", "b", "c"], table, table.tolist()),
        (["point", "x", "y"], short, short),
        (["a", "b", "c"], np.empty((0, 3)), []),
    ):
        path = tmp_path / f"t.{fmt}"
        assert cli._write_table(path, columns, rows, fmt) == len(plain)
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
