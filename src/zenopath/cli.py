"""Command-line front end: parameter sweeps serialized to CSV/JSON.

Every run writes one table plus a JSON sidecar ``<output>.config.json``
holding the fully resolved configuration; re-running with ``--config
<sidecar>`` reproduces the output byte for byte.  CSV writes floats with 17
significant digits (``.17g``), JSON with Python's shortest round-trip
``repr``; both read back to the identical float.  Exit codes: 0 success, 2
invalid configuration or an unwritable output path, 3 numerical failure (the
message names the underlying error).
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CurveSingularity, ZenoPathError
from .measurement import BlochState
from .phase import (
    PhaseParams, PhasePoint, critical_points, energy_level, p_theta_curve,
    separatrix_energies, stability_exponents,
)
from .action import (
    action_closed_form,
    action_quadrature,
    final_state_density,
    transition_time_sub_zeno,
    zeno_frequencies,
)
from .diffusive import (
    DiffusiveParams,
    ExtendedState,
    WienerStream,
    ensemble_stats,
    integrate_mlp,
    sample_trajectory,
)

#: Rows formatted per write: the text of one block is all the writer holds.
_BLOCK_ROWS = 1024
_CSV_FLOAT = "%.17g"


def _write_table(path: Path, columns, rows, fmt: str) -> int:
    """Write the table and return its number of rows.

    ``rows`` is a 2-d float array, or a short list of row tuples for the
    tables with string cells.  Rows are formatted a block at a time: CSV with
    ``.17g`` floats and ``csv.writer``'s row end ``\\r\\n``, JSON in the layout
    of ``json.dump(indent=1)`` with ``repr`` floats.
    """
    cell = _CSV_FLOAT if fmt == "csv" and isinstance(rows, np.ndarray) else "%s"
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(columns) + "\r\n")
            row, sep, lead = ",".join([cell] * len(columns)) + "\r\n", "", ""
        else:
            fh.write('{\n "columns": [\n' + ",\n".join("  " + json.dumps(c) for c in columns)
                     + '\n ],\n "rows": [')
            row = "  [\n" + ",\n".join(["   " + cell] * len(columns)) + "\n  ]"
            sep, lead = ",\n", "\n"
        for k, cells in _cell_blocks(rows, fmt):
            fh.write(lead + sep.join([row] * k) % tuple(cells))
            lead = sep
        if fmt == "json":
            fh.write("\n ]\n}\n" if len(rows) else "]\n}\n")
    return len(rows)


def _cell_blocks(rows, fmt: str):
    """(row count, flat cell values) for each block of rows."""
    if not isinstance(rows, np.ndarray):
        if rows:  # string-cell tables: one block, every cell formatted here
            yield len(rows), [
                json.dumps(v) if fmt == "json" else v if isinstance(v, str) else _CSV_FLOAT % v
                for r in rows for v in r
            ]
        return
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        cells = block.ravel().tolist()
        if fmt == "json":
            for i in np.flatnonzero(~np.isfinite(block.ravel())):
                cells[i] = json.dumps(cells[i])  # NaN, Infinity, -Infinity
        yield len(block), cells


def _write_sidecar(path: Path, command: str, resolved: dict):
    sidecar = path.with_name(path.stem + ".config.json")
    payload = {
        "command": command,
        "zenopath_version": __version__,
        "config": resolved,
    }
    with open(sidecar, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    """Read a config file: JSON (including run sidecars) or key = value lines."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if "config" in data and isinstance(data["config"], dict):
            return data["config"]
        return data
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {line!r}")
        key, _, raw = line.partition("=")
        raw = raw.strip()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[key.strip().replace("-", "_")] = value
    return out


def _grid(spec, name: str) -> np.ndarray:
    start, stop, count = spec
    count = int(count)
    if count < 2:
        raise ValueError(f"{name}: grid count must be >= 2")
    return np.linspace(float(start), float(stop), count)


def _diffusive_params(args) -> DiffusiveParams:
    if args.alpha is not None:
        return DiffusiveParams(omega_s=args.omega_s, alpha=args.alpha, tau=args.tau)
    return DiffusiveParams.from_lambda(omega_s=args.omega_s, lam=args.lam, tau=args.tau)


def _cmd_portrait(args):
    rows = []
    thetas = _grid(args.theta_grid, "--theta-grid")
    for e in _grid(args.energy_grid, "--energy-grid"):
        for th in thetas:
            try:
                p = p_theta_curve(float(th), args.lam, float(e))
            except CurveSingularity:
                continue
            rows.append((float(e), float(th), p))
    return ["energy", "theta_rad", "p_theta"], np.array(rows, dtype=float).reshape(-1, 3)


def _cmd_critical_points(args):
    params = PhaseParams(omega_s=args.omega_s, lam=args.lam)
    cps = critical_points(params)
    plus, minus = stability_exponents(params)
    e_low, e_high = separatrix_energies(args.lam)
    e1 = energy_level(PhasePoint(cps.theta1, cps.p_theta1), params)
    e2 = energy_level(PhasePoint(cps.theta2, cps.p_theta2), params)
    rows = [
        ("P1", cps.theta1, cps.p_theta1, minus, plus, e1, e_low, e_high),
        ("P2", cps.theta2, cps.p_theta2, plus, minus, e2, e_low, e_high),
    ]
    return [
        "point",
        "theta_rad",
        "p_theta",
        "theta_exponent_ghz",
        "p_theta_exponent_ghz",
        "energy",
        "e_separatrix_low",
        "e_separatrix_high",
    ], rows


def _cmd_action(args):
    rows = []
    if args.method in ("closed", "both"):
        rows.append(
            (args.lam, args.theta_i, args.theta_f, "closed",
             action_closed_form(args.theta_i, args.theta_f, args.lam))
        )
    if args.method in ("quadrature", "both"):
        rows.append(
            (args.lam, args.theta_i, args.theta_f, "quadrature",
             action_quadrature(args.theta_i, args.theta_f, args.lam))
        )
    return ["lambda", "theta_i_rad", "theta_f_rad", "method", "action"], rows


def _cmd_transition_time(args):
    lams = _grid(args.lam_grid, "--lambda-grid") if args.lam_grid else [args.lam]
    rows = []
    for lam in lams:
        t = transition_time_sub_zeno(float(lam), args.omega_s)
        rows.append((float(lam), args.omega_s, t, 1.0 / t))
    return ["lambda", "omega_s_ghz", "time_ns", "frequency_ghz"], np.array(rows, dtype=float)


def _cmd_zeno_frequencies(args):
    lams = _grid(args.lam_grid, "--lambda-grid") if args.lam_grid else [args.lam]
    rows = []
    for lam in lams:
        tt = zeno_frequencies(float(lam), args.omega_s, args.epsilon)
        rows.append((float(lam), args.epsilon, tt.omega1, tt.omega12, tt.omega2))
    return [
        "lambda", "epsilon_rad", "omega1_ghz", "omega12_ghz", "omega2_ghz",
    ], np.array(rows, dtype=float)


def _cmd_density(args):
    z, dens = final_state_density(args.lam, args.theta_i, _grid(args.zf_grid, "--zf-grid"))
    return ["z_f", "probability_density"], np.column_stack((z, dens))


def _cmd_trajectory(args):
    params = _diffusive_params(args)
    b0 = BlochState(args.x0, args.y0, args.z0)
    stream = WienerStream(seed=args.seed, dt=args.dt, gaussian=args.gaussian)
    traj = sample_trajectory(b0, params, args.dt, args.t_end, stream)
    readout = np.append(traj.readout, math.nan)  # no step starts at the last time
    return ["time_ns", "x", "y", "z", "readout"], np.column_stack((traj.t, traj.bloch, readout))


def _cmd_mlp(args):
    params = _diffusive_params(args)
    s0 = ExtendedState(args.x0, args.y0, args.z0, args.px0, args.py0, args.pz0)
    traj = integrate_mlp(s0, params, args.dt, args.t_end)
    h = traj.hamiltonian(params)
    return [
        "time_ns", "x", "y", "z", "p_x", "p_y", "p_z", "readout",
        "stochastic_hamiltonian",
    ], np.column_stack((traj.t, traj.states, traj.readout, h))


def _cmd_ensemble(args):
    params = _diffusive_params(args)
    b0 = BlochState(args.x0, args.y0, args.z0)
    stats = ensemble_stats(
        b0, params, args.dt, args.t_end, args.n, args.seed, gaussian=args.gaussian
    )
    return [
        "time_ns", "mean_x", "mean_y", "mean_z", "var_x", "var_y", "var_z", "n_eff",
    ], np.column_stack((stats.t, stats.mean, stats.var, stats.n_eff))


def _add_output_args(p: argparse.ArgumentParser, default_name: str):
    p.add_argument("--output", "-o", default=None,
                   help=f"output file (default {default_name}.<format> in "
                        "$ZENOPATH_OUTDIR or the working directory)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="table format (default csv)")
    p.add_argument("--config", default=None,
                   help="config file: 'key = value' lines or a JSON sidecar; "
                        "explicit flags override file values")


def _add_diffusive_args(p: argparse.ArgumentParser, t_end: float):
    p.add_argument("--omega-s", dest="omega_s", type=float, default=0.5,
                   help="drive amplitude Omega_s in GHz (Rabi frequency 2*Omega_s)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=1.5,
                       help="Zeno ratio alpha/(4 Omega_s)")
    group.add_argument("--alpha", type=float, default=None,
                       help="measurement rate in GHz (overrides --lambda)")
    p.add_argument("--tau", type=float, default=100.0,
                   help="detector characteristic time in ns")
    p.add_argument("--dt", type=float, default=1e-3, help="time step in ns")
    p.add_argument("--t-end", dest="t_end", type=float, default=t_end,
                   help="total integration time in ns")


_COLUMN_DOCS = {
    "portrait": "energy: curve label E; theta_rad: angle; p_theta: conjugate momentum",
    "critical-points": "two rows (P1, P2); exponents in GHz are the contraction/"
                       "expansion rates of the theta and p_theta axes",
    "action": "action: dimensionless stochastic action (hbar = 1)",
    "transition-time": "time_ns: 0 -> -pi transition time; frequency_ghz: its inverse",
    "zeno-frequencies": "omega1/omega12/omega2: inverse times of the three segments "
                        "0->theta1+eps, theta2+eps->theta1-eps, theta2-eps->-pi",
    "density": "probability_density: normalized so the trapezoid integral over z_f is 1",
    "trajectory": "readout: record r_k = sqrt(tau) dW_k/dt for the step starting at "
                  "time_ns (nan on the final row)",
    "mlp": "readout: extremal record; stochastic_hamiltonian: conserved generator",
    "ensemble": "mean/var: per-time mean and population variance over n "
                "trajectories seeded base_seed+k, each weighted by the probability "
                "exp(-int alpha (1 - z)/2 dt) that its record held no click so far; "
                "n_eff: effective number of trajectories (sum w)^2 / sum w^2, so the "
                "standard error of a mean is sqrt(var / n_eff)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenopath",
        description="Weak-measurement Zeno dynamics of a driven qubit: phase-space "
                    "portraits, actions, transition times and stochastic trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"zenopath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("portrait", help="constant-energy curves p_theta(theta)",
                       epilog=_COLUMN_DOCS["portrait"])
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--theta-grid", nargs=3, default=(-3.14, 3.14, 629),
                   metavar=("START", "STOP", "COUNT"))
    p.add_argument("--energy-grid", nargs=3, default=(0.25, 2.0, 8),
                   metavar=("START", "STOP", "COUNT"))
    _add_output_args(p, "portrait")
    p.set_defaults(handler=_cmd_portrait)

    p = sub.add_parser("critical-points", help="saddle pair, exponents, separatrices",
                       epilog=_COLUMN_DOCS["critical-points"])
    p.add_argument("--lambda", dest="lam", type=float, default=1.5)
    p.add_argument("--omega-s", dest="omega_s", type=float, default=0.5)
    _add_output_args(p, "critical_points")
    p.set_defaults(handler=_cmd_critical_points)

    p = sub.add_parser("action", help="stochastic action between two angles",
                       epilog=_COLUMN_DOCS["action"])
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--theta-i", dest="theta_i", type=float, default=0.0)
    p.add_argument("--theta-f", dest="theta_f", type=float, default=-math.pi)
    p.add_argument("--method", choices=("closed", "quadrature", "both"), default="both")
    _add_output_args(p, "action")
    p.set_defaults(handler=_cmd_action)

    p = sub.add_parser("transition-time", help="sub-Zeno 0 -> -pi transition time",
                       epilog=_COLUMN_DOCS["transition-time"])
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--lambda-grid", dest="lam_grid", nargs=3, default=None,
                   metavar=("START", "STOP", "COUNT"))
    p.add_argument("--omega-s", dest="omega_s", type=float, default=0.5)
    _add_output_args(p, "transition_time")
    p.set_defaults(handler=_cmd_transition_time)

    p = sub.add_parser("zeno-frequencies", help="segment frequencies for lambda > 1",
                       epilog=_COLUMN_DOCS["zeno-frequencies"])
    p.add_argument("--lambda", dest="lam", type=float, default=1.5)
    p.add_argument("--lambda-grid", dest="lam_grid", nargs=3, default=None,
                   metavar=("START", "STOP", "COUNT"))
    p.add_argument("--omega-s", dest="omega_s", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-3)
    _add_output_args(p, "zeno_frequencies")
    p.set_defaults(handler=_cmd_zeno_frequencies)

    p = sub.add_parser("density", help="most-likely final-state density over z_f",
                       epilog=_COLUMN_DOCS["density"])
    p.add_argument("--lambda", dest="lam", type=float, default=1.5)
    p.add_argument("--theta-i", dest="theta_i", type=float, default=0.0)
    p.add_argument("--zf-grid", nargs=3, default=(-0.999, 0.999, 801),
                   metavar=("START", "STOP", "COUNT"))
    _add_output_args(p, "density")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("trajectory", help="sample one conditioned diffusive trajectory",
                       epilog=_COLUMN_DOCS["trajectory"])
    _add_diffusive_args(p, t_end=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gaussian", action="store_true",
                   help="Gaussian Wiener increments instead of binary +-sqrt(dt)")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--z0", type=float, default=1.0)
    _add_output_args(p, "trajectory")
    p.set_defaults(handler=_cmd_trajectory)

    p = sub.add_parser("mlp", help="integrate the most-likely-path equations",
                       epilog=_COLUMN_DOCS["mlp"])
    _add_diffusive_args(p, t_end=10.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.4)
    p.add_argument("--z0", type=float, default=0.916)
    p.add_argument("--px0", type=float, default=0.5)
    p.add_argument("--py0", type=float, default=0.3)
    p.add_argument("--pz0", type=float, default=0.2)
    _add_output_args(p, "mlp")
    p.set_defaults(handler=_cmd_mlp)

    p = sub.add_parser("ensemble", help="survival-weighted mean/variance over seeded trajectories",
                       epilog=_COLUMN_DOCS["ensemble"])
    _add_diffusive_args(p, t_end=20.0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="base seed; trajectory k uses seed+k")
    p.add_argument("--gaussian", action="store_true")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--z0", type=float, default=1.0)
    _add_output_args(p, "ensemble")
    p.set_defaults(handler=_cmd_ensemble)

    return parser


_NON_CONFIG_KEYS = {"handler", "command", "output", "config"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.config:
        try:
            overrides = _load_config(args.config)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error[config]: {exc}", file=sys.stderr)
            return 2
        unknown = sorted(
            k for k in overrides
            if not hasattr(args, k) or k in ("handler", "command", "config")
        )
        if unknown:
            print(f"error[config]: {args.config}: unknown keys for {args.command}: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2
        # file values become the subcommand's defaults, so explicit flags win
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub.choices[args.command].set_defaults(**overrides)
        args = parser.parse_args(argv)

    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k not in _NON_CONFIG_KEYS
    }

    outdir = Path(os.environ.get("ZENOPATH_OUTDIR", "."))
    if args.output is None:
        out_path = outdir / f"{args.command.replace('-', '_')}.{args.format}"
    else:
        out_path = Path(args.output)

    try:
        columns, rows = args.handler(args)
    except ZenoPathError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error[invalid-config]: {exc}", file=sys.stderr)
        return 2

    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        n_rows = _write_table(out_path, columns, rows, args.format)
        _write_sidecar(out_path, args.command, resolved)
    except OSError as exc:
        print(f"error[output]: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_path} ({n_rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
