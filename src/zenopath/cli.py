"""Command-line front end: parameter sweeps serialized to CSV/JSON.

Every run writes one table plus a JSON sidecar ``<output>.config.json``
holding the fully resolved configuration; re-running with ``--config
<sidecar>`` reproduces the output byte for byte.  CSV writes floats with 17
significant digits (``.17g``), JSON with Python's shortest round-trip
``repr``; both read back to the identical float.  Exit codes: 0 success, 2
invalid configuration (a non-finite value or a config value of the wrong kind
included) or an unwritable output path, 3 numerical failure (the message
names the underlying error, such as a most-likely path that leaves the
floating-point range part way through its table).  A failed run (exit 2,
exit 3 or an interrupt) leaves no file or directory it made, and the files
an earlier run wrote at its output paths are left as they were.
"""

import argparse
import contextlib
import errno
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import float_rows, json_rows
from .errors import CurveSingularity, ZenoPathError
from .measurement import BlochState
from .phase import (PhaseParams, critical_points, energy_level, p_theta_curve,
                    separatrix_energies)
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
    mlp_pieces,
    sample_trajectory,
)

#: Rows of a block: of the most-likely path's pieces, and per JSON write.
_BLOCK_ROWS = 1024
#: Rows per CSV write of float cells, formatted in one numpy pass: the
#: temporaries of 256 rows stay in cache and in the memory of one text block.
_CSV_ROWS = 256
_CSV_FLOAT = "%.17g"


@contextlib.contextmanager
def _outputs(path: Path):
    """One run's output transaction: makes the missing parent directories of
    ``path`` and yields ``create``, which opens a new temporary sibling of an
    output file for writing bytes.  When the body succeeds, each temporary is
    moved onto its output file in the order created (notes/decisions.md,
    section 12).  If the body fails, an interrupt included, every temporary
    and every directory made here is removed, deepest first (a directory no
    longer empty is kept), and the files at the output paths are left as they
    were."""
    made = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    staged = []

    def create(file: Path):
        if file.is_dir():  # fail here, before any output file is replaced
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(file))
        tmp = file.with_name(f".{file.name}.{os.getpid()}.tmp")
        fh = open(tmp, "xb")
        staged.append((tmp, file))
        return fh

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield create
        for tmp, file in staged:
            os.replace(tmp, file)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for d in made:  # deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _write_table(fh, columns, rows, fmt: str) -> int:
    """Write the table to binary file ``fh`` and return its number of rows.

    ``rows`` is a 2-d float array, an iterable of 2-d float arrays (blocks of
    consecutive rows, consumed once), or a short list of row tuples for the
    tables with string cells.  Rows are formatted and written a block at a
    time: CSV with ``.17g`` floats (``_csv.float_rows``, ``_CSV_ROWS`` rows at
    a time) and ``csv.writer``'s row end ``\\r\\n``, JSON ``_BLOCK_ROWS`` rows at
    a time in the layout of ``json.dump(indent=1)`` with ``repr`` floats
    (``_csv.json_rows``; string-cell rows through ``json.dumps``).
    """
    n_rows = 0
    if fmt == "csv":
        fh.write((",".join(columns) + "\r\n").encode())
        for block in _row_blocks(rows, _CSV_ROWS):
            if isinstance(block, np.ndarray):
                fh.write(float_rows(block))
            else:  # string cells
                fh.write("".join(",".join(v if isinstance(v, str) else _CSV_FLOAT % v
                                          for v in row) + "\r\n" for row in block).encode())
            n_rows += len(block)
        return n_rows
    fh.write(('{\n "columns": [\n' + ",\n".join("  " + json.dumps(c) for c in columns)
              + '\n ],\n "rows": [').encode())
    for block in _row_blocks(rows, _BLOCK_ROWS):
        if n_rows:
            fh.write(b",")
        if isinstance(block, np.ndarray):
            fh.write(json_rows(block))
        else:  # string cells, in the layout json_rows writes
            fh.write(",".join("\n  [\n   " + ",\n   ".join(map(json.dumps, row)) + "\n  ]"
                              for row in block).encode())
        n_rows += len(block)
    fh.write(("\n ]\n}\n" if n_rows else "]\n}\n").encode())
    return n_rows


def _row_blocks(rows, size: int):
    """The rows in blocks of at most ``size``; a list of row tuples is one."""
    if isinstance(rows, list):
        if rows:
            yield rows
        return
    for table in (rows,) if isinstance(rows, np.ndarray) else rows:
        for start in range(0, len(table), size):
            yield table[start:start + size]


def _load_config(path: str) -> dict:
    """Read a config file: JSON (including run sidecars) or key = value lines."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        return data["config"] if isinstance(data.get("config"), dict) else data
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


def _config_defaults(path: str, command: argparse.ArgumentParser) -> dict:
    """The values of config file ``path`` for subcommand ``command``; raises
    ValueError naming its unknown keys or the first value it rejects."""
    options = {a.dest: a for a in command._actions
               if a.dest not in _NON_CONFIG_KEYS and a.default is not argparse.SUPPRESS}
    values = _load_config(path)
    unknown = sorted(set(values) - set(options))
    if unknown:
        raise ValueError(f"unknown keys for {command.prog}: {', '.join(unknown)}")
    defaults = {}
    for key, value in values.items():
        try:
            defaults[key] = _convert(options[key], value)
        except (ValueError, argparse.ArgumentError) as exc:
            raise ValueError(f"{key} = {value!r}: {exc}") from None
    return defaults


def _convert(a: argparse.Action, value):
    """A config value of option ``a``, converted as argparse converts the
    option's flag text: by its type (each element of a grid), against its
    choices, then by its action.  A null leaves an option whose default is
    None unset, and a switch such as --gaussian takes only true or false."""
    if value is None and a.default is None or a.nargs == 0 and type(value) is bool:
        return value
    if a.nargs == 0:
        raise ValueError("expected true or false")
    if a.nargs and (type(value) is not list or len(value) != a.nargs):
        raise ValueError(f"expected a list of {a.nargs} values")
    items = value if a.nargs else [value]
    if any(type(v) not in (str, int, float) for v in items):
        raise ValueError("expected numbers or strings")
    # the flag text a value stands for: str() of a float reads back to it exactly
    converted = [a.type(str(v)) for v in items]
    if a.choices is not None and any(v not in a.choices for v in converted):
        raise ValueError(f"not one of {', '.join(map(str, a.choices))}")
    namespace = argparse.Namespace()
    a(None, namespace, converted if a.nargs else converted[0])
    return getattr(namespace, a.dest)


def _lambdas(args):
    """The --lambda-grid sweep, or the one --lambda when no grid is given."""
    return np.linspace(*args.lam_grid) if args.lam_grid else [args.lam]


def _diffusive_params(args) -> DiffusiveParams:
    if args.alpha is not None:
        return DiffusiveParams(omega_s=args.omega_s, alpha=args.alpha, tau=args.tau)
    return DiffusiveParams.from_lambda(omega_s=args.omega_s, lam=args.lam, tau=args.tau)


def _cmd_portrait(args):
    rows = []
    thetas = np.linspace(*args.theta_grid)
    for e in np.linspace(*args.energy_grid):
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
    plus, minus = cps.exponent_plus, cps.exponent_minus
    e_low, e_high = separatrix_energies(args.lam)
    e1 = energy_level(cps.p1, params)
    e2 = energy_level(cps.p2, params)
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
    methods = {"closed": action_closed_form, "quadrature": action_quadrature}
    rows = [
        (args.lam, args.theta_i, args.theta_f, name, action(args.theta_i, args.theta_f, args.lam))
        for name, action in methods.items() if args.method in (name, "both")
    ]
    return ["lambda", "theta_i_rad", "theta_f_rad", "method", "action"], rows


def _cmd_transition_time(args):
    rows = []
    for lam in _lambdas(args):
        t = transition_time_sub_zeno(float(lam), args.omega_s)
        rows.append((float(lam), args.omega_s, t, 1.0 / t))
    return ["lambda", "omega_s_ghz", "time_ns", "frequency_ghz"], np.array(rows, dtype=float)


def _cmd_zeno_frequencies(args):
    rows = []
    for lam in _lambdas(args):
        tt = zeno_frequencies(float(lam), args.omega_s, args.epsilon)
        rows.append((float(lam), args.epsilon, tt.omega1, tt.omega12, tt.omega2))
    return [
        "lambda", "epsilon_rad", "omega1_ghz", "omega12_ghz", "omega2_ghz",
    ], np.array(rows, dtype=float)


def _cmd_density(args):
    z, dens = final_state_density(args.lam, args.theta_i, np.linspace(*args.zf_grid))
    return ["z_f", "probability_density"], np.column_stack((z, dens))


def _cmd_trajectory(args):
    params = _diffusive_params(args)
    b0 = BlochState(args.x0, args.y0, args.z0)
    stream = WienerStream(seed=args.seed, dt=args.dt, gaussian=args.gaussian)
    traj = sample_trajectory(b0, params, args.dt, args.t_end, stream)
    table = np.column_stack((traj.t, traj.bloch, traj.readout))
    return ["time_ns", "x", "y", "z", "readout"], table


def _cmd_mlp(args):
    params = _diffusive_params(args)
    s0 = ExtendedState(args.x0, args.y0, args.z0, args.px0, args.py0, args.pz0)
    pieces = mlp_pieces(s0, params, args.dt, args.t_end, _BLOCK_ROWS)
    return [
        "time_ns", "x", "y", "z", "p_x", "p_y", "p_z", "readout",
        "stochastic_hamiltonian",
    ], (np.column_stack((p.t, p.states, p.readout, p.hamiltonian(params))) for p in pieces)


def _cmd_ensemble(args):
    params = _diffusive_params(args)
    b0 = BlochState(args.x0, args.y0, args.z0)
    stats = ensemble_stats(
        b0, params, args.dt, args.t_end, args.n, args.seed, gaussian=args.gaussian
    )
    return [
        "time_ns", "mean_x", "mean_y", "mean_z", "var_x", "var_y", "var_z", "n_eff",
    ], np.column_stack((stats.t, stats.mean, stats.var, stats.n_eff))


def finite(text) -> float:
    """The type of every real-valued option: a finite float.  argparse names
    the type in its message, as in "invalid finite value: 'nan'"."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


class _Grid(argparse.Action):
    """START STOP COUNT of an evenly spaced grid; COUNT is kept as an int."""

    def __call__(self, parser, namespace, values, option_string=None):
        start, stop, count = values
        if count != int(count):
            raise argparse.ArgumentError(self, f"COUNT {count!r} is not a whole number")
        if count < 2:
            raise argparse.ArgumentError(self, f"COUNT must be at least 2, got {int(count)}")
        setattr(namespace, self.dest, [start, stop, int(count)])


_REAL = {"type": finite}
_GRID = {"nargs": 3, "type": finite, "action": _Grid, "metavar": ("START", "STOP", "COUNT")}

#: The add_argument keywords of each option, declared once; the subcommands
#: that take an option give its default.  Options not named are finite floats.
_OPTIONS = {
    "--lambda": {**_REAL, "dest": "lam", "help": "Zeno ratio alpha/(4 Omega_s)"},
    "--lambda-grid": {**_GRID, "dest": "lam_grid", "help": "sweep lambda over this grid"},
    "--alpha": {**_REAL, "help": "measurement rate in GHz (overrides --lambda)"},
    "--omega-s": {**_REAL, "help": "drive amplitude Omega_s in GHz (Rabi frequency 2*Omega_s)"},
    "--tau": {**_REAL, "help": "detector characteristic time in ns"},
    "--dt": {**_REAL, "help": "time step in ns"},
    "--t-end": {**_REAL, "help": "total integration time in ns"},
    "--theta-grid": _GRID,
    "--energy-grid": _GRID,
    "--zf-grid": _GRID,
    "--method": {"type": str, "choices": ("closed", "quadrature", "both")},
    "--n": {"type": int},
    "--seed": {"type": int, "help": "seed of the record (ensemble: trajectory k uses seed+k)"},
    "--gaussian": {"action": "store_true",
                   "help": "Gaussian Wiener increments instead of binary +-sqrt(dt)"},
}

_DIFFUSIVE = {"--omega-s": 0.5, "--lambda": 1.5, "--alpha": None, "--tau": 100.0, "--dt": 1e-3}
_SAMPLER = {"--seed": 0, "--gaussian": False, "--x0": 0.0, "--y0": 0.0, "--z0": 1.0}

#: Each subcommand: its handler, its help, the notes on its columns that
#: follow its options in --help, and the default of each option it takes.
_SUBCOMMANDS = {
    "portrait": (_cmd_portrait, "constant-energy curves p_theta(theta)",
                 "energy: curve label E; theta_rad: angle; p_theta: conjugate momentum",
                 {"--lambda": 0.5, "--theta-grid": (-3.14, 3.14, 629),
                  "--energy-grid": (0.25, 2.0, 8)}),
    "critical-points": (_cmd_critical_points, "saddle pair, exponents, separatrices",
                        "two rows (P1, P2); exponents in GHz are the contraction/"
                        "expansion rates of the theta and p_theta axes",
                        {"--lambda": 1.5, "--omega-s": 0.5}),
    "action": (_cmd_action, "stochastic action between two angles",
               "action: dimensionless stochastic action (hbar = 1)",
               {"--lambda": 0.5, "--theta-i": 0.0, "--theta-f": -math.pi, "--method": "both"}),
    "transition-time": (_cmd_transition_time, "sub-Zeno 0 -> -pi transition time",
                        "time_ns: 0 -> -pi transition time; frequency_ghz: its inverse",
                        {"--lambda": 0.0, "--lambda-grid": None, "--omega-s": 0.5}),
    "zeno-frequencies": (_cmd_zeno_frequencies, "segment frequencies for lambda > 1",
                         "omega1/omega12/omega2: inverse times of the three segments "
                         "0->theta1+eps, theta2+eps->theta1-eps, theta2-eps->-pi",
                         {"--lambda": 1.5, "--lambda-grid": None, "--omega-s": 0.5,
                          "--epsilon": 1e-3}),
    "density": (_cmd_density, "most-likely final-state density over z_f",
                "probability_density: normalized so the trapezoid integral over z_f is 1",
                {"--lambda": 1.5, "--theta-i": 0.0, "--zf-grid": (-0.999, 0.999, 801)}),
    "trajectory": (_cmd_trajectory, "sample one conditioned diffusive trajectory",
                   "readout: record r_k = sqrt(tau) dW_k/dt for the step starting at "
                   "time_ns (on the final row, the seeded stream's next step)",
                   {**_DIFFUSIVE, "--t-end": 20.0, **_SAMPLER}),
    "mlp": (_cmd_mlp, "integrate the most-likely-path equations",
            "readout: extremal record; stochastic_hamiltonian: conserved generator",
            {**_DIFFUSIVE, "--t-end": 10.0, "--x0": 0.0, "--y0": 0.4, "--z0": 0.916,
             "--px0": 0.5, "--py0": 0.3, "--pz0": 0.2}),
    "ensemble": (_cmd_ensemble, "survival-weighted mean/variance over seeded trajectories",
                 "mean/var: per-time mean and population variance over n "
                 "trajectories seeded base_seed+k, each weighted by the probability "
                 "exp(-int alpha (1 - z)/2 dt) that its record held no click so far; "
                 "n_eff: effective number of trajectories (sum w)^2 / sum w^2, so the "
                 "standard error of a mean is sqrt(var / n_eff)",
                 {**_DIFFUSIVE, "--t-end": 20.0, "--n": 100, **_SAMPLER}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The zenopath parser.  Every subcommand is registered, so that the
    usage, --help and "invalid choice" texts stay whole, but only
    ``command``'s options are added, or every subcommand's when it is None."""
    parser = argparse.ArgumentParser(
        prog="zenopath",
        description="Weak-measurement Zeno dynamics of a driven qubit: phase-space "
                    "portraits, actions, transition times and stochastic trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"zenopath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (handler, help, columns, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help, epilog=columns)
        if command not in (None, name):
            continue
        p.set_defaults(handler=handler)
        # --lambda and --alpha set the same rate: a run gives at most one
        rate = p.add_mutually_exclusive_group() if "--alpha" in defaults else p
        for flag, default in defaults.items():
            owner = rate if flag in ("--lambda", "--alpha") else p
            owner.add_argument(flag, default=default, **_OPTIONS.get(flag, _REAL))
        p.add_argument("--output", "-o", type=str,
                       help=f"output file (default {name.replace('-', '_')}.<format> in "
                            "$ZENOPATH_OUTDIR or the working directory)")
        p.add_argument("--format", type=str, choices=("csv", "json"), default="csv",
                       help="table format (default csv)")
        p.add_argument("--config", type=str,
                       help="config file: 'key = value' lines or a JSON sidecar; "
                            "explicit flags override file values")
    return parser


_NON_CONFIG_KEYS = {"handler", "command", "output", "config"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option with a value, so the first word
    # that is not an option names the subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)

    if args.config:
        command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
        try:
            defaults = _config_defaults(args.config, command)
        except (OSError, ValueError) as exc:
            print(f"error[config]: {args.config}: {exc}", file=sys.stderr)
            return 2
        # file values become the subcommand's defaults, so explicit flags win
        command.set_defaults(**defaults)
        args = parser.parse_args(argv)

    sidecar = {
        "command": args.command,
        "zenopath_version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in _NON_CONFIG_KEYS},
    }

    outdir = Path(os.environ.get("ZENOPATH_OUTDIR", "."))
    if args.output is None:
        out_path = outdir / f"{args.command.replace('-', '_')}.{args.format}"
    else:
        out_path = Path(args.output)

    try:
        columns, rows = args.handler(args)
        with _outputs(out_path) as create:
            with create(out_path) as fh:
                n_rows = _write_table(fh, columns, rows, args.format)
            with create(out_path.with_name(out_path.stem + ".config.json")) as fh:
                fh.write((json.dumps(sidecar, indent=1, sort_keys=True) + "\n").encode())
    except ZenoPathError as exc:  # from the handler or from a table streamed in blocks
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error[invalid-config]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[output]: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_path} ({n_rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
