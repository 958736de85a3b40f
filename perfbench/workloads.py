"""The benchmark's workloads: the program calls each pass makes and the checks
applied to their outputs.

A workload is a list of operations.  An operation is one ``zenopath`` CLI
call (run in-process through ``zenopath.cli.main``, so that import cost is
measured once, as ``setup_s``) or one library call.  Every name in the
program is looked up at call time, so the spans installed by ``tracing``
see the calls.

An operation fails when it raises, exits non-zero, or its output fails a
check.  Checks raise ``WrongValue`` for a computed value that is wrong and
``Unusable`` for an output a strict consumer cannot read; only the first
makes a run incorrect, both count as failed operations.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

# Fixed points the acceptance criteria name (Omega_s = 0.5).
CRITICAL_POINT_15 = np.array([0.0, -0.666, 0.745])
CAPTION_POINTS = {
    "1.5": ((-0.729, 0.894), (-2.411, -0.894)),
    "1.2": ((-0.985, 1.507), (-2.156, -1.507)),
}
OMEGA_S = 0.5
DIGEST_CHUNK = 1 << 16


class WrongValue(Exception):
    """A computed value disagrees with what the physics or the docs require."""


class Unusable(Exception):
    """The output cannot be read by a strict consumer of its format."""


class OpError(Exception):
    """The call raised or the CLI exited with a non-zero code."""


@dataclass
class Op:
    """One program call.  ``label`` names every input, so equal labels must
    give equal outputs (the digest key)."""

    label: str
    call: Callable[[Path], object]
    # raises WrongValue or Unusable; may return observed, unchecked values
    check: Callable[[object], dict | None]


@dataclass
class Workload:
    name: str
    program_seed: int | None
    ops: list[Op] = field(default_factory=list)
    # run once per run, untimed: seeded outputs at a fixed program seed, so
    # their digests compare with the baseline whatever the benchmark seed
    reference: list[Op] = field(default_factory=list)


def program_seed(seed: int) -> int:
    """The seed the program sees, generated from the benchmark's seed."""
    return random.Random(seed).randrange(1, 2**31)


# --------------------------------------------------------------------------
# running an operation


def run_cli(argv: list[str], workdir: Path) -> Path:
    """Run ``zenopath <argv>`` in-process, writing into ``workdir``."""
    from zenopath import cli

    suffix = "json" if "json" in argv else "csv"
    out = workdir / f"table.{suffix}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--output", str(out)])
    if code != 0:
        raise OpError(f"exit {code}: {stderr.getvalue().strip()}")
    return out


def digest(output) -> str:
    """sha256 of a table file (read in chunks), or of the dtype, shape and
    bytes of arrays."""
    h = hashlib.sha256()
    if isinstance(output, Path):
        with open(output, "rb") as fh:
            while chunk := fh.read(DIGEST_CHUNK):
                h.update(chunk)
        return h.hexdigest()
    for arr in output if isinstance(output, tuple) else (output,):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.data)
    return h.hexdigest()


# --------------------------------------------------------------------------
# reading tables
#
# A check holds one row of a table at a time, so that it stays far below the
# program's own memory and ``peak_rss_mb`` measures the program.


def csv_rows(path: Path, names):
    """Yield the named columns of a CSV table, one tuple of floats per row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [n for n in names if n not in header]
        _require(not missing, f"columns {missing} missing from {header}")
        index = [header.index(n) for n in names]
        for raw in reader:
            try:
                yield tuple(float(raw[i]) for i in index)
            except (ValueError, IndexError):
                raise WrongValue(f"line {reader.line_num}: bad row {raw}") from None


def csv_columns(path: Path, names) -> list[np.ndarray]:
    """The named columns of a small CSV table as float arrays."""
    cells = np.fromiter(itertools.chain.from_iterable(csv_rows(path, names)), dtype=float)
    return list(cells.reshape(-1, len(names)).T)


def _require(ok: bool, message: str):
    if not ok:
        raise WrongValue(message)


# --------------------------------------------------------------------------
# checks, one per table kind


def check_ensemble(n_steps: int):
    def check(path):
        count = 0
        for row in csv_rows(path, [f"{s}_{c}" for s in ("mean", "var") for c in "xyz"]):
            count += 1
            _require(all(abs(m) <= 1.0 for m in row[:3]), "a mean coordinate exceeds 1 in size")
            _require(all(0.0 <= v <= 1.0 for v in row[3:]), "a variance lies outside [0, 1]")
        _require(count == n_steps + 1, f"{count} rows, expected {n_steps + 1}")
    return check


def check_mlp(n_steps: int):
    def check(path):
        count, dist, h0, drift = 0, math.inf, None, 0.0
        cx, cy, cz = CRITICAL_POINT_15
        for x, y, z, h in csv_rows(path, ["x", "y", "z", "stochastic_hamiltonian"]):
            count += 1
            d = math.hypot(x - cx, y - cy, z - cz)
            _require(math.isfinite(d), f"row {count - 1}: non-finite state")
            dist = min(dist, d)
            h0 = h if h0 is None else h0
            drift = max(drift, abs(h - h0))
        _require(count == n_steps + 1, f"{count} rows, expected {n_steps + 1}")
        _require(dist < 1e-2, f"closest approach to the critical point is {dist:.4g}")
        return {"stochastic_hamiltonian_rel_drift": drift / max(1.0, abs(h0))}
    return check


def check_critical_points(lam: str):
    (t1, p1), (t2, p2) = CAPTION_POINTS[lam]

    def check(path):
        got = np.column_stack(csv_columns(path, ["theta_rad", "p_theta"]))
        want = np.array([[t1, p1], [t2, p2]])
        _require(got.shape == want.shape and float(np.max(np.abs(got - want))) < 1e-3,
                 f"critical points {got.tolist()} differ from {want.tolist()} by 1e-3 or more")
    return check


def check_portrait(lam: float):
    def check(path):
        e, th, p = csv_columns(path, ["energy", "theta_rad", "p_theta"])
        _require(len(p) > 0, "no portrait points")
        _require(bool(np.all(np.isfinite(p))), "non-finite p_theta")
        # every point lies on its curve: p (1 + lam sin th) + lam (1 - cos th) = E
        resid = p * (1.0 + lam * np.sin(th)) + lam * (1.0 - np.cos(th)) - e
        _require(float(np.max(np.abs(resid))) < 1e-9 * max(1.0, float(np.max(np.abs(p)))),
                 "a portrait point is off its energy curve")
    return check


def check_transition_time(path):
    lam, t = csv_columns(path, ["lambda", "time_ns"])
    _require(len(t) > 1, f"{len(t)} rows")
    _require(lam[0] == 0.0 and abs(t[0] - math.pi) < 1e-12,
             f"transition time at lambda = 0 is {t[0]!r}, not pi")
    _require(bool(np.all(np.diff(t) > 0.0)), "transition time does not grow with lambda")


def check_zeno_frequencies(path):
    names = ["omega1_ghz", "omega12_ghz", "omega2_ghz"]
    for name, w in zip(names, csv_columns(path, names)):
        _require(len(w) > 0 and bool(np.all(np.isfinite(w) & (w > 0.0))),
                 f"{name} is not positive and finite")


def check_action(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    methods = [r.get("method") for r in rows]
    _require(sorted(methods) == ["closed", "quadrature"], f"methods {methods}")
    try:
        values = {r["method"]: float(r["action"]) for r in rows}
    except (KeyError, TypeError, ValueError):
        raise WrongValue(f"no numeric action column in {rows}") from None
    diff = abs(values["closed"] - values["quadrature"])
    _require(diff < 1e-6, f"closed form and quadrature differ by {diff:.3g}")


def check_density(path):
    z, d = csv_columns(path, ["z_f", "probability_density"])
    total = float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(z)))
    _require(abs(total - 1.0) < 1e-6, f"density integrates to {total!r}")


def check_trajectory_json(n_steps: int):
    def check(path):
        bare = []  # tokens a strict parser rejects, e.g. NaN (RFC 8259)

        def lenient(token):  # lets the values be checked first
            bare.append(token)
            return float(token)

        with open(path) as fh:
            rows = json.load(fh, parse_constant=lenient)["rows"]
        _require(len(rows) == n_steps + 1 and all(
                     len(r) == 5 and all(isinstance(v, (int, float)) for v in r) for r in rows),
                 f"{len(rows)} rows, expected {n_steps + 1} of 5 numbers")
        for i, (_, x, y, z, readout) in enumerate(rows):
            _require(abs(math.sqrt(x * x + y * y + z * z) - 1.0) < 1e-9,
                     f"row {i}: the state leaves the unit sphere")
            _require(i == n_steps or math.isfinite(readout),
                     f"row {i}: non-finite readout before the last row")
        if bare:
            raise Unusable(f"bare {bare[0]} token: not valid JSON (RFC 8259)")
    return check


def check_zeno_endpoint(path_array):
    dist = float(np.linalg.norm(path_array[-1] - CRITICAL_POINT_15))
    _require(dist < 1e-2, f"mc_zeno_trajectory ends {dist:.4g} from the critical point")


def _drift_reference(lam: float, t_total: float) -> np.ndarray:
    from scipy.integrate import solve_ivp
    from zenopath.measurement import drift_rhs

    def rhs(t, q):
        # drift_rhs reads only .x/.y/.z; BlochState would reject the
        # solver's trial points just off the sphere
        return drift_rhs(SimpleNamespace(x=q[0], y=q[1], z=q[2]), OMEGA_S, lam)

    sol = solve_ivp(rhs, (0.0, t_total), [0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-13, atol=1e-14)
    return sol.y[:, -1]


def check_convergence(reference: np.ndarray):
    def check(ends):
        errs = [float(np.max(np.abs(e - reference))) for e in ends]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        _require(abs(r1 - 2.0) < 0.4 and abs(r2 - 2.0) < 0.4,
                 f"error does not halve with dt (ratios {r1:.3f}, {r2:.3f})")
    return check


def check_phase_path(arrays):
    _require(all(bool(np.all(np.isfinite(a))) for a in arrays), "non-finite phase path")


# --------------------------------------------------------------------------
# library calls


def _mc_zeno(lam: float, dt: float, n_steps: int):
    from zenopath import measurement

    params = measurement.MeasurementParams.from_lambda(OMEGA_S, lam, dt)
    return measurement.mc_zeno_trajectory(measurement.BlochState(0.0, 0.0, 1.0), params, n_steps)


def _mc_zeno_convergence(lam: float, t_total: float):
    return tuple(_mc_zeno(lam, dt, round(t_total / dt))[-1] for dt in (2e-3, 1e-3, 5e-4))


def _phase_path(lam: float, p0: float, t_end: float):
    from zenopath import phase

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # stall warnings are expected for lam > 1
        path = phase.integrate_phase_path(
            phase.PhasePoint(0.0, p0), phase.PhaseParams(OMEGA_S, lam), t_end=t_end)
    return path.t, path.theta, path.p_theta


# --------------------------------------------------------------------------
# workloads

WORKLOADS = ("ensemble", "mlp", "figures")
REFERENCE_SEED = 1


def cli_op(argv: list[str], check) -> Op:
    return Op(" ".join(argv), lambda d: run_cli(argv, d), check)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The operations of one pass of workload ``name`` for benchmark seed
    ``seed``; ``tiny`` shrinks every size for the self-test."""
    if name == "ensemble":
        s = program_seed(seed)
        n, t_end = (3, 0.5) if tiny else (50, 20.0)
        argv = ["ensemble", "--lambda", "1.5", "--n", str(n), "--t-end", str(t_end),
                "--seed", str(s)]
        ops = [cli_op(argv, check_ensemble(round(t_end / 1e-3)))]
        ref = [cli_op(["ensemble", "--lambda", "1.5", "--n", "2", "--t-end", "0.5",
                       "--seed", str(REFERENCE_SEED)], check_ensemble(500))]
        return Workload(name, s, ops, ref)

    if name == "mlp":
        dt = 2e-4 if tiny else 5e-5
        argv = ["mlp", "--lambda", "1.5", "--dt", repr(dt), "--t-end", "7.9"]
        # no seed: the timed output's digest compares with the baseline as it is
        return Workload(name, None, [cli_op(argv, check_mlp(round(7.9 / dt)))])

    if name == "figures":
        s = program_seed(seed)
        traj_t_end, phase_t_end = (1.0, 10.0) if tiny else (20.0, 100.0)
        cli_calls = [
            (["critical-points", "--lambda", "1.5"], check_critical_points("1.5")),
            (["critical-points", "--lambda", "1.2"], check_critical_points("1.2")),
            (["portrait", "--lambda", "0.5"], check_portrait(0.5)),
            (["portrait", "--lambda", "1.5"], check_portrait(1.5)),
            (["transition-time", "--lambda-grid", "0", "0.95", "96"], check_transition_time),
            (["zeno-frequencies", "--lambda-grid", "1.1", "3", "40"], check_zeno_frequencies),
            (["action", "--method", "both"], check_action),
            *[(["density", "--lambda", lam], check_density) for lam in ("0", "0.5", "1.2", "1.5")],
            (["trajectory", "--lambda", "1.5", "--seed", str(s), "--t-end", str(traj_t_end),
              "--format", "json"], check_trajectory_json(round(traj_t_end / 1e-3))),
        ]
        ops = [cli_op(argv, check) for argv, check in cli_calls]
        ops.append(Op("mc_zeno_trajectory lam=1.5 dt=1e-3 n=20000",
                      lambda d: _mc_zeno(1.5, 1e-3, 20_000), check_zeno_endpoint))
        ops.append(Op("mc_zeno_trajectory lam=0.5 t=2 dt=2e-3,1e-3,5e-4",
                      lambda d: _mc_zeno_convergence(0.5, 2.0),
                      check_convergence(_drift_reference(0.5, 2.0))))
        for lam in (0.5, 1.2, 1.5):
            ops.append(Op(f"integrate_phase_path lam={lam} p0=1 t_end={phase_t_end}",
                          lambda d, lam=lam: _phase_path(lam, 1.0, phase_t_end),
                          check_phase_path))
        ref = [cli_op(["trajectory", "--lambda", "1.5", "--seed", str(REFERENCE_SEED),
                       "--t-end", "1", "--format", "json"], check_trajectory_json(1000))]
        return Workload(name, s, ops, ref)

    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------
# one pass


@dataclass
class OpResult:
    label: str
    seconds: float
    status: str  # "ok", "error", "unusable" or "wrong"
    message: str = ""
    digest: str | None = None
    bytes_written: int = 0
    observed: dict = field(default_factory=dict)


def run_op(op: Op, workdir: Path) -> tuple[object, float, str]:
    """Call ``op`` in an empty ``workdir``; return output, seconds, error."""
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        output = op.call(workdir)
        error = ""
    except Exception as exc:  # a failed call is a result, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, time.perf_counter() - start, error


def check_op(op: Op, output, seconds: float, error: str, workdir: Path,
             corrupt=None) -> OpResult:
    """Digest and check one output; ``corrupt`` (self-test only) may damage
    the output first."""
    written = sum(f.stat().st_size for f in workdir.iterdir() if f.is_file())
    if error:
        return OpResult(op.label, seconds, "error", error, bytes_written=written)
    if corrupt is not None:
        output = corrupt(op.label, output)
    result = OpResult(op.label, seconds, "ok", digest=digest(output), bytes_written=written)
    try:
        result.observed = op.check(output) or {}
    except WrongValue as exc:
        result.status, result.message = "wrong", str(exc)
    except Unusable as exc:
        result.status, result.message = "unusable", str(exc)
    return result


def run_pass(workload: Workload, scratch: Path, around=contextlib.nullcontext,
             corrupt=None):
    """Run every operation once inside ``around()`` (the tracer's root span),
    timing only the calls; then digest and check the outputs.

    Returns (wall seconds, CPU seconds, per-op results); the CPU time is
    user + system time of this process, all threads.
    """
    outputs = []
    with around():
        cpu0, start = time.process_time(), time.perf_counter()
        for i, op in enumerate(workload.ops):
            outputs.append(run_op(op, scratch / f"op{i:02d}"))
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    results = [check_op(op, *out, scratch / f"op{i:02d}", corrupt)
               for i, (op, out) in enumerate(zip(workload.ops, outputs))]
    shutil.rmtree(scratch)
    return wall, cpu, results
