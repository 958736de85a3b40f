"""Diffusive (Gaussian-readout) measurement of the driven qubit.

Conditioned on a readout record r(t), the Bloch coordinates follow

    x' = -alpha x z / 2 + r sqrt(alpha/tau) y
    y' = -alpha y z / 2 - r sqrt(alpha/tau) x - 2 Omega_s z
    z' =  alpha (1 - z^2) / 2 + 2 Omega_s y

with record convention r dt = sqrt(tau) dW, so every r-dependent term enters
through sqrt(alpha) dW and stored records never divide by dt.  These are the
null-record (no-click) equations of the excited state probed at rate alpha,
whose readout also kicks the phase of |1>: the r terms rotate the state about
the z-axis by the angle sqrt(alpha) dW.  Trajectory sampling draws dW as
symmetric +-sqrt(dt) steps by default (a Gaussian option is provided; both
converge to the same diffusion).  The drift is the normalized image of a
linear flow of psi = (u, i v), so a step is its exact real 2x2 map and the
readout's phase of v (notes/decisions.md, section 19), and the walk takes
the steps' maps a group at a time: each group's product and one
renormalization per group, then the rows inside it from its start (section
21).
A record has no click with probability exp(-int alpha (1 - z)/2 dt), the
product of the norms removed; ensembles weight their paths by it.

Extremizing the stochastic action instead gives a deterministic 6-dimensional
flow in (x, y, z, p_x, p_y, p_z) with the readout pinned by the constraint
r = sqrt(alpha tau) (y p_x - x p_y); the associated stochastic Hamiltonian is
conserved along solutions, and for lam = alpha/(4 Omega_s) > 1 the
coordinates are drawn to the same critical point as the reduced phase-space
picture.  On the plane x = p_x = 0 the flow is the reduced one, reached
through the chart :func:`plane_state` (notes/decisions.md, section 20).
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidState, StepTooLarge, WeakCouplingWarning, nonnegative, positive
from .measurement import _BLOCH_NORM_TOL, BlochState
from .phase import PhaseParams, PhasePoint, critical_points

#: Time steps per block of the batched ensemble, a multiple of the walk's
#: longest group (_kernels.GROUP_STEPS); a block of n trajectories holds
#: about 100 n _BLOCK_STEPS bytes (notes/decisions.md, sections 6 and 21).
_BLOCK_STEPS = 512


@dataclass
class DiffusiveParams:
    """Continuous-measurement parameters; ``lam`` is derived from alpha."""

    omega_s: float
    alpha: float
    tau: float
    lam: float = field(init=False)

    def __post_init__(self):
        positive("omega_s", self.omega_s)
        nonnegative("alpha", self.alpha)
        positive("tau", self.tau)
        self.lam = self.alpha / (4.0 * self.omega_s)

    @classmethod
    def from_lambda(cls, omega_s: float, lam: float, tau: float):
        nonnegative("lam", lam)
        return cls(omega_s=omega_s, alpha=4.0 * omega_s * lam, tau=tau)


@dataclass(frozen=True)
class ExtendedState:
    """Bloch coordinates plus conjugate momenta; the readout they pin is
    :func:`readout_constraint`."""

    x: float
    y: float
    z: float
    p_x: float
    p_y: float
    p_z: float

    def coords(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.p_x, self.p_y, self.p_z])


def plane_state(point: PhasePoint, p_r: float) -> ExtendedState:
    """The chart from the reduced phase plane into the plane x = p_x = 0 of
    the extremal flow, where the readout is 0 and the flow on the unit circle
    is the (theta, p_theta) flow: y = sin theta, z = cos theta, and the
    momentum p_theta along the circle plus the radial momentum ``p_r`` = p.r,
    p_y = p_theta cos theta + p_r sin theta and
    p_z = -p_theta sin theta + p_r cos theta (notes/decisions.md, section 20).
    """
    sin, cos = math.sin(point.theta), math.cos(point.theta)
    return ExtendedState(0.0, sin, cos, 0.0, point.p_theta * cos + p_r * sin,
                         -point.p_theta * sin + p_r * cos)


def wiener_increments(seed: int, dt: float, n: int, gaussian: bool = False) -> np.ndarray:
    """n Wiener increments drawn from ``seed``: binary +-sqrt(dt) steps, or
    N(0, dt) ones if ``gaussian``.  Equal arguments give bit-identical arrays."""
    positive("dt", dt)
    return _draw(np.random.default_rng(seed), dt, n, gaussian)


def _draw(rng, dt, n, gaussian):
    """The next n increments of ``rng``: successive draws concatenate to one
    draw of their total length (notes/decisions.md, section 6)."""
    root_dt = math.sqrt(dt)
    if gaussian:
        return rng.normal(0.0, root_dt, n)
    return (2.0 * rng.integers(0, 2, n) - 1.0) * root_dt


def readout_constraint(s: ExtendedState, params: DiffusiveParams) -> float:
    """Extremal readout r = sqrt(alpha tau) (y p_x - x p_y)."""
    return _readout(s.x, s.y, s.p_x, s.p_y, params)


def _readout(x, y, px, py, params):
    """:func:`readout_constraint` on coordinates, for scalars and arrays."""
    return math.sqrt(params.alpha * params.tau) * (y * px - x * py)


def sme_rhs(b: BlochState, r: float, params: DiffusiveParams):
    """Conditioned Bloch drift for a given readout value r."""
    w = r * math.sqrt(params.alpha / params.tau)
    return _kernels.bloch_drift(b.x, b.y, b.z, params.omega_s, params.alpha, w)


@dataclass(frozen=True)
class DiffusiveTrajectory:
    """Sampled conditioned trajectory: times, Bloch rows (x, y, z), the readout
    r_k = sqrt(tau) dW_k / dt of the step from t_k (the last is not walked)
    and the log-probability that the record held no click up to t_k (at
    alpha = 0 it is 0 up to rounding, which adds about 2e-12 over 20 000
    steps: notes/decisions.md, sections 19 and 21)."""

    t: np.ndarray
    bloch: np.ndarray
    readout: np.ndarray
    log_weight: np.ndarray


def _pure_start(b0: BlochState):
    """psi of b0; InvalidState inside the Bloch ball (notes/decisions.md, section 19)."""
    if not b0.norm() >= 1.0 - _BLOCH_NORM_TOL:
        raise InvalidState(f"Bloch vector norm {b0.norm():.12g} is below 1: no pure state")
    return _kernels.psi_from_bloch(b0.x, b0.y, b0.z)


def _sampling_steps(params: DiffusiveParams, dt: float, t_end: float):
    """Check a sampling run and return its :func:`_kernels.time_grid`.

    Raises StepTooLarge when dt > tau/10; warns, on behalf of the public
    caller, when t_end exceeds tau (the weak-coupling window).
    """
    grid = _kernels.time_grid(dt, t_end)
    if dt > params.tau / 10.0:
        raise StepTooLarge(f"dt = {dt} exceeds tau/10 = {params.tau / 10.0}")
    if t_end > params.tau:
        warnings.warn(
            f"t_end = {t_end} exceeds tau = {params.tau}; weak coupling (tau >> T) "
            "is violated",
            WeakCouplingWarning,
            stacklevel=3,
        )
    return grid


def sample_trajectory(
    b0: BlochState,
    params: DiffusiveParams,
    dt: float,
    t_end: float,
    seed: int,
    gaussian: bool = False,
) -> DiffusiveTrajectory:
    """Sample one conditioned trajectory from b0 up to t_end, driven by
    :func:`wiener_increments` of (seed, dt, gaussian).

    Raises InvalidState when b0 lies inside the Bloch ball and StepTooLarge
    when dt > tau/10; warns when t_end exceeds tau (the weak-coupling
    window).  Deterministic given (seed, dt, gaussian).
    """
    n_steps, t = _sampling_steps(params, dt, t_end)
    psi = np.array(_pure_start(b0))[:, None]
    dw = wiener_increments(seed, dt, n_steps + 1, gaussian)  # one readout per row of the path
    psi_rows, log_weight = _kernels.diffusive_walk(
        psi, np.zeros(1), params.omega_s, params.alpha, dt, dw[:-1, None]
    )
    path = _kernels.bloch_rows(psi_rows)[:, :, 0]
    path[0] = b0.x, b0.y, b0.z  # the start exactly as given
    log_weight = log_weight[:, 0]
    readout = math.sqrt(params.tau) * dw / dt
    return DiffusiveTrajectory(t=t, bloch=path, readout=readout, log_weight=log_weight)


def mlp_rhs(s: ExtendedState, params: DiffusiveParams):
    """Six extremal derivatives with the readout constraint substituted
    (:func:`_kernels.mlp_stage`)."""
    return _kernels.mlp_stage(params.omega_s, params.alpha)(s.x, s.y, s.z, s.p_x, s.p_y, s.p_z)


def stochastic_hamiltonian(s: ExtendedState, params: DiffusiveParams) -> float:
    """Conserved generator of the extremal flow, with r from the constraint.

    The log-probability term -alpha/2 (r^2/(alpha tau) + 1 - z) is evaluated
    via r^2/(alpha tau) = (y p_x - x p_y)^2, which is exact and finite at
    alpha = 0.
    """
    return _hamiltonian(s.x, s.y, s.z, s.p_x, s.p_y, s.p_z, params.omega_s, params.alpha)


def _hamiltonian(x, y, z, px, py, pz, omega_s, alpha):
    """:func:`stochastic_hamiltonian` on coordinates, for scalars and arrays."""
    w0 = y * px - x * py
    dx, dy, dz = _kernels.bloch_drift(x, y, z, omega_s, alpha, alpha * w0)
    return px * dx + py * dy + pz * dz - 0.5 * alpha * (w0 * w0 + 1.0 - z)


@dataclass(frozen=True)
class MLPTrajectory:
    """Most-likely-path solution: times, state rows (x, y, z, px, py, pz) and
    the readout along the path."""

    t: np.ndarray
    states: np.ndarray
    readout: np.ndarray

    def state(self, i: int) -> ExtendedState:
        row = self.states[i]
        return ExtendedState(*map(float, row))

    def hamiltonian(self, params: DiffusiveParams) -> np.ndarray:
        return _hamiltonian(*self.states.T, params.omega_s, params.alpha)


def integrate_mlp(
    s0: ExtendedState,
    params: DiffusiveParams,
    dt: float,
    t_end: float,
) -> MLPTrajectory:
    """RK4 integration of the extremal equations from s0: :func:`mlp_pieces`
    as a single piece, with its checks and its stall warning."""
    n_steps = _kernels.step_count(dt, t_end)
    (traj,) = _mlp_pieces(s0.as_array(), params, dt, n_steps, n_steps + 1, stacklevel=4)
    return traj


def mlp_pieces(
    s0: ExtendedState,
    params: DiffusiveParams,
    dt: float,
    t_end: float,
    rows: int,
):
    """The most-likely path from s0 as consecutive :class:`MLPTrajectory`
    pieces of ``rows`` rows (the last one may be shorter).

    Concatenated, the pieces equal :func:`integrate_mlp` bit for bit: each
    piece restarts the RK4 kernel from the last row of the one before, which
    holds the state exactly, and its ``t`` is the global k dt.  Only one piece
    is held at a time (notes/decisions.md, section 9).  dt, t_end and rows are
    checked on the call.  Raises NonFiniteState at the first piece that holds
    an inf or nan, naming its time; warns once, after the last piece, if the
    path stalled.
    """
    n_steps = _kernels.step_count(dt, t_end)
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return _mlp_pieces(s0.as_array(), params, dt, n_steps, rows, stacklevel=3)


def _mlp_pieces(s, params, dt, n_steps, rows, stacklevel):
    min_speed = math.inf
    advice = "; a smaller dt keeps the RK4 step stable"
    for start in range(0, n_steps + 1, rows):
        stop = min(start + rows, n_steps + 1)
        skip = 1 if start else 0  # a later piece restarts from the row before it
        path, speed = _kernels.mlp_rk4(
            s, params.omega_s, params.alpha, dt, stop - start - 1 + skip
        )
        min_speed = min(min_speed, speed)
        s, states = path[-1], path[skip:]
        t = np.arange(start, stop) * dt
        _kernels.check_finite(t, np.isfinite(states).all(axis=1), "most-likely path", advice)
        x, y, _, px, py, _ = states.T
        readout = _readout(x, y, px, py, params)
        _kernels.check_finite(t, np.isfinite(readout), "most-likely path", advice)
        yield MLPTrajectory(t=t, states=states, readout=readout)
    _kernels.warn_if_stalled(min_speed, stacklevel)


def mlp_fixed_point(params: DiffusiveParams) -> ExtendedState:
    """Stationary extremal state for lam > 1: the reduced saddle
    (theta1, p_theta1 = 1/s) of :func:`phase.critical_points` through
    :func:`plane_state`, with the radial momentum 1/2 - 1/(2 s^2) that keeps
    p_r stationary too (s = sqrt(lam^2 - 1); notes/decisions.md, section 20).
    The readout vanishes there."""
    cps = critical_points(PhaseParams(params.omega_s, params.lam))
    return plane_state(cps.p1, 0.5 - 0.5 * cps.p_theta1 * cps.p_theta1)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time-point survival-weighted mean and population variance of the
    Bloch coordinates, and the effective number of trajectories
    (sum w)^2 / sum w^2 behind them, w being each path's no-click probability
    relative to the largest at that time (the standard error of the mean is
    sqrt(var / n_eff))."""

    t: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    n_eff: np.ndarray


def ensemble_stats(
    b0: BlochState,
    params: DiffusiveParams,
    dt: float,
    t_end: float,
    n: int,
    base_seed: int,
    gaussian: bool = False,
) -> EnsembleStats:
    """Survival-weighted mean/variance over n independent trajectories.

    This is the null-record subensemble: at every time each trajectory is
    weighted by the probability that its record has held no click so far,
    exp(-int alpha (1 - z)/2 dt) (:attr:`DiffusiveTrajectory.log_weight`).  Its mean
    relaxes to the stationary state of the record-averaged null-outcome
    equation (notes/decisions.md); at alpha = 0 all weights are equal.

    Trajectory k uses seed ``base_seed + k``, so n = 1 reproduces
    :func:`sample_trajectory` with (``base_seed``, ``gaussian``) exactly.  All n
    trajectories are stepped together by the single sampler's kernel, in
    blocks of ``_BLOCK_STEPS`` time steps, each a whole number of the
    kernel's groups, with one generator per trajectory, and each block is
    reduced over them in one weighted pass (notes/decisions.md, sections 6
    and 21); only one block is held at once.  Same
    checks and warning as :func:`sample_trajectory`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_steps, t = _sampling_steps(params, dt, t_end)
    rngs = [np.random.default_rng(base_seed + k) for k in range(n)]
    mean, var = np.empty((2, n_steps + 1, 3))
    n_eff = np.empty(n_steps + 1)
    # each trajectory's psi and log-weight at the block's first row
    psi, lw0 = np.array(_pure_start(b0))[:, None].repeat(n, axis=1), np.zeros(n)
    for start in range(0, n_steps, _BLOCK_STEPS):
        size = min(_BLOCK_STEPS, n_steps - start)
        dw = np.empty((size, n))  # the block's increments, trajectory k in column k
        for k, rng in enumerate(rngs):
            dw[:, k] = _draw(rng, dt, size, gaussian)
        psi_rows, lw = _kernels.diffusive_walk(psi, lw0, params.omega_s, params.alpha, dt, dw)
        del dw
        psi, lw0 = psi_rows[-1].copy(), lw[-1].copy()
        dev = _kernels.bloch_rows(psi_rows)  # (size + 1, 3, n)
        del psi_rows
        if start == 0:
            dev[0] = b0.as_array()[:, None]  # the start exactly as given
        # a later block's row 0 is the last row before, bit for bit: rewritten as it was
        rows = slice(start, start + size + 1)
        # weights relative to each row's largest: none overflows, equal ones give n_eff = n
        w = np.exp(lw - lw.max(axis=1, keepdims=True))
        total = w.sum(axis=1, keepdims=True)
        n_eff[rows] = total[:, 0] ** 2 / (w * w).sum(axis=1)
        # shifted two-pass in place, on the deviations from trajectory 0: equal
        # paths give var exactly 0, and var is a weighted sum of squares
        ref = dev[:, :, 0].copy()
        dev -= ref[:, :, None]
        shift = np.einsum("rn,rcn->rc", w, dev) / total
        mean[rows] = ref + shift
        dev -= shift[:, :, None]
        dev *= dev
        var[rows] = np.einsum("rn,rcn->rc", w, dev) / total
        del dev, lw, w  # hold one block at a time
    return EnsembleStats(t=t, mean=mean, var=var, n_eff=n_eff)
