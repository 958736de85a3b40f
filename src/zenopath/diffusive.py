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
converge to the same diffusion), applies the drift with an RK4 substep and
then that rotation exactly, and renormalizes the state to keep it pure.  A
trajectory's record has no click with probability
exp(-int alpha (1 - z)/2 dt); ensembles weight their paths by it.

Extremizing the stochastic action instead gives a deterministic 6-dimensional
flow in (x, y, z, p_x, p_y, p_z) with the readout pinned by the constraint
r = sqrt(alpha tau) (y p_x - x p_y); the associated stochastic Hamiltonian is
conserved along solutions, and for lam = alpha/(4 Omega_s) > 1 the
coordinates are drawn to the same critical point as the reduced phase-space
picture.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import StepTooLarge, WeakCouplingWarning, nonnegative, positive, zeno_regime
from .measurement import BlochState

#: Time steps per block of the batched ensemble; a block of n trajectories
#: holds about 100 n _BLOCK_STEPS bytes (notes/decisions.md, section 6).
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
    """Bloch coordinates plus conjugate momenta; ``r`` is the derived readout
    (filled by the most-likely-path integrator, nan otherwise)."""

    x: float
    y: float
    z: float
    p_x: float
    p_y: float
    p_z: float
    r: float = math.nan

    def coords(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.p_x, self.p_y, self.p_z])


@dataclass(frozen=True)
class WienerStream:
    """Reproducible source of Wiener increments.

    ``increments(n)`` always restarts from ``seed``, so equal seeds give
    bit-identical streams.  Binary +-sqrt(dt) steps are the default; set
    ``gaussian=True`` for N(0, dt) increments.
    """

    seed: int
    dt: float
    gaussian: bool = False

    def increments(self, n: int) -> np.ndarray:
        return self._draw(np.random.default_rng(self.seed), n)

    def chunks(self, n: int, size: int):
        """The first n increments as consecutive arrays of at most ``size``;
        concatenated they equal ``increments(n)``."""
        rng = np.random.default_rng(self.seed)
        for start in range(0, n, size):
            yield self._draw(rng, min(size, n - start))

    def _draw(self, rng, n: int) -> np.ndarray:
        root_dt = math.sqrt(self.dt)
        if self.gaussian:
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
    """Sampled conditioned trajectory: times, Bloch rows (x, y, z) and, row for
    row, the readout r_k = sqrt(tau) dW_k / dt of the step that starts at t_k.
    The last row's readout is the seeded stream's next step, not walked."""

    t: np.ndarray
    bloch: np.ndarray
    readout: np.ndarray


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
    stream: WienerStream,
) -> DiffusiveTrajectory:
    """Sample one conditioned trajectory from b0 up to t_end.

    Raises StepTooLarge when dt > tau/10; warns when t_end exceeds tau (the
    weak-coupling window).  Deterministic given (stream.seed, dt).
    """
    n_steps, t = _sampling_steps(params, dt, t_end)
    if stream.dt != dt:
        raise ValueError(f"stream.dt = {stream.dt} does not match dt = {dt}")
    dw = stream.increments(n_steps + 1)  # one readout per row of the path
    path = _kernels.diffusive_walk(
        b0.x, b0.y, b0.z, params.omega_s, params.alpha, dt, dw[:-1]
    )
    readout = math.sqrt(params.tau) * dw / dt
    return DiffusiveTrajectory(t=t, bloch=path, readout=readout)


def mlp_rhs(s: ExtendedState, params: DiffusiveParams):
    """Six extremal derivatives with the readout constraint substituted."""
    return _kernels.mlp_rhs(s.x, s.y, s.z, s.p_x, s.p_y, s.p_z, params.omega_s, params.alpha)


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
        return ExtendedState(*map(float, row), r=float(self.readout[i]))

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
    """Stationary extremal state for lam > 1.

    Coordinates sit at (0, -1/lam, sqrt(1 - 1/lam^2)) -- the same point as the
    reduced-phase-space saddle (sin theta1, cos theta1) -- with momenta
    (0, 1/(2 lam z^2), 1/(2 z)) and vanishing readout.
    """
    lam = params.lam
    zeno_regime(lam, "the extremal fixed point requires")
    z = math.sqrt(1.0 - 1.0 / lam**2)
    return ExtendedState(
        x=0.0,
        y=-1.0 / lam,
        z=z,
        p_x=0.0,
        p_y=1.0 / (2.0 * lam * z * z),
        p_z=1.0 / (2.0 * z),
        r=0.0,
    )


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time-point survival-weighted mean and population variance of the
    Bloch coordinates, and the effective number of trajectories
    (sum w)^2 / sum w^2 behind them (the standard error of the mean is
    sqrt(var / n_eff))."""

    t: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    n_eff: np.ndarray


def survival_log_weight(z: np.ndarray, alpha: float, dt: float, decay=0.0) -> np.ndarray:
    """log P(no click up to each sample) = -int alpha (1 - z)/2 dt, trapezoid
    rule over the samples z along the last axis, starting from -decay (0 for
    a whole trajectory; a later block carries on from the one before)."""
    z = np.asarray(z)
    cum = np.empty(z.shape)
    cum[..., 0] = decay
    cum[..., 1:] = (0.25 * alpha * dt) * ((1.0 - z[..., 1:]) + (1.0 - z[..., :-1]))
    return -np.cumsum(cum, axis=-1)


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
    exp(-int alpha (1 - z)/2 dt) (:func:`survival_log_weight`).  Its mean
    relaxes to the stationary state of the record-averaged null-outcome
    equation (notes/decisions.md); at alpha = 0 all weights are 1.

    Trajectory k uses seed ``base_seed + k`` and enters the weighted Welford
    update in that order, so n = 1 reproduces :func:`sample_trajectory` with
    ``base_seed`` exactly.  All n trajectories are stepped together, in blocks
    of ``_BLOCK_STEPS`` time steps, with the arithmetic of the single sampler
    (notes/decisions.md, section 6): only one block of paths is held at once.
    Same checks and warning as :func:`sample_trajectory`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_steps, t = _sampling_steps(params, dt, t_end)
    draws = [
        WienerStream(seed=base_seed + k, dt=dt, gaussian=gaussian).chunks(n_steps, _BLOCK_STEPS)
        for k in range(n)
    ]
    mean = np.zeros((n_steps + 1, 3))
    var = np.zeros((n_steps + 1, 3))
    log_w = np.full(n_steps + 1, -np.inf)
    n_eff = np.empty(n_steps + 1)
    x = np.full(n, b0.x, dtype=float)
    y = np.full(n, b0.y, dtype=float)
    z = np.full(n, b0.z, dtype=float)
    decay = np.zeros(n)  # each trajectory's -log weight at the block's first row
    for start in range(0, n_steps, _BLOCK_STEPS):
        dw = np.array([next(d) for d in draws]).T
        block = _kernels.diffusive_walk_batch(x, y, z, params.omega_s, params.alpha, dt, dw)
        x, y, z = block[-1]
        paths = block.transpose(2, 0, 1)  # (n, steps + 1, 3), a view
        lw = survival_log_weight(paths[:, :, 2], params.alpha, dt, decay)
        decay = -lw[:, -1]
        # the first row of a later block is the last row of the one before
        first = 0 if start == 0 else 1
        rows = slice(start + first, start + dw.shape[0] + 1)
        # (sum w)^2 / sum w^2 over the block's weights relative to the largest:
        # exactly n when all weights are equal
        rel = np.exp(lw[:, first:] - lw[:, first:].max(axis=0))
        n_eff[rows] = rel.sum(axis=0) ** 2 / (rel * rel).sum(axis=0)
        # weighted Welford (West 1979) on log-weights in seed order: equal
        # trajectories keep the variance exactly zero, and no weight
        # underflows however long the run
        for k in range(n):
            bloch = paths[k, first:]
            lwk = lw[k, first:]
            log_w[rows] = np.logaddexp(log_w[rows], lwk)
            share = np.exp(lwk - log_w[rows])[:, None]  # this trajectory's share of the weight
            delta = bloch - mean[rows]
            mean[rows] += share * delta
            var[rows] = (1.0 - share) * var[rows] + share * delta * (bloch - mean[rows])
    return EnsembleStats(t=t, mean=mean, var=var, n_eff=n_eff)
