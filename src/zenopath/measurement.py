"""Exact discrete-time dynamics of a driven qubit under repeated ancilla readout.

A qubit Rabi-oscillates under H = Omega_s * sigma_x (Rabi frequency 2*Omega_s)
while an ancilla repeatedly probes its excited state with coupling J and is
read out every dt.  Post-selecting the null outcome at every step gives the
nonlinear state update

    rho(t+dt) = M0 U rho(t) U^dag M0^dag / Tr[...]

with M0 = diag(1, cos(J dt)) and U = cos(Omega_s dt) I - i sin(Omega_s dt) sigma_x.
In the continuous-measurement scaling dt -> 0 with alpha = J^2 dt held fixed,
the Bloch coordinates follow the drift

    x' = -2 Omega_s lam x z
    y' = -2 Omega_s z (1 + lam y)
    z' =  2 Omega_s (lam (1 - z^2) + y)

where lam = alpha / (4 Omega_s) controls the Zeno crossover at lam = 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidState, nonnegative, positive

_BLOCH_NORM_TOL = 1e-9


@dataclass(frozen=True)
class BlochState:
    """Point on (or inside) the Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not self.norm() <= 1.0 + _BLOCH_NORM_TOL:  # NaN fails this too
            raise InvalidState(
                f"Bloch vector norm {self.norm():.12g} exceeds 1 beyond tolerance"
            )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass
class MeasurementParams:
    """Repeated-measurement run parameters.

    ``alpha = j_coupling**2 * dt`` and ``lam = alpha / (4 * omega_s)`` are
    derived in ``__post_init__`` so the invariant holds by construction.
    """

    omega_s: float
    j_coupling: float
    dt: float
    alpha: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        positive("omega_s", self.omega_s)
        positive("dt", self.dt)
        try:
            self.alpha = self.j_coupling**2 * self.dt
        except OverflowError:  # float ** raises where * would give inf
            self.alpha = math.inf
        nonnegative("alpha = j_coupling**2 * dt", self.alpha)
        self.lam = self.alpha / (4.0 * self.omega_s)

    @classmethod
    def from_lambda(cls, omega_s: float, lam: float, dt: float):
        """Build parameters from the Zeno ratio lam; J = sqrt(4 omega_s lam / dt)."""
        nonnegative("lam", lam)
        positive("omega_s", omega_s)
        positive("dt", dt)
        j = math.sqrt(4.0 * omega_s * lam / dt)
        return cls(omega_s=omega_s, j_coupling=j, dt=dt)


def drift_rhs(b, omega_s: float, lam: float):
    """Deterministic post-selected Bloch drift (the dt -> 0 limit of one step):
    :func:`_kernels.bloch_drift` at alpha = 4 omega_s lam without rotation.
    Reads only b.x, b.y and b.z: RK4 stage points, O(dt^2) off the sphere and
    so rejected by :class:`BlochState`, can be passed as any such object."""
    return _kernels.bloch_drift(b.x, b.y, b.z, omega_s, 4.0 * omega_s * lam)


def mc_zeno_trajectory(
    b0: BlochState, params: MeasurementParams, n_steps: int
) -> np.ndarray:
    """Iterate the post-selected step from b0; rows are (x, y, z).

    The per-step map is the exact Kraus update expressed directly in Bloch
    coordinates, so at fixed total time T = n_steps * dt the path converges to
    the drift ODE solution with global error O(dt).  States starting in the
    x = 0 plane stay there exactly.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return _kernels.zeno_walk(
        b0.x, b0.y, b0.z, params.omega_s, params.j_coupling, params.dt, n_steps
    )
