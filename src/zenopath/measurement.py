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

Sign convention: ``unitary_step`` returns exactly
cos(Omega_s dt) I - i sin(Omega_s dt) sigma_x, so Omega_s dt = pi/2 gives
-i sigma_x.  The global phase is irrelevant for every density-matrix update.
"""

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import _kernels
from .errors import InvalidState, NormalizationUnderflow

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: Post-selection trace denominators at or below this are treated as state
#: annihilation (e.g. a projective J*dt = pi/2 readout acting on |1>).
TRACE_FLOOR = 1e-15

_BLOCH_NORM_TOL = 1e-9
_MATRIX_TOL = 1e-12


@dataclass(frozen=True)
class BlochState:
    """Point on (or inside) the Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.norm() > 1.0 + _BLOCH_NORM_TOL:
            raise InvalidState(
                f"Bloch vector norm {self.norm():.12g} exceeds 1 beyond tolerance"
            )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 qubit density matrix; Hermiticity, unit trace and positivity are
    enforced at construction (tolerance 1e-12)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidState(f"density matrix must be 2x2, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > _MATRIX_TOL:
            raise InvalidState("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > _MATRIX_TOL or abs(np.trace(m).imag) > _MATRIX_TOL:
            raise InvalidState("density matrix trace differs from 1 beyond 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -_MATRIX_TOL:
            raise InvalidState("density matrix has an eigenvalue below -1e-12")


@dataclass(frozen=True)
class KrausPair:
    """Null/click measurement operator pair for the repeated ancilla readout."""

    m0: np.ndarray
    m1: np.ndarray

    def completeness_defect(self) -> float:
        """Max-norm of m0^dag m0 + m1^dag m1 - I."""
        s = self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1
        return float(np.max(np.abs(s - np.eye(2))))


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
        if self.omega_s <= 0.0:
            raise ValueError("omega_s must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        self.alpha = self.j_coupling**2 * self.dt
        self.lam = self.alpha / (4.0 * self.omega_s)

    @classmethod
    def from_lambda(cls, omega_s: float, lam: float, dt: float):
        """Build parameters from the Zeno ratio lam; J = sqrt(4 omega_s lam / dt)."""
        if lam < 0.0:
            raise ValueError("lam must be nonnegative")
        j = math.sqrt(4.0 * omega_s * lam / dt)
        return cls(omega_s=omega_s, j_coupling=j, dt=dt)


def kraus_pair(j_coupling: float, dt: float) -> KrausPair:
    """Measurement operators M0 = diag(1, cos(J dt)), M1 = [[0,0],[0,sin(J dt)]]."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    c = math.cos(j_coupling * dt)
    s = math.sin(j_coupling * dt)
    m0 = np.array([[1.0, 0.0], [0.0, c]], dtype=complex)
    m1 = np.array([[0.0, 0.0], [0.0, s]], dtype=complex)
    return KrausPair(m0=m0, m1=m1)


def unitary_step(omega_s: float, dt: float) -> np.ndarray:
    """One Rabi step U = cos(Omega_s dt) I - i sin(Omega_s dt) sigma_x."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    phi = omega_s * dt
    return math.cos(phi) * np.eye(2, dtype=complex) - 1.0j * math.sin(phi) * SIGMA_X


def postselected_step(rho: DensityMatrix, params: MeasurementParams) -> DensityMatrix:
    """Advance rho by one unitary + null-outcome measurement step.

    Raises
    ------
    NormalizationUnderflow
        If the post-selection trace denominator is <= 1e-15.
    """
    u = unitary_step(params.omega_s, params.dt)
    m0 = kraus_pair(params.j_coupling, params.dt).m0
    evolved = m0 @ u @ rho.matrix @ u.conj().T @ m0.conj().T
    trace = np.trace(evolved).real
    if trace <= TRACE_FLOOR:
        raise NormalizationUnderflow(
            f"post-selection trace {trace:.3e} <= {TRACE_FLOOR:.0e}"
        )
    return DensityMatrix(evolved / trace)


def bloch_from_density(rho: DensityMatrix) -> BlochState:
    """Extract (x, y, z) from rho = (I + x sigma_x + y sigma_y + z sigma_z)/2."""
    m = rho.matrix
    return BlochState(
        x=2.0 * m[0, 1].real,
        y=-2.0 * m[0, 1].imag,
        z=(m[0, 0] - m[1, 1]).real,
    )


def density_from_bloch(b: BlochState) -> DensityMatrix:
    """Inverse of :func:`bloch_from_density`; raises InvalidState outside the sphere."""
    return DensityMatrix(
        0.5
        * np.array(
            [[1.0 + b.z, b.x - 1.0j * b.y], [b.x + 1.0j * b.y, 1.0 - b.z]],
            dtype=complex,
        )
    )


class BlochPoint(Protocol):
    """Bloch coordinates x, y, z; an integrator's stage point may lie just off the sphere."""

    x: float
    y: float
    z: float


def drift_rhs(b: BlochPoint, omega_s: float, lam: float):
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
    path, underflow_at = _kernels.zeno_walk(
        b0.x, b0.y, b0.z, params.omega_s, params.j_coupling, params.dt,
        n_steps, TRACE_FLOOR,
    )
    if underflow_at >= 0:
        raise NormalizationUnderflow(
            f"post-selection trace underflow at step {underflow_at}"
        )
    return path
