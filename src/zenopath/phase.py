"""Reduced (theta, p_theta) phase space of the post-selected qubit.

With y = sin(theta), z = cos(theta) the Chantasri-Dressel-Jordan stochastic
Hamiltonian for the null-record subensemble is

    H(theta, p_theta) = -2 Omega_s [ p_theta (1 + lam sin theta) + lam (1 - cos theta) ]

and constant-energy curves are labelled by E = -H / (2 Omega_s).  For lam > 1
the flow has two saddle points whose stable and unstable axes are swapped, and
the separatrices through them carry energies E = lam +- sqrt(lam^2 - 1).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CurveSingularity, NoZenoRegime, StalledAtFixedPoint

_STALL_SPEED = 1e-10
_CRITICAL_DISTANCE = 1e-6


def wrap_angle(theta: float) -> float:
    """Map an angle to the principal range [-pi, pi]."""
    return math.remainder(theta, math.tau)


@dataclass(frozen=True)
class PhasePoint:
    theta: float
    p_theta: float


@dataclass(frozen=True)
class PhaseParams:
    omega_s: float
    lam: float

    def __post_init__(self):
        if self.omega_s <= 0.0:
            raise ValueError("omega_s must be positive")
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")


@dataclass(frozen=True)
class CriticalPointSet:
    """Saddle pair for lam > 1 with the shared stability exponents.

    ``exponent_plus`` (+2 Omega_s sqrt(lam^2-1)) is the expansion rate of the
    unstable axis and ``exponent_minus`` its contracting partner.  At
    (theta1, p_theta1) the theta-axis contracts and the p_theta-axis expands;
    at (theta2, p_theta2) the roles are interchanged.
    """

    theta1: float
    p_theta1: float
    theta2: float
    p_theta2: float
    exponent_plus: float
    exponent_minus: float

    @property
    def p1(self) -> PhasePoint:
        return PhasePoint(self.theta1, self.p_theta1)

    @property
    def p2(self) -> PhasePoint:
        return PhasePoint(self.theta2, self.p_theta2)


def cdj_hamiltonian(p: PhasePoint, params: PhaseParams) -> float:
    """H = -2 Omega_s [p_theta (1 + lam sin theta) + lam (1 - cos theta)]."""
    return _kernels.phase_hamiltonian(
        p.theta, p.p_theta, params.omega_s, params.lam, -0.0, False
    )


def energy_level(p: PhasePoint, params: PhaseParams) -> float:
    """Curve label E = -H / (2 Omega_s)."""
    return -cdj_hamiltonian(p, params) / (2.0 * params.omega_s)


def hamilton_rhs(p: PhasePoint, params: PhaseParams):
    """(d theta/dt, d p_theta/dt) = (dH/dp_theta, -dH/dtheta)."""
    return _kernels._phase_rhs(p.theta, p.p_theta, params.omega_s, params.lam, -0.0, False)


def hamilton_jacobian(p: PhasePoint, params: PhaseParams) -> np.ndarray:
    """Analytic 2x2 Jacobian of :func:`hamilton_rhs` at a phase point."""
    w = 2.0 * params.omega_s * params.lam
    return np.array(
        [
            [-w * math.cos(p.theta), 0.0],
            [w * (-p.p_theta * math.sin(p.theta) + math.cos(p.theta)), w * math.cos(p.theta)],
        ]
    )


def p_theta_curve(theta: float, lam: float, e: float) -> float:
    """Momentum on the energy-E curve: (E - lam (1 - cos theta)) / (1 + lam sin theta)."""
    denom = _kernels.nullcline_factor(theta, lam, -0.0, False)
    if abs(denom) <= 1e-12:
        raise CurveSingularity(
            f"1 + lam*sin(theta) = {denom:.3e} at theta = {theta:.6f}"
        )
    return (e - lam * (1.0 - math.cos(theta))) / denom


def critical_angles(lam: float):
    """(theta1, theta2) = (-asin(1/lam), -pi - theta1), the zeros of
    1 + lam sin(theta) in [-pi, 0] (lam >= 1; unchecked)."""
    theta1 = -math.asin(1.0 / lam)
    return theta1, -math.pi - theta1


def critical_points(params: PhaseParams) -> CriticalPointSet:
    """Saddle pair theta1 = -asin(1/lam), theta2 = asin(1/lam) - pi (lam > 1)."""
    lam = params.lam
    if lam <= 1.0:
        raise NoZenoRegime(f"critical points require lam > 1, got {lam}")
    s = math.sqrt(lam * lam - 1.0)
    theta1, theta2 = critical_angles(lam)
    gamma = 2.0 * params.omega_s * s
    return CriticalPointSet(
        theta1=theta1,
        p_theta1=1.0 / s,
        theta2=theta2,
        p_theta2=-1.0 / s,
        exponent_plus=gamma,
        exponent_minus=-gamma,
    )


def stability_exponents(params: PhaseParams):
    """(+2 Omega_s sqrt(lam^2-1), -2 Omega_s sqrt(lam^2-1)) for lam > 1.

    The contracting exponent applies to the theta-axis at the first saddle and
    to the p_theta-axis at the second; the expanding one to their partners.
    """
    if params.lam <= 1.0:
        raise NoZenoRegime(f"stability exponents require lam > 1, got {params.lam}")
    gamma = 2.0 * params.omega_s * math.sqrt(params.lam**2 - 1.0)
    return gamma, -gamma


def separatrix_energies(lam: float):
    """(e_low, e_high) = lam -+ sqrt(lam^2 - 1); their product is 1."""
    if lam < 1.0:
        raise NoZenoRegime(f"separatrices require lam >= 1, got {lam}")
    s = math.sqrt(lam * lam - 1.0)
    return lam - s, lam + s


@dataclass(frozen=True)
class PhasePath:
    """RK4 path samples; ``theta`` is unwrapped (continuous across +-pi).

    For lam >= 1 the path was integrated in ``deviation`` = theta - theta_ref
    from the stable critical angle ``theta_ref`` that it flows into (see
    :func:`integrate_phase_path`); ``deviation`` is None otherwise.
    """

    t: np.ndarray
    theta: np.ndarray
    p_theta: np.ndarray
    deviation: np.ndarray | None = None
    theta_ref: float = -0.0

    def __len__(self):
        return len(self.t)

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(float(self.theta[i]), float(self.p_theta[i]))

    def hamiltonian(self, params: PhaseParams) -> np.ndarray:
        """H at every sample, with the nullcline factor the path was integrated with."""
        anchored = self.deviation is not None
        u = self.deviation if anchored else self.theta
        return _hamiltonian_samples(
            u, self.p_theta, params.omega_s, params.lam, self.theta_ref, anchored
        )


_hamiltonian_samples = np.vectorize(_kernels.phase_hamiltonian, otypes=[float])


def stable_angle(theta: float, lam: float) -> float:
    """The copy theta1 + 2 pi k of the stable critical angle that the flow from
    ``theta`` runs into (lam >= 1).

    d theta/dt = -2 Omega_s (1 + lam sin theta) does not involve p_theta, and
    theta falls from every start in [theta2, theta2 + 2 pi) to theta1 above
    theta2 (theta1 = theta2 = -pi/2 at lam = 1).
    """
    if lam < 1.0:
        raise NoZenoRegime(f"the stable critical angle requires lam >= 1, got {lam}")
    theta1, theta2 = critical_angles(lam)
    return theta1 + math.tau * math.floor((theta - theta2) / math.tau)


def integrate_phase_path(
    start: PhasePoint,
    params: PhaseParams,
    t_end: float,
    dt: float | None = None,
) -> PhasePath:
    """Classic fixed-step RK4 on Hamilton's equations.

    dt defaults to 1e-3 / omega_s.  For lam >= 1 the angle is integrated as
    the deviation u = theta - theta_ref from the stable critical angle
    ``theta_ref`` = :func:`stable_angle` that the orbit flows into, with
    1 + lam sin theta written as 2 lam cos(theta_ref + u/2) sin(u/2): there
    the plain sum cancels to nothing while p_theta grows like
    exp(2 Omega_s sqrt(lam^2 - 1) t).  For lam < 1 theta is integrated as it
    is.  Emits ``StalledAtFixedPoint`` when the flow speed drops below 1e-10
    and a warning when the path passes within 1e-6 of a critical point
    (informational, not fatal).
    """
    if dt is None:
        dt = 1e-3 / params.omega_s
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    n_steps = max(1, round(t_end / dt))
    anchored = params.lam >= 1.0
    if anchored:
        theta_ref = stable_angle(start.theta, params.lam)
        u0 = start.theta - theta_ref
    else:
        # -0.0 is the exact additive identity: theta_ref + u is u, bit for bit
        theta_ref, u0 = -0.0, start.theta
    path, min_speed = _kernels.phase_rk4(
        u0, start.p_theta, params.omega_s, params.lam, theta_ref, anchored, dt, n_steps
    )
    theta = theta_ref + path[:, 0]
    p = path[:, 1]
    if min_speed < _STALL_SPEED:
        warnings.warn(
            f"flow speed fell to {min_speed:.3e}; path effectively stalled",
            StalledAtFixedPoint,
            stacklevel=2,
        )
    if params.lam > 1.0:
        cps = critical_points(params)
        for cp in (cps.p1, cps.p2):
            dth = np.remainder(theta - cp.theta + np.pi, 2.0 * np.pi) - np.pi
            d2 = dth**2 + (p - cp.p_theta) ** 2
            if np.min(d2) < _CRITICAL_DISTANCE**2:
                warnings.warn(
                    f"path passed within {math.sqrt(float(np.min(d2))):.2e} of the "
                    f"critical point at theta = {cp.theta:.6f}",
                    StalledAtFixedPoint,
                    stacklevel=2,
                )
                break
    t = np.arange(n_steps + 1) * dt
    return PhasePath(
        t=t, theta=theta, p_theta=p,
        deviation=path[:, 0] if anchored else None, theta_ref=theta_ref,
    )
