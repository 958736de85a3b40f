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
from .errors import (CurveSingularity, NonFiniteState, StalledAtFixedPoint, finite,
                     nonnegative, positive, zeno_regime)

_CRITICAL_DISTANCE = 1e-6


@dataclass(frozen=True)
class PhasePoint:
    theta: float
    p_theta: float


@dataclass(frozen=True)
class PhaseParams:
    omega_s: float
    lam: float

    def __post_init__(self):
        positive("omega_s", self.omega_s)
        nonnegative("lam", self.lam)


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


def nullcline_factor(u, lam, theta_ref=None, xp=math):
    """The factor 1 + lam sin(theta) of the reduced flow.

    With no ``theta_ref``, u is theta and the factor is the plain sum.  With
    one (lam >= 1, theta_ref a zero of the factor: sin(theta_ref) = -1/lam),
    u is the deviation theta - theta_ref and the factor is evaluated as
    2 lam cos(theta_ref + u/2) sin(u/2), which keeps its relative precision
    as u -> 0 where the plain sum cancels to nothing.  ``xp`` supplies cos
    and sin: ``math`` for floats, ``numpy`` for arrays (this and the two
    functions below).
    """
    if theta_ref is None:
        return 1.0 + lam * xp.sin(u)
    return 2.0 * lam * xp.cos(theta_ref + 0.5 * u) * xp.sin(0.5 * u)


def _phase_rhs(u, p_theta, omega_s, lam, theta_ref=None, xp=math):
    theta = u if theta_ref is None else theta_ref + u
    dtheta = -2.0 * omega_s * nullcline_factor(u, lam, theta_ref, xp)
    dp = 2.0 * omega_s * lam * (p_theta * xp.cos(theta) + xp.sin(theta))
    return dtheta, dp


def phase_hamiltonian(u, p_theta, omega_s, lam, theta_ref=None, xp=math):
    """H = -2 Omega_s [p_theta (1 + lam sin theta) + lam (1 - cos theta)]."""
    theta = u if theta_ref is None else theta_ref + u
    return -2.0 * omega_s * (
        p_theta * nullcline_factor(u, lam, theta_ref, xp) + lam * (1.0 - xp.cos(theta))
    )


def cdj_hamiltonian(p: PhasePoint, params: PhaseParams) -> float:
    """H = -2 Omega_s [p_theta (1 + lam sin theta) + lam (1 - cos theta)]."""
    return phase_hamiltonian(p.theta, p.p_theta, params.omega_s, params.lam)


def energy_level(p: PhasePoint, params: PhaseParams) -> float:
    """Curve label E = -H / (2 Omega_s)."""
    return -cdj_hamiltonian(p, params) / (2.0 * params.omega_s)


def hamilton_rhs(p: PhasePoint, params: PhaseParams):
    """(d theta/dt, d p_theta/dt) = (dH/dp_theta, -dH/dtheta)."""
    return _phase_rhs(p.theta, p.p_theta, params.omega_s, params.lam)


def p_theta_curve(theta: float, lam: float, e: float) -> float:
    """Momentum on the energy-E curve: (E - lam (1 - cos theta)) / (1 + lam sin theta)."""
    nonnegative("lam", lam)
    finite("theta", theta)
    finite("e", e)
    denom = nullcline_factor(theta, lam)
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


def _saddle_scale(lam):
    """s = sqrt(lam^2 - 1) of the saddles (lam >= 1; unchecked), formed as
    sqrt(lam - 1) sqrt(lam + 1): nothing overflows for large lam and nothing
    cancels near lam = 1 (notes/decisions.md, section 20)."""
    return math.sqrt(lam - 1.0) * math.sqrt(lam + 1.0)


def critical_points(params: PhaseParams) -> CriticalPointSet:
    """Saddle pair theta1 = -asin(1/lam), theta2 = asin(1/lam) - pi (lam > 1)."""
    lam = params.lam
    zeno_regime(lam, "critical points require")
    s = _saddle_scale(lam)
    theta1, theta2 = critical_angles(lam)
    return CriticalPointSet(theta1, 1.0 / s, theta2, -1.0 / s, *stability_exponents(params))


def stability_exponents(params: PhaseParams):
    """(+2 Omega_s sqrt(lam^2-1), -2 Omega_s sqrt(lam^2-1)) for lam > 1.

    The contracting exponent applies to the theta-axis at the first saddle and
    to the p_theta-axis at the second; the expanding one to their partners.
    """
    zeno_regime(params.lam, "stability exponents require")
    gamma = 2.0 * params.omega_s * _saddle_scale(params.lam)
    return gamma, -gamma


def separatrix_energies(lam: float):
    """(e_low, e_high) = lam -+ sqrt(lam^2 - 1); their product is 1, so e_low
    is taken as 1 / e_high, which does not cancel for large lam.  Raises
    NonFiniteState where e_high overflows (lam above about 9e307)."""
    zeno_regime(lam, "separatrices require", inclusive=True)
    e_high = lam + _saddle_scale(lam)
    if e_high == math.inf:
        raise NonFiniteState(f"the separatrix energy lam + sqrt(lam^2 - 1) overflows at lam = {lam!r}")
    return 1.0 / e_high, e_high


@dataclass(frozen=True)
class PhasePath:
    """Samples of the exact null-record path; ``theta`` is unwrapped
    (continuous across +-pi).

    For lam >= 1 the path is carried in ``deviation`` = theta - theta_ref
    from the stable critical angle ``theta_ref`` that it flows into, and
    1 + lam sin theta as 2 lam cos(theta_ref + u/2) sin(u/2): the plain sum
    cancels to nothing there while p_theta grows like
    exp(2 Omega_s sqrt(lam^2 - 1) t).  ``deviation`` is None otherwise.
    """

    t: np.ndarray
    theta: np.ndarray
    p_theta: np.ndarray
    deviation: np.ndarray | None = None
    theta_ref: float = -0.0

    def __len__(self):
        return len(self.t)

    def hamiltonian(self, params: PhaseParams) -> np.ndarray:
        """H at every sample, with the nullcline factor the path was evaluated with."""
        u, ref = (self.theta, None) if self.deviation is None else (self.deviation, self.theta_ref)
        return phase_hamiltonian(u, self.p_theta, params.omega_s, params.lam, ref, np)


def stable_angle(theta: float, lam: float) -> float:
    """The copy theta1 + 2 pi k of the stable critical angle that the flow from
    ``theta`` runs into (lam >= 1).

    d theta/dt = -2 Omega_s (1 + lam sin theta) does not involve p_theta, and
    theta falls from every start in [theta2, theta2 + 2 pi) to theta1 above
    theta2 (theta1 = theta2 = -pi/2 at lam = 1).
    """
    zeno_regime(lam, "the stable critical angle requires", inclusive=True)
    finite("theta", theta)
    return _stable_copy(theta, *critical_angles(lam))


def _stable_copy(theta, theta1, theta2):
    return theta1 + math.tau * math.floor((theta - theta2) / math.tau)


def _half_turn(theta0, omega_s, lam, t):
    """(theta(t) - theta0) / 2 on the exact null-record path, lam < 1.

    Seen from psi(0), psi(t) points along (r cos(delta t) + lam cos(theta0)
    sin(delta t), -(1 + lam sin theta0) sin(delta t)), r = sqrt(1 - lam^2)
    and delta = Omega_s r.  The half angle falls by pi in each half period
    pi / delta, so their count fixes its branch.
    """
    r = math.sqrt(1.0 - lam * lam)
    phase = omega_s * r * t
    sin_phase = np.sin(phase)
    half = np.arctan2(-(1.0 + lam * math.sin(theta0)) * sin_phase,
                      r * np.cos(phase) + lam * math.cos(theta0) * sin_phase)
    centre = -(np.floor(phase / math.pi) + 0.5) * math.pi
    return half - math.tau * np.round((half - centre) / math.tau)


def _deviation(u0, omega_s, lam, t):
    """u(t) on the exact null-record path, lam >= 1, measured from the slow
    eigenvector v1 of the generator itself.

    In the frame of v1, psi(t) e^{-mu1 t} points along (cos(u0/2) +
    sin(u0/2) (1 - e^{-gamma t}) / s, sin(u0/2) e^{-gamma t}), s =
    sqrt(lam^2 - 1), gamma = 2 Omega_s s; at lam = 1 (a Jordan block)
    (1 - e^{-gamma t}) / s is 2 Omega_s t.  The second component keeps the
    sign of sin(u0/2), so u needs no unwrapping, and u keeps its relative
    precision as it decays.
    """
    s = _saddle_scale(lam)
    gamma = 2.0 * omega_s * s
    spread = -np.expm1(-gamma * t) / s if s else 2.0 * omega_s * t
    sin0, cos0 = math.sin(0.5 * u0), math.cos(0.5 * u0)
    return 2.0 * np.arctan2(sin0 * np.exp(-gamma * t), cos0 + sin0 * spread)


def integrate_phase_path(
    start: PhasePoint,
    params: PhaseParams,
    t_end: float,
    dt: float | None = None,
) -> PhasePath:
    """The exact null-record path from ``start``, sampled every dt to t_end.

    dt (default 1e-3 / omega_s) is the sample spacing only: each sample is
    the closed-form solution at its time, and p_theta is read off the energy
    curve through the start (notes/decisions.md, section 1).  For lam >= 1
    the angle is carried as the deviation from :func:`stable_angle` (see
    :class:`PhasePath`).  Raises NonFiniteState at t = 0 for a non-finite
    start, and otherwise at the first sample whose theta or p_theta is not
    finite.  Emits ``StalledAtFixedPoint`` when the flow speed at a sample is
    below 1e-10 and a warning when the path passes within 1e-6 of a critical
    point (informational, not fatal).
    """
    if dt is None:
        dt = 1e-3 / params.omega_s
    _, t = _kernels.time_grid(dt, t_end)
    omega_s, lam = params.omega_s, params.lam
    theta0, p0 = start.theta, start.p_theta
    if not (math.isfinite(theta0) and math.isfinite(p0)):
        raise NonFiniteState(f"the phase path starts outside the floating-point range at t = 0: "
                             f"theta = {theta0!r}, p_theta = {p0!r}")
    theta_ref, u0 = None, theta0
    if lam >= 1.0:
        theta1, theta2 = critical_angles(lam)
        theta_ref = _stable_copy(theta0, theta1, theta2)
        u0 = theta0 - theta_ref
    with np.errstate(all="ignore"):  # overflow is caught below as NonFiniteState
        if theta_ref is not None and u0 in (0.0, theta2 - theta1):
            # a start on theta1 (theta2) stays there and the energy curve is
            # 0/0: dp/dt = rate (p + tan theta_k), rate = gamma (-gamma), and
            # rate tan theta_k = -2 Omega_s
            rate = 2.0 * omega_s * _saddle_scale(lam) * (1.0 if u0 == 0.0 else -1.0)
            u = np.full(t.shape, u0)
            p = p0 * np.exp(rate * t) - 2.0 * omega_s * (np.expm1(rate * t) / rate if rate else t)
        else:
            if theta_ref is None:
                u = theta0 + 2.0 * _half_turn(theta0, omega_s, lam, t)
            else:
                u = _deviation(u0, omega_s, lam, t)
            # p factor = p0 factor0 + lam (cos theta - cos theta0) on the
            # energy curve, with the difference of cosines as a product
            half = 0.5 * (u - u0)
            p = (p0 * nullcline_factor(u0, lam, theta_ref)
                 - 2.0 * lam * np.sin(theta0 + half) * np.sin(half)
                 ) / nullcline_factor(u, lam, theta_ref, np)
        theta = u if theta_ref is None else theta_ref + u
        _kernels.check_finite(t, np.isfinite(theta) & np.isfinite(p), "phase path")
        speed = np.hypot(*_phase_rhs(u, p, omega_s, lam, theta_ref, np))
    _kernels.warn_if_stalled(float(np.min(speed)))
    if lam > 1.0:
        cps = critical_points(params)
        for cp in (cps.p1, cps.p2):
            dth = np.remainder(theta - cp.theta + np.pi, 2.0 * np.pi) - np.pi
            distance = float(np.min(np.hypot(dth, p - cp.p_theta)))
            if distance < _CRITICAL_DISTANCE:
                warnings.warn(f"path passed within {distance:.2e} of the critical point at "
                              f"theta = {cp.theta:.6f}", StalledAtFixedPoint, stacklevel=2)
                break
    if theta_ref is None:
        return PhasePath(t, theta, p)
    return PhasePath(t, theta, p, u, theta_ref)
