"""Stochastic action along most-likely paths, transition times and densities.

On a null-record path the action reduces to a line integral over the angle:

    A(theta_i -> theta_f) = integral of lam (1 - cos theta) / (1 + lam sin theta) dtheta

evaluated here both in closed form (half-angle substitution, branch-safe) and
by adaptive quadrature.  The integrand has simple poles on the nullclines of
1 + lam sin(theta), which exist only for lam >= 1 and make the action diverge
logarithmically at the critical angles.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import (
    EpsilonTooLarge,
    IntegrandSingular,
    SingularEndpoint,
    UnsupportedLambda,
)
from .phase import critical_angles

_QUAD_ABS_TOL = 1e-10
_ENDPOINT_TOL = 1e-9
_EXP_CAP = 700.0


@dataclass(frozen=True)
class TransitionTimes:
    """Transition-time summary; ``t_total`` is set below the Zeno threshold,
    the three segment frequencies above it."""

    epsilon: float
    t_total: float | None = None
    omega1: float | None = None
    omega12: float | None = None
    omega2: float | None = None


def _check_lambda(lam: float):
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if lam == 1.0:
        raise UnsupportedLambda("lam = 1 exactly is degenerate for both closed forms")


def _integrand(theta: float, lam: float) -> float:
    return lam * (1.0 - math.cos(theta)) / (1.0 + lam * math.sin(theta))


def _branch(theta: float):
    """Branch index k and local angle u = theta - 2 pi k, u in [-pi, pi]."""
    k = math.floor((theta + math.pi) / math.tau)
    u = theta - math.tau * k
    return k, u


def _antiderivative(theta: float, lam: float) -> float:
    """A continuous antiderivative of the action integrand on the real line.

    For lam < 1 the half-angle arctan form jumps by -2 pi lam / sqrt(1-lam^2)
    at odd multiples of pi; adding one period-area per branch heals the jump.
    For lam > 1 the log form (absolute values) is already continuous away from
    the nullclines and equals the principal-value primitive across them.
    """
    k, u = _branch(theta)
    if abs(abs(u) - math.pi) < 1e-12:
        # limit value at the tan(theta/2) pole, same from either side
        if lam < 1.0:
            s = math.sqrt(1.0 - lam * lam)
            return math.pi * lam / s * (2.0 * k + math.copysign(1.0, u))
        return 0.0
    t = math.tan(0.5 * u)
    if lam < 1.0:
        s = math.sqrt(1.0 - lam * lam)
        period_area = 2.0 * math.pi * lam / s
        return (
            2.0 * lam / s * math.atan((lam + t) / s)
            - math.log1p(lam * math.sin(u))
            + k * period_area
        )
    s = math.sqrt(lam * lam - 1.0)
    return -(lam / s) * math.log(abs((s + lam + t) / (s - lam - t))) - math.log(
        abs(1.0 + lam * math.sin(u))
    )


def _nullcline_in_interval(a: float, b: float, lam: float, margin: float = 0.0) -> bool:
    """True if a nullcline of 1 + lam sin(theta) lies within (a, b) +- margin."""
    lo, hi = (a, b) if a <= b else (b, a)
    t1, t2 = critical_angles(lam)
    for base in (t1, t2):
        k_min = math.ceil((lo - margin - base) / math.tau)
        if base + math.tau * k_min < hi + margin:
            return True
    return False


def _endpoint_on_nullcline(theta: float, lam: float) -> bool:
    t1, t2 = critical_angles(lam)
    for base in (t1, t2):
        d = math.remainder(theta - base, math.tau)
        if abs(d) < _ENDPOINT_TOL:
            return True
    return False


def action_closed_form(theta_i: float, theta_f: float, lam: float) -> float:
    """Closed-form action between two angles (dispatches on lam < 1 vs lam > 1).

    Raises
    ------
    UnsupportedLambda
        For lam = 1 exactly.
    SingularEndpoint
        For lam > 1 when an endpoint sits within 1e-9 of a critical angle.
    IntegrandSingular
        For lam > 1 when a nullcline lies strictly inside the interval.
    """
    _check_lambda(lam)
    if lam > 1.0:
        for th in (theta_i, theta_f):
            if _endpoint_on_nullcline(th, lam):
                raise SingularEndpoint(
                    f"endpoint theta = {th:.9f} is on a critical angle"
                )
        if _nullcline_in_interval(theta_i, theta_f, lam):
            raise IntegrandSingular(
                "a nullcline of 1 + lam*sin(theta) lies inside the interval"
            )
    return _antiderivative(theta_f, lam) - _antiderivative(theta_i, lam)


def action_quadrature(theta_i: float, theta_f: float, lam: float) -> float:
    """Adaptive quadrature of the action integrand (absolute tolerance 1e-10)."""
    _check_lambda(lam)
    if lam > 1.0:
        if (
            _endpoint_on_nullcline(theta_i, lam)
            or _endpoint_on_nullcline(theta_f, lam)
            or _nullcline_in_interval(theta_i, theta_f, lam)
        ):
            raise IntegrandSingular(
                "a nullcline of 1 + lam*sin(theta) meets the integration interval"
            )
    if theta_i == theta_f:
        return 0.0
    value, _ = integrate.quad(
        _integrand, theta_i, theta_f, args=(lam,),
        epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=500,
    )
    return value


def transition_time_sub_zeno(lam: float, omega_s: float) -> float:
    """Time for the null-record flow to run from theta = 0 to theta = -pi.

    T = [pi + 2 atan(lam / sqrt(1-lam^2))] / (2 Omega_s sqrt(1-lam^2)); equal
    to |integral dtheta / thetadot| and independent of the energy label.
    Diverges as lam -> 1 (Zeno onset); equals half the Rabi period at lam = 0.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if lam >= 1.0:
        raise UnsupportedLambda(
            f"sub-Zeno transition time requires 0 <= lam < 1, got {lam}"
        )
    s = math.sqrt(1.0 - lam * lam)
    return (math.pi + 2.0 * math.atan(lam / s)) / (2.0 * omega_s * s)


def _segment_time(a: float, b: float, lam: float, omega_s: float) -> float:
    """|integral dtheta / thetadot| over [a, b], integrated along the flow."""
    value, _ = integrate.quad(
        lambda th: 1.0 / abs(2.0 * omega_s * (1.0 + lam * math.sin(th))),
        a, b, epsabs=1e-12, epsrel=1e-10, limit=500,
    )
    return abs(value)


def _zeno_angles(lam: float, epsilon: float, what: str):
    """The critical angles, once lam > 1 and the inset epsilon fits between them."""
    if lam <= 1.0:
        raise UnsupportedLambda(f"{what} lam > 1, got {lam}")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    t1, t2 = critical_angles(lam)
    if epsilon >= 0.5 * (t1 - t2):
        raise EpsilonTooLarge(
            f"epsilon = {epsilon} does not fit between the critical angles "
            f"(half-gap {0.5 * (t1 - t2):.6f})"
        )
    return t1, t2


def zeno_frequencies(lam: float, omega_s: float, epsilon: float = 1e-3) -> TransitionTimes:
    """Per-segment transition frequencies in the Zeno regime (lam > 1).

    The sweep 0 -> -pi is split at the critical angles into 0 -> theta1+eps,
    theta2+eps -> theta1-eps (where the flow runs from theta2 toward theta1)
    and theta2-eps -> -pi; each omega_k is the inverse of the segment time.
    """
    t1, t2 = _zeno_angles(lam, epsilon, "zeno frequencies require")
    time1 = _segment_time(t1 + epsilon, 0.0, lam, omega_s)
    time12 = _segment_time(t2 + epsilon, t1 - epsilon, lam, omega_s)
    time2 = _segment_time(-math.pi, t2 - epsilon, lam, omega_s)
    return TransitionTimes(
        epsilon=epsilon,
        omega1=1.0 / time1,
        omega12=1.0 / time12,
        omega2=1.0 / time2,
    )


def action_discontinuity(lam: float, epsilon: float = 1e-3):
    """Action around the stable angle, probing the jump across it.

    Returns (a1, a2, b1, b2):

    * a1 - from theta1+eps to theta2, the long way around the circle (through
      +-pi), staying in the outer flow region;
    * a2 - from theta1-eps to theta2, through the inter-critical band;
    * b1 - the reversed band path theta2 -> theta1-eps;
    * b2 - the same path as a1.

    Both endpoints are inset by eps (the integral diverges on the critical
    angles themselves).  The flow-aligned pair (a1, a2) shares a sign while
    the same-direction pair (b1, b2) has opposite signs, and every magnitude
    grows like log(1/eps).
    """
    t1, t2 = _zeno_angles(lam, epsilon, "action discontinuity requires")
    a1 = action_closed_form(t1 + epsilon, t2 + math.tau - epsilon, lam)
    a2 = action_closed_form(t1 - epsilon, t2 + epsilon, lam)
    return a1, a2, -a2, a1


def final_state_density(lam: float, theta_i: float = 0.0, grid=None):
    """Leading-order density of final z over a grid, from the extremized action.

    Each final coordinate z_f in (-1, 1) maps to theta_f = -arccos(z_f); the
    weight is exp(A) with A taken along the path oriented from theta_f back to
    theta_i, evaluated through the principal-value primitive so that both
    regimes of theta_f are covered for lam > 1.  Weights are capped at
    exp(700) before normalizing (trapezoid rule over the grid integrates
    to 1); the cap is a plotting regularization near the log-divergent peak,
    not physics.
    """
    _check_lambda(lam)
    if grid is None:
        grid = np.linspace(-0.999, 0.999, 801)
    z = np.asarray(grid, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("grid must be a 1-D sequence with at least 2 points")
    if np.any(z <= -1.0) or np.any(z >= 1.0):
        raise ValueError("grid values must lie in the open interval (-1, 1)")
    if np.any(np.diff(z) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    f_i = _antiderivative(theta_i, lam)
    log_w = np.empty_like(z)
    for idx, zf in enumerate(z):
        theta_f = -math.acos(zf)
        log_w[idx] = f_i - _antiderivative(theta_f, lam)
    weights = np.exp(np.minimum(log_w, _EXP_CAP))
    total = integrate.trapezoid(weights, z)
    return z, weights / total
