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

from .errors import (EpsilonTooLarge, IntegrandSingular, SingularEndpoint, UnsupportedLambda,
                     finite, nonnegative, positive, zeno_regime)
from .phase import _saddle_scale, critical_angles, nullcline_factor

_QUAD_ABS_TOL = 1e-10
_ENDPOINT_TOL = 1e-9
_EXP_CAP = 700.0


@dataclass(frozen=True)
class TransitionTimes:
    """The three segment frequencies of :func:`zeno_frequencies` at inset epsilon."""

    epsilon: float
    omega1: float
    omega12: float
    omega2: float


def _check_lambda(lam: float):
    nonnegative("lam", lam)
    if lam == 1.0:
        raise UnsupportedLambda("lam = 1 exactly is degenerate for both closed forms")


def _integrand(theta: float, lam: float) -> float:
    return lam * (1.0 - math.cos(theta)) / nullcline_factor(theta, lam)


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
    s = _saddle_scale(lam)
    return (-(lam / s) * math.log(abs((s + lam + t) / (s - lam - t)))
            - math.log(abs(nullcline_factor(u, lam))))


def _check_endpoints(thetas, lam: float, endpoint_error):
    """For lam > 1, raise ``endpoint_error`` when an endpoint sits within 1e-9
    of a critical angle."""
    if lam <= 1.0:
        return
    bases = critical_angles(lam)
    for theta in thetas:
        for base in bases:
            if abs(math.remainder(theta - base, math.tau)) < _ENDPOINT_TOL:
                raise endpoint_error(f"endpoint theta = {theta:.9f} is on a critical angle")


def _check_nullclines(theta_i: float, theta_f: float, lam: float, endpoint_error):
    """Apply the finite rule to both endpoints and :func:`_check_endpoints`;
    then, for lam > 1, raise IntegrandSingular when a nullcline of
    1 + lam sin(theta) lies strictly inside the interval."""
    finite("theta_i", theta_i)
    finite("theta_f", theta_f)
    _check_endpoints((theta_i, theta_f), lam, endpoint_error)
    if lam <= 1.0:
        return
    lo, hi = (theta_i, theta_f) if theta_i <= theta_f else (theta_f, theta_i)
    for base in critical_angles(lam):
        if base + math.tau * math.ceil((lo - base) / math.tau) < hi:
            raise IntegrandSingular("a nullcline of 1 + lam*sin(theta) lies inside the interval")


def action_closed_form(theta_i: float, theta_f: float, lam: float) -> float:
    """Closed-form action between two angles (dispatches on lam < 1 vs lam > 1).

    Raises
    ------
    ValueError
        For a NaN or infinite angle.
    UnsupportedLambda
        For lam = 1 exactly.
    SingularEndpoint
        For lam > 1 when an endpoint sits within 1e-9 of a critical angle.
    IntegrandSingular
        For lam > 1 when a nullcline lies strictly inside the interval.
    """
    _check_lambda(lam)
    _check_nullclines(theta_i, theta_f, lam, SingularEndpoint)
    return _antiderivative(theta_f, lam) - _antiderivative(theta_i, lam)


def action_quadrature(theta_i: float, theta_f: float, lam: float) -> float:
    """Adaptive quadrature of the action integrand (absolute tolerance 1e-10)."""
    _check_lambda(lam)
    _check_nullclines(theta_i, theta_f, lam, IntegrandSingular)
    if theta_i == theta_f:
        return 0.0
    # scipy is imported on first use so that importing zenopath loads numpy only
    from scipy import integrate

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
    positive("omega_s", omega_s)
    nonnegative("lam", lam)
    if lam >= 1.0:
        raise UnsupportedLambda(
            f"sub-Zeno transition time requires 0 <= lam < 1, got {lam}"
        )
    s = math.sqrt(1.0 - lam * lam)
    return (math.pi + 2.0 * math.atan(lam / s)) / (2.0 * omega_s * s)


def _zeno_angles(lam: float, epsilon: float, what: str):
    """The critical angles, once lam > 1 and the inset epsilon fits between them."""
    zeno_regime(lam, what)
    positive("epsilon", epsilon)
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
    and theta2-eps -> -pi; each omega_k is the inverse of the segment time,
    in closed form (notes/decisions.md, section 17).  theta -> -pi - theta
    swaps the outer segments, so omega2 = omega1.  EpsilonTooLarge unless
    eps is below both -theta1 and half the gap between the critical angles.
    """
    positive("omega_s", omega_s)
    t1, t2 = _zeno_angles(lam, epsilon, "zeno frequencies require")
    if epsilon >= -t1:
        raise EpsilonTooLarge(f"epsilon = {epsilon} does not fit between theta1 = {t1:.6f} "
                              "and 0: the outer segments would run backwards")
    # 1 + lam sin(theta) = 2 lam sin((theta-t1)/2) sin((theta-t2)/2), so a segment
    # takes |dPsi| / (2 Omega_s s) with Psi(theta) = S(theta-t2) - S(theta-t1) and
    # S(d) = log|sin(d/2)|.  Each dPsi is the log of one ratio of sines, which
    # stays accurate as the outer segment shrinks (eps -> -t1).
    s, g = _saddle_scale(lam), t1 - t2
    h1, h2, he = (math.sin(0.5 * d) for d in (t1, t2, epsilon))
    outer = abs(math.log(he / h1 * (h2 / math.sin(0.5 * (g + epsilon))))) / (2.0 * omega_s * s)
    band = math.log(math.sin(0.5 * (g - epsilon)) / he) / (omega_s * s)
    return TransitionTimes(epsilon, 1.0 / outer, 1.0 / band, 1.0 / outer)


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
    """Weights exp(A) over final z, normalized over z_f, from the extremized action.

    On a null-record path the action is the log no-click probability:
    A(theta_0 -> theta(T)) = log ||exp(M T) psi_0||^2 with
    M = -i Omega_s sigma_x - (alpha/2)|1><1| (notes/decisions.md, section 8).
    Each z_f in (-1, 1) maps to theta_f = -arccos(z_f); the weight is exp(A)
    with A taken along the path oriented from theta_f back to theta_i,
    evaluated through the principal-value primitive so that both regimes of
    theta_f are covered for lam > 1.  Where the flow runs from theta_i to
    theta_f, that orientation makes the weight the reciprocal of the no-click
    probability of reaching theta_f.  Each weight belongs to the time the flow
    takes to reach its own z_f, so the result is normalized over z_f; it is
    not a density of z at one fixed time.  Weights are capped at exp(700)
    before normalizing (the trapezoid rule over the grid integrates to 1);
    the cap is a plotting regularization near the log-divergent peak, not
    physics.  SingularEndpoint when theta_i or a theta_f is within 1e-9 of a
    critical angle.
    """
    _check_lambda(lam)
    finite("theta_i", theta_i)
    if grid is None:
        grid = np.linspace(-0.999, 0.999, 801)
    z = np.asarray(grid, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("grid must be a 1-D sequence with at least 2 points")
    if not np.all(np.abs(z) < 1.0):  # NaN fails too
        raise ValueError("grid values must lie in the open interval (-1, 1)")
    if np.any(np.diff(z) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    theta_f = [-math.acos(zf) for zf in z.tolist()]
    _check_endpoints((theta_i, *theta_f), lam, SingularEndpoint)
    log_w = _antiderivative(theta_i, lam) - np.array([_antiderivative(t, lam) for t in theta_f])
    weights = np.exp(np.minimum(log_w, _EXP_CAP))
    total = np.sum(np.diff(z) * (weights[1:] + weights[:-1]) / 2.0)  # trapezoid rule
    return z, weights / total
