"""Per-step loops, the formulas they step and the time grid and stall check
of their integrators, in plain Python.

Every loop runs on builtin floats: arithmetic on numpy scalars costs several
times as much per operation and gives the same IEEE results
(notes/decisions.md, section 5).  The one exception is
:func:`diffusive_walk_batch`, which steps a whole ensemble as one stacked
(3, n) numpy array (section 6).  ``perfbench/`` times each kernel.
"""

import warnings
from math import cos, isfinite, sin, sqrt

import numpy as np

from .errors import NormalizationUnderflow, StalledAtFixedPoint

#: There is no compiled kernel path; run records report this constant.
NUMBA_ENABLED = False
#: A path whose flow speed falls below this has stalled at a fixed point.
STALL_SPEED = 1e-10
#: Post-selection trace denominators at or below this are treated as state
#: annihilation (e.g. a projective J*dt = pi/2 readout acting on |1>).
TRACE_FLOOR = 1e-15


def step_count(dt, t_end):
    """The max(1, round(t_end / dt)) steps of a fixed-step run."""
    if not (dt > 0.0 and isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if not (t_end > 0.0 and isfinite(t_end)):
        raise ValueError("t_end must be positive and finite")
    return max(1, round(t_end / dt))


def time_grid(dt, t_end):
    """(n_steps, t) of a fixed-step run: :func:`step_count` steps and the
    sample times k dt, k = 0 .. n_steps."""
    n_steps = step_count(dt, t_end)
    return n_steps, np.arange(n_steps + 1) * dt


def warn_if_stalled(min_speed, stacklevel=3):
    """Warn when a path's flow speed fell below STALL_SPEED; the default
    stacklevel names the caller of the function that calls this one."""
    if min_speed < STALL_SPEED:
        warnings.warn(f"flow speed fell to {min_speed:.3e}; path effectively stalled",
                      StalledAtFixedPoint, stacklevel=stacklevel)


def zeno_walk(x, y, z, omega_s, j_coupling, dt, n_steps):
    """Iterate the post-selected measurement map on Bloch coordinates.

    One step = unitary rotation about the x-axis by 2*omega_s*dt followed by
    the r=0 measurement back-action and renormalization.  Returns the path
    (n_steps+1, 3); raises NormalizationUnderflow at the first step whose
    normalization trace is at or below TRACE_FLOOR.
    """
    out = np.empty((n_steps + 1, 3))
    out[0] = x, y, z
    rot = 2.0 * omega_s * dt
    crot = cos(rot)
    srot = sin(rot)
    cj = cos(j_coupling * dt)
    cj2 = cj * cj
    for k in range(n_steps):
        # Rabi rotation in the y-z plane
        y1 = y * crot - z * srot
        z1 = z * crot + y * srot
        # measurement back-action: rho00 -> rho00, rho11 -> cj^2 rho11
        trace = 0.5 * ((1.0 + z1) + cj2 * (1.0 - z1))
        if trace <= TRACE_FLOOR:
            raise NormalizationUnderflow(f"post-selection trace underflow at step {k}")
        x = cj * x / trace
        y = cj * y1 / trace
        z = ((1.0 + z1) - cj2 * (1.0 - z1)) / (2.0 * trace)
        out[k + 1, 0] = x
        out[k + 1, 1] = y
        out[k + 1, 2] = z
    return out


def nullcline_factor(u, lam, theta_ref, anchored):
    """The factor 1 + lam sin(theta) of the reduced flow, at theta = theta_ref + u.

    Anchored (lam >= 1, theta_ref a zero of the factor: sin(theta_ref) = -1/lam)
    it is evaluated as 2 lam cos(theta_ref + u/2) sin(u/2), which keeps its
    relative precision as u -> 0 where the plain sum cancels to nothing.
    Unanchored it is the plain sum; theta_ref = -0.0 then makes theta_ref + u
    exactly u.
    """
    if anchored:
        return 2.0 * lam * cos(theta_ref + 0.5 * u) * sin(0.5 * u)
    return 1.0 + lam * sin(theta_ref + u)


def _phase_rhs(u, p_theta, omega_s, lam, theta_ref, anchored):
    theta = theta_ref + u
    dtheta = -2.0 * omega_s * nullcline_factor(u, lam, theta_ref, anchored)
    dp = 2.0 * omega_s * lam * (p_theta * cos(theta) + sin(theta))
    return dtheta, dp


def phase_hamiltonian(u, p_theta, omega_s, lam, theta_ref, anchored):
    """H = -2 Omega_s [p_theta (1 + lam sin theta) + lam (1 - cos theta)]."""
    return -2.0 * omega_s * (
        p_theta * nullcline_factor(u, lam, theta_ref, anchored)
        + lam * (1.0 - cos(theta_ref + u))
    )


def phase_rk4(u0, p0, omega_s, lam, theta_ref, anchored, dt, n_steps):
    """Fixed-step RK4 on the reduced (theta, p_theta) Hamiltonian flow.

    Integrates the deviation u = theta - theta_ref (see
    :func:`nullcline_factor`); u is unwrapped (continuous across +-pi).  Also
    returns the minimum flow speed encountered, used by the caller to flag
    stalls.
    """
    out = np.empty((n_steps + 1, 2))
    u = u0
    p = p0
    out[0, 0] = u
    out[0, 1] = p
    min_speed = 1.0e308
    h = 0.5 * dt
    for k in range(n_steps):
        k1t, k1p = _phase_rhs(u, p, omega_s, lam, theta_ref, anchored)
        speed = sqrt(k1t * k1t + k1p * k1p)
        if speed < min_speed:
            min_speed = speed
        k2t, k2p = _phase_rhs(u + h * k1t, p + h * k1p, omega_s, lam, theta_ref, anchored)
        k3t, k3p = _phase_rhs(u + h * k2t, p + h * k2p, omega_s, lam, theta_ref, anchored)
        k4t, k4p = _phase_rhs(u + dt * k3t, p + dt * k3p, omega_s, lam, theta_ref, anchored)
        u = u + dt * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
        p = p + dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        out[k + 1, 0] = u
        out[k + 1, 1] = p
    return out, min_speed


def bloch_drift(x, y, z, omega_s, alpha, w=None):
    """Conditioned Bloch drift: null-record decay at rate alpha, Rabi drive
    2 omega_s, and, when w is given, a rotation about z at rate w.

    The one definition of the drift, for scalars and arrays alike.  w is
    r sqrt(alpha/tau) for a readout r and alpha (y p_x - x p_y) on the
    most-likely path; the post-selected drift and the sampler's RK4 substep
    have no rotation and pass none.
    """
    dx = -0.5 * alpha * x * z
    dy = -0.5 * alpha * y * z
    if w is not None:
        dx, dy = dx + w * y, dy - w * x
    dy = dy - 2.0 * omega_s * z
    dz = 0.5 * alpha * (1.0 - z * z) + 2.0 * omega_s * y
    return dx, dy, dz


def diffusive_walk(x, y, z, omega_s, alpha, dt, dw):
    """Conditioned Bloch-vector sampling: RK4 drift, then the readout's rotation.

    The readout's back-action rotates the state about the z-axis by the angle
    sqrt(alpha)*dW; the rotation is applied exactly (cosine and sine of every
    angle are taken before the loop), so it moves neither z nor the norm.
    Renormalization removes the RK4 drift's O(dt^5) residue.
    """
    n_steps = dw.shape[0]
    out = np.empty((n_steps + 1, 3))
    out[0] = x, y, z
    angle = sqrt(alpha) * dw
    cos_a = np.cos(angle).tolist()
    sin_a = np.sin(angle).tolist()
    h = 0.5 * dt
    for k in range(n_steps):
        k1x, k1y, k1z = bloch_drift(x, y, z, omega_s, alpha)
        k2x, k2y, k2z = bloch_drift(x + h * k1x, y + h * k1y, z + h * k1z, omega_s, alpha)
        k3x, k3y, k3z = bloch_drift(x + h * k2x, y + h * k2y, z + h * k2z, omega_s, alpha)
        k4x, k4y, k4z = bloch_drift(x + dt * k3x, y + dt * k3y, z + dt * k3z, omega_s, alpha)
        xn = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        yn = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        zn = z + dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        xr = cos_a[k] * xn + sin_a[k] * yn
        yr = cos_a[k] * yn - sin_a[k] * xn
        norm = sqrt(xr * xr + yr * yr + zn * zn)
        x = xr / norm
        y = yr / norm
        z = zn / norm
        out[k + 1, 0] = x
        out[k + 1, 1] = y
        out[k + 1, 2] = z
    return out


def diffusive_walk_batch(x, y, z, omega_s, alpha, dt, dw):
    """:func:`diffusive_walk` for n states at once, stacked as one (3, n) array.

    x, y, z have shape (n,) and dw shape (n_steps, n), column j driving state
    j.  Each element sees the operations of :func:`diffusive_walk` in the same
    order, so every state's path is bit-identical to its scalar walk.  Returns
    the paths as (n_steps + 1, 3, n): row k holds the n states (x, y, z) at
    step k, row 0 being the start.
    """
    n_steps, n = dw.shape
    out = np.empty((n_steps + 1, 3, n))
    out[0] = x, y, z
    angle = sqrt(alpha) * dw
    cos_a = np.cos(angle)
    sin_a = np.sin(angle)
    h = 0.5 * dt
    rot = np.empty((3, n))
    s = out[0]
    for k in range(n_steps):
        k1 = np.array(bloch_drift(*s, omega_s, alpha))
        k2 = np.array(bloch_drift(*(s + h * k1), omega_s, alpha))
        k3 = np.array(bloch_drift(*(s + h * k2), omega_s, alpha))
        k4 = np.array(bloch_drift(*(s + dt * k3), omega_s, alpha))
        xn, yn, rot[2] = s + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        c, sn = cos_a[k], sin_a[k]
        np.add(c * xn, sn * yn, out=rot[0])
        np.subtract(c * yn, sn * xn, out=rot[1])
        sq = rot * rot
        s = np.divide(rot, np.sqrt(sq[0] + sq[1] + sq[2]), out=out[k + 1])
    return out


def mlp_rhs(x, y, z, px, py, pz, omega_s, alpha):
    """The six extremal equations, with the readout constraint substituted:
    r sqrt(alpha/tau) = alpha (y p_x - x p_y), so tau cancels."""
    w = alpha * (y * px - x * py)
    dx, dy, dz = bloch_drift(x, y, z, omega_s, alpha, w)
    return (
        dx,
        dy,
        dz,
        0.5 * alpha * z * px + w * py,
        -w * px + 0.5 * alpha * z * py - 2.0 * omega_s * pz,
        0.5 * alpha * x * px
        + 0.5 * alpha * y * py
        + 2.0 * omega_s * py
        + alpha * z * pz
        - 0.5 * alpha,
    )


def mlp_rk4(s0, omega_s, alpha, dt, n_steps):
    """Fixed-step RK4 on the six extremal equations of the most-likely path."""
    out = np.empty((n_steps + 1, 6))
    out[0] = s0
    x, y, z, px, py, pz = s0.tolist()
    min_speed = 1.0e308
    h = 0.5 * dt
    for k in range(n_steps):
        a = mlp_rhs(x, y, z, px, py, pz, omega_s, alpha)
        speed = sqrt(
            a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
            + a[3] * a[3] + a[4] * a[4] + a[5] * a[5]
        )
        if speed < min_speed:
            min_speed = speed
        b = mlp_rhs(
            x + h * a[0], y + h * a[1], z + h * a[2],
            px + h * a[3], py + h * a[4], pz + h * a[5], omega_s, alpha,
        )
        c = mlp_rhs(
            x + h * b[0], y + h * b[1], z + h * b[2],
            px + h * b[3], py + h * b[4], pz + h * b[5], omega_s, alpha,
        )
        d = mlp_rhs(
            x + dt * c[0], y + dt * c[1], z + dt * c[2],
            px + dt * c[3], py + dt * c[4], pz + dt * c[5], omega_s, alpha,
        )
        x = x + dt * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0]) / 6.0
        y = y + dt * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1]) / 6.0
        z = z + dt * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2]) / 6.0
        px = px + dt * (a[3] + 2.0 * b[3] + 2.0 * c[3] + d[3]) / 6.0
        py = py + dt * (a[4] + 2.0 * b[4] + 2.0 * c[4] + d[4]) / 6.0
        pz = pz + dt * (a[5] + 2.0 * b[5] + 2.0 * c[5] + d[5]) / 6.0
        out[k + 1] = x, y, z, px, py, pz
    return out, min_speed
