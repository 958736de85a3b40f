"""Per-step loops, the formulas they step and the time grid and stall check
of their integrators, in plain Python.

Every loop runs on builtin floats: arithmetic on numpy scalars costs several
times as much per operation and gives the same IEEE results
(notes/decisions.md, section 5).  The one exception is
:func:`diffusive_walk_batch`, which steps a whole ensemble as one stacked
(3, n) numpy array, each step through buffers made once per call so that it
allocates nothing (section 6).  ``perfbench/`` times each scalar kernel.

The two scalar RK4 loops, :func:`mlp_rk4` and :func:`diffusive_walk`, step
one closure of :func:`mlp_rhs` or :func:`bloch_drift` with the constant
products hoisted and the operation order kept, so their paths are
bit-identical to stepping the pointwise formulas, which stay the definitions
every other caller uses (``tests/test_kernels.py``).  The batch writes the
same hoisted drift out as in-place numpy calls and is pinned column by column
to :func:`diffusive_walk` (``tests/test_diffusive.py``).  All three scalar
loops store each row through a flat ``memoryview`` of the output array, which
costs about half as much as numpy's element writes.  The phase path has no
loop: ``phase.integrate_phase_path`` evaluates it in closed form.
"""

import math
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
#: The most float64 samples one numpy array can hold: its size in bytes must fit an intp.
MAX_SAMPLES = np.iinfo(np.intp).max // 8


def step_count(dt, t_end):
    """The max(1, round(t_end / dt)) steps of a fixed-step run; raises
    ValueError unless dt, t_end and their ratio are finite, dt, t_end > 0 and
    the steps' time grid has at most MAX_SAMPLES samples."""
    if not (dt > 0.0 and isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if not (t_end > 0.0 and isfinite(t_end)):
        raise ValueError("t_end must be positive and finite")
    ratio = t_end / dt
    if not isfinite(ratio):
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} overflows: too many steps")
    n_steps = max(1, round(ratio))
    if n_steps >= MAX_SAMPLES:
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} asks for {ratio:.4g} steps; "
                         f"a float64 time grid holds at most {MAX_SAMPLES} samples")
    return n_steps


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
    buf = memoryview(out).cast("B").cast("d")
    i = 3
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
        buf[i] = x
        buf[i + 1] = y
        buf[i + 2] = z
        i += 3
    return out


def nullcline_factor(u, lam, theta_ref, anchored, xp=math):
    """The factor 1 + lam sin(theta) of the reduced flow, at theta = theta_ref + u.

    Anchored (lam >= 1, theta_ref a zero of the factor: sin(theta_ref) = -1/lam)
    it is evaluated as 2 lam cos(theta_ref + u/2) sin(u/2), which keeps its
    relative precision as u -> 0 where the plain sum cancels to nothing.
    Unanchored it is the plain sum; theta_ref = -0.0 then makes theta_ref + u
    exactly u.  ``xp`` supplies cos and sin: ``math`` for floats, ``numpy``
    for arrays (this and the two functions below).
    """
    if anchored:
        return 2.0 * lam * xp.cos(theta_ref + 0.5 * u) * xp.sin(0.5 * u)
    return 1.0 + lam * xp.sin(theta_ref + u)


def _phase_rhs(u, p_theta, omega_s, lam, theta_ref, anchored, xp=math):
    theta = theta_ref + u
    dtheta = -2.0 * omega_s * nullcline_factor(u, lam, theta_ref, anchored, xp)
    dp = 2.0 * omega_s * lam * (p_theta * xp.cos(theta) + xp.sin(theta))
    return dtheta, dp


def phase_hamiltonian(u, p_theta, omega_s, lam, theta_ref, anchored, xp=math):
    """H = -2 Omega_s [p_theta (1 + lam sin theta) + lam (1 - cos theta)]."""
    return -2.0 * omega_s * (
        p_theta * nullcline_factor(u, lam, theta_ref, anchored, xp)
        + lam * (1.0 - xp.cos(theta_ref + u))
    )


def bloch_drift(x, y, z, omega_s, alpha, w=None):
    """Conditioned Bloch drift: null-record decay at rate alpha, Rabi drive
    2 omega_s, and, when w is given, a rotation about z at rate w.

    The one definition of the drift, for scalars and arrays alike.  w is
    r sqrt(alpha/tau) for a readout r and alpha (y p_x - x p_y) on the
    most-likely path; the post-selected drift has no rotation and passes
    none.  The two diffusive walks step it without w, written out with its
    constant products hoisted.
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
    buf = memoryview(out).cast("B").cast("d")
    i = 3
    angle = sqrt(alpha) * dw
    cos_a = np.cos(angle).tolist()
    sin_a = np.sin(angle).tolist()
    h = 0.5 * dt
    nha = -0.5 * alpha
    ha = 0.5 * alpha
    tw = 2.0 * omega_s

    def drift(x, y, z):
        # bloch_drift without w, its constant products hoisted, bit for bit
        return nha * x * z, nha * y * z - tw * z, ha * (1.0 - z * z) + tw * y

    for ca, sa in zip(cos_a, sin_a):
        k1x, k1y, k1z = drift(x, y, z)
        k2x, k2y, k2z = drift(x + h * k1x, y + h * k1y, z + h * k1z)
        k3x, k3y, k3z = drift(x + h * k2x, y + h * k2y, z + h * k2z)
        k4x, k4y, k4z = drift(x + dt * k3x, y + dt * k3y, z + dt * k3z)
        xn = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        yn = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        zn = z + dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        xr = ca * xn + sa * yn
        yr = ca * yn - sa * xn
        norm = sqrt(xr * xr + yr * yr + zn * zn)
        x = xr / norm
        y = yr / norm
        z = zn / norm
        buf[i] = x
        buf[i + 1] = y
        buf[i + 2] = z
        i += 3
    return out


def diffusive_walk_batch(x, y, z, omega_s, alpha, dt, dw):
    """:func:`diffusive_walk` for n states at once, stacked as one (3, n) array.

    x, y, z have shape (n,) and dw shape (n_steps, n), column j driving state
    j.  Each element sees the operations of :func:`diffusive_walk` in the same
    order, so every state's path is bit-identical to its scalar walk.  Returns
    the paths as (n_steps + 1, 3, n): row k holds the n states (x, y, z) at
    step k, row 0 being the start.  The inputs are only read: the result
    shares no memory with them.

    At short n the cost is the number of numpy calls, not of elements
    (notes/decisions.md, section 6), so a step allocates nothing: the drift
    is written out as in :func:`diffusive_walk`'s closure, every call writes
    into a buffer made once per call and passed positionally, and every
    constant is a 0-d array.
    """
    n_steps, n = dw.shape
    out = np.empty((n_steps + 1, 3, n))
    out[0] = x, y, z
    angle = sqrt(alpha) * dw
    cos_a = np.cos(angle)
    sin_a = np.sin(angle)
    h, step, nha, ha, tw, one, two, six = (
        np.array(c)
        for c in (0.5 * dt, dt, -0.5 * alpha, 0.5 * alpha, 2.0 * omega_s, 1.0, 2.0, 6.0)
    )
    k = np.empty((4, 3, n))  # the stages k1 .. k4, rows x, y, z
    q = np.empty((3, n))  # a stage's input s + h k, then the rotation's products
    tw_yz = np.empty((2, n))  # tw y and tw z
    acc = np.empty((3, n))  # the RK4 sum, then the new state before renormalizing
    sq = np.empty((3, n))
    norm = np.empty(n)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    k1, k2, k3, k4 = k
    k_rows = [(kj[:2], kj[0], kj[1], kj[2]) for kj in k]
    q_rows = q[:2], q[2], q[1:]
    stages = ((k1, h, k_rows[1]), (k2, h, k_rows[2]), (k3, step, k_rows[3]))
    tw_y, tw_z = tw_yz
    acc_x, acc_y, _ = acc
    sn_y, sn_x, _ = q
    k23 = k[1:3]
    sq_x, sq_y, sq_z = sq

    def drift(s_rows, kj_rows):
        # nha x z, nha y z - tw z and ha (1 - z z) + tw y, in the scalar order
        xy, z, yz = s_rows
        kxy, kx, ky, kz = kj_rows
        mul(nha, xy, kxy)
        mul(kx, z, kx)
        mul(ky, z, ky)
        mul(tw, yz, tw_yz)
        sub(ky, tw_z, ky)
        mul(z, z, kz)
        sub(one, kz, kz)
        mul(ha, kz, kz)
        add(kz, tw_y, kz)

    for c, sn, s, nxt in zip(cos_a, sin_a, out, out[1:]):
        drift((s[:2], s[2], s[1:]), k_rows[0])
        for k_prev, hk, k_next in stages:
            mul(hk, k_prev, q)
            add(s, q, q)
            drift(q_rows, k_next)
        # s + dt (k1 + 2 k2 + 2 k3 + k4) / 6; k2 and k3 are doubled in place
        mul(two, k23, k23)
        add(k1, k2, acc)
        add(acc, k3, acc)
        add(acc, k4, acc)
        mul(step, acc, acc)
        div(acc, six, acc)
        add(s, acc, acc)
        # the readout's rotation: x <- c x + sn y, y <- c y - sn x
        mul(sn, acc_y, sn_y)
        mul(sn, acc_x, sn_x)
        mul(c, acc_x, acc_x)
        add(acc_x, sn_y, acc_x)
        mul(c, acc_y, acc_y)
        sub(acc_y, sn_x, acc_y)
        # divide by sqrt((x x + y y) + z z)
        mul(acc, acc, sq)
        add(sq_x, sq_y, norm)
        add(norm, sq_z, norm)
        np.sqrt(norm, norm)
        div(acc, norm, nxt)
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
    """Fixed-step RK4 on the six extremal equations of the most-likely path.

    Each stage is :func:`mlp_rhs` fused with :func:`bloch_drift` into one
    closure, its constant products hoisted and its operation order kept, so
    the path is bit-identical to stepping :func:`mlp_rhs`
    (notes/decisions.md, section 5).
    """
    out = np.empty((n_steps + 1, 6))
    out[0] = s0
    buf = memoryview(out).cast("B").cast("d")
    i = 6
    x, y, z, px, py, pz = s0.tolist()
    min_speed = 1.0e308
    h = 0.5 * dt
    nha = -0.5 * alpha
    ha = 0.5 * alpha
    tw = 2.0 * omega_s

    def rhs(x, y, z, px, py, pz):
        w = alpha * (y * px - x * py)
        return (
            nha * x * z + w * y,
            (nha * y * z - w * x) - tw * z,
            ha * (1.0 - z * z) + tw * y,
            ha * z * px + w * py,
            -w * px + ha * z * py - tw * pz,
            ha * x * px + ha * y * py + tw * py + alpha * z * pz - ha,
        )

    for _ in range(n_steps):
        a0, a1, a2, a3, a4, a5 = rhs(x, y, z, px, py, pz)
        speed = sqrt(a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a5 * a5)
        if speed < min_speed:
            min_speed = speed
        b0, b1, b2, b3, b4, b5 = rhs(
            x + h * a0, y + h * a1, z + h * a2, px + h * a3, py + h * a4, pz + h * a5
        )
        c0, c1, c2, c3, c4, c5 = rhs(
            x + h * b0, y + h * b1, z + h * b2, px + h * b3, py + h * b4, pz + h * b5
        )
        d0, d1, d2, d3, d4, d5 = rhs(
            x + dt * c0, y + dt * c1, z + dt * c2, px + dt * c3, py + dt * c4, pz + dt * c5
        )
        x = x + dt * (a0 + 2.0 * b0 + 2.0 * c0 + d0) / 6.0
        y = y + dt * (a1 + 2.0 * b1 + 2.0 * c1 + d1) / 6.0
        z = z + dt * (a2 + 2.0 * b2 + 2.0 * c2 + d2) / 6.0
        px = px + dt * (a3 + 2.0 * b3 + 2.0 * c3 + d3) / 6.0
        py = py + dt * (a4 + 2.0 * b4 + 2.0 * c4 + d4) / 6.0
        pz = pz + dt * (a5 + 2.0 * b5 + 2.0 * c5 + d5) / 6.0
        buf[i] = x
        buf[i + 1] = y
        buf[i + 2] = z
        buf[i + 3] = px
        buf[i + 4] = py
        buf[i + 5] = pz
        i += 6
    return out, min_speed
