"""Per-step loops, the formulas they step and the time grid, stall check and
finite-path check of their integrators, in plain Python.

Every loop runs on builtin floats: arithmetic on numpy scalars costs several
times as much per operation and gives the same IEEE results
(notes/decisions.md, section 5).  The one exception is
:func:`diffusive_walk_batch`, which steps a whole ensemble as one stacked
(4, n) numpy array, each step through buffers made once per call (section 6).
``perfbench/`` times each scalar kernel.

:func:`mlp_rk4` steps one closure of :func:`mlp_rhs` with the constant
products hoisted and the operation order kept, so its path is bit-identical
to stepping the pointwise formula (``tests/test_kernels.py``).  The diffusive
walks step no drift: they apply the exact linear map of the state vector
(:func:`null_step_map`, section 19), and the batch is pinned column by column
to :func:`diffusive_walk` (``tests/test_diffusive.py``).  The scalar loops
store each row through a flat ``memoryview`` of the output array, which
costs about half as much as numpy's element writes.  The phase path has no
loop: ``phase.integrate_phase_path`` evaluates it in closed form.
"""

import warnings
from math import cos, exp, expm1, isfinite, sin, sqrt

import numpy as np

from .errors import NonFiniteState, NormalizationUnderflow, StalledAtFixedPoint, positive

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
    positive("dt", dt)
    positive("t_end", t_end)
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


def check_finite(t, finite, path, advice=""):
    """Raise NonFiniteState at the first time t[k] whose row is not finite
    (``finite[k]`` false), naming the path and ending with ``advice``."""
    if not finite.all():
        raise NonFiniteState(f"the {path} left the floating-point range at t = "
                             f"{t[np.argmin(finite)]:.6g}{advice}")


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


def bloch_drift(x, y, z, omega_s, alpha, w=None):
    """Conditioned Bloch drift: null-record decay at rate alpha, Rabi drive
    2 omega_s, and, when w is given, a rotation about z at rate w.

    The one definition of the drift, for scalars and arrays alike.  w is
    r sqrt(alpha/tau) for a readout r and alpha (y p_x - x p_y) on the
    most-likely path; the post-selected drift has no rotation and passes
    none.  The diffusive walks do not step it: they step the linear flow of
    psi whose normalized image it is (:func:`null_step_map`), which
    ``tests/test_kernels.py`` checks against RK4 through this drift.
    """
    dx = -0.5 * alpha * x * z
    dy = -0.5 * alpha * y * z
    if w is not None:
        dx, dy = dx + w * y, dy - w * x
    dy = dy - 2.0 * omega_s * z
    dz = 0.5 * alpha * (1.0 - z * z) + 2.0 * omega_s * y
    return dx, dy, dz


def null_step_map(omega_s, alpha, dt):
    """(e00, e01, e10, e11) of E = exp(K dt), K = [[0, omega_s], [-omega_s, -alpha/2]]
    the no-click generator on psi = (u, i v) (notes/decisions.md, section 19):
    E = exp(-a dt) (C I + S (K + a I)), a = alpha/4, where C, S are cos(w dt),
    sin(w dt)/w below a = omega_s, 1, dt at it, and cosh(k dt), sinh(k dt)/k
    above it, those two formed from exp((k - a) dt) and expm1(-2 k dt)."""
    a = 0.25 * alpha
    if a < omega_s:
        w = sqrt((omega_s - a) * (omega_s + a))
        decay = exp(-a * dt)
        c, s = decay * cos(w * dt), decay * sin(w * dt) / w
    elif a > omega_s:
        k = sqrt((a - omega_s) * (a + omega_s))
        slow = exp(-omega_s * omega_s * dt / (a + k))  # a - k = omega_s^2 / (a + k)
        fast = expm1(-2.0 * k * dt)
        c, s = slow * (1.0 + 0.5 * fast), -slow * fast / (2.0 * k)
    else:
        c = exp(-a * dt)
        s = c * dt
    return c + a * s, omega_s * s, -omega_s * s, c - a * s


def psi_from_bloch(x, y, z):
    """(re u, im u, re v, im v) of the unit psi = (u, i v) along (x, y, z), the
    larger of |u| and |v| taken real; :func:`bloch_rows` is its inverse."""
    r = sqrt(x * x + y * y + z * z)
    x, y, z = x / r, y / r, z / r  # a start within BlochState's tolerance of the sphere
    if z >= 0.0:
        u = sqrt(0.5 * (1.0 + z))
        return u, 0.0, 0.5 * y / u, -0.5 * x / u
    v = sqrt(0.5 * (1.0 - z))
    return 0.5 * y / v, 0.5 * x / v, v, 0.0


def bloch_rows(psi):
    """Bloch rows (x, y, z) of unit psi rows (re u, im u, re v, im v) on axis 1:
    (rows, 3) of the scalar walk's (rows, 4), (rows, 3, n) of the batch's (rows, 4, n)."""
    ur, ui, vr, vi = (psi[:, j] for j in range(4))
    return np.stack((2.0 * (ui * vr - ur * vi), 2.0 * (ur * vr + ui * vi),
                     (ur * ur + ui * ui) - (vr * vr + vi * vi)), axis=1)


def diffusive_walk(x, y, z, omega_s, alpha, dt, dw):
    """Conditioned Bloch-vector sampling as the linear step of psi = (u, i v).

    A step applies :func:`null_step_map` to the real and the imaginary parts
    of (u, v), the readout's phase v <- exp(-i sqrt(alpha) dW) v (a rotation
    about z by sqrt(alpha) dW) and one renormalization.  Returns the Bloch
    rows (n_steps + 1, 3), row 0 being (x, y, z) as given, and each row's
    survival log-weight, the sum of the log |psi|^2 renormalized away (section 19).
    """
    e00, e01, e10, e11 = null_step_map(omega_s, alpha, dt)
    psi = np.empty((dw.shape[0] + 1, 4))
    log_weight = np.empty(dw.shape[0] + 1)
    ur, ui, vr, vi = psi[0] = psi_from_bloch(x, y, z)
    buf = memoryview(psi).cast("B").cast("d")
    norms = memoryview(log_weight).cast("B").cast("d")
    i = 4
    angle = sqrt(alpha) * dw
    for k, c, s in zip(range(1, len(log_weight)), np.cos(angle).tolist(), np.sin(angle).tolist()):
        pr = e00 * ur + e01 * vr
        qr = e10 * ur + e11 * vr
        pi = e00 * ui + e01 * vi
        qi = e10 * ui + e11 * vi
        vr = c * qr + s * qi
        vi = c * qi - s * qr
        n2 = (pr * pr + vr * vr) + (pi * pi + vi * vi)
        norm = sqrt(n2)
        buf[i] = ur = pr / norm
        buf[i + 1] = ui = pi / norm
        buf[i + 2] = vr = vr / norm
        buf[i + 3] = vi = vi / norm
        norms[k] = n2
        i += 4
    out = bloch_rows(psi)
    out[0] = x, y, z
    return out, _log_weight_rows(log_weight, 0.0)


def _log_weight_rows(rows, start):
    """|psi|^2 rows 1.. -> running log-weight from ``start``, in place (contiguous rows: equal bytes)."""
    np.log(rows[1:], rows[1:])
    rows[0] = start
    return np.cumsum(rows, axis=0, out=rows)


def diffusive_walk_batch(psi, log_weight, omega_s, alpha, dt, dw):
    """:func:`diffusive_walk` for n states at once, carried as psi.

    psi (4, n) holds rows (re u, im u, re v, im v), log_weight is (n,) and dw
    (n_steps, n), column j driving state j.  Returns the psi rows (n_steps + 1,
    4, n) and log-weight rows (n_steps + 1, n), row 0 being the inputs, which
    are only read.  Each element sees the operations of :func:`diffusive_walk`
    in its order, so every column is bit-identical to its scalar walk.  A step
    makes 17 numpy calls, each into a buffer made once per call, with 0-d constants.
    """
    n_steps, n = dw.shape
    out = np.empty((n_steps + 1, 4, n))
    out[0] = psi
    lw = np.empty((n_steps + 1, n))
    angle = sqrt(alpha) * dw
    e00, e01, e10, e11 = (np.array(e) for e in null_step_map(omega_s, alpha, dt))
    w, sq = np.empty((2, 4, n))  # w = (pr, pi, vr, vi): the step before renormalizing
    q, t = np.empty((2, 2, n))  # q = (qr, qi): v before the readout's phase
    norm = np.empty(n)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    (p, vr, vi), (qr, qi), (t0, t1), sq_lo, sq_hi = (w[:2], w[2], w[3]), q, t, sq[:2], sq[2:]
    for c, sn, u, v, n2, nxt in zip(np.cos(angle), np.sin(angle), out[:, :2], out[:, 2:],
                                    lw[1:], out[1:]):
        mul(e00, u, p)
        mul(e01, v, t)
        add(p, t, p)
        mul(e10, u, q)
        mul(e11, v, t)
        add(q, t, q)
        # vr <- c qr + sn qi, vi <- c qi - sn qr
        mul(sn, qi, t0)
        mul(sn, qr, t1)
        mul(c, qr, vr)
        add(vr, t0, vr)
        mul(c, qi, vi)
        sub(vi, t1, vi)
        # |psi|^2 = (pr pr + vr vr) + (pi pi + vi vi)
        mul(w, w, sq)
        add(sq_lo, sq_hi, t)
        add(t0, t1, n2)
        np.sqrt(n2, norm)
        div(w, norm, nxt)
    return out, _log_weight_rows(lw, log_weight)


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
