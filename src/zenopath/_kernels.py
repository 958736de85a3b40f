"""Per-step loops, the formulas they step and the time grid, stall check and
finite-path check of their integrators.

The loops of :func:`zeno_walk` and :func:`mlp_rk4` run on builtin floats:
arithmetic on numpy scalars costs several times as much per operation and
gives the same IEEE results (notes/decisions.md, section 5).  They store
each row through a flat ``memoryview`` of the output array, which costs
about half as much as numpy's element writes.  :func:`diffusive_walk` steps
n states at once in numpy, in groups of steps: the product of each group's
step maps, one pass over the group starts, then the rows inside every group
from its start (sections 6 and 21).  ``perfbench/`` times each kernel.

:func:`mlp_rk4` steps :func:`mlp_stage`, the one definition of the
extremal equations, whose first three components are pinned to
:func:`bloch_drift` byte for byte (``tests/test_kernels.py``).  The
diffusive walk steps no drift: it applies the exact linear map of the state
vector (:func:`null_step_map`, section 19), and each of its columns is
pinned byte for byte to the one-state call (``tests/test_diffusive.py``).
The phase path has no loop: ``phase.integrate_phase_path`` evaluates it in
closed form.
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
#: The most steps that :func:`diffusive_walk` takes as one product: a power of two.
GROUP_STEPS = 32
#: A group's product of step maps may remove at most exp(-GROUP_DECAY) of |psi|^2.
GROUP_DECAY = 500.0


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
    (rows, 3) of (rows, 4), (rows, 3, n) of the walk's (rows, 4, n).  Each
    coordinate is formed in two scratch row blocks and its last operation
    writes it into the one new array."""
    ur, ui, vr, vi = (psi[:, j] for j in range(4))
    out = np.empty((psi.shape[0], 3, *psi.shape[2:]))
    x, y, z = (out[:, j] for j in range(3))
    a, b = np.empty((2, *x.shape))
    mul, add, sub = np.multiply, np.add, np.subtract
    # z = (ur ur + ui ui) - (vr vr + vi vi)
    mul(ur, ur, a)
    mul(ui, ui, b)
    add(a, b, a)
    mul(vr, vr, b)
    mul(vi, vi, z)
    add(b, z, b)
    sub(a, b, z)
    # x = 2 (ui vr - ur vi), y = 2 (ur vr + ui vi)
    mul(ui, vr, a)
    mul(ur, vi, b)
    sub(a, b, a)
    mul(a, 2.0, x)
    mul(ur, vr, a)
    mul(ui, vi, b)
    add(a, b, a)
    mul(a, 2.0, y)
    return out


def group_steps(alpha, dt):
    """Steps per group of :func:`diffusive_walk`: the largest power of two
    s <= GROUP_STEPS with s alpha dt <= GROUP_DECAY, or 1 (notes/decisions.md,
    section 21).  A step map has |det| = exp(-alpha dt/2) and norm <= 1, so it
    keeps |psi|^2 above exp(-alpha dt) |psi|^2, and a group's product keeps it
    above exp(-GROUP_DECAY): far from underflow."""
    s = GROUP_STEPS
    while s > 1 and s * alpha * dt > GROUP_DECAY:
        s //= 2
    return s


def _apply_steps(x, col0, col1, cos, sin, t1, t2):
    """x <- M x in place, M = diag(1, exp(-i theta)) E, for a stack of groups:
    x (2, k, 2, groups, n) holds the rows (u, v) of k columns as (re, im);
    col0 = (e00, e10) and col1 = (e01, e11) shaped (2, 1, 1, 1, 1); cos
    (groups, n) and sin (2, groups, n) hold cos theta and (sin theta,
    -sin theta); t1 and t2 are scratch of x's shape.  No call writes an
    operand it broadcasts against, which numpy would buffer."""
    np.multiply(col0, x[:1], t1)
    np.multiply(col1, x[1:], t2)
    np.add(t1, t2, x)
    # v <- exp(-i theta) v: (re, im) <- cos (re, im) + (sin im, -sin re)
    v = x[1]
    np.multiply(sin, v[:, ::-1], t1[1])
    np.multiply(cos, v, t2[1])
    np.add(t2[1], t1[1], v)


def diffusive_walk(psi, log_weight, omega_s, alpha, dt, dw):
    """Conditioned sampling of n states as the linear step of psi = (u, i v).

    psi (4, n) holds rows (re u, im u, re v, im v), log_weight is (n,) and dw
    (n_steps, n), column j driving state j.  Step k maps psi by
    M_k = diag(1, exp(-i sqrt(alpha) dW_k)) E, E = :func:`null_step_map`: E on
    the real and the imaginary parts of (u, v), then the readout's phase of v
    (a rotation about z by sqrt(alpha) dW_k).  Returns the unit psi rows
    (n_steps + 1, 4, n) and the log-weight rows (n_steps + 1, n), the running
    log of the |psi|^2 renormalized away (section 19); row 0 holds the inputs,
    which are only read.

    The steps are taken in groups of s = :func:`group_steps` (section 21):
    (1) each whole group's product of its s maps, for all groups at once;
    (2) a pass over the group starts in order, each one product, one
    renormalization and one log-weight increment; (3) the rows inside every
    group stepped from its start, for all groups at once, and written
    renormalized into the output.  Only float64 ``+ - * /``, sqrt, and numpy's
    cos, sin and log act on an element, so a column's bytes do not depend on
    n; groups start at step 0 of the call, so a call that starts on a group
    boundary of another continues it byte for byte.
    """
    n_steps, n = dw.shape
    s = group_steps(alpha, dt)
    whole, tail = divmod(n_steps, s)
    groups = whole + (tail > 0)
    # the last group is padded to s steps by dW = 0; its rows past n_steps are dropped
    length = groups * s
    out = np.empty((length + 1, 4, n))
    lw = np.empty((length + 1, n))
    out[0] = psi
    # the phase of step g s + j at [j, g]: each step's groups are contiguous
    angle = np.zeros((s, groups, n))
    root = sqrt(alpha)
    np.multiply(root, dw[:whole * s].reshape(whole, s, n), angle[:, :whole].swapaxes(0, 1))
    if tail:
        np.multiply(root, dw[whole * s:], angle[:tail, whole])
    sin = np.empty((2, s, groups, n))
    np.sin(angle, sin[0])
    np.negative(sin[0], sin[1])
    cos = np.cos(angle, angle)
    e00, e01, e10, e11 = null_step_map(omega_s, alpha, dt)
    col0 = np.array([e00, e10]).reshape(2, 1, 1, 1, 1)
    col1 = np.array([e01, e11]).reshape(2, 1, 1, 1, 1)

    # (1) P = M_{s-1} ... M_0 of each whole group, from the identity, as
    # rows x columns x (re, im)
    prod = np.zeros((2, 2, 2, whole, n))
    prod[0, 0, 0] = prod[1, 1, 0] = 1.0
    t1, t2 = np.empty((2, *prod.shape))
    for j in range(s):
        _apply_steps(prod, col0, col1, cos[j, :whole], sin[:, j, :whole], t1, t2)

    # (2) the group starts: psi <- P psi / |P psi|.  P acts on the real
    # vector psi_b = (re u, im u, re v, im v) as a 4 x 4 matrix Q[a, b], held
    # as q[g, k, i, a] for b = 2 i + k: a column's real or imaginary part
    q = np.empty((whole, 2, 2, 2, 2, n))  # (re, im) of b, columns, rows, (re, im) of a
    re, im = prod[:, :, 0].transpose(2, 1, 0, 3), prod[:, :, 1].transpose(2, 1, 0, 3)
    q[:, 0, :, :, 0] = re
    q[:, 0, :, :, 1] = im
    np.negative(im, q[:, 1, :, :, 0])
    q[:, 1, :, :, 1] = re
    q = q.reshape(whole, 2, 2, 4, n)
    starts = out[::s]
    columns = starts.reshape(-1, 2, 2, 1, n).swapaxes(1, 2)  # psi_b at [k, i]
    terms = np.empty((2, 2, 4, n))  # Q[a, b] psi_b at [k, i, a]
    half = np.empty((2, 4, n))
    y, sq = np.empty((2, 4, n))
    pair, norm = np.empty((2, n)), np.empty(n)
    n2 = np.empty((whole + 1, n))  # the log-weight's increments in rows 1..
    for qg, x, nxt, n2g in zip(q, columns, starts[1:], n2[1:]):
        np.multiply(qg, x, terms)
        np.add(terms[0], terms[1], half)
        np.add(half[0], half[1], y)
        # |psi|^2 = (ur ur + vr vr) + (ui ui + vi vi)
        np.multiply(y, y, sq)
        np.add(sq[:2], sq[2:], pair)
        np.add(pair[0], pair[1], n2g)
        np.sqrt(n2g, norm)
        np.divide(y, norm, nxt)
    # the running log-weight of the starts: cumsum adds in sequence from the carried one
    np.log(n2[1:], n2[1:])
    n2[0] = log_weight
    lw[::s][:whole + 1] = np.cumsum(n2, axis=0, out=n2)
    del prod, q, t1, t2

    # (3) the rows inside the groups, stepped from each group's start; their
    # |psi|^2 goes into their log-weight rows, then its log and the start's
    rows = out[:length].reshape(groups, s, 4, n).transpose(1, 2, 0, 3)
    lw_rows = lw[:length].reshape(groups, s, n)
    inner = lw_rows[:, 1:]
    x = rows[0].reshape(2, 1, 2, groups, n).copy()
    t1, t2, sq = np.empty((3, *x.shape))
    pair = np.empty(x[1].shape)
    norm = np.empty((groups, n))
    for j in range(1, s):
        _apply_steps(x, col0, col1, cos[j - 1], sin[:, j - 1], t1, t2)
        # |psi|^2 = (ur ur + vr vr) + (ui ui + vi vi)
        np.multiply(x, x, sq)
        np.add(sq[0], sq[1], pair)
        np.add(pair[0, 0], pair[0, 1], inner[:, j - 1])
        np.sqrt(inner[:, j - 1], norm)
        np.divide(x, norm, rows[j].reshape(x.shape))
    np.log(inner, inner)
    np.add(lw_rows[:, :1], inner, inner)
    return out[:n_steps + 1], lw[:n_steps + 1]


def mlp_stage(omega_s, alpha):
    """The six extremal equations at (omega_s, alpha), as one function of
    (x, y, z, p_x, p_y, p_z) for scalars and arrays alike.

    The readout constraint is substituted: r sqrt(alpha/tau) = alpha (y p_x -
    x p_y), so tau cancels.  The first three components are
    :func:`bloch_drift` with that rotation, bit for bit
    (``tests/test_kernels.py``); the constant products are formed once here,
    not per call.
    """
    nha = -0.5 * alpha
    ha = 0.5 * alpha
    tw = 2.0 * omega_s

    def stage(x, y, z, px, py, pz):
        w = alpha * (y * px - x * py)
        return (
            nha * x * z + w * y,
            (nha * y * z - w * x) - tw * z,
            ha * (1.0 - z * z) + tw * y,
            ha * z * px + w * py,
            -w * px + ha * z * py - tw * pz,
            ha * x * px + ha * y * py + tw * py + alpha * z * pz - ha,
        )

    return stage


def mlp_rk4(s0, omega_s, alpha, dt, n_steps):
    """Fixed-step RK4 on the six extremal equations of the most-likely path:
    each stage is one call of :func:`mlp_stage`, built once per call
    (notes/decisions.md, sections 5 and 20)."""
    out = np.empty((n_steps + 1, 6))
    out[0] = s0
    buf = memoryview(out).cast("B").cast("d")
    i = 6
    x, y, z, px, py, pz = s0.tolist()
    min_speed = 1.0e308
    h = 0.5 * dt
    rhs = mlp_stage(omega_s, alpha)

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
