"""The kernels against their pointwise formulas and references.

``mlp_rk4`` steps :func:`_kernels.mlp_stage`, the one definition of the
extremal equations.  Here classic RK4 is stepped through the stage, and the
kernel and its callers must give the same bytes; the stage's first three
components must be :func:`_kernels.bloch_drift`'s bytes.  The steps are
coarse (dt 5e-3 to 1e-2): at dt = 1e-3 a one-ulp change in a stage is
scaled by dt / 6 and mostly rounds away, so a regrouped sum could go
unseen.  The diffusive walk steps the exact linear map of psi instead of the
drift: its closed-form matrix is checked against ``scipy.linalg.expm``, and
its path against classic RK4 through :func:`_kernels.bloch_drift` plus the
readout's rotation, to a bound.  The phase path is evaluated in closed form;
the same RK4 through :func:`phase._phase_rhs` is kept here as its reference,
and the numpy form of ``_phase_rhs`` must step and evaluate to the bytes of
the float form.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from zenopath import (
    DiffusiveParams,
    ExtendedState,
    PhaseParams,
    PhasePoint,
    StalledAtFixedPoint,
    integrate_mlp,
    integrate_phase_path,
    mlp_pieces,
    wiener_increments,
)
from zenopath import _kernels
from zenopath.phase import _phase_rhs, stable_angle

N_STEPS = 500


def _rk4_step(rhs, state, dt):
    """One classic RK4 step through ``rhs(*state)``: the new state and k1."""
    h = 0.5 * dt
    k1 = rhs(*state)
    k2 = rhs(*(s + h * k for s, k in zip(state, k1)))
    k3 = rhs(*(s + h * k for s, k in zip(state, k2)))
    k4 = rhs(*(s + dt * k for s, k in zip(state, k3)))
    return tuple(s + dt * (a + 2.0 * b + 2.0 * c + d) / 6.0
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)), k1


def _rk4_reference(rhs, state, dt, n_steps):
    """Classic RK4 through ``rhs(*state)``: the rows (n_steps + 1, len(state))
    and the minimum of the flow speed |rhs| at the start of each step."""
    rows = [state]
    min_speed = 1.0e308
    for _ in range(n_steps):
        state, k1 = _rk4_step(rhs, state, dt)
        min_speed = min(min_speed, math.sqrt(sum(k * k for k in k1)))
        rows.append(state)
    return np.array(rows), min_speed


def _phase_cases():
    for lam in (0.5, 1.2, 1.5):
        for theta0 in (0.0, -0.0, -3.0):
            yield lam, theta0, -0.0, theta0, False
            if lam >= 1.0:
                ref = stable_angle(theta0, lam)
                yield lam, theta0, ref, theta0 - ref, True


@pytest.mark.parametrize("lam, theta0, theta_ref, u0, anchored", list(_phase_cases()))
def test_phase_rk4_equals_rk4_through_phase_rhs_byte_for_byte(
        lam, theta0, theta_ref, u0, anchored):
    # integrate_phase_path scans its flow speed with the numpy form of
    # _phase_rhs; stepped on arrays and evaluated on the rows it must give the
    # bytes of the float form
    omega_s, dt, p0 = 0.5, 1e-2, 0.0
    theta_ref = theta_ref if anchored else None
    ref, _ = _rk4_reference(
        lambda u, p: _phase_rhs(u, p, omega_s, lam, theta_ref),
        (u0, p0), dt, N_STEPS)
    state, rows = (np.array([u0]), np.array([p0])), []
    for _ in range(N_STEPS):
        rows.append(state)
        state, _ = _rk4_step(
            lambda u, p: _phase_rhs(u, p, omega_s, lam, theta_ref, np),
            state, dt)
    rows.append(state)
    assert np.array(rows)[:, :, 0].tobytes() == ref.tobytes()
    rhs = _phase_rhs(ref[:, 0], ref[:, 1], omega_s, lam, theta_ref, np)
    ref_rhs = [_phase_rhs(u, p, omega_s, lam, theta_ref) for u, p in ref]
    assert np.column_stack(rhs).tobytes() == np.array(ref_rhs).tobytes()


@pytest.mark.parametrize("lam, theta0, p0", [(0.5, 0.0, 1.0), (0.5, -3.0, 2.0), (1.0, 0.0, 1.0),
                                             (1.5, 0.0, 1.0), (1.5, -3.0, 2.0)])
def test_exact_phase_path_matches_rk4_through_phase_rhs(lam, theta0, p0):
    # the phase path has no kernel: classic RK4 through _phase_rhs, in the
    # deviation for lam >= 1, is its reference; bounds fixed before the first run
    dt, n_steps, omega_s = 1e-3, 20_000, 0.5
    anchored = lam >= 1.0
    theta_ref = stable_angle(theta0, lam) if anchored else -0.0
    ref, _ = _rk4_reference(
        lambda u, p: _phase_rhs(u, p, omega_s, lam, theta_ref if anchored else None),
        (theta0 - theta_ref, p0), dt, n_steps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        path = integrate_phase_path(PhasePoint(theta0, p0), PhaseParams(omega_s, lam),
                                    t_end=n_steps * dt, dt=dt)
    assert len(path) == n_steps + 1
    assert np.max(np.abs(path.theta - (theta_ref + ref[:, 0]))) <= 1e-9
    p = ref[:, 1]
    assert np.max(np.abs(path.p_theta - p) / np.maximum(1.0, np.abs(p))) <= 1e-9


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.5])
def test_mlp_stage_coordinates_are_bloch_drift_byte_for_byte(lam):
    # the extremal flow moves the coordinates by the conditioned drift, with
    # the rotation w = alpha (y p_x - x p_y) that the readout constraint pins
    omega_s, alpha = 0.5, 4.0 * 0.5 * lam
    stage = _kernels.mlp_stage(omega_s, alpha)
    rng = np.random.default_rng(41)
    points = rng.uniform(-2.0, 2.0, (6, 200))
    scalars = [tuple(p) for p in points.T.tolist()]
    for x, y, z, px, py, pz in [*scalars, tuple(points), (-0.0, 0.0, 1.0, 0.0, -0.0, 0.0)]:
        drift = _kernels.bloch_drift(x, y, z, omega_s, alpha, alpha * (y * px - x * py))
        assert np.array(stage(x, y, z, px, py, pz)[:3]).tobytes() == np.array(drift).tobytes()


MLP_STARTS = [(0.0, 0.0, 1.0, 0.0, 0.0, 0.0), (-0.0, 0.1, 0.99, 0.2, -0.0, 0.1),
              (0.3, -0.4, 0.5, 1.0, 2.0, -3.0), (0.6, 0.0, -0.8, -1.5, 0.7, 2.5)]


@pytest.mark.parametrize("s0", MLP_STARTS)
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.5])
def test_mlp_kernel_equals_rk4_through_mlp_rhs_byte_for_byte(lam, s0):
    params = DiffusiveParams.from_lambda(0.5, lam, tau=100.0)
    dt = 5e-3
    ref, ref_speed = _rk4_reference(
        _kernels.mlp_stage(params.omega_s, params.alpha), s0, dt, N_STEPS)
    path, min_speed = _kernels.mlp_rk4(np.array(s0), params.omega_s, params.alpha, dt, N_STEPS)
    assert path.tobytes() == ref.tobytes()
    assert min_speed.hex() == ref_speed.hex()
    start = ExtendedState(*s0)
    t_end = N_STEPS * dt
    assert integrate_mlp(start, params, dt, t_end).states.tobytes() == ref.tobytes()
    pieces = list(mlp_pieces(start, params, dt, t_end, rows=137))  # boundaries at 137, 274, 411
    assert len(pieces) == 4
    assert np.concatenate([p.states for p in pieces]).tobytes() == ref.tobytes()


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 3.0, 200.0])
def test_null_step_map_matches_expm(lam, dt):
    # the closed form on each side of lam = 1 and at it: no 0/0 near it,
    # no overflow at large alpha dt; bound fixed before the first run
    omega_s = 0.5
    alpha = 4.0 * omega_s * lam
    e = np.array(_kernels.null_step_map(omega_s, alpha, dt)).reshape(2, 2)
    k = np.array([[0.0, omega_s], [-omega_s, -0.5 * alpha]])
    assert np.all(np.isfinite(e))
    assert np.max(np.abs(e - expm(k * dt))) <= 1e-14


@pytest.mark.parametrize("start", [(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0),
                                   (0.6, 0.0, -0.8), (0.48, -0.6, 0.64)])
def test_psi_from_bloch_and_bloch_rows_invert_each_other(start):
    # within two ulps of 1 (2.2e-16 each above 1)
    psi = np.array([_kernels.psi_from_bloch(*start)])
    assert abs(np.sum(psi * psi) - 1.0) <= 4.5e-16
    assert np.max(np.abs(_kernels.bloch_rows(psi)[0] - start)) <= 4.5e-16


@pytest.mark.parametrize("gaussian", [False, True], ids=["binary", "gaussian"])
@pytest.mark.parametrize("start", [(0.0, 0.0, 1.0), (0.6, 0.0, -0.8)])
@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_diffusive_walk_matches_rk4_through_bloch_drift(lam, start, gaussian):
    # the exact step against RK4 through the drift, then the readout's exact
    # rotation and renormalization; the bound was fixed before the first run
    omega_s, dt, n_steps = 0.5, 1e-3, 20_000
    alpha = 4.0 * omega_s * lam
    dw = wiener_increments(5, dt, n_steps, gaussian)
    angle = math.sqrt(alpha) * dw
    rows = [start]
    state = start
    for c, s in zip(np.cos(angle).tolist(), np.sin(angle).tolist()):
        (xn, yn, zn), _ = _rk4_step(
            lambda x, y, z: _kernels.bloch_drift(x, y, z, omega_s, alpha), state, dt)
        xr = c * xn + s * yn
        yr = c * yn - s * xn
        norm = math.sqrt(xr * xr + yr * yr + zn * zn)
        state = (xr / norm, yr / norm, zn / norm)
        rows.append(state)
    walk, _ = _kernels.diffusive_walk(*start, omega_s, alpha, dt, dw)
    assert walk[0].tolist() == list(start)
    assert np.max(np.abs(walk - np.array(rows))) <= 1e-11
