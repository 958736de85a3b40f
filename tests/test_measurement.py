import math
from types import SimpleNamespace

import numpy as np
import pytest

from qubit_reference import bloch_from_density, density_from_bloch, null_outcome_step
from zenopath import (
    BlochState,
    InvalidState,
    MeasurementParams,
    NormalizationUnderflow,
    drift_rhs,
    mc_zeno_trajectory,
)


def _step(b, params):
    """One post-selected step of the package's map from b."""
    return mc_zeno_trajectory(b, params, 1)[1]


def test_postselected_step_fixed_point_motion_is_second_order():
    # the drift fixed point moves only at O(dt^2) under the exact map
    lam = 1.5
    b = BlochState(0.0, -1.0 / lam, math.sqrt(1.0 - 1.0 / lam**2))
    moves = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        params = MeasurementParams.from_lambda(0.5, lam, dt)
        moves.append(np.max(np.abs(_step(b, params) - b.as_array())))
    assert moves[0] / moves[1] == pytest.approx(4.0, rel=0.15)
    assert moves[1] / moves[2] == pytest.approx(4.0, rel=0.15)


def test_one_step_matches_drift_to_second_order():
    # maximally mixed state, Omega_s = 0.5, J = 1; at this symmetric state the
    # quadratic coefficient partly cancels, so require order >= 2
    b = BlochState(0.0, 0.0, 0.0)
    errs = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        params = MeasurementParams(omega_s=0.5, j_coupling=1.0, dt=dt)
        euler = b.as_array() + np.array(drift_rhs(b, 0.5, params.lam)) * dt
        errs.append(np.max(np.abs(_step(b, params) - euler)))
    assert errs[0] < 1e-3**2
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_postselected_step_preserves_invariants():
    # a density matrix stays positive exactly when its Bloch vector stays in the ball
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        params = MeasurementParams(
            omega_s=rng.uniform(0.1, 2.0),
            j_coupling=rng.uniform(0.0, 3.0),
            dt=rng.uniform(1e-4, 0.1),
        )
        assert np.linalg.norm(_step(BlochState(*v), params)) < 1.0 + 1e-12


def test_mc_zeno_trajectory_underflow():
    # from the south pole, J*dt = pi/2 annihilates |1> on the first step
    params = MeasurementParams(omega_s=1e-12, j_coupling=math.pi / 2, dt=1.0)
    with pytest.raises(NormalizationUnderflow, match="post-selection trace underflow at step 0"):
        mc_zeno_trajectory(BlochState(0.0, 0.0, -1.0), params, 5)


def test_mc_zeno_trajectory_rejects_zero_steps():
    params = MeasurementParams(omega_s=0.5, j_coupling=1.0, dt=1e-3)
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        mc_zeno_trajectory(BlochState(0.0, 0.0, 1.0), params, 0)


def test_bloch_norm_validation():
    with pytest.raises(InvalidState):
        BlochState(1.0, 1.0, 1.0)


@pytest.mark.parametrize("coords", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.nan)])
def test_bloch_state_rejects_nan(coords):
    # a NaN norm compares False with any bound, so it must fail the check, not pass it
    with pytest.raises(InvalidState):
        BlochState(*coords)


def test_drift_trivials():
    dx, dy, dz = drift_rhs(BlochState(0, 0, 1), 0.7, 0.0)
    assert (dx, dy, dz) == (0.0, -1.4, 0.0)
    lam = 1.5
    b = BlochState(0.0, -2.0 / 3.0, math.sqrt(1 - 4.0 / 9.0))
    assert np.max(np.abs(drift_rhs(b, 0.5, lam))) < 1e-12


def test_drift_fixed_point_residual_grid():
    for lam in np.linspace(1.01, 6.0, 25):
        b = BlochState(0.0, -1.0 / lam, math.sqrt(1.0 - 1.0 / lam**2))
        assert np.max(np.abs(drift_rhs(b, 0.5, lam))) < 1e-12


def test_drift_matches_finite_difference_of_step():
    dt = 1e-6
    params = MeasurementParams.from_lambda(0.5, 0.5, dt)
    b = BlochState(0.0, 0.4, 0.9165)
    fd = (_step(b, params) - b.as_array()) / dt
    an = np.array(drift_rhs(b, 0.5, params.lam))
    assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-5


def test_mc_half_rabi_period():
    dt = 1e-4
    params = MeasurementParams(omega_s=0.5, j_coupling=0.0, dt=dt)
    n = round(math.pi / (2 * 0.5) / dt)
    path = mc_zeno_trajectory(BlochState(0, 0, 1), params, n)
    assert np.max(np.abs(path[-1] - np.array([0.0, 0.0, -1.0]))) < 5 * dt


def test_mc_freezes_at_critical_point():
    params = MeasurementParams.from_lambda(0.5, 1.5, 1e-3)
    path = mc_zeno_trajectory(BlochState(0, 0, 1), params, 20000)
    assert np.max(np.abs(path[-1] - np.array([0.0, -0.666, 0.745]))) < 1e-2


def test_mc_stays_in_yz_plane():
    params = MeasurementParams.from_lambda(0.5, 0.8, 1e-3)
    path = mc_zeno_trajectory(BlochState(0.0, 0.3, 0.8), params, 5000)
    assert np.all(path[:, 0] == 0.0)


def test_mc_matches_matrix_update():
    # the scalar walk is the same map as the matrix-level post-selected step
    params = MeasurementParams.from_lambda(0.5, 1.2, 2e-3)
    b = BlochState(0.2, 0.3, 0.5)
    path = mc_zeno_trajectory(b, params, 200)
    rho = density_from_bloch(b.x, b.y, b.z)
    for k in range(1, 201):
        rho = null_outcome_step(rho, params.omega_s, params.j_coupling, params.dt)
        assert np.max(np.abs(path[k] - bloch_from_density(rho))) < 1e-12


def test_mc_first_order_convergence(rk4_drift_endpoint):
    omega_s, lam, t_total = 0.5, 0.5, 2.0
    dt_ref = 1e-5
    v = rk4_drift_endpoint((0.0, 0.0, 1.0), omega_s, lam, dt_ref, int(t_total / dt_ref))

    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        params = MeasurementParams.from_lambda(omega_s, lam, dt)
        path = mc_zeno_trajectory(BlochState(0, 0, 1), params, round(t_total / dt))
        errs.append(np.max(np.abs(path[-1] - v)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_rk4_float_loop_matches_vector_loop(rk4_drift_endpoint, lam):
    omega_s, dt, n_steps = 0.5, 1e-5, 2000

    def f(q):
        return np.array(drift_rhs(BlochState(*q), omega_s, lam))

    v = np.array([0.0, 0.0, 1.0])
    for _ in range(n_steps):
        k1 = f(v)
        k2 = f(v + 0.5 * dt * k1)
        k3 = f(v + 0.5 * dt * k2)
        k4 = f(v + dt * k3)
        v = v + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    assert np.array_equal(rk4_drift_endpoint((0.0, 0.0, 1.0), omega_s, lam, dt, n_steps), v)


def test_params_invariants():
    p = MeasurementParams(omega_s=0.5, j_coupling=2.0, dt=0.01)
    assert p.alpha == pytest.approx(0.04)
    assert p.lam == p.alpha / (4 * p.omega_s)
    with pytest.raises(ValueError):
        MeasurementParams(omega_s=-1.0, j_coupling=1.0, dt=0.1)
    with pytest.raises(ValueError):
        MeasurementParams(omega_s=0.5, j_coupling=1.0, dt=0.0)


def test_drift_rhs_rk4_through_off_sphere_stage_points():
    # RK4's stage points leave the sphere by O(dt^2): from the pole the first
    # half-step has norm 1 + 1.25e-7, which BlochState rejects.  drift_rhs
    # reads only x, y and z, so the stages go in as plain objects.
    omega_s, lam, dt = 0.5, 1.5, 1e-3
    h = 0.5 * dt

    def rhs(x, y, z):
        return drift_rhs(SimpleNamespace(x=x, y=y, z=z), omega_s, lam)

    x, y, z = 0.0, 0.0, 1.0
    k1x, k1y, k1z = rhs(x, y, z)
    with pytest.raises(InvalidState):
        BlochState(x + h * k1x, y + h * k1y, z + h * k1z)
    for _ in range(40_000):  # to t = 40
        k1x, k1y, k1z = rhs(x, y, z)
        k2x, k2y, k2z = rhs(x + h * k1x, y + h * k1y, z + h * k1z)
        k3x, k3y, k3z = rhs(x + h * k2x, y + h * k2y, z + h * k2z)
        k4x, k4y, k4z = rhs(x + dt * k3x, y + dt * k3y, z + dt * k3z)
        x = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z = z + dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
    assert max(abs(x), abs(y + 0.666), abs(z - 0.745)) < 1e-3
