import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from qubit_reference import SIGMA_X, bloch_from_density, density_from_bloch
from zenopath import (
    BlochState,
    DiffusiveParams,
    ExtendedState,
    InvalidState,
    NoZenoRegime,
    StalledAtFixedPoint,
    StepTooLarge,
    WeakCouplingWarning,
    critical_points,
    drift_rhs,
    ensemble_stats,
    integrate_mlp,
    mlp_fixed_point,
    mlp_pieces,
    mlp_rhs,
    plane_state,
    NonFiniteState,
    PhaseParams,
    PhasePoint,
    integrate_phase_path,
    readout_constraint,
    sample_trajectory,
    sme_rhs,
    stochastic_hamiltonian,
    wiener_increments,
)
from zenopath import _kernels, diffusive
from zenopath.phase import phase_hamiltonian

P1 = np.diag([0.0, 1.0]).astype(complex)

PARAMS_15 = DiffusiveParams.from_lambda(omega_s=0.5, lam=1.5, tau=100.0)
GENERIC_IC = ExtendedState(0.0, 0.4, 0.916, 0.5, 0.3, 0.2)


def test_wiener_statistics_binary():
    inc = wiener_increments(2024, 1e-3, 1_000_000)
    assert abs(inc.mean()) < 4 * math.sqrt(1e-3 / 1e6)
    assert abs(inc.var() - 1e-3) / 1e-3 < 0.01
    magnitudes = np.unique(np.abs(inc))
    assert magnitudes.size == 1 and magnitudes[0] == math.sqrt(1e-3)


def test_wiener_statistics_gaussian():
    inc = wiener_increments(2024, 1e-3, 1_000_000, True)
    assert abs(inc.mean()) < 4 * math.sqrt(1e-3 / 1e6)
    assert abs(inc.var() - 1e-3) / 1e-3 < 0.01


def test_wiener_stream_reproducible():
    a = wiener_increments(5, 1e-3, 1000)
    b = wiener_increments(5, 1e-3, 1000)
    assert np.array_equal(a, b)


def test_sme_rhs_pure_rabi():
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    b = BlochState(0.1, 0.4, 0.7)
    assert sme_rhs(b, 1.3, params) == (0.0, -0.7, 0.4)


def test_sme_rhs_z_component_vanishes_at_critical_point():
    # alpha(1-z^2)/2 + 2 Omega_s y = 2 Omega_s (lam (1-z^2) + y) = 0 there
    lam = PARAMS_15.lam
    b = BlochState(0.0, -1.0 / lam, math.sqrt(1 - 1 / lam**2))
    dx, dy, dz = sme_rhs(b, 0.0, PARAMS_15)
    assert abs(dz) < 1e-12
    assert abs(dy) < 1e-12  # 1 + lam*y = 0 there as well
    assert dx == 0.0


def _kraus_step(b, r, params, dt):
    # Gaussian-readout measurement operator, conditioned and normalized
    rho = density_from_bloch(b.x, b.y, b.z)
    expo = (
        -1j * params.omega_s * dt * SIGMA_X
        - (1j * math.sqrt(params.alpha / params.tau) * r * dt + 0.5 * params.alpha * dt)
        * P1
    )
    m = expm(expo)
    out = m @ rho @ m.conj().T
    return bloch_from_density(out / np.trace(out).real)


def test_sme_rhs_matches_kraus_update_to_second_order():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        b = BlochState(*v)
        r = rng.normal() * 2.0
        errs = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            euler = np.array(v) + np.array(sme_rhs(b, r, PARAMS_15)) * dt
            errs.append(np.max(np.abs(euler - _kraus_step(b, r, PARAMS_15, dt))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_trajectory_pure_rabi_recovery():
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    traj = sample_trajectory(BlochState(0, 0, 1), params, 1e-3, 4 * math.pi, 1)
    assert np.max(np.abs(traj.bloch[:, 1] + np.sin(traj.t))) < 1e-8
    assert np.max(np.abs(traj.bloch[:, 2] - np.cos(traj.t))) < 1e-8
    assert np.max(np.abs(traj.bloch[:, 0])) < 1e-12


def test_trajectory_x_constant_without_measurement():
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    v = np.array([0.7, 0.2, 0.685])
    v /= np.linalg.norm(v)
    traj = sample_trajectory(BlochState(*v), params, 1e-3, 4 * math.pi, 1)
    assert np.max(np.abs(traj.bloch[:, 0] - v[0])) < 1e-12


def test_trajectory_deterministic_given_seed():
    a = sample_trajectory(BlochState(0, 0, 1), PARAMS_15, 1e-3, 5.0, 7)
    b = sample_trajectory(BlochState(0, 0, 1), PARAMS_15, 1e-3, 5.0, 7)
    assert np.array_equal(a.bloch, b.bloch)
    assert np.array_equal(a.readout, b.readout)


def test_trajectory_stays_normalized():
    traj = sample_trajectory(BlochState(0, 0, 1), PARAMS_15, 1e-3, 10.0, 9)
    norms = np.linalg.norm(traj.bloch, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_trajectory_readout_convention():
    traj = sample_trajectory(BlochState(0, 0, 1), PARAMS_15, 1e-3, 1.0, 3)
    dw = wiener_increments(3, 1e-3, 1001)
    np.testing.assert_allclose(traj.readout, math.sqrt(100.0) * dw / 1e-3)


def test_trajectory_guards():
    with pytest.raises(StepTooLarge):
        sample_trajectory(
            BlochState(0, 0, 1),
            DiffusiveParams(omega_s=0.5, alpha=1.0, tau=1.0),
            0.2,
            1.0,
            0,
        )
    with pytest.warns(WeakCouplingWarning):
        sample_trajectory(
            BlochState(0, 0, 1),
            DiffusiveParams(omega_s=0.5, alpha=1.0, tau=2.0),
            1e-3,
            3.0,
            0,
        )


def test_mlp_rhs_rabi_reduction():
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    s = ExtendedState(0.2, 0.3, 0.5, 0.0, 0.0, 0.0)
    ds = mlp_rhs(s, params)
    np.testing.assert_allclose(ds, (0.0, -2 * 0.5 * 0.5, 2 * 0.5 * 0.3, 0.0, 0.0, 0.0))


def test_mlp_rhs_is_hamiltonian_gradient():
    # (q', p') = (dH/dp, -dH/dq) against central differences, 1000 random states
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(1000):
        params = DiffusiveParams(
            omega_s=rng.uniform(0.2, 1.0),
            alpha=rng.uniform(0.0, 4.0),
            tau=rng.uniform(10.0, 200.0),
        )
        vals = rng.uniform(-1.0, 1.0, 6)
        s = ExtendedState(*vals)
        ds = np.array(mlp_rhs(s, params))
        fd = np.empty(6)
        for i in range(6):
            up = vals.copy()
            dn = vals.copy()
            up[i] += h
            dn[i] -= h
            dh = (
                stochastic_hamiltonian(ExtendedState(*up), params)
                - stochastic_hamiltonian(ExtendedState(*dn), params)
            ) / (2 * h)
            fd[i] = dh
        expected = np.concatenate([fd[3:], -fd[:3]])
        assert np.max(np.abs(ds - expected)) < 1e-6


def test_mlp_hamiltonian_conserved():
    # sub-Zeno run over a long window
    params = DiffusiveParams.from_lambda(omega_s=0.5, lam=0.5, tau=100.0)
    traj = integrate_mlp(GENERIC_IC, params, dt=1e-3, t_end=25.0)
    h = traj.hamiltonian(params)
    assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) < 1e-7
    # Zeno run, window ending before the momentum caustic near t ~ 8
    traj = integrate_mlp(GENERIC_IC, PARAMS_15, dt=1e-4, t_end=4.0)
    h = traj.hamiltonian(PARAMS_15)
    assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) < 1e-7


def test_drift_rhs_is_sme_rhs_at_zero_readout():
    # one drift definition: the post-selected drift at lam is the conditioned
    # drift at alpha = 4 Omega_s lam with r = 0, to the last bit
    b = BlochState(0.1, -0.3, 0.7)
    for omega_s, lam in ((0.37, 1.3), (0.5, 0.5), (0.5, 1.5), (1.1, 0.0)):
        params = DiffusiveParams.from_lambda(omega_s, lam, tau=100.0)
        assert drift_rhs(b, omega_s, lam) == sme_rhs(b, 0.0, params)


def test_stochastic_hamiltonian_matches_path_hamiltonian():
    # the scalar and the per-sample Hamiltonian are one definition, bit for bit
    traj = integrate_mlp(GENERIC_IC, PARAMS_15, dt=1e-3, t_end=2.0)
    h = traj.hamiltonian(PARAMS_15)
    for i in range(0, len(traj.t), 50):
        assert stochastic_hamiltonian(traj.state(i), PARAMS_15) == h[i]


def test_mlp_readout_matches_constraint():
    traj = integrate_mlp(GENERIC_IC, PARAMS_15, dt=1e-3, t_end=2.0)
    for i in (0, 500, 2000):
        s = traj.state(i)
        assert traj.readout[i] == readout_constraint(s, PARAMS_15)


def test_mlp_zeno_coordinates_freeze():
    # the coordinates spiral onto the critical point before the momenta run
    # off through the caustic, so the approach is judged by closest distance
    fp = mlp_fixed_point(PARAMS_15)
    traj = integrate_mlp(GENERIC_IC, PARAMS_15, dt=5e-5, t_end=7.9)
    dist = np.linalg.norm(traj.states[:, :3] - fp.coords(), axis=1)
    assert np.min(dist) < 1e-2
    closest = traj.states[np.argmin(dist), :3]
    np.testing.assert_allclose(closest, [0.0, -0.666, 0.745], atol=1.5e-2)


def test_mlp_sub_zeno_keeps_oscillating():
    params = DiffusiveParams.from_lambda(omega_s=0.5, lam=0.5, tau=100.0)
    traj = integrate_mlp(GENERIC_IC, params, dt=1e-3, t_end=25.0)
    z_late = traj.states[len(traj.t) // 2 :, 2]
    assert z_late.max() - z_late.min() > 0.5


def test_mlp_rabi_circle():
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    traj = integrate_mlp(GENERIC_IC, params, dt=1e-3, t_end=4 * math.pi)
    assert np.max(np.abs(traj.states[:, 0] - GENERIC_IC.x)) < 1e-10
    # (y, z) rotate rigidly at the Rabi frequency 2*Omega_s
    phase = 2 * 0.5 * traj.t
    y_exact = GENERIC_IC.y * np.cos(phase) - GENERIC_IC.z * np.sin(phase)
    z_exact = GENERIC_IC.z * np.cos(phase) + GENERIC_IC.y * np.sin(phase)
    assert np.max(np.abs(traj.states[:, 1] - y_exact)) < 1e-8
    assert np.max(np.abs(traj.states[:, 2] - z_exact)) < 1e-8


@pytest.mark.parametrize("lam", [1.01, 1.2, 1.5, 3.0, 100.0])
def test_mlp_fixed_point_consistency(lam):
    params = DiffusiveParams.from_lambda(0.5, lam, 100.0)
    fp = mlp_fixed_point(params)
    scale = 1.0 + np.max(np.abs(fp.as_array()))
    assert np.max(np.abs(mlp_rhs(fp, params))) <= 1e-12 * scale
    assert fp.x == 0.0 and fp.p_x == 0.0
    cps = critical_points(PhaseParams(omega_s=0.5, lam=lam))
    assert fp.y == pytest.approx(math.sin(cps.theta1), abs=1e-6)
    assert fp.z == pytest.approx(math.cos(cps.theta1), abs=1e-6)
    assert readout_constraint(fp, params) == 0.0
    with pytest.raises(NoZenoRegime):
        mlp_fixed_point(DiffusiveParams.from_lambda(0.5, 0.5, 100.0))


@pytest.mark.parametrize("gaussian", [False, True])
def test_ensemble_degenerates_to_single_trajectory(gaussian):
    # t_end 2.0 spans four blocks of 512 steps
    stats = ensemble_stats(
        BlochState(0, 0, 1), PARAMS_15, 1e-3, 2.0, n=1, base_seed=12, gaussian=gaussian
    )
    traj = sample_trajectory(BlochState(0, 0, 1), PARAMS_15, 1e-3, 2.0, 12, gaussian)
    assert stats.mean.tobytes() == traj.bloch.tobytes()
    assert np.max(stats.var) == 0.0


def test_ensemble_rabi_mean_and_zero_variance():
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    stats = ensemble_stats(BlochState(0, 0, 1), params, 1e-3, 3.0, n=5, base_seed=0)
    assert np.max(stats.var) == 0.0
    assert np.max(np.abs(stats.mean[:, 2] - np.cos(stats.t))) < 1e-8


def test_ensemble_survival_weighted_by_hand():
    # n = 3 at lam = 1.5: each path weighs its no-click probability at each time
    dt, t_end = 1e-3, 5.0
    trajs = [
        sample_trajectory(BlochState(0, 0, 1), PARAMS_15, dt, t_end, 20 + k)
        for k in range(3)
    ]
    x = np.array([tr.bloch for tr in trajs])
    w = np.exp([tr.log_weight for tr in trajs])
    total = w.sum(axis=0)
    mean = (w[:, :, None] * x).sum(axis=0) / total[:, None]
    var = (w[:, :, None] * (x - mean) ** 2).sum(axis=0) / total[:, None]
    stats = ensemble_stats(BlochState(0, 0, 1), PARAMS_15, dt, t_end, n=3, base_seed=20)
    np.testing.assert_allclose(stats.mean, mean, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(stats.var, var, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(stats.n_eff, total**2 / (w**2).sum(axis=0), rtol=1e-12)
    # the weights are not all equal, so the plain average would differ
    assert np.max(np.abs(x.mean(axis=0) - mean)) > 1e-3


def _ensemble_reference(b0, params, dt, t_end, n, base_seed, gaussian):
    """One sample_trajectory per seed, stacked into (rows, 3, n), then the
    weighted shifted two-pass over all rows at once: the per-seed form that
    the batched ensemble must reproduce block by block."""
    trajs = [sample_trajectory(b0, params, dt, t_end, base_seed + k, gaussian)
             for k in range(n)]
    bloch = np.stack([tr.bloch for tr in trajs], axis=2)
    lw = np.stack([tr.log_weight for tr in trajs], axis=1)
    w = np.exp(lw - lw.max(axis=1, keepdims=True))
    total = w.sum(axis=1)[:, None]
    ref = bloch[:, :, 0].copy()
    dev = bloch - ref[:, :, None]
    shift = np.einsum("rn,rcn->rc", w, dev) / total
    dev -= shift[:, :, None]
    dev *= dev
    return ref + shift, np.einsum("rn,rcn->rc", w, dev) / total


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize(
    "params, gaussian",
    [(PARAMS_15, False), (PARAMS_15, True), (DiffusiveParams(0.5, 0.0, 100.0), False)],
    ids=["lam1.5-binary", "lam1.5-gaussian", "alpha0"],
)
def test_ensemble_batch_equals_per_seed_reference(monkeypatch, params, gaussian, block):
    # 2500 steps cross several block boundaries and end on a partial block
    if block is not None:
        monkeypatch.setattr(diffusive, "_BLOCK_STEPS", block)
    assert 2500 % diffusive._BLOCK_STEPS != 0
    b0, dt, t_end, n, seed = BlochState(0.0, 0.6, 0.8), 1e-3, 2.5, 4, 31
    stats = ensemble_stats(b0, params, dt, t_end, n, seed, gaussian=gaussian)
    mean, var = _ensemble_reference(b0, params, dt, t_end, n, seed, gaussian)
    # bytes, not np.array_equal, which takes -0.0 for 0.0
    assert stats.t.tobytes() == (np.arange(2501) * dt).tobytes()
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.var.tobytes() == var.tobytes()
    assert np.min(stats.var) >= 0.0


@pytest.mark.parametrize("gaussian", [False, True], ids=["binary", "gaussian"])
def test_ensemble_matches_exactly_summed_moments(gaussian):
    # bound fixed before the first run: every (t, coordinate) mean and variance
    # summed exactly with math.fsum over the per-seed paths, weighted by
    # exp(log_weight), in the plain two-pass form
    b0, dt, t_end, n, seed = BlochState(0.0, 0.6, 0.8), 1e-3, 2.5, 4, 31
    stats = ensemble_stats(b0, PARAMS_15, dt, t_end, n, seed, gaussian=gaussian)
    trajs = [sample_trajectory(b0, PARAMS_15, dt, t_end, seed + k, gaussian) for k in range(n)]
    weights = np.exp([tr.log_weight for tr in trajs]).T.tolist()
    paths = np.array([tr.bloch for tr in trajs]).transpose(1, 2, 0).tolist()  # [t][coordinate][k]
    mean, var = [], []
    for w, row in zip(weights, paths):
        total = math.fsum(w)
        m = [math.fsum(wk * xk for wk, xk in zip(w, xs)) / total for xs in row]
        mean.append(m)
        var.append([math.fsum(wk * (xk - mk) ** 2 for wk, xk in zip(w, xs)) / total
                    for xs, mk in zip(row, m)])
    assert np.max(np.abs(stats.mean - mean)) <= 1e-14
    assert np.max(np.abs(stats.var - var)) <= 1e-14


def test_ensemble_weights_wider_than_the_float_range():
    # near lam = 1 a step of Omega_s dt = 10 maps almost every state onto one
    # direction, and the Gaussian readout's phase sets how much norm survives
    # it, so the log-weights random-walk apart; by the end they span more
    # than 745, where a weight relative to the largest underflows to 0
    params = DiffusiveParams.from_lambda(0.5, 0.99, tau=4e5)
    b0, dt, t_end, n, seed = BlochState(0.0, 0.0, 1.0), 20.0, 4e5, 4, 3
    stats = ensemble_stats(b0, params, dt, t_end, n, seed, gaussian=True)
    trajs = [sample_trajectory(b0, params, dt, t_end, seed + k, True) for k in range(n)]
    lw = np.array([tr.log_weight for tr in trajs])
    ordered = np.sort(lw, axis=0)
    wide = ordered[-1] - ordered[0] > 745.0
    assert wide.any()
    # there the runner-up lies more than 40 below, so the others weigh < 1e-17
    assert np.min((ordered[-1] - ordered[-2])[wide]) > 40.0
    assert np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.var))
    assert np.min(stats.var) >= 0.0
    assert np.all((stats.n_eff >= 1.0) & (stats.n_eff <= n))
    dominant = np.array([tr.bloch for tr in trajs])[lw.argmax(axis=0), np.arange(lw.shape[1])]
    assert np.max(np.abs(stats.mean[wide] - dominant[wide])) <= 1e-15


def _batch_walk(starts, omega_s, alpha, dt, dw, log_weight=None):
    """The batch kernel from Bloch starts, as the scalar walk returns them:
    Bloch rows (steps + 1, 3, n), row 0 the starts as given, and log-weights."""
    psi = np.array([_kernels.psi_from_bloch(*start) for start in starts]).T
    if log_weight is None:
        log_weight = np.zeros(len(starts))
    psi_rows, lw = _kernels.diffusive_walk_batch(psi, log_weight, omega_s, alpha, dt, dw)
    bloch = _kernels.bloch_rows(psi_rows)
    bloch[0] = np.array(starts).T
    return bloch, lw


@pytest.mark.parametrize("gaussian", [False, True], ids=["binary", "gaussian"])
@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_batch_kernel_columns_equal_scalar_walk_byte_for_byte(lam, gaussian):
    # signed zeros included: the starts put -0.0 in x or y, at both poles.
    # At dt 1e-3 a one-ulp change in a step mostly rounds away; dt 1e-2 shows it.
    starts = [(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0)]
    omega_s, n_steps = 0.5, 700
    alpha = 4.0 * omega_s * lam
    for dt in (1e-3, 1e-2):
        dw = np.array([
            wiener_increments(60 + j, dt, n_steps, gaussian)
            for j in range(len(starts))
        ]).T
        block, lw = _batch_walk(starts, omega_s, alpha, dt, dw)
        assert block.shape == (n_steps + 1, 3, len(starts))
        assert lw.shape == (n_steps + 1, len(starts))
        for j, start in enumerate(starts):
            walk, walk_lw = _kernels.diffusive_walk(*start, omega_s, alpha, dt, dw[:, j])
            assert block[:, :, j].tobytes() == walk.tobytes()
            assert lw[:, j].tobytes() == walk_lw.tobytes()


@pytest.mark.parametrize("n_steps", [0, 1])
def test_batch_kernel_of_one_state_and_at_most_one_step_equals_scalar_walk(n_steps):
    # n = 1 makes every buffer one element long; n_steps = 0 returns the start row alone
    omega_s, alpha, dt = 0.5, 3.0, 1e-2
    dw = wiener_increments(7, dt, 1, True)[:n_steps]
    block, lw = _batch_walk([(0.0, 0.6, 0.8)], omega_s, alpha, dt, dw[:, None])
    walk, walk_lw = _kernels.diffusive_walk(0.0, 0.6, 0.8, omega_s, alpha, dt, dw)
    assert block.shape == (n_steps + 1, 3, 1)
    assert block[:, :, 0].tobytes() == walk.tobytes()
    assert lw[:, 0].tobytes() == walk_lw.tobytes()


def test_batch_kernel_reads_its_inputs_and_returns_fresh_memory():
    # ensemble_stats passes each block's last psi and log-weight row back in
    omega_s, alpha, dt, n_steps, n = 0.5, 3.0, 1e-3, 9, 4
    dw = np.array([
        wiener_increments(80 + j, dt, n_steps, False) for j in range(n)
    ]).T
    psi = np.array([_kernels.psi_from_bloch(0.0, 0.6, 0.8)] * n).T
    lw = np.zeros(n)
    inputs = [psi, lw, dw]
    before = [a.copy() for a in inputs]
    first = _kernels.diffusive_walk_batch(psi, lw, omega_s, alpha, dt, dw)
    second = _kernels.diffusive_walk_batch(first[0][-1], first[1][-1], omega_s, alpha, dt, dw)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()
    for rows, next_rows in zip(first, second):
        assert rows[-1].tobytes() == next_rows[0].tobytes()
        assert not np.shares_memory(rows, next_rows)
    for result in (*first, *second):
        assert not any(np.shares_memory(result, a) for a in inputs)


@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_batch_kernel_carried_across_blocks_equals_one_call(lam):
    # blocks of 8 steps share their edge row, as in ensemble_stats; the
    # log-weight's running sum goes on from the carried row
    omega_s, dt, n_steps, n = 0.5, 1e-2, 23, 3
    alpha = 4.0 * omega_s * lam
    dw = np.array([wiener_increments(90 + j, dt, n_steps, True) for j in range(n)]).T
    psi = np.array([_kernels.psi_from_bloch(0.6, 0.0, -0.8)] * n).T
    whole = _kernels.diffusive_walk_batch(psi, np.zeros(n), omega_s, alpha, dt, dw)
    rows, lws, lw = [], [], np.zeros(n)
    for start in range(0, n_steps, 8):
        psi_rows, lw_rows = _kernels.diffusive_walk_batch(
            psi, lw, omega_s, alpha, dt, dw[start:start + 8])
        rows.append(psi_rows if start == 0 else psi_rows[1:])
        lws.append(lw_rows if start == 0 else lw_rows[1:])
        psi, lw = psi_rows[-1], lw_rows[-1]
    assert np.concatenate(rows).tobytes() == whole[0].tobytes()
    assert np.concatenate(lws).tobytes() == whole[1].tobytes()


@pytest.mark.parametrize("gaussian", [False, True])
def test_wiener_chunks_concatenate_to_increments(gaussian):
    # ensemble_stats draws each trajectory's increments a block at a time
    whole = wiener_increments(11, 1e-3, 2500, gaussian)
    for size in (7, 333, 1000, 2500, 4096):
        rng = np.random.default_rng(11)
        chunks = [diffusive._draw(rng, 1e-3, min(size, 2500 - start), gaussian)
                  for start in range(0, 2500, size)]
        assert np.array_equal(np.concatenate(chunks), whole)


def test_ensemble_n_eff_exact_for_equal_weights():
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    stats = ensemble_stats(BlochState(0, 0, 1), params, 1e-3, 1.5, n=3, base_seed=0)
    assert np.all(stats.n_eff == 3.0)


def test_ensemble_guards():
    b0 = BlochState(0, 0, 1)
    with pytest.raises(StepTooLarge):
        ensemble_stats(b0, DiffusiveParams(omega_s=0.5, alpha=1.0, tau=1.0), 0.2, 1.0, 2, 0)
    for dt, t_end, n in ((0.0, 1.0, 2), (1e-3, 0.0, 2), (1e-3, 1.0, 0)):
        with pytest.raises(ValueError):
            ensemble_stats(b0, PARAMS_15, dt, t_end, n, 0)
    with pytest.warns(WeakCouplingWarning):
        ensemble_stats(b0, DiffusiveParams(omega_s=0.5, alpha=1.0, tau=2.0), 1e-3, 3.0, 2, 0)


def test_ensemble_reproducible():
    a = ensemble_stats(BlochState(0, 0, 1), PARAMS_15, 1e-3, 1.0, n=4, base_seed=3)
    b = ensemble_stats(BlochState(0, 0, 1), PARAMS_15, 1e-3, 1.0, n=4, base_seed=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.var, b.var)


def test_params_validation():
    with pytest.raises(ValueError):
        DiffusiveParams(omega_s=0.0, alpha=1.0, tau=1.0)
    with pytest.raises(ValueError):
        DiffusiveParams(omega_s=0.5, alpha=-1.0, tau=1.0)
    with pytest.raises(ValueError):
        DiffusiveParams(omega_s=0.5, alpha=1.0, tau=0.0)
    p = DiffusiveParams.from_lambda(omega_s=0.5, lam=1.5, tau=50.0)
    assert p.alpha == pytest.approx(3.0)
    assert p.lam == pytest.approx(1.5)


@pytest.mark.parametrize("dt, t_end", [(math.nan, 1.0), (math.inf, 1.0), (1e-3, math.inf),
                                       (1e-3, math.nan)])
def test_step_count_rejects_non_finite_dt_or_t_end(dt, t_end):
    with pytest.raises(ValueError, match="must be positive and finite"):
        _kernels.step_count(dt, t_end)


@pytest.mark.parametrize("dt, t_end", [(1e-300, 1e300), (5e-324, 1.0)])
def test_step_count_rejects_a_ratio_that_overflows(dt, t_end):
    # each is finite and positive, but t_end / dt is inf: round() would raise OverflowError
    with pytest.raises(ValueError, match="overflows"):
        _kernels.step_count(dt, t_end)


@pytest.mark.parametrize("dt, t_end", [(0.0, 1.0), (-1e-3, 1.0), (1e-3, 0.0), (1e-3, -1.0)])
def test_integrate_mlp_rejects_nonpositive_dt_or_t_end(dt, t_end):
    with pytest.raises(ValueError, match="must be positive"):
        integrate_mlp(GENERIC_IC, PARAMS_15, dt, t_end)
    with pytest.raises(ValueError, match="must be positive"):
        mlp_pieces(GENERIC_IC, PARAMS_15, dt, t_end, 4)  # on the call, not on next()


def test_mlp_pieces_rejects_zero_rows():
    with pytest.raises(ValueError, match="rows must be >= 1"):
        mlp_pieces(GENERIC_IC, PARAMS_15, 1e-3, 0.5, 0)


@pytest.mark.parametrize("t_end, rows", [
    (0.5, 1), (0.5, 7), (0.5, 1024), (0.5, 501), (2.047, 1024),
])
def test_mlp_pieces_concatenate_to_integrate_mlp(t_end, rows):
    # 501 rows make one piece; 2.047 ends on a whole piece, 2048 rows = 2 x 1024
    whole = integrate_mlp(GENERIC_IC, PARAMS_15, 1e-3, t_end)
    pieces = list(mlp_pieces(GENERIC_IC, PARAMS_15, 1e-3, t_end, rows))
    assert [len(p.t) for p in pieces[:-1]] == [rows] * (len(pieces) - 1)
    assert 1 <= len(pieces[-1].t) <= rows
    for name in ("t", "states", "readout"):
        joined = np.concatenate([getattr(p, name) for p in pieces])
        assert joined.tobytes() == getattr(whole, name).tobytes()


def test_mlp_leaving_the_float_range_raises_at_its_time():
    # dt 1e-3 is RK4-unstable on this path once the momenta have grown
    with pytest.raises(NonFiniteState, match="t = 8.766"):
        integrate_mlp(GENERIC_IC, PARAMS_15, 1e-3, 10.0)
    pieces = mlp_pieces(GENERIC_IC, PARAMS_15, 1e-3, 10.0, 1024)
    assert [len(next(pieces).t) for _ in range(8)] == [1024] * 8  # rows up to 8.191
    with pytest.raises(NonFiniteState, match="t = 8.766"):
        next(pieces)


def test_mlp_stalls_at_its_fixed_point():
    # the fixed point is stationary up to the rounding of the chart, and the
    # path stays there, so the minimum speed is the flow speed at the start
    fp = mlp_fixed_point(PARAMS_15)
    speed = math.sqrt(sum(d * d for d in mlp_rhs(fp, PARAMS_15)))
    assert speed <= 1e-15
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        integrate_mlp(fp, PARAMS_15, 1e-3, 0.1)
    (stall,) = caught
    assert stall.category is StalledAtFixedPoint
    assert f"fell to {speed:.3e}" in str(stall.message)
    assert stall.filename == __file__


def _unnormalized_record(b0, params, dt, n_steps, seed, gaussian, step):
    """psi = (a, b) rows stepped by the 2x2 ``step`` and the readout's phase of
    b, never renormalized: their Bloch rows and log |psi|^2."""
    phases = np.exp(-1j * math.sqrt(params.alpha) * wiener_increments(seed, dt, n_steps, gaussian))
    psi = np.empty((n_steps + 1, 2), dtype=complex)
    ur, ui, vr, vi = _kernels.psi_from_bloch(b0.x, b0.y, b0.z)
    psi[0] = ur + 1j * ui, 1j * (vr + 1j * vi)
    for i, phase in enumerate(phases):
        a, b = step @ psi[i]
        psi[i + 1] = a, b * phase
    norm2 = np.sum(np.abs(psi) ** 2, axis=1)
    rho01 = psi[:, 0] * psi[:, 1].conj() / norm2
    z = (np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2) / norm2
    return np.column_stack((2.0 * rho01.real, -2.0 * rho01.imag, z)), np.log(norm2)


@pytest.mark.parametrize("gaussian", [False, True], ids=["binary", "gaussian"])
def test_log_weight_is_log_norm_of_the_unnormalized_record(gaussian):
    # bounds fixed before the first run.  The log-weight is compared with the
    # product of the kernel's own step maps: a last-bit bias of E, shared by
    # every step, would add up over 20 000 steps (expm's E differs from the
    # closed form by up to 1.1e-16 and moves the sum by 4.5e-12).  The Bloch
    # rows do not add such errors up, so they are compared with the
    # independent expm of the no-click generator -i Omega_s sigma_x - alpha/2 |1><1|.
    b0, dt, t_end, seed = BlochState(0.0, 0.6, 0.8), 1e-3, 20.0, 14
    traj = sample_trajectory(b0, PARAMS_15, dt, t_end, seed, gaussian)
    e00, e01, e10, e11 = _kernels.null_step_map(PARAMS_15.omega_s, PARAMS_15.alpha, dt)
    own = np.array([[e00, -1j * e01], [1j * e10, e11]])  # E on (a, b) = (u, i v)
    _, log_norm2 = _unnormalized_record(b0, PARAMS_15, dt, 20_000, seed, gaussian, own)
    generator = -1j * PARAMS_15.omega_s * SIGMA_X - 0.5 * PARAMS_15.alpha * P1
    bloch, _ = _unnormalized_record(b0, PARAMS_15, dt, 20_000, seed, gaussian,
                                    expm(generator * dt))
    assert traj.log_weight.shape == traj.t.shape
    assert traj.log_weight[0] == 0.0
    assert np.max(np.abs(traj.log_weight - log_norm2)) <= 1e-12
    assert np.max(np.abs(traj.bloch - bloch)) <= 1e-11


def test_log_weight_at_alpha_zero_is_rounding_only():
    # bound fixed before the first run: without measurement no norm is
    # removed, and each step divides by a |psi|^2 that is 1 to rounding only
    params = DiffusiveParams(omega_s=0.5, alpha=0.0, tau=100.0)
    traj = sample_trajectory(BlochState(0.0, 0.6, 0.8), params, 1e-3, 20.0, 5)
    assert np.max(np.abs(traj.log_weight)) <= 1e-10


def test_log_weight_is_near_the_trapezoid_rule():
    # -alpha/2 int (1 - z) dt by the trapezoid rule over the samples was the
    # former weight; at T = 20 the two differ by about 1e-5
    dt, t_end = 1e-3, 20.0
    traj = sample_trajectory(BlochState(0, 0, 1), PARAMS_15, dt, t_end, 7)
    trapezoid = -0.5 * PARAMS_15.alpha * cumulative_trapezoid(
        1.0 - traj.bloch[:, 2], dx=dt, initial=0.0)
    assert np.max(np.abs(traj.log_weight - trapezoid)) <= 1e-4


def test_large_alpha_dt_stays_finite_and_on_the_sphere():
    # alpha dt = 4 per step: the excited amplitude is nearly erased each step
    params = DiffusiveParams.from_lambda(0.5, 200.0, tau=1.0)
    for gaussian in (False, True):
        traj = sample_trajectory(BlochState(0.0, 0.0, -1.0), params, 1e-2, 1.0, 3, gaussian)
        assert np.all(np.isfinite(traj.bloch)) and np.all(np.isfinite(traj.log_weight))
        assert np.max(np.abs(np.linalg.norm(traj.bloch, axis=1) - 1.0)) <= 1e-12
        assert np.all(np.diff(traj.log_weight) <= 0.0)
        stats = ensemble_stats(BlochState(0.0, 0.0, -1.0), params, 1e-2, 1.0, 3, 3, gaussian)
        assert np.all(np.isfinite(stats.mean)) and np.all(stats.n_eff >= 1.0)


def test_start_inside_the_bloch_ball_is_rejected():
    # a conditioned trajectory is a pure state; a mixed start has no psi
    inside = BlochState(0.0, 0.3, 0.4)
    with pytest.raises(InvalidState, match="below 1"):
        sample_trajectory(inside, PARAMS_15, 1e-3, 0.01, 0)
    with pytest.raises(InvalidState, match="below 1"):
        ensemble_stats(inside, PARAMS_15, 1e-3, 0.01, 2, 0)
    # within BlochState's tolerance of the sphere: the pure state along it,
    # row 0 kept as given
    near = BlochState(0.0, 0.6, 0.8 * (1.0 - 1e-10))
    traj = sample_trajectory(near, PARAMS_15, 1e-3, 0.01, 0)
    assert traj.bloch[0].tolist() == [near.x, near.y, near.z]
    assert abs(np.linalg.norm(traj.bloch[1]) - 1.0) <= 1e-15


@pytest.mark.parametrize("lam, theta0, p0", [(0.5, 0.0, 0.3), (1.5, 0.0, 0.3),
                                             (1.5, 2.0, -0.2), (1.2, -3.0, 0.1)])
def test_mlp_in_the_plane_is_the_phase_path(lam, theta0, p0):
    # on x = p_x = 0 the readout is 0 and the six extremal equations are the
    # paper's (theta, p_theta) flow; bounds fixed before the first run, with
    # an absolute part since the relative error of p_theta peaks where it
    # crosses zero
    params = DiffusiveParams.from_lambda(0.5, lam, tau=100.0)
    dt, t_end = 1e-3, 6.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        mlp = integrate_mlp(plane_state(PhasePoint(theta0, p0), 0.0), params, dt, t_end)
        phase = integrate_phase_path(PhasePoint(theta0, p0), PhaseParams(0.5, lam), t_end, dt)
    x, y, z, px, py, pz = mlp.states.T
    assert np.all(x == 0.0) and np.all(px == 0.0) and np.all(mlp.readout == 0.0)
    theta = np.arctan2(y, z)
    p_theta = py * np.cos(theta) - pz * np.sin(theta)
    dtheta = np.remainder(theta - phase.theta + math.pi, 2.0 * math.pi) - math.pi
    assert np.max(np.abs(dtheta)) <= 1e-10
    assert np.all(np.abs(p_theta - phase.p_theta) <= 1e-10 + 1e-8 * np.abs(phase.p_theta))


def test_stochastic_hamiltonian_is_phase_hamiltonian_through_the_chart():
    rng = np.random.default_rng(19)
    for _ in range(200):
        lam, theta, p_theta = rng.uniform(0.0, 3.0), rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0)
        params = DiffusiveParams.from_lambda(0.5, lam, tau=100.0)
        h = stochastic_hamiltonian(plane_state(PhasePoint(theta, p_theta), 0.0), params)
        h_phase = phase_hamiltonian(theta, p_theta, 0.5, lam)
        assert abs(h - h_phase) <= 1e-13 * (1.0 + abs(h_phase))


def test_plane_state_momenta_are_p_theta_and_p_r():
    # the inverse chart: p_theta = z p_y - y p_z along the circle and
    # p_r = y p_y + z p_z along r
    rng = np.random.default_rng(23)
    for theta, p_theta, p_r in rng.uniform(-4.0, 4.0, (200, 3)).tolist():
        s = plane_state(PhasePoint(theta, p_theta), p_r)
        assert (s.x, s.p_x, s.y, s.z) == (0.0, 0.0, math.sin(theta), math.cos(theta))
        scale = 1e-15 * (1.0 + abs(p_theta) + abs(p_r))
        assert abs(s.z * s.p_y - s.y * s.p_z - p_theta) <= scale
        assert abs(s.y * s.p_y + s.z * s.p_z - p_r) <= scale
