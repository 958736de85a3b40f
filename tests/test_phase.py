import math
import warnings

import numpy as np
import pytest

from zenopath import (
    CurveSingularity,
    NonFiniteState,
    NoZenoRegime,
    PhaseParams,
    PhasePoint,
    StalledAtFixedPoint,
    cdj_hamiltonian,
    critical_points,
    energy_level,
    hamilton_rhs,
    integrate_phase_path,
    p_theta_curve,
    separatrix_energies,
    stability_exponents,
    stable_angle,
    transition_time_sub_zeno,
)

P15 = PhaseParams(omega_s=0.5, lam=1.5)


def hamilton_jacobian(p: PhasePoint, params: PhaseParams) -> np.ndarray:
    """Analytic 2x2 Jacobian of :func:`hamilton_rhs` at a phase point: the
    reference of the two stability tests."""
    w = 2.0 * params.omega_s * params.lam
    return np.array(
        [
            [-w * math.cos(p.theta), 0.0],
            [w * (-p.p_theta * math.sin(p.theta) + math.cos(p.theta)), w * math.cos(p.theta)],
        ]
    )


def test_hamiltonian_trivials():
    p0 = PhaseParams(omega_s=0.7, lam=0.0)
    for th in (-2.0, 0.0, 1.3):
        assert cdj_hamiltonian(PhasePoint(th, 0.25), p0) == pytest.approx(-2 * 0.7 * 0.25)
    assert cdj_hamiltonian(PhasePoint(0.0, 0.0), P15) == 0.0


def test_hamiltonian_at_critical_point():
    cps = critical_points(P15)
    e = energy_level(cps.p1, P15)
    assert e == pytest.approx(1.5 - math.sqrt(1.25), abs=1e-12)
    assert e == pytest.approx(separatrix_energies(1.5)[0], abs=1e-12)


def test_hamilton_rhs_trivials():
    p0 = PhaseParams(omega_s=0.7, lam=0.0)
    assert hamilton_rhs(PhasePoint(0.4, 1.0), p0) == (-1.4, 0.0)
    cps = critical_points(P15)
    assert np.max(np.abs(hamilton_rhs(cps.p1, P15))) < 1e-12
    assert np.max(np.abs(hamilton_rhs(cps.p2, P15))) < 1e-12


def test_hamilton_rhs_is_gradient_of_hamiltonian():
    # central differences of H against the analytic flow, 1000 random points
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(1000):
        params = PhaseParams(omega_s=rng.uniform(0.2, 1.5), lam=rng.uniform(0.0, 2.5))
        th = rng.uniform(-math.pi, math.pi)
        p = rng.uniform(-3.0, 3.0)
        dH_dp = (
            cdj_hamiltonian(PhasePoint(th, p + h), params)
            - cdj_hamiltonian(PhasePoint(th, p - h), params)
        ) / (2 * h)
        dH_dth = (
            cdj_hamiltonian(PhasePoint(th + h, p), params)
            - cdj_hamiltonian(PhasePoint(th - h, p), params)
        ) / (2 * h)
        dth, dp = hamilton_rhs(PhasePoint(th, p), params)
        assert abs(dth - dH_dp) < 1e-8
        assert abs(dp + dH_dth) < 1e-8


def test_p_theta_curve_flat_for_lam_zero():
    for th in np.linspace(-3.0, 3.0, 17):
        assert p_theta_curve(float(th), 0.0, 0.8) == pytest.approx(0.8, abs=1e-15)


def test_p_theta_curve_at_theta_zero_is_energy():
    assert p_theta_curve(0.0, 1.7, 2.3) == pytest.approx(2.3)


def test_p_theta_curve_stays_on_energy_surface():
    rng = np.random.default_rng(4)
    for _ in range(300):
        lam = rng.uniform(0.0, 2.5)
        e = rng.uniform(-2.0, 3.0)
        th = rng.uniform(-math.pi, math.pi)
        if abs(1 + lam * math.sin(th)) < 1e-3:
            continue
        p = p_theta_curve(th, lam, e)
        params = PhaseParams(omega_s=0.5, lam=lam)
        assert energy_level(PhasePoint(th, p), params) == pytest.approx(e, abs=1e-12)


def test_p_theta_curve_limit_brackets_critical_momentum():
    lam = 1.5
    e_low, _ = separatrix_energies(lam)
    cps = critical_points(P15)
    below = p_theta_curve(cps.theta1 - 1e-3, lam, e_low)
    above = p_theta_curve(cps.theta1 + 1e-3, lam, e_low)
    assert min(below, above) < cps.p_theta1 < max(below, above)


def test_p_theta_curve_singularity():
    lam = 1.5
    with pytest.raises(CurveSingularity):
        p_theta_curve(-math.asin(1 / lam), lam, 1.0)


def test_p_theta_curve_rejects_negative_lambda():
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        p_theta_curve(0.3, -0.5, 1.0)


def test_critical_points_fig5_fig4_values():
    cps = critical_points(P15)
    assert cps.theta1 == pytest.approx(-0.729, abs=1e-3)
    assert cps.p_theta1 == pytest.approx(0.894, abs=1e-3)
    assert cps.theta2 == pytest.approx(-2.411, abs=1e-3)
    assert cps.p_theta2 == pytest.approx(-0.894, abs=1e-3)
    cps = critical_points(PhaseParams(omega_s=0.5, lam=1.2))
    assert cps.theta1 == pytest.approx(-0.985, abs=1e-3)
    assert cps.p_theta1 == pytest.approx(1.507, abs=1e-3)
    assert cps.theta2 == pytest.approx(-2.156, abs=1e-3)
    assert cps.p_theta2 == pytest.approx(-1.507, abs=1e-3)


def test_critical_points_large_lambda_limit():
    cps = critical_points(PhaseParams(omega_s=0.5, lam=1e6))
    assert -1e-5 < cps.theta1 < 0.0
    assert -math.pi < cps.theta2 < -math.pi + 1e-5
    assert abs(cps.p_theta1) < 2e-6


def test_no_zeno_regime_errors():
    for lam in (0.0, 0.5, 1.0):
        params = PhaseParams(omega_s=0.5, lam=lam)
        with pytest.raises(NoZenoRegime):
            critical_points(params)
        with pytest.raises(NoZenoRegime):
            stability_exponents(params)
    with pytest.raises(NoZenoRegime):
        separatrix_energies(0.99)


def test_time_reversal_pairing():
    for lam in np.linspace(1.01, 5.0, 30):
        cps = critical_points(PhaseParams(omega_s=0.5, lam=float(lam)))
        assert cps.theta2 == pytest.approx(-math.pi - cps.theta1, abs=1e-12)
        assert cps.p_theta2 == pytest.approx(-cps.p_theta1, abs=1e-12)


def test_stability_exponents_value_and_jacobian():
    plus, minus = stability_exponents(P15)
    assert plus == pytest.approx(1.118, abs=1e-3)
    assert minus == -plus
    # numerical Jacobian oracle: real opposite-sign pairs at both saddles
    cps = critical_points(P15)
    h = 1e-6
    for point in (cps.p1, cps.p2):
        jac = np.empty((2, 2))
        for col, (dth, dp) in enumerate(((h, 0.0), (0.0, h))):
            up = hamilton_rhs(PhasePoint(point.theta + dth, point.p_theta + dp), P15)
            dn = hamilton_rhs(PhasePoint(point.theta - dth, point.p_theta - dp), P15)
            jac[:, col] = (np.array(up) - np.array(dn)) / (2 * h)
        eig = np.sort(np.linalg.eigvals(jac).real)
        np.testing.assert_allclose(eig, [-plus, plus], atol=1e-6)
        np.testing.assert_allclose(jac, hamilton_jacobian(point, P15), atol=1e-6)


def test_stability_directions_swap_between_saddles():
    cps = critical_points(P15)
    gamma, _ = stability_exponents(P15)
    for point, stable_along_theta in ((cps.p1, True), (cps.p2, False)):
        jac = hamilton_jacobian(point, P15)
        vals, vecs = np.linalg.eig(jac)
        stable = vecs[:, np.argmin(vals.real)]
        unstable = vecs[:, np.argmax(vals.real)]
        if stable_along_theta:
            assert abs(stable[0]) > abs(stable[1])
            assert abs(unstable[1]) > abs(unstable[0])
        else:
            assert abs(stable[1]) > abs(stable[0])
            assert abs(unstable[0]) > abs(unstable[1])


def test_exponents_vanish_at_threshold():
    plus, minus = stability_exponents(PhaseParams(omega_s=0.5, lam=1.0 + 1e-9))
    assert abs(plus) < 1e-4
    assert minus == -plus


def test_separatrix_energies():
    lo, hi = separatrix_energies(1.0)
    assert (lo, hi) == (1.0, 1.0)
    lo, hi = separatrix_energies(1.5)
    assert lo == pytest.approx(0.381966011, abs=1e-9)
    assert hi == pytest.approx(2.618033989, abs=1e-9)
    # large lam: lam - sqrt(lam^2 - 1) cancelled to 0 at 1e8 and lam^2
    # overflowed at 1e200
    for lam in [*np.linspace(1.0, 4.0, 20).tolist(), 1e8, 1e200]:
        lo, hi = separatrix_energies(lam)
        assert lo > 0.0
        assert abs(lo * hi - 1.0) <= 1e-12


def test_separatrix_energy_overflow_is_named():
    # e_high = lam + s is about 2 lam: finite up to about 9e307
    lo, hi = separatrix_energies(8.9e307)
    assert math.isfinite(hi) and lo * hi == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NonFiniteState, match=r"overflows at lam = 1e\+308"):
        separatrix_energies(1e308)


def test_integrate_lam_zero_exact():
    params = PhaseParams(omega_s=0.5, lam=0.0)
    path = integrate_phase_path(PhasePoint(0.0, 0.5), params, t_end=10.0)
    np.testing.assert_allclose(path.theta, -2 * 0.5 * path.t, atol=1e-10)
    assert np.max(np.abs(path.p_theta - 0.5)) < 1e-10


def test_integrate_reaches_minus_pi_at_transition_time():
    # crossing time of theta = -pi is E-independent and equals the closed form
    params = PhaseParams(omega_s=0.5, lam=0.5)
    t_expected = transition_time_sub_zeno(0.5, 0.5)
    for e in (0.5, 2.0):
        path = integrate_phase_path(PhasePoint(0.0, e), params, t_end=6.0)
        i = int(np.argmax(path.theta < -math.pi))
        frac = (-math.pi - path.theta[i - 1]) / (path.theta[i] - path.theta[i - 1])
        t_cross = path.t[i - 1] + frac * (path.t[i] - path.t[i - 1])
        assert t_cross == pytest.approx(t_expected, abs=1e-4)


def test_integrate_zeno_theta_monotone_to_theta1():
    cps = critical_points(P15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        path = integrate_phase_path(PhasePoint(0.0, 1.0), P15, t_end=30.0)
    dth = np.diff(path.theta)
    assert np.all(dth <= 0.0)
    assert path.theta[-1] == pytest.approx(cps.theta1, abs=1e-6)
    assert np.min(path.theta) >= cps.theta1 - 1e-9


def test_energy_conservation_sub_zeno():
    # 1e-8 relative over t_end = 50/omega_s at the default step
    for lam, p0 in ((0.0, 0.5), (0.5, 1.0)):
        params = PhaseParams(omega_s=0.5, lam=lam)
        path = integrate_phase_path(PhasePoint(0.0, p0), params, t_end=100.0)
        h = path.hamiltonian(params)
        assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) < 1e-8


def test_energy_conservation_zeno_orbit_into_shifted_copy():
    # from theta0 = -3.0 the lam = 1.5 orbit flows into theta1 - 2 pi, not
    # theta1: the deviation has to be measured from that copy
    cps = critical_points(P15)
    assert stable_angle(-3.0, 1.5) == pytest.approx(cps.theta1 - 2 * math.pi, abs=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        path = integrate_phase_path(PhasePoint(-3.0, 2.0), P15, t_end=50.0 / 0.5)
    assert path.theta[-1] == pytest.approx(cps.theta1 - 2 * math.pi, abs=1e-9)
    h = path.hamiltonian(P15)
    assert np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])) < 1e-8


def test_stable_angle_copies():
    cps = critical_points(P15)
    for k in (-2, 0, 1):
        shift = 2 * math.pi * k
        for th in (cps.theta2 + 1e-9, cps.theta1, 0.0, cps.theta2 + 2 * math.pi - 1e-9):
            assert stable_angle(th + shift, 1.5) == pytest.approx(cps.theta1 + shift, abs=1e-12)
    assert stable_angle(0.3, 1.0) == pytest.approx(-math.pi / 2)
    with pytest.raises(NoZenoRegime):
        stable_angle(0.0, 0.99)


def test_stall_warning_at_fixed_point():
    cps = critical_points(P15)
    with pytest.warns(StalledAtFixedPoint):
        integrate_phase_path(cps.p1, P15, t_end=0.5)


@pytest.mark.parametrize("dt, t_end", [(0.0, 1.0), (-1e-3, 1.0), (1e-3, 0.0), (1e-3, -1.0)])
def test_integrate_phase_path_rejects_nonpositive_dt_or_t_end(dt, t_end):
    with pytest.raises(ValueError, match="must be positive"):
        integrate_phase_path(PhasePoint(0.0, 1.0), P15, t_end=t_end, dt=dt)


def test_stall_warning_points_at_the_caller():
    cps = critical_points(P15)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        integrate_phase_path(cps.p1, P15, t_end=0.5)
    stalls = [w for w in caught if "effectively stalled" in str(w.message)]
    assert len(stalls) == 1 and stalls[0].category is StalledAtFixedPoint
    assert stalls[0].filename == __file__


# The exact null-record path.  Every bound below was fixed before the first run.

EXACT_CASES = [(0.0, 0.0, 0.5), (0.5, 0.0, 1.0), (1.0, 0.0, 1.0), (1.2, 0.0, 1.0),
               (1.5, 0.0, 1.0), (1.5, -3.0, 2.0)]


def _mp_reference(lam, theta0, p0, times, omega_s=0.5):
    """(theta, p_theta) at each time from expm of the no-click generator.

    psi = (cos(theta/2), i sin(theta/2)) is stepped as (a, b) under
    K = [[0, Omega_s], [-Omega_s, -2 Omega_s lam]].  Near the stable angle
    1 + lam sin theta falls to about 1e-49 by t = 100 at lam = 1.5, so the
    reference works at 100 digits to keep 50 of them there.  The half angle
    is unwrapped along a chain of 0.25-long steps, over which it turns by at
    most 0.32.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(100):
        w, lam_, th0 = mp.mpf(omega_s), mp.mpf(lam), mp.mpf(theta0)
        k = mp.matrix([[0, w], [-w, -2 * w * lam_]])
        psi0 = mp.matrix([mp.cos(th0 / 2), mp.sin(th0 / 2)])
        energy = mp.mpf(p0) * (1 + lam_ * mp.sin(th0)) + lam_ * (1 - mp.cos(th0))
        step = mp.expm(k * mp.mpf(0.25))
        psi, half, t, out = psi0, th0 / 2, mp.mpf(0), []
        for target in times:
            while t < target:
                psi = step * psi
                t += mp.mpf(0.25)
                turn = mp.atan2(psi[1], psi[0]) - half
                half += turn - 2 * mp.pi * mp.nint(turn / (2 * mp.pi))
            exact = mp.expm(k * mp.mpf(target)) * psi0
            turn = mp.atan2(exact[1], exact[0]) - half
            theta = 2 * (half + turn - 2 * mp.pi * mp.nint(turn / (2 * mp.pi)))
            p = (energy - lam_ * (1 - mp.cos(theta))) / (1 + lam_ * mp.sin(theta))
            out.append((float(theta), float(p)))
    return out


@pytest.mark.parametrize("lam, theta0, p0", [
    *EXACT_CASES,
    (1.5, -math.asin(1.0 / 1.5) + 1e-9, 1.0),  # next to theta1: p_theta factor ~ 1e-9
])
def test_exact_path_matches_mpmath_expm(lam, theta0, p0):
    times = (1.0, 10.0, 50.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        path = integrate_phase_path(PhasePoint(theta0, p0), PhaseParams(0.5, lam),
                                    t_end=100.0, dt=0.5)
    for t, (theta, p) in zip(times, _mp_reference(lam, theta0, p0, times)):
        i = round(t / 0.5)
        assert path.t[i] == t
        assert abs(path.theta[i] - theta) <= 1e-11
        assert abs(path.p_theta[i] - p) <= 1e-9 * max(1.0, abs(p))


@pytest.mark.parametrize("coarse_dt", [0.5, 10.0])  # at 10 theta turns by more than 2 pi
@pytest.mark.parametrize("lam, theta0, p0", EXACT_CASES)
def test_exact_path_does_not_depend_on_the_sample_spacing(lam, theta0, p0, coarse_dt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        coarse, fine = (integrate_phase_path(PhasePoint(theta0, p0), PhaseParams(0.5, lam),
                                             t_end=100.0, dt=dt) for dt in (coarse_dt, 1e-3))
    every = round(coarse_dt / 1e-3)
    assert np.max(np.abs(fine.t[::every] - coarse.t)) < 1e-12
    assert np.max(np.abs(fine.theta[::every] - coarse.theta)) <= 1e-12
    scale = np.maximum(1.0, np.abs(coarse.p_theta))
    assert np.max(np.abs(fine.p_theta[::every] - coarse.p_theta) / scale) <= 1e-12


def test_starts_on_the_critical_angles_stay_there_with_finite_momenta():
    cps = critical_points(P15)
    gamma, _ = stability_exponents(P15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        at_p1 = integrate_phase_path(PhasePoint(cps.theta1, 0.5), P15, t_end=20.0)
        at_theta2 = integrate_phase_path(PhasePoint(cps.theta2, 0.5), P15, t_end=20.0)
        at_rest = integrate_phase_path(cps.p1, P15, t_end=20.0)
    for path, theta, rate in ((at_p1, cps.theta1, gamma), (at_theta2, cps.theta2, -gamma)):
        assert np.all(path.theta == theta)
        tan = math.tan(theta)
        expected = (0.5 + tan) * np.exp(rate * path.t) - tan
        assert np.max(np.abs(path.p_theta - expected) / np.abs(expected)) < 1e-12
    assert np.all(np.isfinite(at_rest.p_theta))
    assert np.all(at_rest.theta == cps.theta1)


def test_a_phase_path_that_overflows_raises_non_finite_state():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalledAtFixedPoint)
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteState, match=r"t = 634\.\d"):
            integrate_phase_path(PhasePoint(0.0, 1.0), P15, t_end=700.0)


@pytest.mark.parametrize("theta0", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_a_non_finite_start_raises_non_finite_state_at_t_0(lam, theta0):
    with pytest.raises(NonFiniteState, match=r"at t = 0\b"):
        integrate_phase_path(PhasePoint(theta0, 1.0), PhaseParams(omega_s=0.5, lam=lam), t_end=1.0)
