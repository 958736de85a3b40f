import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zenopath
from zenopath import (
    EpsilonTooLarge,
    IntegrandSingular,
    SingularEndpoint,
    UnsupportedLambda,
    action_closed_form,
    action_discontinuity,
    action_quadrature,
    critical_points,
    final_state_density,
    PhaseParams,
    PhasePoint,
    integrate_phase_path,
    transition_time_sub_zeno,
    zeno_frequencies,
)
from zenopath.action import _antiderivative
from scipy.integrate import quad


def _angles(lam):
    t1 = -math.asin(1.0 / lam)
    return t1, -math.pi - t1


def test_action_zero_for_equal_endpoints():
    for lam in (0.0, 0.3, 1.7):
        assert action_closed_form(0.7, 0.7, lam) == 0.0
        assert action_quadrature(0.7, 0.7, lam) == 0.0


def test_action_vanishes_without_measurement():
    for a, b in ((-2.0, 1.0), (0.0, -math.pi), (3.0, -3.0)):
        assert action_closed_form(a, b, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_closed_form_matches_quadrature_sub_zeno():
    rng = np.random.default_rng(17)
    for _ in range(60):
        lam = rng.uniform(0.02, 0.97)
        a, b = rng.uniform(-math.pi + 0.02, math.pi - 0.02, 2)
        assert action_closed_form(a, b, lam) == pytest.approx(
            action_quadrature(a, b, lam), abs=1e-6
        )


def test_closed_form_matches_quadrature_zeno():
    rng = np.random.default_rng(18)
    for _ in range(60):
        lam = rng.uniform(1.03, 2.8)
        t1, t2 = _angles(lam)
        windows = ((-math.pi + 0.03, t2 - 0.03), (t2 + 0.03, t1 - 0.03), (t1 + 0.03, math.pi - 0.03))
        lo, hi = windows[rng.integers(0, 3)]
        a, b = rng.uniform(lo, hi, 2)
        assert action_closed_form(a, b, lam) == pytest.approx(
            action_quadrature(a, b, lam), abs=1e-6
        )


def test_closed_form_across_branch_cut():
    # the paper-like full sweep 0 -> -pi, and a wrap through +pi
    assert action_closed_form(0.0, -math.pi, 0.5) == pytest.approx(
        action_quadrature(0.0, -math.pi, 0.5), abs=1e-9
    )
    lam = 1.5
    t1, t2 = _angles(lam)
    a, b = t1 + 0.1, t2 + 2 * math.pi - 0.1
    assert action_closed_form(a, b, lam) == pytest.approx(
        action_quadrature(a, b, lam), abs=1e-8
    )


def test_zeno_quadrature_example():
    lam = 1.5
    t1, t2 = _angles(lam)
    assert action_quadrature(t2 + 0.1, t1 - 0.1, lam) == pytest.approx(
        action_closed_form(t2 + 0.1, t1 - 0.1, lam), abs=1e-6
    )


def test_endpoint_additivity():
    rng = np.random.default_rng(19)
    for _ in range(50):
        lam = rng.uniform(0.05, 0.95)
        a, b, c = rng.uniform(-3.0, 3.0, 3)
        total = action_closed_form(a, c, lam)
        split = action_closed_form(a, b, lam) + action_closed_form(b, c, lam)
        assert split == pytest.approx(total, abs=1e-9)
    lam = 1.6
    t1, t2 = _angles(lam)
    a, b, c = sorted(rng.uniform(t2 + 0.05, t1 - 0.05, 3))
    assert action_closed_form(a, b, lam) + action_closed_form(b, c, lam) == pytest.approx(
        action_closed_form(a, c, lam), abs=1e-9
    )


def test_action_errors():
    with pytest.raises(UnsupportedLambda):
        action_closed_form(0.0, -1.0, 1.0)
    with pytest.raises(UnsupportedLambda):
        action_quadrature(0.0, -1.0, 1.0)
    lam = 1.5
    t1, t2 = _angles(lam)
    with pytest.raises(SingularEndpoint):
        action_closed_form(t1, -0.1, lam)
    with pytest.raises(SingularEndpoint):
        action_closed_form(0.0, t2 + 2 * math.pi, lam)
    with pytest.raises(IntegrandSingular):
        action_closed_form(t1 + 0.1, t1 - 0.1, lam)
    with pytest.raises(IntegrandSingular):
        action_quadrature(0.0, t1 - 0.1, lam)
    with pytest.raises(ValueError):
        action_closed_form(0.0, 1.0, -0.2)


def test_each_check_names_an_endpoint_on_a_critical_angle_before_the_interior():
    # (t1 - 3, t1) also holds t2: the endpoint is reported first, under each method's type
    lam = 1.5
    t1, t2 = _angles(lam)
    with pytest.raises(SingularEndpoint, match="endpoint theta"):
        action_closed_form(t1, t1 - 3.0, lam)
    with pytest.raises(IntegrandSingular, match="endpoint theta"):
        action_quadrature(t1, t1 - 3.0, lam)
    with pytest.raises(IntegrandSingular, match="endpoint theta"):
        action_quadrature(t1, 1.0, lam)
    with pytest.raises(IntegrandSingular, match="endpoint theta"):
        action_quadrature(1.0, t2 + 2 * math.pi, lam)


def test_antiderivative_runs_through_the_half_angle_pole_above_lambda_one():
    # tan(theta/2) has a pole at +-pi, where the primitive's limit is 0 and the
    # integrand is lam (1 - cos pi) / 1 = 2 lam
    lam, h = 1.5, 1e-9
    for theta in (math.pi, -math.pi):
        assert _antiderivative(theta, lam) == 0.0
        assert _antiderivative(theta - h, lam) == pytest.approx(-2 * lam * h, rel=1e-6)
        assert _antiderivative(theta + h, lam) == pytest.approx(2 * lam * h, rel=1e-6)


def test_transition_time_rabi_limit():
    assert transition_time_sub_zeno(0.0, 0.5) == pytest.approx(math.pi, abs=1e-12)


def test_transition_time_matches_quadrature():
    # independent oracle: |integral dtheta/thetadot| from -pi to 0
    for lam in np.linspace(0.0, 0.95, 20):
        t_direct = quad(
            lambda th: 1.0 / (2 * 0.5 * (1 + lam * math.sin(th))),
            -math.pi,
            0.0,
            epsabs=1e-13,
            epsrel=1e-13,
        )[0]
        assert transition_time_sub_zeno(float(lam), 0.5) == pytest.approx(
            t_direct, abs=1e-8
        )


def test_transition_time_frozen_value():
    # frozen from the quadrature oracle above
    assert transition_time_sub_zeno(0.423, 0.5) == pytest.approx(4.4310432013, abs=1e-9)


def test_transition_time_divergence_and_errors():
    base = transition_time_sub_zeno(0.0, 0.5)
    assert transition_time_sub_zeno(0.9999, 0.5) > 100 * base
    with pytest.raises(UnsupportedLambda):
        transition_time_sub_zeno(1.0, 0.5)
    with pytest.raises(UnsupportedLambda):
        transition_time_sub_zeno(1.5, 0.5)
    with pytest.raises(ValueError):
        transition_time_sub_zeno(-0.1, 0.5)
    # unchecked, a zero drive divided by zero and a negative one gave a negative time
    for omega_s in (0.0, -1.0):
        with pytest.raises(ValueError, match="omega_s must be positive"):
            transition_time_sub_zeno(0.5, omega_s)


def test_zeno_frequencies_trends():
    lams = np.linspace(1.2, 3.0, 10)
    w1 = []
    w12 = []
    w2 = []
    for lam in lams:
        tt = zeno_frequencies(float(lam), 0.5, 1e-3)
        w1.append(tt.omega1)
        w12.append(tt.omega12)
        w2.append(tt.omega2)
    w1, w12, w2 = map(np.array, (w1, w12, w2))
    # the outer segments are mapped onto each other by theta -> -pi - theta,
    # so their frequencies coincide; the inter-critical rate grows with lam
    assert np.all(np.abs(w1 - w2) / w1 < 0.05)
    assert np.all(np.diff(w12) > 0.0)


def test_zeno_frequencies_log_divergence():
    times = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        tt = zeno_frequencies(1.5, 0.5, eps)
        times.append(1.0 / tt.omega1)
    diffs = np.diff(times)
    # each decade of epsilon adds a near-constant increment (simple pole)
    assert np.all(diffs > 0.0)
    assert diffs[1] == pytest.approx(diffs[0], rel=0.15)
    assert diffs[2] == pytest.approx(diffs[1], rel=0.15)


def test_zeno_frequencies_errors():
    with pytest.raises(UnsupportedLambda):
        zeno_frequencies(0.8, 0.5)
    with pytest.raises(EpsilonTooLarge):
        zeno_frequencies(1.5, 0.5, epsilon=2.0)
    with pytest.raises(ValueError):
        zeno_frequencies(1.5, 0.5, epsilon=-1e-3)
    for omega_s in (0.0, -0.5):
        with pytest.raises(ValueError, match="omega_s must be positive"):
            zeno_frequencies(1.5, omega_s)


def _mp_frequencies(lam, omega_s, eps):
    """(omega1, omega12) by 50-digit quadrature, from the exact critical angles
    of the double lam."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lam_mp, eps_mp = mpmath.mpf(lam), mpmath.mpf(eps)
        t1 = -mpmath.asin(1 / lam_mp)
        t2 = -mpmath.pi - t1

        def rate(theta):
            return 1 / abs(2 * omega_s * (1 + lam_mp * mpmath.sin(theta)))

        outer = mpmath.quad(rate, [t1 + eps_mp, 0.5 * (t1 + eps_mp), 0])
        band = mpmath.quad(rate, [t2 + eps_mp, 0.5 * (t1 + t2), t1 - eps_mp])
        return float(1 / outer), float(1 / band), float(abs(t1 + eps_mp) / -t1)


@pytest.mark.parametrize("lam", [1.0001, 1.5, 3.0, 100.0])
@pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-12])
def test_zeno_frequencies_match_50_digit_quadrature(lam, eps):
    omega1, omega12, _ = _mp_frequencies(lam, 0.5, eps)
    tt = zeno_frequencies(lam, 0.5, eps)
    assert (tt.omega1, tt.omega12) == pytest.approx((omega1, omega12), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("lam", [100.0, 1e4])
@pytest.mark.parametrize("gap", [1e-3, 1e-6])
def test_outer_frequency_as_epsilon_nears_its_limit(lam, gap):
    # eps -> asin(1/lam) shrinks the outer segment to |theta1 + eps|; the
    # rounding of theta1 alone then costs about an ulp x |theta1| / |theta1 + eps|,
    # and the result may lose no more than four machine epsilons times that
    eps = math.asin(1.0 / lam) * (1.0 - gap)
    omega1, _, shrink = _mp_frequencies(lam, 0.5, eps)
    rel = abs(zeno_frequencies(lam, 0.5, eps).omega1 / omega1 - 1.0)
    assert rel <= 4.0 * sys.float_info.epsilon / shrink


def test_outer_frequencies_are_equal_on_the_readme_grid():
    for lam in np.linspace(1.1, 3.0, 40):
        tt = zeno_frequencies(float(lam), 0.5, 1e-3)
        assert tt.omega2 == tt.omega1


def test_zeno_frequencies_need_epsilon_inside_theta1():
    # eps >= -theta1 = asin(1/lam) would run the outer segments backwards
    with pytest.raises(EpsilonTooLarge, match="backwards"):
        zeno_frequencies(2000.0, 0.5, 1e-3)
    with pytest.raises(EpsilonTooLarge):
        zeno_frequencies(2.0, 0.5, math.asin(0.5))
    # lam*lam would overflow here, and the former quadrature divided by zero
    tt = zeno_frequencies(1e200, 0.5, 1e-250)
    for omega in (tt.omega1, tt.omega12, tt.omega2):
        assert math.isfinite(omega) and omega > 0.0


def test_action_discontinuity_signs():
    a1, a2, b1, b2 = action_discontinuity(1.5, 1e-3)
    assert math.copysign(1.0, a1) == math.copysign(1.0, a2)
    assert math.copysign(1.0, b1) != math.copysign(1.0, b2)
    assert b1 == -a2
    assert b2 == a1


def test_action_discontinuity_log_growth():
    eps = np.logspace(-5, -2, 12)
    mags = np.array([abs(action_discontinuity(1.5, float(e))[0]) for e in eps])
    assert np.all(np.diff(mags) < 0.0)  # grows as eps shrinks
    x = np.log(1.0 / eps)
    slope, intercept = np.polyfit(x, mags, 1)
    fit = slope * x + intercept
    ss_res = np.sum((mags - fit) ** 2)
    ss_tot = np.sum((mags - mags.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.99


def test_density_flat_without_measurement():
    z, dens = final_state_density(0.0)
    assert dens.max() / dens.min() < 1.01


def test_density_peak_at_critical_point():
    z, dens = final_state_density(1.5)
    cell = z[1] - z[0]
    z1 = math.cos(-math.asin(1 / 1.5))
    assert abs(z[np.argmax(dens)] - z1) <= cell
    # peak location tracks lambda
    z, dens = final_state_density(2.5)
    z1 = math.cos(-math.asin(1 / 2.5))
    assert abs(z[np.argmax(dens)] - z1) <= cell


def test_density_weight_moves_to_minus_one_sub_zeno():
    z, dens = final_state_density(0.05)
    assert z[np.argmax(dens)] == pytest.approx(z[0])
    assert dens[0] > dens[-1]


def test_density_normalization():
    from scipy.integrate import trapezoid

    for lam in (0.0, 0.05, 0.5, 1.5, 2.5):
        z, dens = final_state_density(lam)
        assert trapezoid(dens, z) == pytest.approx(1.0, abs=1e-6)


def test_density_grid_validation():
    with pytest.raises(ValueError):
        final_state_density(0.5, grid=np.array([0.2, 0.1]))
    with pytest.raises(ValueError):
        final_state_density(0.5, grid=np.array([-1.0, 0.0, 0.5]))
    with pytest.raises(ValueError, match="open interval"):
        final_state_density(0.5, grid=np.array([-0.5, np.nan, 0.5]))
    with pytest.raises(UnsupportedLambda):
        final_state_density(1.0)


def test_density_starting_on_a_critical_angle_is_a_singular_endpoint():
    # theta_i on a critical angle, or a grid point z_f whose theta_f = -acos(z_f) is
    for lam in (1.2, 1.5):
        for theta in _angles(lam):
            for theta_i in (theta, math.nextafter(theta, 0.0), theta - 5e-10):
                with pytest.raises(SingularEndpoint):
                    final_state_density(lam, theta_i)
            zf = math.cos(theta)
            for grid in ([zf, 0.999], [-0.999, zf], [math.nextafter(zf, 0.0), 0.999]):
                with pytest.raises(SingularEndpoint):
                    final_state_density(lam, 0.0, grid)


def test_density_rejects_a_two_dimensional_grid():
    with pytest.raises(ValueError, match="1-D"):
        final_state_density(0.5, grid=np.array([[-0.5, 0.0], [0.2, 0.5]]))


def _no_click_log_probability(lam, omega_s, theta0, t):
    """log ||exp(M t) psi_0||^2 with M = -i Omega_s sigma_x - (alpha/2)|1><1|."""
    from scipy.linalg import expm

    alpha = 4.0 * omega_s * lam
    m = np.array([[0.0, -1j * omega_s], [-1j * omega_s, -0.5 * alpha]])
    psi = expm(m * t) @ np.array([math.cos(0.5 * theta0), 1j * math.sin(0.5 * theta0)])
    return math.log(np.vdot(psi, psi).real)


@pytest.mark.parametrize("lam, t", [(0.5, 0.5), (0.5, 2.0), (1.5, 0.5), (1.5, 1.5), (1.5, 3.0)])
def test_action_is_log_no_click_probability(lam, t):
    omega_s = 0.5
    path = integrate_phase_path(PhasePoint(0.0, 0.0), PhaseParams(omega_s, lam), t, dt=1e-4)
    action = action_closed_form(0.0, float(path.theta[-1]), lam)
    assert action == pytest.approx(_no_click_log_probability(lam, omega_s, 0.0, t), rel=1e-12)


@pytest.mark.parametrize("lam, t", [(0.5, 2.0), (1.5, 1.5)])
def test_density_weight_is_reciprocal_no_click_probability(lam, t):
    omega_s, theta0 = 0.5, -0.3
    path = integrate_phase_path(PhasePoint(theta0, 0.0), PhaseParams(omega_s, lam), t, dt=1e-4)
    z, w = final_state_density(lam, theta0, [math.cos(path.theta[-1]), math.cos(theta0)])
    log_ratio = math.log(w[0] / w[1])
    assert log_ratio == pytest.approx(
        -_no_click_log_probability(lam, omega_s, theta0, t), rel=1e-10
    )


def _fresh_python(code):
    """Standard output of ``code`` run in a new interpreter that imports this zenopath."""
    src = os.path.dirname(os.path.dirname(zenopath.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_and_closed_forms_load_no_scipy():
    code = (
        "import sys, zenopath, zenopath.cli\n"
        "zenopath.action_closed_form(0.0, -1.0, 0.5)\n"
        "zenopath.final_state_density(1.5)\n"
        "zenopath.transition_time_sub_zeno(0.5, 0.5)\n"
        "zenopath.zeno_frequencies(1.5, 0.5)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _fresh_python(code) == "[]\n"


def test_zeno_frequencies_in_fresh_interpreter():
    code = (
        "from zenopath import zeno_frequencies\n"
        "t = zeno_frequencies(1.5, 0.5)\n"
        "print(repr((t.omega1, t.omega12, t.omega2)))\n"
    )
    values = ast.literal_eval(_fresh_python(code))
    here = zeno_frequencies(1.5, 0.5)
    assert values == (here.omega1, here.omega12, here.omega2)
    assert values == pytest.approx(
        (0.17620618766939664, 0.07650889912726083, 0.17620618766938673), rel=1e-12
    )
