"""Every public entry point that takes omega_s, lam, alpha, tau, dt or epsilon
rejects NaN, inf and an out-of-range value with a named error, and each of
those rules is written once, in ``zenopath.errors``."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import zenopath
from zenopath import (
    DiffusiveParams,
    MeasurementParams,
    NoZenoRegime,
    PhaseParams,
    action_closed_form,
    action_discontinuity,
    action_quadrature,
    critical_points,
    final_state_density,
    mlp_fixed_point,
    p_theta_curve,
    separatrix_energies,
    stability_exponents,
    stable_angle,
    transition_time_sub_zeno,
    zeno_frequencies,
)


def _params(lam):
    """Parameters no constructor has checked, so the function's own rule is tested."""
    return SimpleNamespace(omega_s=0.5, lam=lam)


#: (entry point, the parameter under test, a call with its value, the finite
#: values out of range, the error those raise)
_ENTRY_POINTS = [
    ("PhaseParams", "omega_s", lambda v: PhaseParams(v, 0.5), (0.0,), ValueError),
    ("PhaseParams", "lam", lambda v: PhaseParams(0.5, v), (-0.5,), ValueError),
    ("DiffusiveParams", "omega_s", lambda v: DiffusiveParams(v, 1.0, 100.0), (-0.5,), ValueError),
    ("DiffusiveParams", "alpha", lambda v: DiffusiveParams(0.5, v, 100.0), (-1.0,), ValueError),
    ("DiffusiveParams", "tau", lambda v: DiffusiveParams(0.5, 1.0, v), (0.0,), ValueError),
    ("DiffusiveParams.from_lambda", "lam", lambda v: DiffusiveParams.from_lambda(0.5, v, 100.0),
     (-0.5,), ValueError),
    ("DiffusiveParams.from_lambda", "omega_s",
     lambda v: DiffusiveParams.from_lambda(v, 1.5, 100.0), (0.0,), ValueError),
    ("MeasurementParams", "omega_s", lambda v: MeasurementParams(v, 10.0, 1e-3), (0.0,),
     ValueError),
    ("MeasurementParams", "dt", lambda v: MeasurementParams(0.5, 10.0, v), (-1e-3,), ValueError),
    # NaN, inf and a j_coupling whose square overflows reach the derived alpha
    ("MeasurementParams", "j_coupling", lambda v: MeasurementParams(0.5, v, 1e-3), (1e200,),
     ValueError),
    ("MeasurementParams.from_lambda", "lam",
     lambda v: MeasurementParams.from_lambda(0.5, v, 1e-3), (-0.5,), ValueError),
    ("MeasurementParams.from_lambda", "dt",
     lambda v: MeasurementParams.from_lambda(0.5, 1.5, v), (0.0, -1e-3), ValueError),
    ("MeasurementParams.from_lambda", "omega_s",
     lambda v: MeasurementParams.from_lambda(v, 1.5, 1e-3), (0.0,), ValueError),
    ("p_theta_curve", "lam", lambda v: p_theta_curve(0.3, v, 1.0), (-0.5,), ValueError),
    ("critical_points", "lam", lambda v: critical_points(_params(v)), (0.5,), NoZenoRegime),
    ("stability_exponents", "lam", lambda v: stability_exponents(_params(v)), (1.0,),
     NoZenoRegime),
    ("separatrix_energies", "lam", lambda v: separatrix_energies(v), (0.99,), NoZenoRegime),
    ("stable_angle", "lam", lambda v: stable_angle(0.0, v), (0.5,), NoZenoRegime),
    ("mlp_fixed_point", "lam", lambda v: mlp_fixed_point(_params(v)), (1.0,), NoZenoRegime),
    ("action_closed_form", "lam", lambda v: action_closed_form(0.0, -math.pi, v), (-0.2,),
     ValueError),
    ("action_quadrature", "lam", lambda v: action_quadrature(0.0, -math.pi, v), (-0.2,),
     ValueError),
    ("final_state_density", "lam", lambda v: final_state_density(v), (-0.2,), ValueError),
    ("transition_time_sub_zeno", "lam", lambda v: transition_time_sub_zeno(v, 0.5), (-0.1,),
     ValueError),
    ("transition_time_sub_zeno", "omega_s", lambda v: transition_time_sub_zeno(0.5, v), (0.0,),
     ValueError),
    ("zeno_frequencies", "lam", lambda v: zeno_frequencies(v, 0.5), (0.8,), NoZenoRegime),
    ("zeno_frequencies", "omega_s", lambda v: zeno_frequencies(1.5, v), (-0.5,), ValueError),
    ("zeno_frequencies", "epsilon", lambda v: zeno_frequencies(1.5, 0.5, epsilon=v), (-1e-3,),
     ValueError),
    ("action_discontinuity", "lam", lambda v: action_discontinuity(v), (1.0,), NoZenoRegime),
    ("action_discontinuity", "epsilon", lambda v: action_discontinuity(1.5, epsilon=v), (0.0,),
     ValueError),
]

#: The name a message gives a parameter that is checked through a derived one
_NAMED = {"j_coupling": "alpha = j_coupling**2 * dt"}

_CASES = [
    pytest.param(call, value, _NAMED.get(param, param), error, id=f"{entry}-{param}={value}")
    for entry, param, call, bad, bad_error in _ENTRY_POINTS
    for value, error in ((math.nan, ValueError), (math.inf, ValueError),
                         *((v, bad_error) for v in bad))
]


@pytest.mark.parametrize("call, value, name, error", _CASES)
def test_entry_point_rejects_a_bad_value(call, value, name, error):
    if error is NoZenoRegime:
        with pytest.raises(NoZenoRegime, match=r"requires? lam >=? 1, got"):
            call(value)
    else:
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(name)} must be (positive|nonnegative) and finite"):
            call(value)


def test_no_zeno_regime_is_an_unsupported_lambda():
    # one lam <= 1 failure, caught as either name
    with pytest.raises(zenopath.UnsupportedLambda):
        critical_points(PhaseParams(0.5, 1.0))


def test_each_parameter_rule_is_written_only_in_errors_py():
    sources = sorted(Path(zenopath.__file__).parent.glob("*.py"))
    assert any(path.name == "errors.py" for path in sources)
    for path in sources:
        if path.name == "errors.py":
            continue
        text = path.read_text()
        for literal in ("must be positive", "must be nonnegative", "NoZenoRegime("):
            assert literal not in text, (
                f"{path.name} writes {literal!r} itself; call the rule in zenopath.errors")
