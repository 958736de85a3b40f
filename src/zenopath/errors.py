"""Exception and warning types shared across the package, and the four
parameter rules that raise them (notes/decisions.md, section 13).  Each rule
is one chained compare that NaN fails too, so NaN and inf are rejected."""

import math


class ZenoPathError(Exception):
    """Base class for all numerical-contract violations raised by zenopath."""


class InvalidState(ZenoPathError):
    """A density matrix or Bloch vector violates its physical invariants."""


class NormalizationUnderflow(ZenoPathError):
    """Post-selection annihilated the state: the trace denominator fell below the floor."""


class CurveSingularity(ZenoPathError):
    """A constant-energy curve was evaluated on a nullcline where 1 + lambda*sin(theta) ~ 0."""


class UnsupportedLambda(ZenoPathError):
    """Coupling ratio outside the regime handled by this operation (e.g. lambda = 1 exactly)."""


class NoZenoRegime(UnsupportedLambda):
    """Operation requires lambda > 1 (lambda >= 1 for separatrix energies)."""


class SingularEndpoint(ZenoPathError):
    """Action endpoint sits on a critical angle where the integral diverges logarithmically."""


class IntegrandSingular(ZenoPathError):
    """The integration interval contains a nullcline of 1 + lambda*sin(theta)."""


class EpsilonTooLarge(ZenoPathError):
    """Segment cutoff epsilon does not fit between the two critical angles."""


class StepTooLarge(ZenoPathError):
    """Stochastic integration step dt exceeds tau/10."""


class NonFiniteState(ZenoPathError):
    """An integrated path left the floating-point range: a value became inf or nan."""


class StalledAtFixedPoint(UserWarning):
    """Informational: an integrated path entered a region where the flow nearly vanishes."""


class WeakCouplingWarning(UserWarning):
    """Informational: tau >> t_end is violated, the detector is not weakly coupled."""


def finite(name: str, value: float):
    """ValueError unless -inf < value < inf: the angles and the curve energy e."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def positive(name: str, value: float):
    """ValueError unless 0 < value < inf: omega_s, tau, dt, t_end, epsilon."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def nonnegative(name: str, value: float):
    """ValueError unless 0 <= value < inf: lam, alpha."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def zeno_regime(lam: float, what: str, inclusive: bool = False):
    """Apply the lam rule, then raise NoZenoRegime "<what> lam > 1, got <lam>"
    unless lam > 1 (lam >= 1 if ``inclusive``)."""
    nonnegative("lam", lam)
    if lam < 1.0 or lam == 1.0 and not inclusive:
        raise NoZenoRegime(f"{what} lam {'>=' if inclusive else '>'} 1, got {lam}")
