"""Exception and warning types shared across the package."""


class ZenoPathError(Exception):
    """Base class for all numerical-contract violations raised by zenopath."""


class InvalidState(ZenoPathError):
    """A density matrix or Bloch vector violates its physical invariants."""


class NormalizationUnderflow(ZenoPathError):
    """Post-selection annihilated the state: the trace denominator fell below the floor."""


class CurveSingularity(ZenoPathError):
    """A constant-energy curve was evaluated on a nullcline where 1 + lambda*sin(theta) ~ 0."""


class NoZenoRegime(ZenoPathError):
    """Operation requires lambda > 1 (lambda >= 1 for separatrix energies)."""


class SingularEndpoint(ZenoPathError):
    """Action endpoint sits on a critical angle where the integral diverges logarithmically."""


class UnsupportedLambda(ZenoPathError):
    """Coupling ratio outside the regime handled by this operation (e.g. lambda = 1 exactly)."""


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
