"""Phase-space and stochastic-trajectory analysis of measurement-induced
Zeno dynamics in a driven qubit."""

from ._kernels import NUMBA_ENABLED
from .errors import (
    CurveSingularity,
    EpsilonTooLarge,
    IntegrandSingular,
    InvalidState,
    NonFiniteState,
    NormalizationUnderflow,
    NoZenoRegime,
    SingularEndpoint,
    StalledAtFixedPoint,
    StepTooLarge,
    UnsupportedLambda,
    WeakCouplingWarning,
    ZenoPathError,
)
from .measurement import (
    BlochState,
    MeasurementParams,
    drift_rhs,
    mc_zeno_trajectory,
)
from .phase import (
    CriticalPointSet,
    PhaseParams,
    PhasePath,
    PhasePoint,
    cdj_hamiltonian,
    critical_points,
    energy_level,
    hamilton_rhs,
    integrate_phase_path,
    p_theta_curve,
    separatrix_energies,
    stability_exponents,
    stable_angle,
)
from .action import (
    TransitionTimes,
    action_closed_form,
    action_discontinuity,
    action_quadrature,
    final_state_density,
    transition_time_sub_zeno,
    zeno_frequencies,
)
from .diffusive import (
    DiffusiveParams,
    DiffusiveTrajectory,
    EnsembleStats,
    ExtendedState,
    MLPTrajectory,
    ensemble_stats,
    integrate_mlp,
    mlp_fixed_point,
    mlp_pieces,
    mlp_rhs,
    plane_state,
    readout_constraint,
    sample_trajectory,
    sme_rhs,
    stochastic_hamiltonian,
    wiener_increments,
)

__version__ = "0.1.0"
