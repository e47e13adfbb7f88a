"""Energy-driven stochastic reduction of quantum states on projective space.

A simulator and library for the collapse of superpositions under an
energy-based diffusion: Hilbert-space primitives, the projective geometry of
two-qubit product states, the reduction SDE with collapse detection, Monte
Carlo ensembles with statistical verdicts, and closed-form predictions for
the two-filter singlet experiment.
"""

__version__ = "0.1.0"

from .dynamics import (
    CollapseOutcome,
    SdeConfig,
    TrajectoryRecord,
    reduction_step,
    simulate_trajectory,
    step_normals,
    unitary_evolve,
    variance_drift_estimate,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleReport,
    TestVerdict,
    born_expected,
    born_frequency_test,
    independence_test,
    martingale_test,
    run_ensemble,
    variance_decay_test,
)
from .epr import (
    FilterCoupling,
    FilterOrientation,
    build_epr_hamiltonian,
    epr_born_conditional,
    epr_born_joint,
    rotated_basis,
    singlet_state,
)
from .errors import (
    ChartDomainError,
    ConfigurationError,
    DomainError,
    EnsembleFailureError,
    InsufficientDataError,
    IntegrationFailureError,
    QReduceError,
    ValidationError,
)
from .geometry import (
    TWO_QUBIT_BASIS,
    ChartCoordinates,
    ProjectivePoint,
    TwoQubitBasisConvention,
    fs_distance,
    fs_flow_check_cp1,
    geometry_selftest,
    is_disentangled,
    named_points,
    quadric_residual,
    segre_embed,
    tangent_intersection_check,
    to_chart,
    transition_probability,
)
from .hilbert import (
    Eigenspace,
    MomentTriple,
    Observable,
    Ray,
    StateVector,
    eigensystem,
    expectation,
    moments,
    third_central_moment,
    variance,
)
