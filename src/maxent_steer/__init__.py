"""Maximum-entropy optimal density control of discrete-time linear systems.

Steers the state distribution of x_{k+1} = A_k x_k + B_k u_k between
prescribed Gaussians (or fixed points) over a finite horizon while
minimizing quadratic control energy regularized by policy entropy. The
solver returns affine-Gaussian feedback policies; companion modules
characterize the point-steering state process as a pinned process and
verify that the optimal density-steering process is the minimum-relative-
entropy bridge of the associated noise-driven system.
"""

from .errors import (
    BadWindow,
    BranchDegenerate,
    DimensionMismatch,
    GateNotPD,
    IndefiniteInput,
    InfeasibleProblem,
    NonpositiveEpsilon,
    NotPD,
    NotTwoDimensional,
    NumericalLimit,
    ParseError,
    SingularA,
    SingularBlock,
    SingularGramian,
    SteeringError,
)
from .linalg import (
    DefinitenessReport,
    GaussianMarginal,
    SymMatrix,
    definiteness,
    gaussian_condition,
    pinv,
    psd_sqrt,
)
from .lqr import (
    AffineGaussianPolicy,
    MaxEntLqrProblem,
    RiccatiSolution,
    denormalize_policy,
    epsilon_normalize,
    lqr_policy,
    riccati_backward,
)
from .pinned import (
    BridgeReport,
    PinnedController,
    PinnedMoments,
    bridge_verify,
    conditional_gaussian_oracle,
    coupling_objective,
    gaussian_kl,
    pinned_controller,
    pinned_moments_controller,
    point_to_point_policy,
)
from .simulate import (
    EmpiricalMoments,
    TrajectoryEnsemble,
    dynamics_residual,
    empirical_moments,
    propagate_policy_moments,
    sample_ensemble,
)
from .specio import ProblemSpec, load_policy, load_spec, save_policy
from .steering import (
    LyapunovPair,
    NormalizedBoundary,
    general_policy,
    mean_steering,
    normalized_boundary,
    optimal_density_policy,
    solve_coupled_lyapunov,
)
from .system import (
    FeasibilityReport,
    LinearSystemModel,
    controllability_gramian,
    reachability_gramian,
    transition,
    validate_assumptions,
)

__version__ = "0.1.0"

__all__ = [
    "AffineGaussianPolicy",
    "BadWindow",
    "BranchDegenerate",
    "BridgeReport",
    "DefinitenessReport",
    "DimensionMismatch",
    "EmpiricalMoments",
    "FeasibilityReport",
    "GateNotPD",
    "GaussianMarginal",
    "IndefiniteInput",
    "InfeasibleProblem",
    "LinearSystemModel",
    "LyapunovPair",
    "MaxEntLqrProblem",
    "NonpositiveEpsilon",
    "NormalizedBoundary",
    "NotPD",
    "NotTwoDimensional",
    "NumericalLimit",
    "ParseError",
    "PinnedController",
    "PinnedMoments",
    "ProblemSpec",
    "RiccatiSolution",
    "SingularA",
    "SingularBlock",
    "SingularGramian",
    "SteeringError",
    "SymMatrix",
    "TrajectoryEnsemble",
    "bridge_verify",
    "conditional_gaussian_oracle",
    "controllability_gramian",
    "coupling_objective",
    "definiteness",
    "denormalize_policy",
    "dynamics_residual",
    "empirical_moments",
    "epsilon_normalize",
    "gaussian_condition",
    "gaussian_kl",
    "general_policy",
    "load_policy",
    "load_spec",
    "lqr_policy",
    "mean_steering",
    "normalized_boundary",
    "optimal_density_policy",
    "pinned_controller",
    "pinned_moments_controller",
    "pinv",
    "point_to_point_policy",
    "propagate_policy_moments",
    "psd_sqrt",
    "reachability_gramian",
    "riccati_backward",
    "sample_ensemble",
    "save_policy",
    "solve_coupled_lyapunov",
    "transition",
    "validate_assumptions",
]
