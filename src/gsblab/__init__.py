"""Numerical laboratory for ground states of generalized spin-boson models.

Builds truncated Fock-space Hamiltonians H = A x 1 + 1 x dGamma(omega)
+ alpha * sum_j B_j x phi(lambda_j) over discretized radial mode grids,
solves for ground states, and verifies the operator identities that govern
their infrared behaviour: the pull-through formula, number and factorial
moment identities, and lower bounds that witness the absence of a ground
state when the coupling is infrared singular.
"""

from .modes import (
    CouplingFamily,
    L2Criteria,
    ModeSet,
    RadialGrid,
    build_radial_grid,
    eval_coupling,
    ir_class_of,
    l2_criteria,
)
from .fock import (
    BasisSizeError,
    FockBasis,
    LinOp,
    annihilator,
    apply_fock,
    apply_matter,
    creator,
    dgamma,
    enumerate_basis,
    field_operator,
    smeared_annihilator,
    write_matrix_market,
)
from .model import (
    GroundState,
    GsbModel,
    VanHoveValues,
    assemble,
    preset_spin_boson,
    preset_van_hove,
    t_operator,
    van_hove_oracle,
)
from .spectral import (
    NonConverged,
    NonPositiveShift,
    SolverConfig,
    ground_state,
    resolvent_apply,
    solve_model,
)
from .regularity import (
    IrSweepRow,
    RegularityReport,
    SweepVerdict,
    absence_lower_bound,
    ccr_and_bound_suite,
    factorial_moment_decomposition,
    higher_moment_identity,
    ir_sweep,
    moment_identity,
    number_decomposition,
    pullthrough_check,
    resolvent_tol,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSizeError",
    "CouplingFamily",
    "FockBasis",
    "GroundState",
    "GsbModel",
    "IrSweepRow",
    "L2Criteria",
    "LinOp",
    "ModeSet",
    "NonConverged",
    "NonPositiveShift",
    "RadialGrid",
    "RegularityReport",
    "SolverConfig",
    "SweepVerdict",
    "VanHoveValues",
    "absence_lower_bound",
    "annihilator",
    "apply_fock",
    "apply_matter",
    "assemble",
    "build_radial_grid",
    "ccr_and_bound_suite",
    "creator",
    "dgamma",
    "enumerate_basis",
    "eval_coupling",
    "factorial_moment_decomposition",
    "field_operator",
    "ground_state",
    "higher_moment_identity",
    "ir_class_of",
    "ir_sweep",
    "l2_criteria",
    "moment_identity",
    "number_decomposition",
    "preset_spin_boson",
    "preset_van_hove",
    "pullthrough_check",
    "resolvent_apply",
    "resolvent_tol",
    "smeared_annihilator",
    "solve_model",
    "t_operator",
    "van_hove_oracle",
    "write_matrix_market",
]
