"""Supremal (L-infinity) variational analysis toolkit.

Evaluates and cross-checks the objects attached to supremal first-order
energies E(u, O) = sup_O H(., u, Du): argmax sets, one-sided Danskin
derivatives, the tangential/normal critical-point PDE systems (full and
reduced-projection variants), the characteristic flow of the density,
minimality verdicts for several variation classes, measure-divergence
identities, and p-power approximation with continuation.
"""

from .energy import (
    ArgmaxSet,
    ConvexMinVerdict,
    argmax_set,
    convex_min_check,
    danskin_derivative,
    sup_energy,
    variation_density,
)
from .exprlang import (
    Ast,
    DomainEvalError,
    Dual2,
    EvalError,
    ParseError,
    SingularityError,
    eval_jet2,
    eval_value,
    parse,
    to_source,
)
from .flow import (
    MaxMinReport,
    StructuralReport,
    Trajectory,
    check_structural_condition,
    exit_time_bound,
    integrate_flow,
    verify_maxmin,
    write_trajectory_csv,
)
from .linalg import ProjectionReport, proj_range_complement, reduced_nullspace_proj
from .lp_approx import (
    LpProblem,
    LpResult,
    OptimizerSettings,
    StageResult,
    boundary_values_from_map,
    constant_fill_init,
    coons_init,
    lp_minimize,
    p_continuation,
)
from .operators import (
    AronssonResidual,
    ResidualField,
    aronsson_residual,
    composite_gradient,
    infinity_laplacian_residual,
    residual_field,
    split_residuals,
)
from .problem import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    HamiltonianJet,
    Jet2,
    PerturbedMap,
    Problem,
    StencilError,
    Subdomain,
    hamiltonian_jet,
    hamiltonian_value,
    jets_at_nodes,
    load_problem,
    map_jet,
    problem_digest,
    read_grid_csv,
    write_grid_csv,
)
from .variations import (
    SineModeMap,
    make_free_field,
    make_free_variation,
    make_rank_one_variation,
    make_sphere_variation,
    make_test_basis,
    variation_source,
)
from .varcheck import (
    DiscreteMeasure,
    MeasureReport,
    StationarityReport,
    SupportViolationError,
    Verdict,
    absolute_minimiser_test,
    measure_divergence_residual,
    normal_variation_test,
    rank_one_test,
    sphere_family_scan,
    stationarity_scan,
    stationarity_scans,
)

__version__ = "0.1.0"
