"""Multigrid-preconditioned interior point solver for box-constrained control problems."""

from mgipm.grid import (
    GridLevel,
    GridHierarchy,
    NodalField,
    build_hierarchy,
    inner_h,
    norm_h,
    prolong,
    restrict,
    mass_apply,
    l2_project,
    rough_project,
    coarsen_lambda,
    discrete_w2inf,
)
from mgipm.krylov import LinearOperatorHandle, KrylovReport, KrylovBreakdown, cg, cgs
from mgipm.operators import (
    ForwardOperator,
    DenseOperator,
    ZeroOperator,
    ParabolicConfig,
    EllipticConfig,
    parabolic_build,
    elliptic_build,
    adjoint_h_apply,
    convergence_probe,
)
from mgipm.precond import (
    ScaledSystem,
    MgPreconditioner,
    g_apply,
    symmetrized_g_handle,
    build_preconditioner,
    two_grid_apply,
    mg_apply,
    spectral_radius_estimate,
)
from mgipm.ipm import (
    ControlProblem,
    IpmOptions,
    IpmState,
    IpmResult,
    OuterIterationRecord,
    hessian_apply,
    kkt_residuals,
    compute_mu,
    reduce_to_scaled,
    recover_full_step,
    step_lengths,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
