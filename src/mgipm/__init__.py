"""Multigrid-preconditioned interior point solver for box-constrained control problems."""

from mgipm.grid import (
    GridLevel,
    GridHierarchy,
    NodalField,
    build_hierarchy,
    prolong,
    l2_project,
    coarsen_lambda,
    discrete_w2inf,
)
from mgipm.krylov import KrylovReport, KrylovBreakdown, cg, cgs
from mgipm.operators import (
    ForwardOperator,
    ZeroOperator,
    ParabolicConfig,
    EllipticConfig,
    parabolic_build,
    elliptic_build,
)
from mgipm.precond import (
    ScaledSystem,
    MgPreconditioner,
    g_apply,
    build_preconditioner,
    mg_apply,
)
from mgipm.ipm import (
    ControlProblem,
    IpmOptions,
    IpmState,
    IpmResult,
    OuterIterationRecord,
    kkt_residuals,
    compute_mu,
    reduce_to_scaled,
    recover_full_step,
    step_lengths,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
