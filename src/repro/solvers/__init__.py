"""Iterative solvers (paper Section 3.5.2): CGLS, SIRT, MLEM, SGD, L-curve.

CG, SIRT and MLEM are three recurrences run by one slab driver
(:mod:`repro.solvers.driver`, ``docs/solvers.md``); a single solve is
the one-column slab.  :data:`SOLVER_TABLE` (:mod:`repro.solvers.table`)
names every solver once, with what it can do.
"""

from .base import (
    MatrixOperator,
    ProjectionOperator,
    SolveResult,
    observe_health,
    resolve_resume,
    solver_dtype,
)
from .cg import cgls, cgls_batch
from .driver import BatchSolveResult, adjoint_batch, forward_batch
from .fbp import fbp, ramp_filter
from .icd import icd
from .mlem import mlem, mlem_batch
from .lcurve import lcurve_corner, overfit_onset
from .sgd import sgd
from .regularized import (
    GradientAugmentedOperator,
    GradientOperator,
    TikhonovOperator,
    regularized_cgls,
    tv_cgls,
)
from .sirt import sirt, sirt_batch
from .table import SOLVER_TABLE, solver_row

__all__ = [
    "MatrixOperator",
    "ProjectionOperator",
    "SolveResult",
    "BatchSolveResult",
    "cgls",
    "cgls_batch",
    "sirt_batch",
    "mlem_batch",
    "forward_batch",
    "adjoint_batch",
    "fbp",
    "ramp_filter",
    "icd",
    "mlem",
    "TikhonovOperator",
    "GradientOperator",
    "GradientAugmentedOperator",
    "regularized_cgls",
    "tv_cgls",
    "lcurve_corner",
    "overfit_onset",
    "observe_health",
    "resolve_resume",
    "sgd",
    "sirt",
    "solver_dtype",
    "SOLVER_TABLE",
    "solver_row",
]
