"""Common solver interfaces.

All iterative schemes (paper Section 3.5.2) are written against a
minimal linear-operator protocol — ``forward`` (``A x``), ``adjoint``
(``A^T y``) and the two shapes — so that the serial MemXCT operator,
the compute-centric operator, and the distributed operator are
interchangeable ("plug-and-play" in the paper's words).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..obs import SOLVER_ITERATIONS, add_count, span
from ..precision import solver_dtype
from ..resilience.checkpoint import CheckpointError, CheckpointManager, SolverCheckpoint

__all__ = [
    "ProjectionOperator",
    "MatrixOperator",
    "SolveResult",
    "solve_span",
    "iteration_span",
    "resolve_resume",
    "observe_health",
    "solver_dtype",
]


def solve_span(solver: str, **attrs) -> span:
    """Span wrapping one whole solve (``solver.solve``).

    Every solver opens this around its iteration loop so solver
    iterations nest under it in the captured span tree.
    """
    return span("solver.solve", solver=solver, **attrs)


def iteration_span(solver: str, iteration: int, count: int = 1, **attrs) -> span:
    """Span wrapping one solver iteration (``solver.iteration``).

    Also bumps the :data:`repro.obs.SOLVER_ITERATIONS` counter by
    ``count`` — *logical per-slice iterations*: a slab iteration
    advancing ``count`` columns is that many single-slice iterations'
    worth of work — so captures can assert on how many iterations
    actually ran.  Costs two ``perf_counter`` calls per iteration when
    observation is inactive — noise next to the two SpMVs an iteration
    performs.
    """
    add_count(SOLVER_ITERATIONS, count)
    return span("solver.iteration", solver=solver, iteration=iteration, **attrs)


def resolve_resume(resume, solver: str) -> SolverCheckpoint | None:
    """Normalize a solver's ``resume`` argument into a checkpoint.

    Accepts a :class:`~repro.resilience.SolverCheckpoint`, a
    :class:`~repro.resilience.CheckpointManager`, or a checkpoint file
    path; validates that the snapshot belongs to ``solver`` (resuming a
    CG run with SIRT state would be silent nonsense).  An unusable or
    missing checkpoint raises :class:`~repro.resilience.CheckpointError`
    — an explicit resume must never silently cold-start.
    """
    if resume is None:
        return None
    if isinstance(resume, SolverCheckpoint):
        checkpoint = resume
    elif isinstance(resume, CheckpointManager):
        checkpoint = resume.require()
    else:
        checkpoint = CheckpointManager(resume).require()
    if checkpoint.solver != solver:
        raise CheckpointError(
            f"checkpoint holds {checkpoint.solver!r} state, cannot resume "
            f"a {solver!r} solve from it"
        )
    return checkpoint


def observe_health(health, iteration: int, x: np.ndarray, residual_norm: float) -> str:
    """Health hook run inside each iteration span.

    Returns ``"ok"`` when no monitor is attached or the iterate is
    healthy, otherwise the monitor's verdict (``"rollback"`` /
    ``"abort"``) for the solver's recovery policy to act on.
    """
    if health is None:
        return "ok"
    return health.observe(iteration, x, residual_norm)


@runtime_checkable
class ProjectionOperator(Protocol):
    """Protocol for the tomographic system operator ``A``."""

    @property
    def num_rays(self) -> int:
        """Sinogram length (rows of ``A``)."""
        ...

    @property
    def num_pixels(self) -> int:
        """Tomogram length (columns of ``A``)."""
        ...

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward projection ``y = A x``."""
        ...

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Backprojection ``x = A^T y``."""
        ...


class MatrixOperator:
    """Minimal :class:`ProjectionOperator` over an explicit matrix pair.

    Useful whenever a raw :class:`repro.sparse.CSRMatrix` (or anything
    with a compatible ``spmv``) should drive the solvers directly —
    custom geometries, test systems, externally supplied matrices.
    The transpose is built with the scan-based (locality-preserving)
    transposition when not supplied.

    ``dtype`` mirrors ``OperatorConfig.dtype``: ``None`` keeps the
    historical mixed precision (float32 kernels, float64 solver state),
    ``"float32"``/``"float64"`` select an end-to-end precision (the
    solvers read it back through :func:`repro.precision.solver_dtype`).
    """

    def __init__(self, matrix, transpose=None, dtype=None):
        from ..precision import compute_dtype, parse_dtype
        from ..sparse import scan_transpose  # local import avoids a cycle

        self.matrix = matrix
        self.transpose = transpose if transpose is not None else scan_transpose(matrix)
        if self.transpose.shape != (matrix.shape[1], matrix.shape[0]):
            raise ValueError(
                f"transpose shape {self.transpose.shape} does not match "
                f"matrix shape {matrix.shape}"
            )
        self.dtype = parse_dtype(dtype)
        self.compute_dtype = compute_dtype(self.dtype)
        self.solve_dtype = np.dtype(
            np.float32 if self.dtype == "float32" else np.float64
        )

    @property
    def num_rays(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_pixels(self) -> int:
        return self.matrix.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for an ``(num_pixels,)`` vector or ``(num_pixels, S)`` slab."""
        return self.matrix.spmv(np.asarray(x, dtype=self.compute_dtype))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` for an ``(num_rays,)`` vector or ``(num_rays, S)`` slab."""
        return self.transpose.spmv(np.asarray(y, dtype=self.compute_dtype))

    # Slab-protocol names (see repro.solvers.driver); same code.
    forward_batch = forward
    adjoint_batch = adjoint

    def row_sums(self) -> np.ndarray:
        return self.matrix.row_sums()

    def col_sums(self) -> np.ndarray:
        return self.matrix.col_sums()


@dataclass
class SolveResult:
    """Outcome of an iterative reconstruction.

    ``residual_norms[i]`` is ``||A x_i - y||`` and
    ``solution_norms[i]`` is ``||x_i||`` *after* iteration ``i``; the
    pair traces the L-curve of paper Fig. 8(a).
    """

    x: np.ndarray
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    solution_norms: list[float] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""

    def lcurve(self) -> tuple[np.ndarray, np.ndarray]:
        """(residual-norm, solution-norm) series for L-curve plots."""
        return np.asarray(self.residual_norms), np.asarray(self.solution_norms)
