"""SIRT — simultaneous iterative reconstruction technique.

The solver used by the compute-centric Trace baseline (paper refs
[10]).  Each iteration applies

    x_{k+1} = x_k + C A^T R (y - A x_k)

where ``R = diag(1 / row-sums of A)`` and ``C = diag(1 / column-sums
of A)``.  One forward and one backprojection per iteration, like CGLS,
but with a fixed preconditioned-Richardson step instead of an optimal
one — hence the slower convergence seen in paper Fig. 8(a).  Written
once over an ``(N, S)`` slab and run by
:func:`repro.solvers.driver.solve_slab` (``docs/solvers.md``).
"""

from __future__ import annotations

import numpy as np

from .base import ProjectionOperator, SolveResult
from .driver import (
    BatchSolveResult,
    Recurrence,
    _safe_reciprocal,
    columns,
    solve_single,
    solve_slab,
)

__all__ = ["sirt", "sirt_batch"]


class _SIRT(Recurrence):
    """State is the iterate ``X``; the residual is recomputed from it."""

    name = "sirt"

    def __init__(self, relaxation: float, nonnegativity: bool):
        self.relaxation = relaxation
        self.nonnegativity = nonnegativity

    def start(self, restored):
        op, work = self.op, self.work
        if restored is not None:
            self.relaxation = float(
                restored.scalars.get("relaxation", self.relaxation)
            )
        if hasattr(op, "row_sums") and hasattr(op, "col_sums"):
            row_sums = np.asarray(op.row_sums(), dtype=work)
            col_sums = np.asarray(op.col_sums(), dtype=work)
        else:
            row_sums = np.asarray(op.forward(np.ones(op.num_pixels)), dtype=work)
            col_sums = np.asarray(op.adjoint(np.ones(op.num_rays)), dtype=work)
        self.r_inv = _safe_reciprocal(row_sums)[:, None]
        self.c_inv = _safe_reciprocal(col_sums)[:, None]
        self.R = self.initial_residual()

    def step(self, active, final):
        # ``final`` changes nothing: the last forward feeds the history.
        update = self.c_inv * self.adjoint(self.r_inv * self.R)
        act = columns(active)
        self.X[:, act] += self.relaxation * update[:, act]
        if self.nonnegativity:
            self.X[:, act] = np.maximum(self.X[:, act], 0.0)
        # Frozen columns recompute to the same bits (the kernel is
        # deterministic on unchanged inputs), so the whole-slab forward
        # stays per-column exact.
        self.R = self.Y - self.forward(self.X)

    def state(self):
        return {"x": self.X[:, 0]}, {"relaxation": self.relaxation}

    def rollback(self, last):
        self.R = self.Y - self.forward(self.X)
        self.relaxation *= 0.5
        return True


def sirt_batch(
    op: ProjectionOperator,
    Y: np.ndarray,
    num_iterations: int = 45,
    X0: np.ndarray | None = None,
    relaxation: float = 1.0,
    nonnegativity: bool = False,
    tolerance: float = 0.0,
    callback=None,
) -> BatchSolveResult:
    """SIRT over an ``(num_rays, S)`` slab.

    Each column runs the recurrence of :func:`sirt`; ``tolerance > 0``
    freezes a column once its relative residual
    ``||r_j|| <= tolerance * ||y_j||``.
    """
    rec = _SIRT(relaxation, nonnegativity)
    return solve_slab(rec, op, Y, num_iterations, X0, tolerance, callback)


def sirt(
    op: ProjectionOperator,
    y: np.ndarray,
    num_iterations: int = 45,
    x0: np.ndarray | None = None,
    relaxation: float = 1.0,
    nonnegativity: bool = False,
    callback=None,
    checkpoint=None,
    resume=None,
    health=None,
    tolerance: float = 0.0,
) -> SolveResult:
    """Run SIRT iterations.

    Parameters
    ----------
    op:
        System operator; row/column sums are obtained from
        ``op.row_sums()`` / ``op.col_sums()`` when available and by
        applying the operator to all-ones vectors otherwise.
    y:
        Measured sinogram.
    num_iterations:
        Iteration budget (the Trace comparison in paper Table 4 runs
        45).
    relaxation:
        Step scaling in ``(0, 2)``; 1.0 is classic SIRT.
    nonnegativity:
        Clip negative pixels after each update (a common physical
        constraint ``C`` in the paper's Eq. 1).
    checkpoint:
        Optional :class:`~repro.resilience.CheckpointManager`;
        SIRT's full recurrence state is the iterate ``x`` (the
        residual is recomputed from it), so snapshots are one array.
    resume:
        Checkpoint to continue from (bit-exact: the residual recompute
        ``y - A x`` is the same operation the uninterrupted run
        performs with the same operands).
    health:
        Optional :class:`~repro.resilience.HealthMonitor`; rollback
        restores the snapshot and halves the relaxation.
    tolerance:
        Relative-residual stopping threshold
        (``||y - A x|| <= tolerance * ||y||``); 0 disables.
    """
    return solve_single(
        _SIRT(relaxation, nonnegativity), op, y, x0, callback,
        num_iterations=num_iterations, tolerance=tolerance,
        checkpoint=checkpoint, resume=resume, health=health,
    )
