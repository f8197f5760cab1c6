"""Conjugate-gradient least-squares solver (CGLS).

MemXCT's solver of choice (paper Section 3.5.2): CG on the normal
equations ``A^T A x = A^T y``.  Compared with SIRT it converges faster
because (1) the full gradient is used, (2) the step size is computed
analytically — which costs the extra forward projection of the search
direction each iteration — and (3) the three-term recurrence keeps new
directions conjugate to previous ones.

The implementation is the textbook CGLS recurrence (paper ref [24],
Barrett et al.), which applies ``A`` and ``A^T`` exactly once per
iteration, written once over an ``(N, S)`` slab and run by
:func:`repro.solvers.driver.solve_slab` (``docs/solvers.md``).  From a
zero start the initial residual is ``y`` itself, so the one adjoint
that seeds the search direction stands in for the last iteration's,
which is skipped when nothing reads its gradient (no tolerance, no
checkpoint): ``k`` iterations cost ``2k`` operator applications.

Checkpoint / resume / health hooks: see :func:`cgls` and
``docs/resilience.md``.
"""

from __future__ import annotations

import numpy as np

from .base import ProjectionOperator, SolveResult
from .driver import (
    BatchSolveResult,
    Recurrence,
    as_column,
    column_dots,
    columns,
    solve_single,
    solve_slab,
)

__all__ = ["cgls", "cgls_batch"]


class _CG(Recurrence):
    """State ``(X, R, P, gamma, gamma0)`` plus the rollback step scale."""

    name = "cg"

    def start(self, restored):
        if restored is None:
            self.R = self.initial_residual()
            self._steepest_descent()
            self.gamma0 = self.gamma.copy()
            self.damping = 1.0
        else:
            # Bit-exact continuation: the whole recurrence state comes
            # from the snapshot, no operator application is re-run.
            self.R = as_column(restored.arrays["r"], self.work)
            self.P = as_column(restored.arrays["p"], self.work)
            self.gamma = np.array([restored.scalars["gamma"]])
            self.gamma0 = np.array([restored.scalars["gamma0"]])
            self.damping = float(restored.scalars.get("damping", 1.0))

    def _steepest_descent(self):
        """(Re)start the search direction at the gradient ``A^T r``."""
        self.P = self.adjoint(self.R).copy()  # updated in place: never alias
        self.gamma = column_dots(self.P)

    def step(self, active, final):
        # P keeps its frozen columns, so the forward runs on the whole
        # slab; the adjoint below runs on the live columns only, and not
        # at all on a ``final`` step, whose gradient nothing reads.
        Q = self.forward(self.P)
        qq = column_dots(Q)
        # A search direction in null(A) can only follow from a zero
        # gradient in exact arithmetic; freeze the column against the
        # float edge case regardless (alpha's denominator is qq).
        null = active & (qq == 0.0)
        live = active & ~null
        if live.any():
            act = columns(live)
            # The step scalars are computed in float64 and then cast to
            # the work dtype, so every column sees exactly the scalars
            # its own one-column solve would.
            alpha = (self.damping * (self.gamma[act] / qq[act])).astype(self.work)
            self.X[:, act] += alpha * self.P[:, act]
            self.R[:, act] -= alpha * Q[:, act]
            if not final:
                G = self.adjoint(np.ascontiguousarray(self.R[:, act]))
                gamma_new = column_dots(G)
                beta = (gamma_new / self.gamma[act]).astype(self.work)
                self.P[:, act] = G + beta * self.P[:, act]
                self.gamma[act] = gamma_new
        return (null, "search direction in null space") if null.any() else None

    def stops(self, tolerance, rnorm, started):
        if not started:
            # e.g. an all-zero sinogram column with x0 = 0: every
            # alpha/beta denominator downstream would be zero.
            reason = "zero gradient at start: x0 solves the normal equations"
            return [(self.gamma == 0.0, reason)]
        rules = []
        if tolerance > 0.0:
            reached = self.gamma <= (tolerance**2) * self.gamma0
            rules.append((reached, "gradient tolerance reached"))
        return [*rules, (self.gamma == 0.0, "exact solution reached")]

    def state(self):
        arrays = {"x": self.X[:, 0], "r": self.R[:, 0], "p": self.P[:, 0]}
        scalars = {
            "gamma": float(self.gamma[0]),
            "gamma0": float(self.gamma0[0]),
            "damping": self.damping,
        }
        return arrays, scalars

    def rollback(self, last):
        # Damped restart from the snapshot: restore the residual,
        # rebuild the search direction as steepest descent, and halve
        # the step scale.
        self.R = as_column(last.arrays["r"], self.work)
        self._steepest_descent()
        self.damping *= 0.5
        return True


def cgls_batch(
    op: ProjectionOperator,
    Y: np.ndarray,
    num_iterations: int = 30,
    X0: np.ndarray | None = None,
    tolerance: float = 0.0,
    callback=None,
) -> BatchSolveResult:
    """CGLS over an ``(num_rays, S)`` measurement slab.

    Each column runs the recurrence of :func:`cgls` — it *is* that
    recurrence — and freezes independently when its per-column gradient
    tolerance ``||A^T r_j|| <= tolerance * ||A^T y_j||`` fires.
    ``callback(iteration, X, active)`` fires after each iteration.
    """
    return solve_slab(_CG(), op, Y, num_iterations, X0, tolerance, callback)


def cgls(
    op: ProjectionOperator,
    y: np.ndarray,
    num_iterations: int = 30,
    x0: np.ndarray | None = None,
    tolerance: float = 0.0,
    callback=None,
    checkpoint=None,
    resume=None,
    health=None,
) -> SolveResult:
    """Run CGLS iterations for ``min_x ||A x - y||``.

    Parameters
    ----------
    op:
        The system operator.
    y:
        Measured sinogram (flat, length ``op.num_rays``).
    num_iterations:
        Iteration budget.  The paper uses an early-termination
        heuristic of 30 iterations for its datasets; see
        :func:`repro.solvers.lcurve.lcurve_corner` for choosing the
        stopping index a posteriori.
    x0:
        Initial tomogram estimate (zeros by default).
    tolerance:
        Relative gradient-norm stopping threshold
        (``||A^T r|| <= tolerance * ||A^T y||``); 0 disables.
    callback:
        Optional ``callback(iteration, x)`` invoked after each update.
    checkpoint:
        Optional :class:`~repro.resilience.CheckpointManager`; the
        recurrence state is snapshotted per its periodic policy.
    resume:
        Checkpoint to continue from (a
        :class:`~repro.resilience.SolverCheckpoint`, a manager, or a
        file path).  Continuation is bit-exact: no operator
        applications are re-run to reconstruct state.
    health:
        Optional :class:`~repro.resilience.HealthMonitor`.
    """
    return solve_single(
        _CG(), op, y, x0, callback, num_iterations=num_iterations,
        tolerance=tolerance, checkpoint=checkpoint, resume=resume, health=health,
    )
