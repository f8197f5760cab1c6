"""MLEM — maximum-likelihood expectation maximization.

The classic solver for emission tomography (paper ref [44], Qi &
Leahy's review), included to round out the plug-and-play solver family
(Section 3.5.2): one more gradient-type scheme that drops onto the
memoized operator unchanged.  The multiplicative update

    x <- x / (A^T 1) * A^T ( y / (A x) )

preserves non-negativity by construction and maximizes the Poisson
likelihood of ``y`` — the statistically right objective for count
data, where CG/SIRT assume Gaussian noise.

MLEM requires non-negative data; rays with zero forward projection are
held out of the ratio (standard practice).  Written once over an
``(N, S)`` slab and run by :func:`repro.solvers.driver.solve_slab`
(``docs/solvers.md``).
"""

from __future__ import annotations

import numpy as np

from .base import ProjectionOperator, SolveResult
from .driver import BatchSolveResult, Recurrence, columns, solve_single, solve_slab

__all__ = ["mlem", "mlem_batch"]

_EPS = 1e-12


class _MLEM(Recurrence):
    """State is the iterate ``X`` (the multiplicative recurrence is
    fully determined by it).  There is no step size to damp, so the
    inherited ``rollback`` declines: a health incident restores the
    last snapshot once and stops with a truthful ``stop_reason``."""

    name = "mlem"
    fill = 1.0  # zeros would be fixed points of the multiplicative update

    def start(self, restored):
        if (self.Y < 0).any():
            raise ValueError("MLEM requires non-negative measurements")
        if restored is None and (self.X <= 0).any():
            raise ValueError("MLEM initial estimate must be strictly positive")
        sensitivity = self.adjoint(np.ones((self.op.num_rays, 1)))
        # Pixels no ray reaches (zero sensitivity) are held at zero.
        self.support = sensitivity > _EPS
        self.sensitivity = np.where(self.support, sensitivity, 1).astype(self.work)
        self.projection = self.forward(self.X)
        self.R = self.Y - self.projection

    def step(self, active, final):
        # ``final`` changes nothing: the last forward feeds the history.
        ratio = np.zeros_like(self.Y)
        positive = self.projection > _EPS
        ratio[positive] = self.Y[positive] / self.projection[positive]
        back = self.adjoint(ratio)
        act = columns(active)
        self.X[:, act] = np.where(
            self.support, self.X[:, act] * (back[:, act] / self.sensitivity), 0.0
        )
        self.projection = self.forward(self.X)
        self.R = self.Y - self.projection

    def state(self):
        return {"x": self.X[:, 0]}, {}


def mlem_batch(
    op: ProjectionOperator,
    Y: np.ndarray,
    num_iterations: int = 50,
    X0: np.ndarray | None = None,
    tolerance: float = 0.0,
    callback=None,
) -> BatchSolveResult:
    """MLEM over a non-negative ``(num_rays, S)`` slab.

    Each column runs the recurrence of :func:`mlem`; ``tolerance > 0``
    freezes a column at relative residual
    ``||y_j - A x_j|| <= tolerance * ||y_j||``.
    """
    return solve_slab(_MLEM(), op, Y, num_iterations, X0, tolerance, callback)


def mlem(
    op: ProjectionOperator,
    y: np.ndarray,
    num_iterations: int = 50,
    x0: np.ndarray | None = None,
    callback=None,
    checkpoint=None,
    resume=None,
    health=None,
    tolerance: float = 0.0,
) -> SolveResult:
    """Run MLEM iterations for non-negative measurements ``y``.

    Parameters
    ----------
    op:
        System operator (sensitivities come from ``adjoint`` of ones).
    y:
        Non-negative measurement vector.
    x0:
        Strictly positive initial estimate (default: uniform ones);
        zeros would be fixed points of the multiplicative update.
    checkpoint, resume:
        Periodic recurrence snapshots / bit-exact continuation (the
        multiplicative recurrence is fully determined by ``x``).
    health:
        Optional :class:`~repro.resilience.HealthMonitor`.  MLEM has
        no step size to damp, so an incident restores the last
        snapshot once and otherwise stops early with a truthful
        ``stop_reason``.
    tolerance:
        Relative-residual stopping threshold
        (``||y - A x|| <= tolerance * ||y||``); 0 disables.
    """
    return solve_single(
        _MLEM(), op, y, x0, callback, num_iterations=num_iterations,
        tolerance=tolerance, checkpoint=checkpoint, resume=resume, health=health,
    )
