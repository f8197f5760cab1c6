"""The one iteration driver behind CG, SIRT and MLEM.

MemXCT memoizes one ray-tracing operator and reuses it every iteration
(paper Section 3.5); the same operator is equally reusable across every
*slice* of a 3D stack.  So each solver is one *recurrence* over an
``(N, S)`` slab of ``S`` independent right-hand sides, and a single
solve is the ``S = 1`` slab.  :func:`solve_slab` owns everything the
solvers share; a :class:`Recurrence` supplies only its arithmetic.
The contract — column ``j`` is bit-identical to the ``S = 1`` solve of
``Y[:, j]``, and a column whose stopping rule fires is *frozen* at its
own iteration — is written down in ``docs/solvers.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..resilience.checkpoint import SolverCheckpoint
from .base import (
    ProjectionOperator,
    SolveResult,
    iteration_span,
    observe_health,
    resolve_resume,
    solve_span,
    solver_dtype,
)

__all__ = [
    "BatchSolveResult",
    "Recurrence",
    "solve_slab",
    "solve_single",
    "forward_batch",
    "adjoint_batch",
]


def _apply(op, slab: np.ndarray, one: str, many: str) -> np.ndarray:
    """Apply ``op.<many>`` to the whole slab, or ``op.<one>`` column-wise.

    Every width takes the same route — an ``S = 1`` solve hands the
    operator its ``(n, 1)`` slab, which every layout kernel runs through
    its vector loop, bit-identical to the ``(n,)`` call.  Operators
    without batch methods (the distributed one) loop over columns.
    """
    if hasattr(op, many):
        return getattr(op, many)(slab)
    return np.stack(
        [getattr(op, one)(slab[:, j]) for j in range(slab.shape[1])], axis=1
    )


def forward_batch(op: ProjectionOperator, x: np.ndarray) -> np.ndarray:
    """``Y = A X`` over an ``(num_pixels, S)`` slab, for any operator."""
    return _apply(op, x, "forward", "forward_batch")


def adjoint_batch(op: ProjectionOperator, y: np.ndarray) -> np.ndarray:
    """``X = A^T Y`` over an ``(num_rays, S)`` slab, for any operator."""
    return _apply(op, y, "adjoint", "adjoint_batch")


def _per_column(reduce, slab: np.ndarray) -> np.ndarray:
    """``reduce`` of every column, in float64.

    Each column is made contiguous first so the BLAS call (operands and
    summation path) does not depend on ``S`` — that is what makes the
    recurrence scalars, and hence the whole solve, bit-exact per column.
    """
    return np.array(
        [float(reduce(np.ascontiguousarray(slab[:, j]))) for j in range(slab.shape[1])],
        dtype=np.float64,
    )


def column_dots(slab: np.ndarray) -> np.ndarray:
    """``out[j] = slab[:, j] @ slab[:, j]``."""
    return _per_column(lambda col: col @ col, slab)


def column_norms(slab: np.ndarray) -> np.ndarray:
    """Per-column 2-norms."""
    return _per_column(np.linalg.norm, slab)


def _safe_reciprocal(v: np.ndarray) -> np.ndarray:
    """1/v with zeros mapped to zero (rays/pixels outside the support).

    Preserves the input dtype — the fp32 path must not smuggle float64
    scaling vectors back into the recurrence.
    """
    out = np.zeros_like(v)
    nonzero = v != 0
    out[nonzero] = 1.0 / v[nonzero]
    return out


def columns(mask: np.ndarray):
    """Index selecting the ``mask`` columns of a slab.

    ``slice(None)`` when every column is selected, so whole-slab updates
    (every ``S = 1`` solve, every slab without a frozen column) run in
    place on views instead of through gather/scatter copies.
    """
    return slice(None) if mask.all() else np.flatnonzero(mask)


def as_column(vector: np.ndarray, dtype) -> np.ndarray:
    """A private ``(N, 1)`` copy of a 1-D checkpoint array."""
    return np.array(vector, dtype=dtype).reshape(-1, 1)


def _slab(y: np.ndarray, num_rows: int, what: str, dtype) -> np.ndarray:
    slab = np.asarray(y, dtype=dtype)
    if slab.ndim != 2:
        raise ValueError(f"{what} must be an (N, S) slab, got shape {slab.shape}")
    if slab.shape[0] != num_rows:
        raise ValueError(f"{what} has {slab.shape[0]} rows, expected {num_rows}")
    return slab


@dataclass
class BatchSolveResult:
    """Outcome of one slab solve.

    ``X`` holds one reconstruction per column.  The convergence
    histories are ``(recorded, S)`` arrays — rows past a column's own
    ``iterations[j]`` repeat its frozen final value; :meth:`column`
    truncates them when adapting one column to a
    :class:`~repro.solvers.base.SolveResult`.
    """

    X: np.ndarray  # (num_pixels, S)
    iterations: np.ndarray  # (S,) iterations each column actually ran
    residual_norms: np.ndarray  # (recorded, S)
    solution_norms: np.ndarray  # (recorded, S)
    converged: np.ndarray  # (S,) bool
    stop_reasons: list[str] = field(default_factory=list)

    @property
    def num_rhs(self) -> int:
        return self.X.shape[1]

    def column(self, j: int) -> SolveResult:
        """View column ``j`` as a single-slice :class:`SolveResult`."""
        keep = int(self.iterations[j]) + 1
        return SolveResult(
            x=np.ascontiguousarray(self.X[:, j]),
            iterations=int(self.iterations[j]),
            residual_norms=[float(v) for v in self.residual_norms[:keep, j]],
            solution_norms=[float(v) for v in self.solution_norms[:keep, j]],
            converged=bool(self.converged[j]),
            stop_reason=self.stop_reasons[j] if self.stop_reasons else "",
        )


def _history_of(checkpoint: SolverCheckpoint) -> list[np.ndarray]:
    """A one-column solve's ``(residual, solution)`` norm records."""
    pairs = zip(checkpoint.residual_norms, checkpoint.solution_norms)
    return [np.array([[r], [x]], dtype=np.float64) for r, x in pairs]


class Recurrence:
    """One solver's arithmetic over an ``(N, S)`` slab.

    The driver binds ``op``, the measurement slab ``Y`` and the initial
    iterate ``X`` (checkpoint, else the caller's, else ``fill``), then
    calls, on the subclass:

    * ``start(restored)`` — build the remaining state, from scratch or
      from the :class:`SolverCheckpoint` being resumed;
    * ``step(active, final)`` — advance the ``active`` columns one
      iteration; frozen columns must keep their bits.  ``final`` marks
      the last step of a solve that reads nothing after it but ``X``
      and ``R`` (no tolerance, no checkpoint).  May return
      ``(mask, reason)`` for active columns that could *not* advance
      (CG: search direction in the null space); the driver freezes them
      before recording;
    * ``state()`` — ``(arrays, scalars)`` of a one-column solve in the
      on-disk checkpoint layout (1-D arrays, float scalars).

    Both keep ``X`` and the ``(num_rays, S)`` residual slab
    ``R = Y - A X`` current; the driver reads them for the histories.
    """

    name = ""
    fill = 0.0  # default initial iterate

    def bind(self, op, Y: np.ndarray, X: np.ndarray) -> None:
        """Attach the operator, the measurement slab and the initial iterate."""
        self.op, self.Y, self.X, self.work = op, Y, X, Y.dtype
        self.ynorm = column_norms(Y)

    def forward(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(forward_batch(self.op, X), dtype=self.work)

    def adjoint(self, Y: np.ndarray) -> np.ndarray:
        return np.asarray(adjoint_batch(self.op, Y), dtype=self.work)

    def initial_residual(self) -> np.ndarray:
        """``Y - A X``, with no forward when ``X`` has no nonzero: every
        kernel sums from +0, so ``A 0`` is +0 and ``Y - 0`` is ``Y``,
        bit for bit."""
        if not self.X.any():
            return self.Y.copy()
        return self.Y - self.forward(self.X)

    def stops(self, tolerance: float, rnorm: np.ndarray, started: bool) -> list:
        """``(mask, reason)`` stopping rules, checked in order.

        Default: relative residual ``||r_j|| <= tolerance * ||y_j||``.
        """
        if started and tolerance > 0.0:
            return [(rnorm <= tolerance * self.ynorm, "residual tolerance reached")]
        return []

    def rollback(self, last: SolverCheckpoint) -> bool:
        """Damped restart from ``last`` (``X`` is already restored);
        False when there is no step size to damp — the driver then
        stops at the snapshot."""
        return False


def solve_slab(
    rec: Recurrence,
    op: ProjectionOperator,
    Y: np.ndarray,
    num_iterations: int,
    X0: np.ndarray | None = None,
    tolerance: float = 0.0,
    callback=None,
    checkpoint=None,
    resume=None,
    health=None,
    single: bool = False,
) -> BatchSolveResult:
    """Run ``rec`` over the ``(num_rays, S)`` slab ``Y``.

    ``callback(iteration, X, active)`` fires after every iteration;
    ``tolerance`` freezes columns by the recurrence's own rule.
    ``checkpoint`` / ``resume`` / ``health`` (see ``docs/resilience.md``)
    snapshot, restore and guard *one* recurrence state, so they need a
    one-column slab.  ``single`` marks a solve issued through the 1-D
    adapters: its spans carry no ``batch=`` attribute.
    """
    if num_iterations < 0:
        raise ValueError(f"num_iterations must be >= 0, got {num_iterations}")
    work = solver_dtype(op)
    Y = _slab(Y, op.num_rays, "measurement slab", work)
    S = Y.shape[1]
    if S != 1 and not (checkpoint is None and resume is None and health is None):
        raise ValueError(
            "checkpoint/resume/health track one recurrence state and need a "
            f"one-column slab, got S = {S}"
        )
    restored = resolve_resume(resume, rec.name)
    if restored is not None:
        X = as_column(restored.arrays["x"], work)
    elif X0 is None:
        X = np.full((op.num_pixels, S), rec.fill, dtype=work)
    else:
        X = _slab(X0, op.num_pixels, "initial slab", work).copy()
    attrs = {} if single else {"batch": S}

    with solve_span(rec.name, num_iterations=num_iterations, **attrs):
        rec.bind(op, Y, X)
        rec.start(restored)
        start = 0 if restored is None else restored.iteration
        iterations = np.full(S, start, dtype=np.int64)
        converged = np.zeros(S, dtype=bool)
        reasons = [""] * S
        active = np.ones(S, dtype=bool)

        def norms() -> np.ndarray:
            return np.stack([column_norms(rec.R), column_norms(rec.X)])

        # One (2, S) row of (residual, solution) norms per recorded
        # iteration; frozen columns carry their last value forward.
        history = [norms()] if restored is None else _history_of(restored)
        rnorm = history[-1][0]

        def freeze(mask: np.ndarray, reason: str) -> None:
            for j in np.flatnonzero(mask & active):
                converged[j] = True
                reasons[j] = reason
            active[mask] = False

        for mask, reason in rec.stops(tolerance, rnorm, started=False):
            freeze(mask, reason)

        for it in range(start, num_iterations):
            if not active.any():
                break
            # Nothing reads a final step's state beyond X and R unless a
            # tolerance rule or a snapshot follows it.
            final = it + 1 == num_iterations and tolerance <= 0.0 and checkpoint is None
            # ``solver.iterations`` counts logical per-column iterations.
            with iteration_span(rec.name, it, count=int(active.sum()), **attrs):
                halted = rec.step(active, final)
                if halted is not None:
                    freeze(*halted)
                    if not active.any():
                        break
                iterations[active] = it + 1
                history.append(np.where(active, norms(), history[-1]))
                rnorm = history[-1][0]

                # Health verdict comes BEFORE the snapshot: a poisoned
                # iterate landing on a save boundary must never
                # overwrite the healthy rollback target.
                action = observe_health(health, it + 1, rec.X[:, 0], float(rnorm[0]))
                if action == "ok" and checkpoint is not None:
                    residual_norms, solution_norms = np.asarray(history)[:, :, 0].T
                    checkpoint.maybe_save(
                        SolverCheckpoint(
                            rec.name, it + 1, *rec.state(),
                            residual_norms.tolist(), solution_norms.tolist(),
                        )
                    )
            if action != "ok":
                last = checkpoint.last if checkpoint is not None else None
                if last is not None:
                    # Back to the last healthy snapshot, never the
                    # poisoned iterate: rollback restarts the recurrence
                    # there with a halved step scale, abort returns it.
                    rec.X = as_column(last.arrays["x"], work)
                    iterations[0] = last.iteration
                    history = _history_of(last)
                    if action == "rollback" and rec.rollback(last):
                        health.rolled_back()
                        continue
                incident = health.last_incident
                reasons[0] = (
                    f"numerical health abort: {incident.detail}"
                    if incident is not None
                    else "numerical health abort"
                )
                break
            if callback is not None:
                callback(it + 1, rec.X, active.copy())
            for mask, reason in rec.stops(tolerance, rnorm, started=True):
                freeze(mask, reason)

    history = np.asarray(history)
    return BatchSolveResult(
        X=rec.X,
        iterations=iterations,
        residual_norms=history[:, 0],
        solution_norms=history[:, 1],
        converged=converged,
        stop_reasons=[reason or "iteration budget exhausted" for reason in reasons],
    )


def solve_single(
    rec: Recurrence, op: ProjectionOperator, y: np.ndarray, x0, callback, **kwargs
) -> SolveResult:
    """The ``S = 1`` adapter behind ``cgls`` / ``sirt`` / ``mlem``.

    ``y`` (any shape, flattened) becomes a one-column slab, the
    ``callback(iteration, x)`` shape is kept, and column 0 comes back
    as a :class:`SolveResult`.
    """
    work = solver_dtype(op)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=work).reshape(-1, 1)
    slab_callback = None
    if callback is not None:

        def slab_callback(iteration, X, _active):
            callback(iteration, X[:, 0])

    return solve_slab(
        rec, op, np.asarray(y, dtype=work).reshape(-1, 1),
        X0=x0, callback=slab_callback, single=True, **kwargs,
    ).column(0)
