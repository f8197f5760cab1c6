"""Mini-batch stochastic gradient descent solver.

Included to demonstrate the paper's "plug-and-play" claim (Section
3.5.2): any gradient-type scheme drops onto the memory-centric operator
with minor modifications.  Each step samples a batch of sinogram rows
and takes a gradient step on the corresponding partial objective, the
scheme cuMBIR's SGD solver uses (paper ref [16]).

Row subsetting needs access to the underlying rows of ``A``; operators
expose this through an optional ``row_subset_forward`` /
``row_subset_adjoint`` pair, with a generic masked fallback otherwise.
"""

from __future__ import annotations

import numpy as np

from .base import ProjectionOperator, SolveResult, iteration_span, solve_span

__all__ = ["sgd"]


def sgd(
    op: ProjectionOperator,
    y: np.ndarray,
    num_iterations: int = 100,
    batch_fraction: float = 0.1,
    step_size: float | None = None,
    x0: np.ndarray | None = None,
    seed: int = 0,
    callback=None,
) -> SolveResult:
    """Run mini-batch SGD on ``min_x 0.5 ||A x - y||^2``.

    Parameters
    ----------
    batch_fraction:
        Fraction of rays sampled per step.
    step_size:
        Fixed step; when omitted, a conservative ``1 / max row-sum^2``
        scale is estimated from the operator (guaranteeing descent for
        unit-norm-bounded rows).
    """
    if num_iterations < 0:
        raise ValueError(f"num_iterations must be >= 0, got {num_iterations}")
    if not 0.0 < batch_fraction <= 1.0:
        raise ValueError(f"batch fraction must be in (0, 1], got {batch_fraction}")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != op.num_rays:
        raise ValueError(f"sinogram has {y.shape[0]} entries, expected {op.num_rays}")
    x = (
        np.zeros(op.num_pixels, dtype=np.float64)
        if x0 is None
        else np.asarray(x0, dtype=np.float64).copy()
    )
    rng = np.random.default_rng(seed)
    batch = max(1, int(round(batch_fraction * op.num_rays)))

    if step_size is None:
        if hasattr(op, "row_sums"):
            scale = float(np.max(np.asarray(op.row_sums())))
        else:
            scale = float(np.max(np.asarray(op.forward(np.ones(op.num_pixels)))))
        step_size = 1.0 / max(scale * scale, 1e-12)

    has_subset = hasattr(op, "row_subset_forward") and hasattr(op, "row_subset_adjoint")

    result = SolveResult(x=x, iterations=0)
    residual0 = y - np.asarray(op.forward(x), dtype=np.float64)
    result.residual_norms.append(float(np.linalg.norm(residual0)))
    result.solution_norms.append(float(np.linalg.norm(x)))

    with solve_span("sgd", num_iterations=num_iterations):
        for it in range(num_iterations):
            with iteration_span("sgd", it):
                rows = np.sort(rng.choice(op.num_rays, size=batch, replace=False))
                if has_subset:
                    partial = np.asarray(
                        op.row_subset_forward(x, rows), dtype=np.float64
                    )
                    grad = np.asarray(
                        op.row_subset_adjoint(partial - y[rows], rows),
                        dtype=np.float64,
                    )
                else:
                    mask = np.zeros(op.num_rays)
                    full = np.asarray(op.forward(x), dtype=np.float64)
                    mask[rows] = full[rows] - y[rows]
                    grad = np.asarray(op.adjoint(mask), dtype=np.float64)
                x -= step_size * (op.num_rays / batch) * grad

                result.iterations = it + 1
                full_res = y - np.asarray(op.forward(x), dtype=np.float64)
                result.residual_norms.append(float(np.linalg.norm(full_res)))
                result.solution_norms.append(float(np.linalg.norm(x)))
            if callback is not None:
                callback(it + 1, x)

    result.x = x
    result.stop_reason = "iteration budget exhausted"
    return result
