"""Iterative coordinate descent (ICD) — cuMBIR's solver.

The paper lists ICD (refs [16, 23]) among the schemes its
memory-centric operator supports "in a plug-and-play manner".  ICD
updates one pixel at a time to the exact minimizer of the quadratic
objective along that coordinate:

    delta_j = <a_j, r> / <a_j, a_j>,   x_j += delta_j,   r -= delta_j a_j

where ``a_j`` is column ``j`` of ``A`` and ``r`` the current residual.
Unlike CG/SIRT it needs *column* access — which the memoized
backprojection matrix provides for free (``A^T`` rows are ``A``
columns), exactly the structure CompXCT-style codes lack.

One "iteration" sweeps every pixel once, in the domain order (so a
Hilbert-ordered operator sweeps pixels along the space-filling curve —
good cache behaviour for the residual updates).
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix
from .base import SolveResult, iteration_span, solve_span

__all__ = ["icd"]


def icd(
    matrix: CSRMatrix,
    transpose: CSRMatrix,
    y: np.ndarray,
    num_sweeps: int = 5,
    x0: np.ndarray | None = None,
    nonnegativity: bool = False,
    callback=None,
) -> SolveResult:
    """Run ICD sweeps on ``min_x ||A x - y||^2``.

    Parameters
    ----------
    matrix, transpose:
        The forward matrix and its (scan-based) transpose; column ``j``
        of ``A`` is read as row ``j`` of ``A^T``.
    y:
        Measurement vector (ordered coordinates).
    num_sweeps:
        Full passes over all pixels.
    nonnegativity:
        Clamp each pixel at zero after its update (the constraint ``C``
        of the paper's Eq. 1; the coordinate-wise minimizer under a
        bound is the clamped unconstrained one).
    """
    if num_sweeps < 0:
        raise ValueError(f"num_sweeps must be >= 0, got {num_sweeps}")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != matrix.num_rows:
        raise ValueError(f"y has {y.shape[0]} entries, expected {matrix.num_rows}")
    if transpose.num_rows != matrix.num_cols or transpose.num_cols != matrix.num_rows:
        raise ValueError("transpose shape does not match the matrix")
    x = (
        np.zeros(matrix.num_cols, dtype=np.float64)
        if x0 is None
        else np.asarray(x0, dtype=np.float64).copy()
    )

    residual = y - matrix.spmv(x.astype(np.float32)).astype(np.float64)
    # Column norms <a_j, a_j> once (memoized, like everything else).
    col_sq = np.zeros(matrix.num_cols)
    np.add.at(col_sq, matrix.ind, matrix.val.astype(np.float64) ** 2)

    result = SolveResult(x=x, iterations=0)
    result.residual_norms.append(float(np.linalg.norm(residual)))
    result.solution_norms.append(float(np.linalg.norm(x)))

    displ, ind, val = transpose.displ, transpose.ind, transpose.val
    with solve_span("icd", num_iterations=num_sweeps):
        for sweep in range(num_sweeps):
            with iteration_span("icd", sweep):
                for j in range(matrix.num_cols):
                    lo, hi = displ[j], displ[j + 1]
                    if lo == hi or col_sq[j] == 0.0:
                        continue
                    rows = ind[lo:hi]
                    weights = val[lo:hi].astype(np.float64)
                    delta = float(weights @ residual[rows]) / col_sq[j]
                    if nonnegativity and x[j] + delta < 0.0:
                        delta = -x[j]
                    if delta != 0.0:
                        x[j] += delta
                        residual[rows] -= delta * weights
                result.iterations = sweep + 1
                result.residual_norms.append(float(np.linalg.norm(residual)))
                result.solution_norms.append(float(np.linalg.norm(x)))
            if callback is not None:
                callback(sweep + 1, x)

    result.x = x
    result.stop_reason = "sweep budget exhausted"
    return result
