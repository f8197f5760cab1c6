"""Sparse transposition for building the backprojection matrix.

MemXCT derives ``A^T`` from ``A`` once during preprocessing.  The paper
(Section 3.5.1) insists on a *scan-based* transposition that preserves
the relative order of nonzeros — within each output row (a former
column), entries appear in increasing former-row order — because an
atomic-based transposition randomizes that order and destroys the
locality that the Hilbert ordering established.

``scan_transpose`` implements the order-preserving scheme (a stable
counting sort by column — Wang et al.'s scan algorithm, paper ref [22],
as scipy's compiled CSR-to-CSC conversion runs it: column histogram,
exclusive scan, ordered scatter).  ``randomized_transpose`` emulates the
atomic scheme's arbitrary intra-row order and exists so the benchmarks
can measure what that loss of locality costs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import csr_tocsc

from .csr import CSRMatrix

__all__ = ["scan_transpose", "randomized_transpose"]


def _transpose_with_order(matrix: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """Build the transpose given a permutation grouping nonzeros by column."""
    counts = np.bincount(matrix.ind, minlength=matrix.num_cols)
    displ = np.zeros(matrix.num_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=displ[1:])
    row_ids = np.repeat(
        np.arange(matrix.num_rows, dtype=np.int64), np.diff(matrix.displ)
    )
    return CSRMatrix(
        displ=displ,
        ind=row_ids[order].astype(np.int32),
        val=matrix.val[order],
        num_cols=matrix.num_rows,
        value_dtype=matrix.value_dtype,
    )


def scan_transpose(matrix: CSRMatrix, out=None) -> CSRMatrix:
    """Order-preserving (scan-based) transposition of a CSR matrix.

    The nonzeros of each output row are sorted by their original row
    index, exactly as a serial scan over the input produces them.
    ``out`` is the ``(ind, val)`` pair the scatter writes — ``nnz``
    long, int32 and the matrix's value dtype; fresh arrays by default,
    the reserved members of the archive being assembled when the plan
    cache calls.
    """
    view = matrix.to_scipy()
    ind, val = out or (np.empty(matrix.nnz, np.int32), np.empty(matrix.nnz, view.dtype))
    displ = np.empty(matrix.num_cols + 1, view.indptr.dtype)
    csr_tocsc(*matrix.shape, view.indptr, view.indices, view.data, displ, ind, val)
    return CSRMatrix(
        displ=displ,
        ind=ind,
        val=val,
        num_cols=matrix.num_rows,
        value_dtype=matrix.value_dtype,
    )


def randomized_transpose(matrix: CSRMatrix, seed: int = 0) -> CSRMatrix:
    """Transposition with randomized intra-row nonzero order.

    Numerically equivalent to :func:`scan_transpose` (same matrix), but
    the nonzeros within each output row land in an arbitrary order, as
    they would under a concurrent atomic-based construction.  Used only
    to quantify the locality penalty in the benchmarks.
    """
    rng = np.random.default_rng(seed)
    keys = rng.random(matrix.nnz)
    order = np.lexsort((keys, matrix.ind))
    return _transpose_with_order(matrix, order)
