"""CSR sparse-matrix container and the baseline MemXCT SpMV kernel.

This mirrors the paper's Listing 2: a gather-only row-parallel SpMV

    for i in rows: y[i] = sum_j val[j] * x[ind[j]]

with the regular streams ``ind``/``val`` and the irregular gather
``x[ind[j]]``.  The kernel is that loop, compiled, in one of two
builds with the same bits.  A slab of 8 or more columns (every orbit
SpMM) runs the row gather of :mod:`repro.sparse.native`, and an
8-column transposed product its row scatter: C loops over the matrix's
own arrays, built on first use.  Every other call, and every call on a
host without a C compiler, runs scipy's ``csr_matvec`` (``csr_matvecs``
for a slab) over ``(val, ind, displ)`` through a zero-copy
``scipy.sparse.csr_matrix`` view.  The view is *derived* state: built
at the first call that needs it, cached on the instance, and never built
at set-up, persisted, pickled or shipped — the array form below is all
that ever leaves an object.

Every layout class of :mod:`repro.sparse` (this one,
:class:`~repro.sparse.BufferedMatrix`,
:class:`~repro.sparse.ELLPartitioned`) offers the same four things, and
callers rely on nothing else to run, slice, persist or ship a layout:

* ``spmv(x)`` — the one production kernel, over an ``(n,)`` vector or
  an ``(n, S)`` slab of ``S`` right-hand sides.  One pass over the
  regular streams drives all ``S`` columns, and column ``j`` of a slab
  result is bit-identical to the vector call on ``x[:, j]``;
* ``partition_slice(part0, part1, partition_size)`` — a view-based
  sub-layout whose kernel yields exactly the parent's output rows of
  that partition range, bit-identically (the parallel backend's unit);
* ``to_arrays()`` / ``from_arrays(arrays, num_rows, num_cols,
  partition_size)`` — the layout as named arrays (the key names of the
  operator archive) and back, rebuilt as views, never copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import native
from .partition import RowPartitions

__all__ = ["CSRMatrix", "checked_rank", "csr_row_sums", "spmv_input"]

#: Fewest slab columns the compiled row gather runs on.  Against scipy's
#: loop (fp32, one core) it loses on one column (35 vs 10 ms on the
#: 192x192 ``A``), wins on 8 (6.0 vs 12.8 ms on the 256x256 ``Q``: every
#: orbit vector call) and is level from 64.
GATHER_MIN_COLUMNS = 8
#: The one slab width the compiled row scatter runs on, an orbit vector
#: adjoint: 7.3 vs 13.9 ms on the 256x256 ``Q``.  A scatter of any width
#: lost on one column (28 vs 12 ms on the 192x192 ``A``) and was level at
#: 64 (80 vs 79 ms).
SCATTER_COLUMNS = 8


def spmv_input(x, num_cols: int) -> np.ndarray:
    """A kernel input as an array: an ``(n,)`` vector or ``(n, S)`` slab."""
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise ValueError(
            f"expected an (n,) vector or an (n, S) slab, got shape {x.shape}"
        )
    if x.shape[0] != num_cols:
        raise ValueError(f"x has {x.shape[0]} rows, expected {num_cols}")
    return x


def checked_rank(rank, size: int, name: str) -> np.ndarray:
    """``rank`` as an int64 bijection on ``[0, size)``, or ``ValueError``.

    ``rank[old]`` is the new index of an old one.  Anything but a
    bijection would silently merge or drop indices while the domain
    size stays unchanged, producing a corrupt matrix.
    """
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {rank.shape}")
    if size:
        if rank.min() < 0 or rank.max() >= size:
            raise ValueError(f"{name} maps indices outside [0, {size})")
        if np.bincount(rank, minlength=size).max() > 1:
            raise ValueError(
                f"{name} is not injective: two old indices map to the same new index"
            )
    return rank


def csr_row_sums(values: np.ndarray, displ: np.ndarray, num_rows: int) -> np.ndarray:
    """Per-row sums of a CSR-ordered value stream.

    ``values`` holds the per-nonzero products, ``displ`` the row offsets
    (length ``num_rows + 1``).  Empty rows sum to zero; ``reduceat``
    alone would mis-handle them, so they are masked out explicitly.

    ``values`` may also be an ``(nnz, S)`` slab — one column per
    right-hand side — in which case the result is ``(num_rows, S)``;
    each column is reduced in exactly the same order as the 1D case, so
    the batched result is bit-identical per column.
    """
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
    if values.shape[0] == 0 or num_rows == 0:
        return out
    starts = displ[:-1]
    nonempty = starts < displ[1:]
    if not nonempty.any():
        return out
    out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


@dataclass
class CSRMatrix:
    """Compressed-sparse-row matrix with explicit displ/ind/val arrays.

    The arrays correspond one-to-one to Listing 2 of the paper:
    ``displ`` (row offsets, ``int64``), ``ind`` (column indices,
    ``int32``) and ``val`` (intersection lengths, ``float32`` by
    default).  ``value_dtype`` opts a matrix into ``float64`` value
    storage — the full double-precision reference path; construction
    coerces ``val`` to exactly this dtype, so a matrix can never carry
    values wider than its declared precision by accident.
    """

    displ: np.ndarray
    ind: np.ndarray
    val: np.ndarray
    num_cols: int
    value_dtype: str = "float32"

    def __post_init__(self) -> None:
        vdtype = np.dtype(self.value_dtype)
        if vdtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"value_dtype must be float32 or float64, got {self.value_dtype!r}"
            )
        self.value_dtype = vdtype.name
        self.displ = np.asarray(self.displ, dtype=np.int64)
        self.ind = np.asarray(self.ind, dtype=np.int32)
        self.val = np.asarray(self.val, dtype=vdtype)
        if self.displ.ndim != 1 or self.displ.shape[0] < 1:
            raise ValueError("displ must be a 1D offsets array")
        if self.ind.shape != self.val.shape:
            raise ValueError("ind and val must have identical shapes")
        if self.displ[-1] != self.ind.shape[0]:
            raise ValueError("displ[-1] must equal nnz")
        if self.num_cols < 0:
            raise ValueError("num_cols must be non-negative")

    # -- construction -------------------------------------------------

    @classmethod
    def from_scipy(
        cls, matrix: sp.spmatrix, dtype: str | np.dtype = "float32"
    ) -> "CSRMatrix":
        """Convert any scipy sparse matrix into our dtypes.

        A stream is copied only where its dtype changes: a canonical
        CSR matrix's int32 ``indices`` and ``data`` already in ``dtype``
        are shared, not duplicated.  ``dtype`` selects the value-storage
        precision (``float32`` default, ``float64`` for the
        double-precision reference path).
        """
        csr = sp.csr_matrix(matrix)
        csr.sum_duplicates()
        return cls(
            displ=csr.indptr.astype(np.int64, copy=False),
            ind=csr.indices.astype(np.int32, copy=False),
            val=csr.data,
            num_cols=csr.shape[1],
            value_dtype=np.dtype(dtype).name,
        )

    def astype(self, dtype: str | np.dtype) -> "CSRMatrix":
        """Copy of this matrix with values stored in ``dtype``."""
        return CSRMatrix(
            displ=self.displ,
            ind=self.ind,
            val=self.val,
            num_cols=self.num_cols,
            value_dtype=np.dtype(dtype).name,
        )

    def to_scipy(self) -> sp.csr_matrix:
        """View as a scipy CSR matrix (shares the arrays).

        ``ind`` and ``val`` are shared; only ``displ`` is narrowed to
        scipy's index dtype, an O(rows) copy.
        """
        return sp.csr_matrix(
            (self.val, self.ind, self.displ), shape=self.shape, copy=False
        )

    def __reduce__(self):
        """Pickle and copy the array form, never the cached kernel view."""
        return (
            type(self).from_arrays,
            (self.to_arrays(), self.num_rows, self.num_cols, 0),
        )

    # -- properties ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.displ.shape[0] - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nnz(self) -> int:
        return int(self.ind.shape[0])

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros in each row."""
        return np.diff(self.displ)

    # -- kernels -------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Baseline gather-only SpMV (paper Listing 2): ``y = A x``.

        Each row is summed sequentially in stored order.  For a slab,
        each irregular gather ``x[ind[j], :]`` pulls ``S`` contiguous
        elements, amortizing the random access.  A slab of
        :data:`GATHER_MIN_COLUMNS` or more columns runs the compiled row
        gather, below that scipy's loop: the same bits.
        """
        x = spmv_input(x, self.num_cols)
        if x.ndim == 2 and x.shape[1] >= GATHER_MIN_COLUMNS:
            y = native.gather(self, x)
            if y is not None:
                return y
        return self._scipy_view() @ x

    def spmv_transposed(self, y: np.ndarray) -> np.ndarray:
        """``x = A^T y`` from this matrix's own arrays, with no ``A^T``.

        The CSR arrays of ``A`` are the CSC arrays of ``A^T``: scipy's
        ``csc_matvec(s)`` scatters each row's products into its columns
        in increasing row order, from +0 — the order in which the scan
        transpose's gather sums them, so the result is bit-identical to
        ``scan_transpose(self).spmv(y)``, vector and slab.  A slab of
        exactly :data:`SCATTER_COLUMNS` columns runs the compiled row
        scatter, in that same order.
        """
        y = spmv_input(y, self.num_rows)
        if y.ndim == 2 and y.shape[1] == SCATTER_COLUMNS:
            x = native.scatter8(self, y)
            if x is not None:
                return x
        return self._scipy_view().T @ y

    def _scipy_view(self) -> sp.csr_matrix:
        view = getattr(self, "_view", None)
        if view is None:
            view = self._view = self.to_scipy()
        return view

    def row_sums(self) -> np.ndarray:
        """Sum of values per row (used by SIRT scaling)."""
        return csr_row_sums(self.val, self.displ, self.num_rows)

    def col_sums(self) -> np.ndarray:
        """Sum of values per column (used by SIRT scaling): the
        transposed product with ones, each column summed in row order."""
        return self.spmv_transposed(np.ones(self.num_rows, self.val.dtype))

    def permute(self, row_perm: np.ndarray | None, col_rank: np.ndarray | None) -> "CSRMatrix":
        """Reindex rows and/or columns.

        ``row_perm[k]`` is the old row placed at new row ``k`` (curve
        order to storage order; any subset or repetition of old rows is
        allowed — row subsets are how SGD minibatch operators are
        built); ``col_rank[old]`` is the new index of an old column and
        must be a bijection on ``[0, num_cols)``
        (:func:`checked_rank`).  This is how a domain ordering is
        applied to a row-major matrix without re-tracing; the builder
        applies the same ranks while it traces.
        """
        displ, ind, val = self.displ, self.ind, self.val
        if row_perm is not None:
            row_perm = np.asarray(row_perm, dtype=np.int64)
            if row_perm.ndim != 1:
                raise ValueError(f"row_perm must be 1D, got shape {row_perm.shape}")
            if row_perm.size and (
                row_perm.min() < 0 or row_perm.max() >= self.num_rows
            ):
                raise ValueError(
                    f"row_perm indexes rows outside [0, {self.num_rows})"
                )
            counts = np.diff(displ)[row_perm]
            new_displ = np.zeros(len(row_perm) + 1, dtype=np.int64)
            np.cumsum(counts, out=new_displ[1:])
            gather = _concat_ranges(displ[row_perm], counts)
            ind = ind[gather]
            val = val[gather]
            displ = new_displ
        if col_rank is not None:
            col_rank = checked_rank(col_rank, self.num_cols, "col_rank")
            ind = col_rank[ind].astype(np.int32)
        return CSRMatrix(
            displ=displ,
            ind=ind,
            val=val,
            num_cols=self.num_cols,
            value_dtype=self.value_dtype,
        )

    def partition_slice(
        self, part0: int, part1: int, partition_size: int
    ) -> "CSRMatrix":
        """Sub-matrix of the row partitions ``[part0, part1)``.

        CSR rows carry no blocking of their own, so ``partition_size``
        (rows per partition) is the caller's.  ``ind``/``val`` are views
        into this matrix's arrays (only the rebased ``displ`` is a fresh
        allocation), so worker-owned slices of the parallel backend
        cost O(rows) memory, not O(nnz).
        """
        row0, row1 = RowPartitions(self.num_rows, partition_size).row_range(
            part0, part1
        )
        lo, hi = self.displ[row0], self.displ[row1]
        return CSRMatrix(
            displ=self.displ[row0 : row1 + 1] - lo,
            ind=self.ind[lo:hi],
            val=self.val[lo:hi],
            num_cols=self.num_cols,
            value_dtype=self.value_dtype,
        )

    # -- array form ----------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The Listing-2 arrays under their operator-archive names."""
        return {"displ": self.displ, "ind": self.ind, "val": self.val}

    @classmethod
    def from_arrays(
        cls, arrays, num_rows: int, num_cols: int, partition_size: int
    ) -> "CSRMatrix":
        """Inverse of :meth:`to_arrays`, as views of ``arrays``.

        The value precision is the stored ``val`` dtype — an fp64
        matrix must not be downcast to the float32 default on the way
        through an archive or a shared-memory segment.
        ``partition_size`` is part of the signature every layout
        shares; CSR rows are not blocked, so it is unused here.
        """
        matrix = cls(
            displ=arrays["displ"],
            ind=arrays["ind"],
            val=arrays["val"],
            num_cols=num_cols,
            value_dtype=arrays["val"].dtype.name,
        )
        if matrix.num_rows != num_rows:
            raise ValueError(
                f"displ describes {matrix.num_rows} rows, expected {num_rows}"
            )
        return matrix

    def sort_rows_by_index(self) -> "CSRMatrix":
        """Sort the nonzeros of each row by column index (ascending).

        Keeps the irregular gathers of each row monotone in the ordered
        domain — required before stage assignment in the buffered
        kernel and beneficial for cache behaviour.

        This is scipy's compiled in-place sort, run on a copy.  That
        sort is not stable, so a row holding one column twice has no
        defined result and is rejected (``from_scipy`` sums duplicates;
        a traced matrix has none).
        """
        view = sp.csr_matrix(
            (self.val, self.ind, self.displ), shape=self.shape, copy=True
        )
        view.sort_indices()
        if not view.has_canonical_format:
            raise ValueError("a row holds the same column index more than once")
        return CSRMatrix(
            displ=self.displ.copy(),
            ind=view.indices,
            val=view.data,
            num_cols=self.num_cols,
            value_dtype=self.value_dtype,
        )


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of ``concat(arange(s, s + c) for s, c in zip(starts, counts))``.

    Vectorized: total length ``counts.sum()``.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    nonzero = counts > 0
    first_positions = (ends - counts)[nonzero]
    out[first_positions[0]] = starts[nonzero][0]
    if first_positions.shape[0] > 1:
        prev_end_value = starts[nonzero][:-1] + counts[nonzero][:-1] - 1
        out[first_positions[1:]] = starts[nonzero][1:] - prev_end_value
    return np.cumsum(out)
