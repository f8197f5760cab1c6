"""Partition-padded ELL format (paper Section 3.1.4).

The GPU variant of the MemXCT baseline stores each row partition
(thread block) in column-major ELL: the block's rows are padded to the
block-local maximum row length, so consecutive threads (rows) read
consecutive memory locations — coalesced access.  Two details the paper
calls out versus cuSPARSE:

* padding is applied **per partition**, not per matrix, so a few long
  rows don't blow up the whole matrix;
* padded slots hold index ``0`` and value ``0`` and are multiplied
  redundantly instead of branched around, avoiding thread divergence.

The kernel is that lockstep execution, compiled: a column-major slab
*is* a coordinate stream in warp order — slot 0 of every row of the
block, then slot 1, ... — whose row ids repeat ``0..rows-1``, so each
slab is read where it lies by scipy's ``coo_matvec``
(``coo_matmat_dense`` for a slab of right-hand sides) against one
call-local row-id stream.  Nothing is transposed, copied or kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .csr import CSRMatrix, spmv_input
from .partition import RowPartitions

__all__ = ["ELLPartitioned", "build_ell"]

# Resolved at import, by name.  The slab loop is younger than the
# declared scipy floor: without it a slab goes through ``coo_matvec``
# one column at a time — the matrix read S times, the bits the same.
_coo_matvec = _sparsetools.coo_matvec
_coo_matmat_dense = getattr(_sparsetools, "coo_matmat_dense", None)


@dataclass
class ELLPartitioned:
    """Partition-level padded ELL storage.

    Attributes
    ----------
    partitions:
        The row partitioning (one ELL slab per partition).
    widths:
        Pad width (max row nnz) of each partition.
    ind_slabs, val_slabs:
        Per-partition column-major arrays of shape
        ``(width, rows_in_partition)``; padded entries have index 0 and
        value 0.
    num_cols:
        Input-vector length.
    """

    partitions: RowPartitions
    widths: np.ndarray
    ind_slabs: list[np.ndarray]
    val_slabs: list[np.ndarray]
    num_cols: int

    @property
    def num_rows(self) -> int:
        return self.partitions.num_rows

    @property
    def padded_nnz(self) -> int:
        """Stored element count including padding."""
        return int(sum(slab.size for slab in self.val_slabs))

    @property
    def padding_overhead(self) -> float:
        """Fraction of stored elements that are padding."""
        real = sum(int(np.count_nonzero(slab)) for slab in self.val_slabs)
        total = self.padded_nnz
        return 1.0 - real / total if total else 0.0

    def partition_slice(
        self, part0: int, part1: int, partition_size: int
    ) -> "ELLPartitioned":
        """View-based sub-layout of the partition range ``[part0, part1)``.

        The per-partition slabs are shared (list slices of the same
        arrays), so worker-owned partition ranges of the parallel
        backend cost no slab copies.  The kernel on the slice produces
        exactly rows ``[part0 * partsize, min(part1 * partsize,
        num_rows))`` of the parent's result, bit-identically.
        ``partition_size`` must be the one the layout was built with.
        """
        partsize = self.partitions.partition_size
        if partition_size != partsize:
            raise ValueError(
                f"layout is partitioned by {partsize} rows, not {partition_size}"
            )
        row0, row1 = self.partitions.row_range(part0, part1)
        return ELLPartitioned(
            partitions=RowPartitions(row1 - row0, partsize),
            widths=self.widths[part0:part1],
            ind_slabs=self.ind_slabs[part0:part1],
            val_slabs=self.val_slabs[part0:part1],
            num_cols=self.num_cols,
        )

    # -- array form ----------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Pad widths plus the slabs flattened into one ``ind``/``val`` pair.

        ``val`` keeps the slabs' own dtype: an fp64 layout must not be
        rounded to float32 on the way to an archive or a worker.
        """

        def flat(slabs: list[np.ndarray], dtype) -> np.ndarray:
            if not slabs:
                return np.empty(0, dtype=dtype)
            return np.concatenate([slab.ravel() for slab in slabs])

        return {
            "widths": self.widths,
            "ind": flat(self.ind_slabs, np.int32).astype(np.int32, copy=False),
            "val": flat(self.val_slabs, np.float32),
        }

    @classmethod
    def from_arrays(
        cls, arrays, num_rows: int, num_cols: int, partition_size: int
    ) -> "ELLPartitioned":
        """Inverse of :meth:`to_arrays`: slabs are views of ``ind``/``val``."""
        parts = RowPartitions(num_rows, partition_size)
        widths = np.asarray(arrays["widths"], dtype=np.int64)
        ind_slabs: list[np.ndarray] = []
        val_slabs: list[np.ndarray] = []
        offset = 0
        for part in range(parts.num_partitions):
            start, stop = parts.bounds(part)
            shape = (int(widths[part]), stop - start)
            size = shape[0] * shape[1]
            ind_slabs.append(arrays["ind"][offset : offset + size].reshape(shape))
            val_slabs.append(arrays["val"][offset : offset + size].reshape(shape))
            offset += size
        return cls(
            partitions=parts,
            widths=widths,
            ind_slabs=ind_slabs,
            val_slabs=val_slabs,
            num_cols=num_cols,
        )

    # -- kernel --------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Coalesced-style SpMV: each slab streamed once, in warp order.

        A row is summed slot ``0 .. width-1`` in stored order, padding
        included (index 0, value 0: multiplied, not branched around, as
        on the GPU), so the result is bit-identical to
        :func:`repro.cachesim.ell_lockstep_spmv` and, for finite
        ``x[0]``, to :meth:`CSRMatrix.spmv` on the source matrix.  For
        an ``(n, S)`` slab each stored element drives all ``S`` columns.

        The result dtype covers ``x``, the stored values and float32,
        so stored values are widened, never rounded.  Per call: the
        result, one ``max(widths) x partition_size`` row-id stream and
        — only when the values are stored narrower than the result —
        one slab's values cast at a time.  Nothing scales with nnz and
        nothing is kept on the instance.
        """
        x = spmv_input(x, self.num_cols)
        if x.ndim == 2 and x.shape[1] > 1 and _coo_matmat_dense is None:
            return np.stack([self.spmv(column) for column in x.T], axis=1)
        dtype = np.result_type(x.dtype, np.float32, *self.val_slabs[:1])
        x = np.ascontiguousarray(x, dtype=dtype)
        y = np.zeros((self.num_rows,) + x.shape[1:], dtype=dtype)
        flat = x.ravel()
        columns = x.shape[1] if x.ndim == 2 else 1
        max_width = int(self.widths.max(initial=0))
        row_ids: dict[int, np.ndarray] = {}  # full partitions, ragged tail
        for part in range(self.partitions.num_partitions):
            start, stop = self.partitions.bounds(part)
            ind = self.ind_slabs[part].ravel()
            val = self.val_slabs[part].ravel().astype(dtype, copy=False)
            out = y[start:stop].ravel()
            rows = stop - start
            if rows not in row_ids:
                row_ids[rows] = np.tile(np.arange(rows, dtype=np.int32), max_width)
            if columns == 1:  # an (n, 1) slab is the vector, in memory too
                _coo_matvec(ind.size, row_ids[rows], ind, val, flat, out)
            else:
                _coo_matmat_dense(ind.size, columns, row_ids[rows], ind, val, flat, out)
        return y


def build_ell(matrix: CSRMatrix, partition_size: int) -> ELLPartitioned:
    """Convert a CSR matrix into partition-padded column-major ELL.

    The slabs inherit the matrix's value-storage dtype, so a
    ``float64`` matrix yields a full double-precision ELL layout.
    """
    parts = RowPartitions(matrix.num_rows, partition_size)
    widths = np.zeros(parts.num_partitions, dtype=np.int64)
    ind_slabs: list[np.ndarray] = []
    val_slabs: list[np.ndarray] = []
    row_nnz = matrix.row_nnz()
    for part in range(parts.num_partitions):
        start, stop = parts.bounds(part)
        nrows = stop - start
        width = int(row_nnz[start:stop].max()) if nrows else 0
        widths[part] = width
        ind = np.zeros((width, nrows), dtype=np.int32)
        val = np.zeros((width, nrows), dtype=matrix.val.dtype)
        for j, row in enumerate(range(start, stop)):
            lo, hi = matrix.displ[row], matrix.displ[row + 1]
            k = hi - lo
            ind[:k, j] = matrix.ind[lo:hi]
            val[:k, j] = matrix.val[lo:hi]
        ind_slabs.append(ind)
        val_slabs.append(val)
    return ELLPartitioned(
        partitions=parts,
        widths=widths,
        ind_slabs=ind_slabs,
        val_slabs=val_slabs,
        num_cols=matrix.num_cols,
    )
