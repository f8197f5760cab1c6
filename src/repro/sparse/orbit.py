"""The orbit layout: ``A`` held as its traced rows ``Q`` and a ray group.

Each row of ``A`` is a row of ``Q`` with its columns renamed by one of
the group's pixel maps (:class:`repro.geometry.RayGroup`), so ``A x`` is
``(Q @ x[G]).ravel()[out]`` and ``A^T y`` is ``Q``'s CSC loop over ``y``
spread into ``(Q rows, slots)``, gathered back through the inverse maps
and summed: one SpMM reads ``Q`` once for all slots.  A row sums in
``Q``'s column order, so products equal the csr kernel's on ``A`` to
rounding (``docs/contracts.md``); a slab column is the vector call's
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .csr import CSRMatrix, spmv_input
from .partition import RowPartitions

__all__ = ["MIN_SLOTS", "OrbitMatrix", "orbit_group"]

#: Fewest slots a ray group needs before a plan stores ``Q`` alone:
#: scipy's multi-vector CSR loop pays below ~8 columns (2 slots measured
#: 0.62x of the plain SpMV pair at 256x256, 4 slots 1.40x, 8 slots 2.10x).
MIN_SLOTS = 8

# Expansion renames and sorts about this many nonzeros of ``A`` at a
# time (fastest of 8k-128k at 256x256 and 180x128: the chunk stays in cache).
_EXPAND_CHUNK = 1 << 15


def orbit_group(geometry):
    """``geometry``'s ray group when a plan stores its traced rows
    alone (at least :data:`MIN_SLOTS` slots), else ``None``."""
    group = geometry.ray_group()
    return group if group is not None and len(group.maps) >= MIN_SLOTS else None


class OrbitMatrix:
    """``A`` as ``stored`` (``Q``, ordered columns) and two indices:
    ``gather[j, k]`` is the ordered column slot ``k`` moves column ``j``
    to, and ordered ray ``r`` is ``Q`` row ``out[r] // slots`` in slot
    ``out[r] % slots``.  The steps around ``Q``'s kernels are public, so
    a parallel engine can run ``Q`` and ``Q^T`` by rows."""

    def __init__(self, stored: CSRMatrix, gather: np.ndarray, out: np.ndarray):
        self.stored = stored
        self.gather = np.ascontiguousarray(gather, dtype=np.intp)
        self.out = np.ascontiguousarray(out, dtype=np.intp)
        self.slots = self.gather.shape[1]
        if self.gather.shape[0] != stored.num_cols:
            raise ValueError("gather must have one row per column of Q")
        # fold[k, c] is the flat (pixel, slot) entry slot k brings to c.
        fold = np.empty(self.gather.size, np.intp)
        at = self.gather + np.arange(self.slots) * stored.num_cols
        fold[at.ravel()] = np.arange(fold.size)
        self._fold = fold.reshape(self.slots, stored.num_cols)
        #: Nonzeros of ``A`` (not of ``Q``), counted without expanding.
        self.nnz = int(stored.row_nnz()[self.out // self.slots].sum())

    @classmethod
    def from_group(cls, stored: CSRMatrix, group, col_rank, row_perm) -> "OrbitMatrix":
        """The layout of ``group`` (:class:`repro.geometry.RayGroup`) in
        ordered coordinates: ``col_rank[pixel]`` is a row-major pixel's
        column, ``row_perm[row]`` the row-major ray at an ordered row
        (``None``: row-major).  ``stored`` holds the group's traced rays
        in ascending order."""
        slots, pixels = group.maps.shape
        rank = np.arange(pixels) if col_rank is None else np.asarray(col_rank)
        perm = np.empty_like(rank)
        perm[rank] = np.arange(pixels)
        gather = rank.take(group.maps.T.take(perm, axis=0))
        stored_rays = group.stored_rays()
        if len(stored_rays) != stored.num_rows:
            raise ValueError(
                f"Q has {stored.num_rows} rows, the group traces {len(stored_rays)} rays"
            )
        out = np.searchsorted(stored_rays, group.source) * slots + group.slot
        return cls(stored, gather, out if row_perm is None else out[row_perm])

    @property
    def num_rows(self) -> int:
        return len(self.out)

    @property
    def num_cols(self) -> int:
        return self.stored.num_cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    # -- kernels -------------------------------------------------------

    def spread_pixels(self, x: np.ndarray) -> np.ndarray:
        """``x[G]``: the ``(pixels, slots * S)`` input of ``Q``'s SpMM."""
        # Widths are stated, not inferred, so an empty rank's are defined.
        width = self.slots * math.prod(x.shape[1:])
        return x.take(self.gather, axis=0).reshape(self.num_cols, width)

    def pick_rays(self, r: np.ndarray, like: np.ndarray) -> np.ndarray:
        """Each ordered ray's entry of ``Q``'s ``(Q rows, slots * S)`` product."""
        return r.reshape((-1,) + like.shape[1:]).take(self.out, axis=0)

    def spread_rays(self, y: np.ndarray) -> np.ndarray:
        """``y`` scattered into ``(Q rows, slots * S)``, zeros elsewhere."""
        spread = np.zeros((self.stored.num_rows * self.slots,) + y.shape[1:], y.dtype)
        spread[self.out] = y
        return spread.reshape(self.stored.num_rows, self.slots * math.prod(y.shape[1:]))

    def fold_pixels(self, z: np.ndarray, like: np.ndarray) -> np.ndarray:
        """Sum over slots of ``Q^T``'s product gathered back through the
        inverse maps, slot by slot in order (so a slab column is the
        vector call's)."""
        z = z.reshape((-1,) + like.shape[1:])
        x = z.take(self._fold[0], axis=0)
        for k in range(1, self.slots):
            x += z.take(self._fold[k], axis=0)
        return x

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``y = A x`` as one ``slots``-column SpMM over ``Q``."""
        x = spmv_input(x, self.num_cols)
        return self.pick_rays(self.stored.spmv(self.spread_pixels(x)), x)

    def spmv_transposed(self, y: np.ndarray) -> np.ndarray:
        """``x = A^T y`` through ``Q``'s CSC loop: an 8-column row scatter
        over ``Q`` for a vector."""
        y = spmv_input(y, self.num_rows)
        return self.fold_pixels(self.stored.spmv_transposed(self.spread_rays(y)), y)

    def row_sums(self) -> np.ndarray:
        return self.stored.row_sums()[self.out // self.slots]

    def col_sums(self) -> np.ndarray:
        return self.spmv_transposed(np.ones(self.num_rows, self.stored.val.dtype))

    # -- the expanded matrix -------------------------------------------

    def expand(self, out=None) -> CSRMatrix:
        """``A`` itself, each row's columns ascending.

        ``out(nnz)`` returns the ``(ind, val)`` arrays to fill (fresh
        ones by default).  Rows are renamed and sorted a chunk at a
        time: one ``np.sort`` of a packed int64 key (row in the chunk,
        column, position) per chunk.  A row of ``Q`` holds each column
        once, so the sort has no ties.
        """
        stored, (rows, slots) = self.stored, np.divmod(self.out, self.slots)
        counts = stored.row_nnz()[rows]
        displ = np.zeros(self.num_rows + 1, np.int64)
        np.cumsum(counts, out=displ[1:])
        nnz = int(displ[-1])
        if nnz > np.iinfo(np.int32).max:
            raise OverflowError(f"{nnz} nonzeros do not fit the int32 row offsets of A")
        if out is None:
            ind, val = np.empty(nnz, np.int32), np.empty(nnz, stored.val.dtype)
        else:
            ind, val = out(nnz)
        flat = self.gather.ravel()
        cbits = (self.num_cols - 1).bit_length()
        shift = stored.displ[rows] - displ[:-1]  # a row's offset in Q less its offset in A
        bounds = [*np.searchsorted(displ, np.arange(0, nnz, _EXPAND_CHUNK)), self.num_rows]
        for a, b in zip(bounds[:-1], bounds[1:]):
            lo, hi = displ[a], displ[b]
            count = counts[a:b]
            position = np.arange(hi - lo)
            src = position + lo + np.repeat(shift[a:b], count)
            key = np.repeat(np.arange(b - a, dtype=np.int64) << cbits, count)
            key |= flat[stored.ind[src] * self.slots + np.repeat(slots[a:b], count)]
            pbits = int(hi - lo).bit_length()
            key <<= pbits
            key |= position
            key.sort()
            val[lo:hi] = stored.val[src[key & ((1 << pbits) - 1)]]
            key >>= pbits
            ind[lo:hi] = key & ((1 << cbits) - 1)
        return CSRMatrix(displ, ind, val, self.num_cols, np.dtype(val.dtype).name)

    # -- row slices ------------------------------------------------------

    def partition_slice(self, part0: int, part1: int, partition_size: int) -> "OrbitMatrix":
        """The rows of partitions ``[part0, part1)``: the same ``Q`` and
        gather (shared), ``out`` cut to the range."""
        row0, row1 = RowPartitions(self.num_rows, partition_size).row_range(part0, part1)
        return OrbitMatrix(self.stored, self.gather, self.out[row0:row1])
