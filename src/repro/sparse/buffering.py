"""Multi-stage input buffering (paper Section 3.3, Listing 3).

For each row partition, the distinct input elements it gathers are
collected (in domain order, so Hilbert locality carries over), split
into *stages* of at most one buffer's worth, and the partition's
nonzeros are regrouped by stage.  At execution time each stage is
explicitly copied from the input vector into a small buffer
(``input[i] = x[map[start + i]]``) and the stage's nonzeros then gather
from the buffer with **16-bit** local indices instead of 32-bit global
ones — the 25 % regular-bandwidth saving of Section 3.3.5.

Data structures follow Listing 3 exactly:

* ``partdispl`` — stage ranges per partition;
* ``stagedispl`` / ``stagenz`` — per-stage offsets into ``map``;
* ``map`` — global input indices to stage;
* ``displ`` — nonzero offsets indexed by ``stage * partsize + j``
  (row ``j`` within the partition);
* ``ind`` (uint16) / ``val`` — buffer-local indices and values in the
  stage-grouped order.

The kernel, :meth:`BufferedMatrix.spmv`, runs Listing 3's dataflow on
scipy's compiled CSR loop: the layout *is* the CSR matrix whose rows
are its (stage, row) slots in stage-grouped order — ``displ`` and
``val`` as stored, the 16-bit local indices resolved through ``map``
into one 32-bit column array — followed by a fold of each row's slots.
That view is derived state, built at the first kernel call and never
at set-up, persisted, pickled or shipped.  The literal
partition/stage/row loop nest is :func:`repro.cachesim.listing3_spmv` —
the reference the tests compare the kernel against, next to the cache
simulator that replays its access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .csr import CSRMatrix, spmv_input
from .partition import RowPartitions

__all__ = [
    "BufferedMatrix",
    "build_buffered",
    "validate_buffer_bytes",
    "BYTES_PER_INPUT_ELEMENT",
]

#: Input elements are float32.
BYTES_PER_INPUT_ELEMENT = 4

#: uint16 buffer addressing caps the buffer at 2^16 elements = 256 KB,
#: exactly the limit stated in paper Section 3.3.5.
_MAX_BUFFER_ELEMENTS = 1 << 16


def validate_buffer_bytes(buffer_bytes: int) -> int:
    """Validate a buffered-kernel capacity, returning the element count.

    Shared by :func:`build_buffered` and ``OperatorConfig`` so an
    out-of-range capacity fails at config construction, not after
    tracing has already been paid for.  The capacity must be a whole
    number of float32 elements — a non-multiple of 4 would silently
    floor (30 KB + 3 B behaving as 30 KB), so it is rejected instead.
    """
    if buffer_bytes % BYTES_PER_INPUT_ELEMENT:
        raise ValueError(
            f"buffer_bytes must be a multiple of {BYTES_PER_INPUT_ELEMENT} "
            f"(float32 elements), got {buffer_bytes}"
        )
    buffer_elements = buffer_bytes // BYTES_PER_INPUT_ELEMENT
    if buffer_elements < 1:
        raise ValueError(f"buffer too small: {buffer_bytes} bytes")
    if buffer_elements > _MAX_BUFFER_ELEMENTS:
        raise ValueError(
            f"buffer of {buffer_bytes} bytes exceeds 16-bit addressing "
            f"({_MAX_BUFFER_ELEMENTS * BYTES_PER_INPUT_ELEMENT} bytes max)"
        )
    return buffer_elements


@dataclass
class BufferedMatrix:
    """A CSR matrix re-laid-out for multi-stage input buffering."""

    partitions: RowPartitions
    buffer_elements: int
    partdispl: np.ndarray  # (numparts + 1,) stage ranges
    stagedispl: np.ndarray  # (numstages + 1,) offsets into map
    map: np.ndarray  # (sum stagenz,) int32 global input indices
    displ: np.ndarray  # (numstages * partsize + 1,) nonzero offsets
    ind: np.ndarray  # (nnz,) uint16 buffer-local indices
    val: np.ndarray  # (nnz,) values (float32, or float64 on the fp64 path)
    num_cols: int

    # -- properties ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.partitions.num_rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nnz(self) -> int:
        return int(self.ind.shape[0])

    @property
    def num_stages(self) -> int:
        return self.stagedispl.shape[0] - 1

    @property
    def buffer_bytes(self) -> int:
        """Configured buffer capacity in bytes."""
        return self.buffer_elements * BYTES_PER_INPUT_ELEMENT

    def stages_per_partition(self) -> np.ndarray:
        """Stage count of each partition (paper Fig. 6(b))."""
        return np.diff(self.partdispl)

    # -- array form ----------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The Listing-3 arrays under their operator-archive names."""
        return {
            "buffer_elements": np.asarray(self.buffer_elements, dtype=np.int64),
            "partdispl": self.partdispl,
            "stagedispl": self.stagedispl,
            "map": self.map,
            "displ": self.displ,
            "ind": self.ind,
            "val": self.val,
        }

    @classmethod
    def from_arrays(
        cls, arrays, num_rows: int, num_cols: int, partition_size: int
    ) -> "BufferedMatrix":
        """Inverse of :meth:`to_arrays`, as views of ``arrays``."""
        return cls(
            partitions=RowPartitions(num_rows, partition_size),
            buffer_elements=np.asarray(arrays["buffer_elements"]).item(),
            partdispl=arrays["partdispl"],
            stagedispl=arrays["stagedispl"],
            map=arrays["map"],
            displ=arrays["displ"],
            ind=arrays["ind"],
            val=arrays["val"],
            num_cols=num_cols,
        )

    def __reduce__(self):
        """Pickle and copy the array form, never the cached kernel view.

        The view holds a 4 B/nnz column array derived from ``map`` and
        ``ind``; carrying it through pickling would persist megabytes
        of redundant state.  It is rebuilt at the next kernel call.
        """
        return (
            type(self).from_arrays,
            (
                self.to_arrays(),
                self.num_rows,
                self.num_cols,
                self.partitions.partition_size,
            ),
        )

    def map_bytes(self) -> int:
        """Extra memory traffic for staging: the ``map`` reads."""
        return int(self.map.shape[0]) * 4

    def regular_bytes_per_fma(self) -> float:
        """Regular-stream bytes per FMA: value bytes + 2 B uint16 index.

        6 B for the default float32 values (paper Section 3.3.5), 10 B
        on the opt-in float64 path.
        """
        return float(self.val.dtype.itemsize + 2)

    # -- kernels -------------------------------------------------------

    def _compiled(self) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
        """The kernel's ``(slots, fold)`` pair, built at the first call.

        ``slots`` is the CSR matrix of the (stage, row) slots over the
        layout's own ``displ`` and ``val``; its column array resolves
        each stage's 16-bit indices through that stage's window of
        ``map``, one stage at a time, so no nnz-sized temporary exists
        beside it.  ``fold`` is the 0/1 matrix summing the slots of
        each output row in stage order — ``None`` when every partition
        has a single stage, where slot ``i`` is row ``i``.
        """
        compiled = getattr(self, "_view", None)
        if compiled is not None:
            return compiled
        partsize = self.partitions.partition_size
        stage_nnz = self.displ[::partsize]  # nonzero offset of each stage
        cols = np.empty(self.nnz, dtype=self.map.dtype)
        for stage in range(self.num_stages):
            lo, hi = stage_nnz[stage], stage_nnz[stage + 1]
            window = self.map[self.stagedispl[stage] : self.stagedispl[stage + 1]]
            np.take(window, self.ind[lo:hi], out=cols[lo:hi])
        fold = None
        displ = self.displ
        if self.num_stages == self.partitions.num_partitions:
            # Only the last partition's padding slots lie past the rows.
            displ = displ[: self.num_rows + 1]
        else:
            part_of_stage = np.repeat(
                np.arange(self.partitions.num_partitions), np.diff(self.partdispl)
            )
            row_of_slot = (
                part_of_stage[:, None] * partsize + np.arange(partsize)
            ).ravel()
            real = np.flatnonzero(row_of_slot < self.num_rows)
            fold = sp.csr_matrix(
                (
                    np.ones(real.shape[0], dtype=self.val.dtype),
                    (row_of_slot[real], real),
                ),
                shape=(self.num_rows, self.num_stages * partsize),
            )
        slots = sp.csr_matrix(
            (self.val, cols, displ),
            shape=(displ.shape[0] - 1, self.num_cols),
            copy=False,
        )
        self._view = (slots, fold)
        return self._view

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Staged SpMV (paper Listing 3): ``y = A x``, compiled.

        Every (stage, row) slot is summed sequentially in stored order,
        then each row's slots are summed in stage order — the literal
        loop nest (:func:`repro.cachesim.listing3_spmv`) up to the
        association of the sums inside one slot.
        """
        x = spmv_input(x, self.num_cols)
        slots, fold = self._compiled()
        y = slots @ x
        return y if fold is None else fold @ y

    def partition_slice(
        self, part0: int, part1: int, partition_size: int
    ) -> "BufferedMatrix":
        """View-based sub-layout of the partition range ``[part0, part1)``.

        The stage-grouped arrays of a contiguous partition range are
        themselves contiguous, so the slice shares ``map``/``ind``/
        ``val`` storage with the parent; only the small offset arrays
        are rebased copies.  The kernel on the slice produces exactly
        the rows ``[part0 * partsize, min(part1 * partsize, num_rows))``
        of the parent's result, bit-identically — the contract the
        partition-parallel backend is built on.  ``partition_size``
        must be the one the layout was built with.
        """
        partsize = self.partitions.partition_size
        if partition_size != partsize:
            raise ValueError(
                f"layout is partitioned by {partsize} rows, not {partition_size}"
            )
        row0, row1 = self.partitions.row_range(part0, part1)
        s0, s1 = int(self.partdispl[part0]), int(self.partdispl[part1])
        m0, m1 = int(self.stagedispl[s0]), int(self.stagedispl[s1])
        d0 = int(self.displ[s0 * partsize])
        d1 = int(self.displ[s1 * partsize])
        return BufferedMatrix(
            partitions=RowPartitions(row1 - row0, partsize),
            buffer_elements=self.buffer_elements,
            partdispl=self.partdispl[part0 : part1 + 1] - s0,
            stagedispl=self.stagedispl[s0 : s1 + 1] - m0,
            map=self.map[m0:m1],
            displ=self.displ[s0 * partsize : s1 * partsize + 1] - d0,
            ind=self.ind[d0:d1],
            val=self.val[d0:d1],
            num_cols=self.num_cols,
        )


def build_buffered(
    matrix: CSRMatrix,
    partition_size: int,
    buffer_bytes: int = 32 * 1024,
) -> BufferedMatrix:
    """Build the multi-stage buffered layout of ``matrix``.

    Parameters
    ----------
    matrix:
        CSR matrix whose columns are already in the desired domain
        order (stages follow that order, so Hilbert ordering must be
        applied *before* buffering — the paper applies the
        optimizations in that order for the same reason).
    partition_size:
        Rows per partition (thread block size).
    buffer_bytes:
        Buffer capacity; at most 256 KB because of uint16 addressing.
    """
    buffer_elements = validate_buffer_bytes(buffer_bytes)
    parts = RowPartitions(matrix.num_rows, partition_size)
    partsize = parts.partition_size

    partdispl = np.zeros(parts.num_partitions + 1, dtype=np.int64)
    size_parts: list[np.ndarray] = []
    map_parts: list[np.ndarray] = []
    displ_parts: list[np.ndarray] = []
    ind_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    # Scratch shared by every partition, so each costs O(its nnz), not
    # O(num_cols): a stamp and a position per input column, and the
    # arange they use.
    rows_nnz = np.diff(matrix.displ)
    part_nnz = np.diff(matrix.displ[parts.all_bounds()], axis=1)
    arange = np.arange(part_nnz.max(initial=0), dtype=np.int64)
    stamp = np.empty(matrix.num_cols, dtype=np.int64)
    pos = np.empty(matrix.num_cols, dtype=np.int64)

    for part in range(parts.num_partitions):
        row0, row1 = parts.bounds(part)
        lo, hi = matrix.displ[row0], matrix.displ[row1]
        cols = matrix.ind[lo:hi]
        vals = matrix.val[lo:hi]
        # Distinct inputs of the partition, in domain (ascending) order:
        # exactly one entry of each column keeps its own stamp.
        here = arange[: cols.shape[0]]
        stamp[cols] = here
        distinct = np.sort(cols[stamp[cols] == here])
        pos[distinct] = arange[: distinct.shape[0]]
        inverse = pos[cols]
        num_stages = max(1, -(-distinct.shape[0] // buffer_elements))
        local_ind = (inverse % buffer_elements).astype(np.uint16)

        # Group this partition's nonzeros by (stage, row), keeping the
        # within-row domain order, and count each (stage, row) slot.  A
        # one-stage partition is grouped already: its slots are its rows.
        if num_stages == 1:
            counts = np.zeros(partsize, dtype=np.int64)
            counts[: row1 - row0] = rows_nnz[row0:row1]
        else:
            rows_local = np.repeat(
                np.arange(row1 - row0, dtype=np.int64), rows_nnz[row0:row1]
            )
            key = inverse // buffer_elements * partsize + rows_local
            counts = np.bincount(key, minlength=num_stages * partsize)
            if num_stages * partsize <= 1 << 16:
                key = key.astype(np.uint16)  # numpy radix-sorts 16-bit keys
            order = np.argsort(key, kind="stable")
            local_ind, vals = local_ind[order], vals[order]
        ind_parts.append(local_ind)
        val_parts.append(vals)
        displ_parts.append(counts)

        # Stage buffers: consecutive chunks of the distinct-input list.
        map_parts.append(distinct.astype(np.int32))
        starts = np.arange(num_stages, dtype=np.int64) * buffer_elements
        size_parts.append(np.minimum(buffer_elements, distinct.shape[0] - starts))
        partdispl[part + 1] = partdispl[part] + num_stages

    stage_sizes = np.concatenate(size_parts) if size_parts else np.empty(0, np.int64)
    stagedispl = np.zeros(stage_sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(stage_sizes, out=stagedispl[1:])
    all_counts = (
        np.concatenate(displ_parts) if displ_parts else np.empty(0, dtype=np.int64)
    )
    displ = np.zeros(all_counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(all_counts, out=displ[1:])

    return BufferedMatrix(
        partitions=parts,
        buffer_elements=buffer_elements,
        partdispl=partdispl,
        stagedispl=stagedispl,
        map=np.concatenate(map_parts) if map_parts else np.empty(0, dtype=np.int32),
        displ=displ,
        ind=np.concatenate(ind_parts) if ind_parts else np.empty(0, dtype=np.uint16),
        val=np.concatenate(val_parts)
        if val_parts
        else np.empty(0, dtype=matrix.val.dtype),
        num_cols=matrix.num_cols,
    )
