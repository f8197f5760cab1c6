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

The kernel, :meth:`BufferedMatrix.spmv`, evaluates Listing 3's dataflow
with whole-array numpy operations.  The literal partition/stage/row
loop nest is :func:`repro.cachesim.listing3_spmv` — the reference the
tests compare the kernel against, next to the cache simulator that
replays its access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix, csr_row_sums, spmv_input
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
        """Pickle the array form, never the lazy index plan.

        ``_vector_plan`` caches derived index arrays on the instance;
        carrying that cache through pickling would persist megabytes of
        redundant state.  It is rebuilt lazily on first use instead.
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

    def _vector_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays of the kernel, built lazily.

        Returns ``(global_ind, keep, rows_kept)``: the buffer-global
        index of each nonzero, the mask of real (non-padding) row
        slots, and the output row of each kept slot.  Cached on the
        instance — amortized across all RHS columns of every call.
        """
        plan = getattr(self, "_plan", None)
        if plan is None:
            partsize = self.partitions.partition_size
            num_stages = self.num_stages
            stage_of_slot = np.repeat(np.arange(num_stages, dtype=np.int64), partsize)
            slot_nnz = np.diff(self.displ)
            stage_of_nnz = np.repeat(stage_of_slot, slot_nnz)
            global_ind = self.stagedispl[stage_of_nnz] + self.ind
            # Row j of partition p accumulates its slot in every stage.
            part_of_stage = np.repeat(
                np.arange(self.partitions.num_partitions, dtype=np.int64),
                np.diff(self.partdispl),
            )
            rows_of_slot = (
                part_of_stage.repeat(partsize) * partsize
                + np.tile(np.arange(partsize, dtype=np.int64), num_stages)
            )
            keep = rows_of_slot < self.num_rows
            plan = (global_ind, keep, rows_of_slot[keep])
            self._plan = plan
        return plan

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Staged SpMV (paper Listing 3): ``y = A x``, whole-array.

        Gathers ``x`` through ``map`` once (the concatenation of all
        stage buffers), forms all products, and row-reduces with the
        stage-grouped ``displ``.  Numerically identical to the literal
        loop nest (:func:`repro.cachesim.listing3_spmv`).
        """
        x = spmv_input(x, self.num_cols)
        staged = x[self.map]  # all stage buffers back to back
        # Global buffer-index of each nonzero: stage offset + local uint16.
        global_ind, keep, rows_kept = self._vector_plan()
        val = self.val if x.ndim == 1 else self.val[:, None]
        slot_sums = csr_row_sums(
            val * staged[global_ind],
            self.displ,
            self.num_stages * self.partitions.partition_size,
        )
        y = np.zeros(
            (self.num_rows,) + x.shape[1:],
            dtype=np.result_type(x.dtype, np.float32),
        )
        np.add.at(y, rows_kept, slot_sums[keep])
        return y

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

    partdispl = np.zeros(parts.num_partitions + 1, dtype=np.int64)
    stage_sizes: list[int] = []
    map_parts: list[np.ndarray] = []
    displ_parts: list[np.ndarray] = []
    ind_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []

    for part in range(parts.num_partitions):
        row0, row1 = parts.bounds(part)
        lo, hi = matrix.displ[row0], matrix.displ[row1]
        cols = matrix.ind[lo:hi]
        vals = matrix.val[lo:hi]
        rows_local = np.repeat(
            np.arange(row1 - row0, dtype=np.int64), np.diff(matrix.displ[row0 : row1 + 1])
        )
        # Distinct inputs of the partition, in domain (ascending) order.
        distinct, inverse = np.unique(cols, return_inverse=True)
        num_stages = max(1, -(-distinct.shape[0] // buffer_elements))
        stage_of_nnz = inverse // buffer_elements
        local_ind = (inverse % buffer_elements).astype(np.uint16)

        # Group this partition's nonzeros by (stage, row), keeping the
        # within-row domain order.
        order = np.lexsort((np.arange(cols.shape[0]), rows_local, stage_of_nnz))
        sorted_stage = stage_of_nnz[order]
        sorted_rows = rows_local[order]
        ind_parts.append(local_ind[order])
        val_parts.append(vals[order])

        # Per-(stage, row-slot) counts -> displ block for this partition.
        partsize = parts.partition_size
        slot = sorted_stage * partsize + sorted_rows
        counts = np.bincount(slot, minlength=num_stages * partsize)
        displ_parts.append(counts.astype(np.int64))

        # Stage buffers: consecutive chunks of the distinct-input list.
        for s in range(num_stages):
            chunk = distinct[s * buffer_elements : (s + 1) * buffer_elements]
            map_parts.append(chunk.astype(np.int32))
            stage_sizes.append(chunk.shape[0])
        partdispl[part + 1] = partdispl[part] + num_stages

    stagedispl = np.zeros(len(stage_sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(stage_sizes, dtype=np.int64), out=stagedispl[1:])
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
