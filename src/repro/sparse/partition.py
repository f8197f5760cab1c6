"""Row partitioning of SpMV (paper Section 3.1.2).

The outer SpMV loop is split into fixed-size row partitions: OpenMP
threads on KNL process many partitions each, CUDA thread blocks on GPU
process one partition each.  Partition locality — each partition's rows
forming a connected 2D region — comes from the domain ordering, not
from this module; here we only cut the ordered row range into blocks
and expose per-partition footprint statistics (used by Fig. 6 and the
performance model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: csr.py imports RowPartitions from here
    from .csr import CSRMatrix

__all__ = [
    "RowPartitions",
    "partition_rows",
    "partition_input_footprints",
    "partition_data_reuse",
]


@dataclass(frozen=True)
class RowPartitions:
    """Fixed-size partitioning of ``num_rows`` rows.

    Attributes
    ----------
    num_rows:
        Total row count.
    partition_size:
        Rows per partition (the paper's ``partsize`` / block size); the
        final partition may be shorter.
    """

    num_rows: int
    partition_size: int

    def __post_init__(self) -> None:
        if self.partition_size <= 0:
            raise ValueError(f"partition size must be positive, got {self.partition_size}")
        if self.num_rows < 0:
            raise ValueError(f"row count must be non-negative, got {self.num_rows}")

    @property
    def num_partitions(self) -> int:
        return -(-self.num_rows // self.partition_size) if self.num_rows else 0

    def bounds(self, part: int) -> tuple[int, int]:
        """Row range ``[start, stop)`` of partition ``part``."""
        if not 0 <= part < max(self.num_partitions, 1):
            raise IndexError(f"partition {part} out of range")
        start = part * self.partition_size
        return start, min(start + self.partition_size, self.num_rows)

    def row_range(self, part0: int, part1: int) -> tuple[int, int]:
        """Row range ``[row0, row1)`` covered by partitions ``[part0, part1)``."""
        if not 0 <= part0 <= part1 <= self.num_partitions:
            raise ValueError(
                f"partition range [{part0}, {part1}) outside "
                f"[0, {self.num_partitions})"
            )
        return (
            min(part0 * self.partition_size, self.num_rows),
            min(part1 * self.partition_size, self.num_rows),
        )

    def all_bounds(self) -> np.ndarray:
        """Array of shape ``(num_partitions, 2)`` with all row ranges."""
        starts = np.arange(self.num_partitions, dtype=np.int64) * self.partition_size
        stops = np.minimum(starts + self.partition_size, self.num_rows)
        return np.stack([starts, stops], axis=1)


def partition_rows(matrix: CSRMatrix, partition_size: int) -> RowPartitions:
    """Partition the rows of ``matrix`` into blocks of ``partition_size``."""
    return RowPartitions(num_rows=matrix.num_rows, partition_size=partition_size)


def partition_input_footprints(
    matrix: CSRMatrix, partitions: RowPartitions
) -> list[np.ndarray]:
    """Distinct input (column) indices touched by each partition.

    The size of each footprint relative to the partition's nnz is the
    data-reuse factor shown in paper Fig. 6(a); the footprints are also
    what the multi-stage buffer stages through L1.
    """
    footprints: list[np.ndarray] = []
    for part in range(partitions.num_partitions):
        start, stop = partitions.bounds(part)
        cols = matrix.ind[matrix.displ[start] : matrix.displ[stop]]
        footprints.append(np.unique(cols))
    return footprints


def partition_data_reuse(matrix: CSRMatrix, partitions: RowPartitions) -> np.ndarray:
    """Average data reuse per partition: nnz / distinct inputs.

    Paper Fig. 6(a) reports 46.63 (tomogram partition) and 64.73
    (sinogram partition) for 64^2 partitions of 256^2 domains.
    """
    reuse = np.zeros(partitions.num_partitions)
    for part in range(partitions.num_partitions):
        start, stop = partitions.bounds(part)
        lo, hi = matrix.displ[start], matrix.displ[stop]
        cols = matrix.ind[lo:hi]
        distinct = np.unique(cols).shape[0]
        reuse[part] = (hi - lo) / distinct if distinct else 0.0
    return reuse
