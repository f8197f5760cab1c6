"""Partition-parallel SpMV engine over the operator's CSR pair.

The decomposition mirrors the paper's OpenMP strategy (Section 4.1):
the row partitions (Hilbert-ordered, so spatially coherent) are split
into one **contiguous range per worker thread**, cut where each
direction's cumulative nonzeros reach an even share.  A CSR row block
yields a disjoint, contiguous span of output rows, so each range writes
its own rows of one output array.  Within each range the kernel
executes exactly the serial instruction stream, which makes parallel
output **bit-identical** to serial output (the determinism contract the
tests enforce).

The engine runs the two :class:`~repro.sparse.CSRMatrix` objects an
operator runs: ``A`` and ``A^T``, or an orbit plan's ``Q`` and
``scan_transpose(Q)``.  The paper's buffered and ELL layouts are serial
kernels to measure against it.  Each range's ``partition_slice`` is cut
once, at construction.  A call runs range 0 on the calling thread and
the others on the shared :class:`~repro.parallel.ThreadBackend` pool;
scipy's sparsetools loops and the compiled row loops of
:mod:`repro.sparse.native` (through :mod:`ctypes`) both release the
GIL, so the ranges overlap.  A range never waits on anything, and a
call made from inside a pool thread runs serially, so nothing waits on
the pool from inside the pool.

Only ``MemXCTOperator`` builds an engine.  This module knows nothing
about operators or geometry, keeping ``repro.parallel``
import-cycle-free below ``repro.core``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..obs import PARALLEL_DISPATCHES, PARALLEL_TASKS, REGISTRY, add_count, emit_span
from ..sparse.csr import CSRMatrix, spmv_input
from ..sparse.partition import RowPartitions
from .backend import ThreadBackend, in_pool

__all__ = ["ParallelSpmvEngine", "partition_ranges"]


def partition_ranges(
    num_partitions: int, workers: int, work: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """Contiguous split of ``[0, num_partitions)`` into ranges of even work.

    At most ``workers`` ranges, none empty.  ``work[k]`` is the work
    before partition ``k`` (``num_partitions + 1`` entries; the engine
    passes a layout's ``displ`` at the partition boundaries, so its
    nonzeros); by default every partition is one unit.  Range ``w``
    ends at the first boundary whose work reaches ``w + 1`` shares.
    """
    if num_partitions <= 0:
        return []
    workers = max(1, min(workers, num_partitions))
    work = np.arange(num_partitions + 1) if work is None else np.asarray(work, np.int64)
    steps = np.arange(1, workers)
    ends = np.searchsorted(work * workers, work[-1] * steps)
    # At least one partition per range: ends - steps may not fall back.
    ends = np.maximum.accumulate(np.clip(ends - steps, 0, num_partitions - workers)) + steps
    cuts = [0, *ends.tolist(), num_partitions]
    return list(zip(cuts[:-1], cuts[1:]))


def _run_range(out: np.ndarray, sub: CSRMatrix, rows: tuple[int, int], x) -> tuple:
    """One range: its rows of ``out`` from ``x``, and when it ran."""
    start = perf_counter()
    out[rows[0] : rows[1]] = sub.spmv(x)
    return start, perf_counter()


class ParallelSpmvEngine:
    """Dispatch forward/adjoint SpMV across partition ranges on threads.

    Parameters
    ----------
    workers:
        Number of worker threads (two or more).
    partition_size:
        Rows per partition — the decomposition granularity.
    forward_layout, adjoint_layout:
        The two :class:`~repro.sparse.CSRMatrix` objects to run.
    """

    def __init__(
        self,
        *,
        workers: int,
        partition_size: int,
        forward_layout: CSRMatrix,
        adjoint_layout: CSRMatrix,
    ):
        self._layouts = {"forward": forward_layout, "adjoint": adjoint_layout}
        for layout in self._layouts.values():
            if not isinstance(layout, CSRMatrix):
                raise TypeError(f"the engine runs CSRMatrix, not {type(layout).__name__}")
        self._backend = ThreadBackend(workers)
        # direction -> [(partition range, its row range, its slice)]
        self._ranges = {}
        for direction, layout in self._layouts.items():
            partitions = RowPartitions(layout.num_rows, partition_size)
            count = partitions.num_partitions
            starts = np.minimum(np.arange(count + 1) * partition_size, layout.num_rows)
            self._ranges[direction] = [
                (parts, partitions.row_range(*parts),
                 layout.partition_slice(*parts, partition_size))
                for parts in partition_ranges(count, workers, layout.displ[starts])
            ]
        self._closed = False

    def apply(self, direction: str, x: np.ndarray) -> np.ndarray:
        """Run the ``direction`` kernel on ``x`` (1D vector or 2D slab).

        Runs the serial kernel here when the decomposition is
        degenerate (a single range) or the caller is a pool thread.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        layout = self._layouts[direction]
        ranges = self._ranges[direction]
        if len(ranges) < 2 or in_pool():
            return layout.spmv(x)
        x = spmv_input(x, layout.num_cols)
        # The dtype every slice's spmv returns: scipy's loops upcast the
        # pair, and the compiled loops run only when the two match.
        out = np.empty(
            (layout.num_rows,) + x.shape[1:], np.result_type(layout.val.dtype, x.dtype)
        )
        pool = self._backend.pool()
        futures = [
            pool.submit(_run_range, out, sub, rows, x) for _, rows, sub in ranges[1:]
        ]
        _, rows, sub = ranges[0]
        times = [_run_range(out, sub, rows, x)] + [f.result() for f in futures]
        if REGISTRY.active:
            add_count(PARALLEL_DISPATCHES, 1)
            add_count(PARALLEL_TASKS, len(ranges))
            # Timed on each range's own thread, emitted here: the span
            # stack belongs to the calling thread.
            for index, ((start, end), ((p0, p1), _, _)) in enumerate(zip(times, ranges)):
                emit_span(
                    "parallel.worker", start, end,
                    worker=index, direction=direction, part0=p0, part1=p1,
                )
        return out

    def close(self) -> None:
        """Refuse further calls (idempotent); the shared pool stays."""
        self._closed = True
