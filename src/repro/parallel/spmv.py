"""Partition-parallel SpMV engine over the three matrix layouts.

The decomposition mirrors the paper's OpenMP strategy: the row
partitions (Hilbert-ordered, so spatially coherent) are split into one
**contiguous range per worker**.  Every layout — CSR row blocks,
stage-grouped buffered, partition-padded ELL — produces a disjoint,
contiguous span of output rows per partition range, so the parallel
result is the concatenation of the per-worker results in partition
order.  Within each range the kernels execute exactly the serial
instruction stream, which makes parallel output **bit-identical** to
serial output for every backend (the determinism contract the tests
enforce).

Thread mode shares the layouts directly.  Process mode exports each
layout's arrays into POSIX shared memory once, at engine construction;
workers attach in their pool initializer and rebuild zero-copy views,
so a task is just ``(direction, part0, part1, input-segment name)``.

This module deliberately knows nothing about operators or geometry,
and nothing about any one layout either: it uses only what every
layout class of :mod:`repro.sparse` offers — ``spmv``,
``partition_slice`` and the ``to_arrays``/``from_arrays`` pair the
operator archive is also written with — so it receives layouts and a
partition size explicitly, keeping ``repro.parallel``
import-cycle-free below ``repro.core``.
"""

from __future__ import annotations

import weakref
from time import perf_counter

import numpy as np

from ..obs import (
    PARALLEL_DISPATCHES,
    PARALLEL_SHM_BYTES,
    PARALLEL_TASKS,
    REGISTRY,
    add_count,
    emit_span,
)
from ..sparse.partition import RowPartitions
from . import shm
from .backend import ProcessBackend, SerialBackend, make_backend

__all__ = ["ParallelSpmvEngine", "partition_ranges"]


def partition_ranges(num_partitions: int, workers: int) -> list[tuple[int, int]]:
    """Balanced contiguous split of ``[0, num_partitions)`` into ranges.

    At most ``workers`` non-empty ranges; the first
    ``num_partitions % workers`` ranges get one extra partition.
    """
    if num_partitions <= 0:
        return []
    workers = max(1, min(workers, num_partitions))
    base, extra = divmod(num_partitions, workers)
    ranges: list[tuple[int, int]] = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


# -- process-worker side ------------------------------------------------

# Populated by _worker_init in every pool worker: {direction: layout}.
_WORKER_LAYOUTS: dict[str, object] = {}


def _worker_init(payload: dict) -> None:
    """Pool initializer: attach shm segments, rebuild layouts once."""
    _WORKER_LAYOUTS.clear()
    for direction, (layout_class, seg_name, manifest, dims) in payload.items():
        arrays = shm.attach_arrays(seg_name, manifest)
        _WORKER_LAYOUTS[direction] = layout_class.from_arrays(arrays, *dims)


def _process_task(task: tuple) -> tuple[np.ndarray, float, float]:
    """One worker task: SpMV of a partition range against a shm input."""
    direction, part0, part1, partition_size, seg_name, manifest = task
    start = perf_counter()
    x = shm.read_copy(seg_name, manifest)["x"]
    sub = _WORKER_LAYOUTS[direction].partition_slice(part0, part1, partition_size)
    y = sub.spmv(x)
    return y, start, perf_counter()


# -- the engine ---------------------------------------------------------


class ParallelSpmvEngine:
    """Dispatch forward/adjoint SpMV across partition-range workers.

    Parameters
    ----------
    workers, mode:
        Resolved backend spec (see :func:`repro.parallel.parse_workers`).
    partition_size:
        Rows per partition — the decomposition granularity; buffered
        and ELL layouts must have been built with the same value.
    forward_layout, adjoint_layout:
        The two kernel objects; any layout class of
        :mod:`repro.sparse`.
    """

    def __init__(
        self,
        *,
        workers: int,
        mode: str,
        partition_size: int,
        forward_layout,
        adjoint_layout,
    ):
        self.workers = workers
        self.mode = mode
        self.partition_size = partition_size
        self._layouts = {"forward": forward_layout, "adjoint": adjoint_layout}
        self._ranges = {
            direction: partition_ranges(
                RowPartitions(layout.num_rows, partition_size).num_partitions,
                workers,
            )
            for direction, layout in self._layouts.items()
        }
        self._slices: dict[str, list] = {}
        self._segments: list[shm.SharedArrays] = []
        self._closed = False
        if mode == "process":
            payload = {}
            shm_bytes = 0
            for direction, layout in self._layouts.items():
                shared = shm.SharedArrays(layout.to_arrays())
                self._segments.append(shared)
                shm_bytes += shared.nbytes
                payload[direction] = (
                    type(layout),
                    shared.name,
                    shared.manifest,
                    (layout.num_rows, layout.num_cols, partition_size),
                )
            add_count(PARALLEL_SHM_BYTES, shm_bytes)
            self._backend = make_backend(
                workers, mode, initializer=_worker_init, initargs=(payload,)
            )
        else:
            self._backend = make_backend(workers, mode)
            for direction, layout in self._layouts.items():
                self._slices[direction] = [
                    layout.partition_slice(p0, p1, partition_size)
                    for p0, p1 in self._ranges[direction]
                ]
        # Shared-memory segments must not outlive the process even if
        # close() is never called explicitly.
        self._finalizer = weakref.finalize(
            self, _release, self._backend, list(self._segments)
        )

    # -- dispatch -------------------------------------------------------

    def apply(self, direction: str, x: np.ndarray) -> np.ndarray:
        """Run the ``direction`` kernel on ``x`` (1D vector or 2D slab).

        Falls back to the plain serial kernel when the decomposition
        is degenerate (one range or serial backend).
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        layout = self._layouts[direction]
        ranges = self._ranges[direction]
        if len(ranges) < 2 or isinstance(self._backend, SerialBackend):
            return layout.spmv(x)
        observing = REGISTRY.active
        if self.mode == "process":
            shared_x = shm.SharedArrays({"x": np.ascontiguousarray(x)})
            try:
                if observing:
                    add_count(PARALLEL_SHM_BYTES, shared_x.nbytes)
                tasks = [
                    (
                        direction,
                        p0,
                        p1,
                        self.partition_size,
                        shared_x.name,
                        shared_x.manifest,
                    )
                    for p0, p1 in ranges
                ]
                results = self._backend.map(_process_task, tasks)
            finally:
                shared_x.dispose()
        else:
            slices = self._slices[direction]

            def run(sub) -> tuple[np.ndarray, float, float]:
                start = perf_counter()
                y = sub.spmv(x)
                return y, start, perf_counter()

            results = self._backend.map(run, slices)

        if observing:
            add_count(PARALLEL_DISPATCHES, 1)
            add_count(PARALLEL_TASKS, len(ranges))
            for index, ((_, start, end), (p0, p1)) in enumerate(zip(results, ranges)):
                emit_span(
                    "parallel.worker",
                    start,
                    end,
                    worker=index,
                    direction=direction,
                    part0=p0,
                    part1=p1,
                    mode=self.mode,
                )
        return np.concatenate([y for y, _, _ in results])

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the backend down and unlink shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release(self._backend, self._segments)
        self._segments = []

    def __enter__(self) -> "ParallelSpmvEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _release(backend, segments: list) -> None:
    # Workers only attach; the pool must drain before the parent
    # unlinks, or late tasks would attach a vanished segment.
    backend.close()
    for shared in segments:
        shared.dispose()
