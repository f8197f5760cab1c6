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

Only **process** mode partitions SpMV.  scipy's compiled CSR loops
hold the GIL, so threads cannot overlap them (two threads read 1.0x on
the kernel and 0.5x through the dispatch); the compiled row loops of
:mod:`repro.sparse.native` release it, but have no thread dispatch yet.
A thread spec still fans out tracing, and runs the serial kernel
here.  Process mode exports each layout's arrays into POSIX shared
memory once, at engine construction, and starts **one worker process
per partition range**: a worker attaches the arrays, takes its own range's ``partition_slice`` of each layout
and keeps it, so the slice's compiled view (derived at its first
kernel call) is built once per range and lives in that worker only.
Input and output travel through one scratch segment the engine keeps
across calls; a task is ``(direction, segment name, input shape and
dtype)`` and the reply a dtype and two timestamps.

This module deliberately knows nothing about operators or geometry,
and nothing about any one layout either: it uses only what every
layout class of :mod:`repro.sparse` offers — ``spmv``,
``partition_slice`` and the ``to_arrays``/``from_arrays`` pair the
operator archive is also written with — so it receives layouts and a
partition size explicitly, keeping ``repro.parallel``
import-cycle-free below ``repro.core``.
"""

from __future__ import annotations

import threading
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
from .backend import ProcessBackend

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

# Populated by _worker_init: {direction: (this worker's partition
# slice, its row range, the layout's row count)}.
_WORKER_SLICES: dict[str, tuple] = {}

# Output rows are laid out in the scratch segment at this many bytes
# per element, the widest result any kernel produces; a worker writes
# its rows at its result's own dtype.
_WIDEST = 8


def _worker_init(payload: dict, index: int) -> None:
    """Pool initializer: attach shm segments, keep range ``index``."""
    _WORKER_SLICES.clear()
    for direction, (layout_class, seg_name, manifest, dims, ranges) in payload.items():
        if index >= len(ranges):
            continue
        num_rows, _, partition_size = dims
        layout = layout_class.from_arrays(shm.attach_arrays(seg_name, manifest), *dims)
        rows = RowPartitions(num_rows, partition_size).row_range(*ranges[index])
        _WORKER_SLICES[direction] = (
            layout.partition_slice(*ranges[index], partition_size),
            rows,
            num_rows,
        )


def _process_task(task: tuple) -> tuple[str, float, float]:
    """One worker task: this worker's rows of ``y`` from the shared ``x``."""
    direction, scratch_name, shape, dtype, y_offset = task
    start = perf_counter()
    sub, (row0, row1), num_rows = _WORKER_SLICES[direction]
    buf = shm.attach_scratch(scratch_name).buf
    y = sub.spmv(np.ndarray(shape, dtype=dtype, buffer=buf))
    out = np.ndarray((num_rows,) + shape[1:], dtype=y.dtype, buffer=buf, offset=y_offset)
    out[row0:row1] = y
    return y.dtype.str, start, perf_counter()


# -- the engine ---------------------------------------------------------


class ParallelSpmvEngine:
    """Dispatch forward/adjoint SpMV across partition-range workers.

    Parameters
    ----------
    workers, mode:
        Resolved backend spec (see :func:`repro.parallel.parse_workers`).
        ``process`` with two or more workers dispatches; anything else
        runs the layouts' serial kernels.
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
        self._segments: list[shm.SharedArrays] = []
        self._scratch = shm.SharedScratch()
        self._backends: list[ProcessBackend] = []
        # One dispatch at a time: the scratch segment is shared.
        self._lock = threading.Lock()
        self._closed = False
        if mode == "process" and workers >= 2:
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
                    self._ranges[direction],
                )
            add_count(PARALLEL_SHM_BYTES, shm_bytes)
            # One single-worker pool per range pins each range to one
            # process, which therefore derives and holds one slice.
            self._backends = [
                ProcessBackend(1, initializer=_worker_init, initargs=(payload, index))
                for index in range(max(len(r) for r in self._ranges.values()))
            ]
        # Shared-memory segments must not outlive the process even if
        # close() is never called explicitly.
        self._finalizer = weakref.finalize(
            self, _release, self._backends, self._segments, self._scratch
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
        if len(ranges) < 2 or not self._backends:
            return layout.spmv(x)
        observing = REGISTRY.active
        x = np.asarray(x)
        out_shape = (layout.num_rows,) + x.shape[1:]
        y_offset = -(-x.nbytes // 64) * 64
        nbytes = y_offset + _WIDEST * int(np.prod(out_shape))
        with self._lock:
            segment = self._scratch.reserve(nbytes)
            np.ndarray(x.shape, dtype=x.dtype, buffer=segment.buf)[...] = x
            task = (direction, segment.name, x.shape, x.dtype.str, y_offset)
            futures = [
                backend.submit(_process_task, task)
                for backend in self._backends[: len(ranges)]
            ]
            results = [future.result() for future in futures]
            y = np.ndarray(
                out_shape, dtype=results[0][0], buffer=segment.buf, offset=y_offset
            ).copy()

        if observing:
            add_count(PARALLEL_SHM_BYTES, x.nbytes + y.nbytes)
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
        return y

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down and unlink shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release(self._backends, self._segments, self._scratch)

    def __enter__(self) -> "ParallelSpmvEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _release(backends: list, segments: list, scratch) -> None:
    # Workers only attach; the pools must drain before the parent
    # unlinks, or late tasks would attach a vanished segment.
    for backend in backends:
        backend.close()
    for shared in segments:
        shared.dispose()
    scratch.dispose()
