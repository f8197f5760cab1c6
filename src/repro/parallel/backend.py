"""Worker-count parsing and the two execution backends.

The parallel layer reproduces the *intra-node* decomposition of the
paper (Section 4.1): each OpenMP thread owns a contiguous range of
Hilbert-ordered row partitions.  In this reproduction the threads come
from one of two interchangeable backends:

``serial``
    No pool at all — the caller runs the tasks inline.  This is the
    reference execution every other backend must match bit-for-bit.
``thread``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`.  It fans
    out per-angle tracing and runs the SpMV engine's partition ranges
    (:mod:`repro.parallel.spmv`) without pickling or copying anything.

Worker counts resolve from, in priority order: an explicit
``workers=`` argument / ``--workers`` flag, the ``REPRO_WORKERS``
environment variable, and finally serial.  A spec is either a count
(``4`` — thread mode), a mode name (``"thread"`` — one worker per
CPU), ``"auto"``, or ``"mode:count"`` (``"thread:4"``).

This module imports only the standard library so every layer — sparse,
trace, pipeline — can use it without cycles.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

__all__ = [
    "ENV_WORKERS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "in_pool",
    "parse_workers",
    "make_backend",
    "shutdown_shared_pools",
]

#: Environment variable consulted when no explicit worker spec is given.
ENV_WORKERS = "REPRO_WORKERS"

_MODES = ("serial", "thread")


def _cpu_workers() -> int:
    return max(os.cpu_count() or 1, 1)


def parse_workers(spec: int | str | None, *, env: bool = True) -> tuple[int, str]:
    """Resolve a worker spec into ``(workers, mode)``.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable (and
    to serial when that is unset).  Counts below 2 collapse to
    ``(1, "serial")`` — a one-worker pool would only add overhead.
    """
    if spec is None:
        raw = os.environ.get(ENV_WORKERS) if env else None
        if raw is None or not raw.strip():
            return 1, "serial"
        return parse_workers(raw.strip(), env=False)
    if isinstance(spec, bool):
        raise TypeError("workers must be an int or str, not bool")
    if isinstance(spec, int):
        if spec < 1:
            raise ValueError(f"workers must be >= 1, got {spec}")
        return (spec, "thread") if spec > 1 else (1, "serial")
    if not isinstance(spec, str):
        raise TypeError(f"workers must be an int, str or None, got {type(spec)!r}")

    text = spec.strip().lower()
    if not text:
        return 1, "serial"
    mode: str | None = None
    count: int | None = None
    if ":" in text:
        head, _, tail = text.partition(":")
        mode, count_text = head.strip(), tail.strip()
        if mode not in _MODES:
            raise ValueError(f"unknown worker mode {head!r} (expected one of {_MODES})")
        if not count_text.isdigit():
            raise ValueError(f"bad worker count {tail!r} in spec {spec!r}")
        count = int(count_text)
    elif text.isdigit():
        count = int(text)
    elif text == "auto":
        count = _cpu_workers()
    elif text in _MODES:
        mode = text
        count = 1 if text == "serial" else _cpu_workers()
    else:
        raise ValueError(
            f"bad workers spec {spec!r}: expected a count, 'auto', one of "
            f"{_MODES}, or 'mode:count'"
        )
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {count} in spec {spec!r}")
    if mode == "serial" or count == 1:
        return 1, "serial"
    return count, mode or "thread"


class ExecutionBackend:
    """Common interface: ordered ``map`` over a task sequence."""

    mode: str = "serial"
    workers: int = 1

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Apply ``fn`` to every task, returning results in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """Inline execution — the bit-identity reference."""

    def map(self, fn: Callable, tasks: Sequence) -> list:
        return [fn(task) for task in tasks]


# Thread pools are shared per worker count: an ambient ``REPRO_WORKERS``
# would otherwise spin up (and leak) a pool per operator instance.
_THREAD_POOLS: dict[int, ThreadPoolExecutor] = {}
_THREAD_POOLS_LOCK = threading.Lock()
# Set on every thread of a shared pool, at its start.
_POOL_THREAD = threading.local()


def _mark_pool_thread() -> None:
    _POOL_THREAD.member = True


def in_pool() -> bool:
    """Whether the calling thread belongs to a shared pool: such a
    caller must not wait on a pool's tasks, which may queue behind it."""
    return getattr(_POOL_THREAD, "member", False)


class ThreadBackend(ExecutionBackend):
    """Shared-pool thread execution."""

    mode = "thread"

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError(f"thread backend needs >= 2 workers, got {workers}")
        self.workers = workers

    def pool(self) -> ThreadPoolExecutor:
        with _THREAD_POOLS_LOCK:
            pool = _THREAD_POOLS.get(self.workers)
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=f"repro-worker-{self.workers}",
                    initializer=_mark_pool_thread,
                )
                _THREAD_POOLS[self.workers] = pool
            return pool

    def map(self, fn: Callable, tasks: Sequence) -> list:
        return list(self.pool().map(fn, tasks))

    def close(self) -> None:
        # The pool is shared; it outlives any one backend.  Tests that
        # need a hard teardown call shutdown_shared_pools().
        pass


def shutdown_shared_pools() -> None:
    """Tear down every shared thread pool (test/process-exit hygiene)."""
    with _THREAD_POOLS_LOCK:
        pools = list(_THREAD_POOLS.values())
        _THREAD_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def make_backend(workers: int, mode: str) -> ExecutionBackend:
    """Build the backend for a resolved ``(workers, mode)`` pair."""
    if mode == "serial" or workers < 2:
        return SerialBackend()
    if mode == "thread":
        return ThreadBackend(workers)
    raise ValueError(f"unknown backend mode {mode!r}")
