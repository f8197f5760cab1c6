"""The overlapped I/O conveyor: read-ahead and write-behind threads.

The streaming executor's chunk loop is ``source → condition → solve →
sink``.  Run serially, the disk time on both ends adds to the solve
time; the paper's memory-centric premise says it should hide under it.
The :class:`Conveyor` arranges exactly that with two daemon threads and
two bounded :class:`queue.Queue`\\ s:

* a **reader** pulls the planned ``[start, stop)`` ranges from the
  :class:`~repro.dataio.reader.ChunkSource` ahead of the solve and
  parks them in a queue of depth ``prefetch`` (double-buffering at
  ``prefetch=2``) — the bound is the backpressure that keeps an
  out-of-core stack from migrating back into memory;
* a **writer** drains finished slabs into the
  :class:`~repro.dataio.writer.ChunkSink` behind the solve, again
  through a bounded queue.  Every run has a sink: the in-memory volume
  is a :class:`~repro.dataio.writer.VolumeSink` like any other.

``prefetch=0`` degrades to fully synchronous calls on the caller's
thread — same API, no threads — which is both the legacy behaviour and
the bit-exactness reference.  Exceptions raised in either thread are
re-raised on the caller's thread at the next ``chunks()``/``put()``/
``finish()`` call.

Thread-discipline: the worker threads never touch :mod:`repro.obs`
(its registry is not thread-safe); they accumulate wall seconds and
bytes under a lock and the caller's thread emits the ``dataio.*``
counters as it consumes.
"""

from __future__ import annotations

import queue
import threading
import time

from zipfile import BadZipFile

from ..obs import (
    DATAIO_BYTES_READ,
    DATAIO_BYTES_WRITTEN,
    DATAIO_QUEUE_DEPTH,
    DATAIO_READ_RETRIES,
    DATAIO_READ_SECONDS,
    DATAIO_WRITE_SECONDS,
    add_count,
)
from ..resilience import RetryPolicy

#: Read failures worth retrying: I/O hiccups (network filesystems,
#: contended disks) and the partial/truncated archives a concurrently
#: rewritten shard can briefly expose.  Anything else re-raises at once.
_TRANSIENT_READ_ERRORS = (OSError, BadZipFile, ValueError)

__all__ = ["Conveyor", "ConveyorProgress"]

#: Queue sentinel: the producer is done.
_DONE = object()
#: Queue sentinel: the producer failed; the error attribute holds why.
_FAILED = object()


class Conveyor:
    """Overlapped chunk transport between a source, a solve, and a sink.

    Parameters
    ----------
    source:
        A :class:`~repro.dataio.reader.ChunkSource`.
    ranges:
        The ``(start, stop)`` chunk ranges to read, in order — the
        executor has already dropped completed (resumed) chunks, so
        the reader never touches data the run will skip.
    sink:
        The :class:`~repro.dataio.writer.ChunkSink` finished slabs go to.
    prefetch:
        Read-ahead depth.  ``0`` runs reads and writes synchronously on
        the caller's thread; ``N >= 1`` bounds the reader at ``N``
        parked chunks (plus the one being read) and the writer at ``N``
        parked slabs.

    Use as a context manager; ``finish()`` joins the threads, re-raises
    any deferred worker error, and returns the written ranges.
    """

    def __init__(self, source, ranges, sink, prefetch: int = 0,
                 read_retry: RetryPolicy | None = None):
        if prefetch < 0:
            raise ValueError(f"prefetch must be >= 0, got {prefetch}")
        self.source = source
        self.sink = sink
        self.ranges = [(int(a), int(b)) for a, b in ranges]
        self.prefetch = int(prefetch)
        self.read_retry = (
            read_retry if read_retry is not None
            else RetryPolicy(max_retries=2, backoff_base=0.05, backoff_cap=1.0)
        )
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._read_seconds = 0.0
        self._write_seconds = 0.0
        self._read_bytes = 0
        self._write_bytes = 0
        self._read_retries = 0
        self._emitted = {"read": 0.0, "write": 0.0, "rbytes": 0, "wbytes": 0,
                         "retries": 0}
        self._read_error: BaseException | None = None
        self._write_error: BaseException | None = None
        self._written: list[tuple[int, int]] = []
        self._pending_writes = 0
        self._threaded = self.prefetch >= 1
        if self._threaded:
            self._read_q: queue.Queue = queue.Queue(maxsize=self.prefetch)
            self._write_q: queue.Queue = queue.Queue(maxsize=self.prefetch)
            self._reader = threading.Thread(
                target=self._read_loop, name="dataio-reader", daemon=True
            )
            self._writer = threading.Thread(
                target=self._write_loop, name="dataio-writer", daemon=True
            )
            self._reader.start()
            self._writer.start()

    # -- worker loops ----------------------------------------------------

    def _read_chunk(self, start: int, stop: int):
        """``source.read`` under the bounded transient-failure retry.

        Exhausting the budget re-raises the last error — the conveyor's
        normal deferred-error path then surfaces it to the caller.
        Safe on both the reader thread and the synchronous path; retry
        counts accumulate under the lock and are emitted (as
        ``dataio.read_retries``) only from the caller's thread.
        """
        attempt = 0
        while True:
            try:
                return self.source.read(start, stop)
            except _TRANSIENT_READ_ERRORS:
                if self.read_retry.exhausted(attempt):
                    raise
                with self._lock:
                    self._read_retries += 1
                # Interruptible backoff: an abort mid-retry stops the
                # wait and the next loop either succeeds fast or raises.
                self._stop.wait(self.read_retry.delay(attempt))
                attempt += 1

    def _read_loop(self) -> None:
        try:
            for start, stop in self.ranges:
                if self._stop.is_set():
                    break
                t0 = time.perf_counter()
                chunk = self._read_chunk(start, stop)
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self._read_seconds += elapsed
                    self._read_bytes += int(chunk.nbytes)
                self._q_put(self._read_q, (start, stop, chunk))
            self._q_put(self._read_q, _DONE)
        except BaseException as exc:  # noqa: BLE001 - re-raised on caller
            self._read_error = exc
            self._q_put(self._read_q, _FAILED, force=True)

    def _write_loop(self) -> None:
        while True:
            item = self._write_q.get()
            if item is _DONE:
                break
            start, stop, slab = item
            if self._write_error is not None or self._stop.is_set():
                continue  # drain without writing after a failure
            try:
                self._write_one(start, stop, slab)
            except BaseException as exc:  # noqa: BLE001 - re-raised on caller
                self._write_error = exc

    def _write_one(self, start: int, stop: int, slab) -> None:
        t0 = time.perf_counter()
        self.sink.write(start, stop, slab)
        elapsed = time.perf_counter() - t0
        with self._lock:
            self._write_seconds += elapsed
            self._write_bytes += int(slab.nbytes)
            self._written.append((start, stop))
            self._pending_writes -= 1

    def _q_put(self, q: queue.Queue, item, force: bool = False) -> None:
        """Bounded put that stays responsive to an abort."""
        while True:
            try:
                q.put(item, timeout=0.1)
                return
            except queue.Full:
                if force or self._stop.is_set():
                    # Abort path: make room so the sentinel always lands.
                    try:
                        q.get_nowait()
                    except queue.Empty:
                        pass

    # -- caller-side API -------------------------------------------------

    def chunks(self):
        """Yield ``(start, stop, chunk)`` for every planned range."""
        if not self._threaded:
            for start, stop in self.ranges:
                t0 = time.perf_counter()
                chunk = self._read_chunk(start, stop)
                add_count(DATAIO_READ_SECONDS, time.perf_counter() - t0)
                add_count(DATAIO_BYTES_READ, int(chunk.nbytes))
                add_count(DATAIO_QUEUE_DEPTH, 0)
                self._emit_stats()  # publishes any read-retry counts
                yield start, stop, chunk
            return
        while True:
            self._raise_pending()
            item = self._read_q.get()
            if item is _FAILED:
                self._raise_pending()
                return
            if item is _DONE:
                return
            # Depth *after* the take = chunks still parked ahead of the
            # solve; sampling here (caller thread) keeps obs single-threaded.
            add_count(DATAIO_QUEUE_DEPTH, self._read_q.qsize())
            self._emit_stats()
            yield item

    def put(self, start: int, stop: int, slab) -> None:
        """Hand a finished slab to the sink."""
        self._raise_pending()
        with self._lock:
            self._pending_writes += 1
        if self._threaded:
            self._write_q.put((start, stop, slab))
        else:
            self._write_one(start, stop, slab)
            self._emit_stats()

    def take_written(self) -> list[tuple[int, int]]:
        """Ranges confirmed durable by the sink since the last call.

        Checkpoints must record only these — a slab still parked in the
        write queue is lost on a crash, and marking it done would make
        resume skip a chunk that never reached disk.
        """
        with self._lock:
            done, self._written = self._written, []
        return done

    @property
    def backlog(self) -> tuple[int, int]:
        """(read-queue depth, unwritten slab count) for progress lines."""
        depth = self._read_q.qsize() if self._threaded else 0
        with self._lock:
            pending = self._pending_writes
        return depth, pending

    def finish(self) -> None:
        """Drain the writer, join both threads, re-raise deferred errors."""
        if self._threaded:
            self._write_q.put(_DONE)
            self._writer.join()
            self._reader.join()
        self._emit_stats()
        self._raise_pending()

    def abort(self) -> None:
        """Stop the threads without caring about unfinished work."""
        self._stop.set()
        if not self._threaded:
            return
        # Unblock a reader waiting on a full queue.
        try:
            while True:
                self._read_q.get_nowait()
        except queue.Empty:
            pass
        self._write_q.put(_DONE)
        self._writer.join()
        self._reader.join()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.finish()
        else:
            self.abort()
        return False

    # -- internals -------------------------------------------------------

    def _emit_stats(self) -> None:
        """Publish thread-accumulated I/O stats as obs counters."""
        with self._lock:
            deltas = (
                self._read_seconds - self._emitted["read"],
                self._write_seconds - self._emitted["write"],
                self._read_bytes - self._emitted["rbytes"],
                self._write_bytes - self._emitted["wbytes"],
                self._read_retries - self._emitted["retries"],
            )
            self._emitted = {
                "read": self._read_seconds,
                "write": self._write_seconds,
                "rbytes": self._read_bytes,
                "wbytes": self._write_bytes,
                "retries": self._read_retries,
            }
        read_s, write_s, read_b, write_b, retries = deltas
        if read_s > 0:
            add_count(DATAIO_READ_SECONDS, read_s)
        if write_s > 0:
            add_count(DATAIO_WRITE_SECONDS, write_s)
        if read_b > 0:
            add_count(DATAIO_BYTES_READ, read_b)
        if write_b > 0:
            add_count(DATAIO_BYTES_WRITTEN, write_b)
        if retries > 0:
            add_count(DATAIO_READ_RETRIES, retries)

    def _raise_pending(self) -> None:
        if self._write_error is not None:
            exc, self._write_error = self._write_error, None
            self._stop.set()
            raise exc
        if self._read_error is not None:
            exc, self._read_error = self._read_error, None
            self._stop.set()
            raise exc


class ConveyorProgress:
    """Queue-depth-driven progress/ETA line for streaming runs.

    Call :meth:`update` after each solved chunk; it rewrites a single
    ``\\r`` line on the stream with slice progress, an ETA extrapolated
    from the mean chunk wall time, and the conveyor backlog (chunks
    read ahead / slabs awaiting write).  :meth:`done` terminates the
    line.  Writes nothing until the first update, so quiet runs stay
    quiet.
    """

    def __init__(self, total_slices: int, stream=None, *, initial_done: int = 0,
                 clock=time.perf_counter):
        import sys

        self.total = int(total_slices)
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._t0 = clock()
        self._chunks = 0
        self._dirty = False
        # Slices completed before this run started (a resumed
        # checkpoint): they cost this run no wall time, so they must
        # not inflate the observed rate — a resume that "finished" 90%
        # instantly would otherwise advertise a wildly optimistic ETA.
        self._initial_done = max(0, int(initial_done))

    def update(self, done_slices: int, backlog: tuple[int, int]) -> None:
        self._chunks += 1
        elapsed = self._clock() - self._t0
        done_this_run = max(0, done_slices - self._initial_done)
        # Guard the first chunk landing within clock resolution of t0:
        # a ~0 denominator yields a nonsense rate (and a negative one
        # is impossible, but clamp anyway rather than print it).
        rate = done_this_run / elapsed if elapsed > 1e-6 else 0.0
        remaining = max(0, self.total - done_slices)
        eta = max(0.0, remaining / rate) if rate > 0 else float("inf")
        eta_text = f"{eta:5.1f}s" if eta != float("inf") else "   ?  "
        depth, pending = backlog
        self.stream.write(
            f"\r[pipeline] {done_slices}/{self.total} slices "
            f"({self._chunks} chunks, {rate:.1f} slices/s, eta {eta_text}) "
            f"queue: {depth} read-ahead, {pending} unwritten "
        )
        self.stream.flush()
        self._dirty = True

    def done(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
