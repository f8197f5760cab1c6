"""Typed counters for the paper's key quantities.

Each counter has a *unit*; incrementing an existing counter with a
conflicting unit raises, so "bytes added to a FLOP counter" is caught
at the instrumentation point rather than in a confusing report.

The canonical names below cover the quantities MemXCT's evaluation is
built on (Tables 3-7, Figs 5-11): SpMV work, regular/irregular memory
traffic, buffered-kernel stage counts, and simulated communication
volume.  Ad-hoc counters with other names are allowed — the registry
creates them on first increment with whatever unit is supplied.

A canonical counter is declared exactly once, as
``NAME = _declare("dotted.name", "unit")``: the declaration feeds the
unit table and this module's (and :mod:`repro.obs`'s) ``__all__``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default unit per canonical counter name (filled by ``_declare``).
CANONICAL_UNITS: dict[str, str] = {}


def _declare(name: str, unit: str) -> str:
    """Register a canonical counter's unit; returns the counter name."""
    CANONICAL_UNITS[name] = unit
    return name


#: FMA work of every SpMV executed (2 flops per stored nonzero).
SPMV_FLOPS = _declare("spmv.flops", "flop")
#: Number of forward/adjoint kernel invocations.
SPMV_CALLS = _declare("spmv.calls", "call")
#: Streamed matrix bytes (ind + val) moved by SpMV — paper "regular data".
SPMV_REGULAR_BYTES = _declare("spmv.regular_bytes", "byte")
#: Gathered vector bytes touched by SpMV — paper "irregular data".
SPMV_IRREGULAR_BYTES = _declare("spmv.irregular_bytes", "byte")
#: Buffer stages executed by the multi-stage buffered kernel.
BUFFER_STAGES = _declare("buffer.stages", "stage")
#: Remote (off-diagonal) bytes moved by simulated MPI collectives.
COMM_BYTES = _declare("comm.bytes", "byte")
#: Remote point-to-point messages inside simulated collectives.
COMM_MESSAGES = _declare("comm.messages", "message")
#: Bytes moved over the intra-node fabric by hierarchical collectives
#: (same-node messages plus rank<->leader staging hops).
COMM_INTRA_BYTES = _declare("comm.intra_bytes", "byte")
#: Intra-node messages inside hierarchical collectives.
COMM_INTRA_MESSAGES = _declare("comm.intra_messages", "message")
#: Aggregated leader-to-leader bytes crossing the inter-node network.
COMM_INTER_BYTES = _declare("comm.inter_bytes", "byte")
#: Aggregated node-pair messages crossing the inter-node network.
COMM_INTER_MESSAGES = _declare("comm.inter_messages", "message")
#: Iterations completed across all solvers.
SOLVER_ITERATIONS = _declare("solver.iterations", "iteration")
#: Operator plans served from the on-disk plan cache.
CACHE_HITS = _declare("cache.hits", "hit")
#: Plan-cache lookups that found no (usable) entry.
CACHE_MISSES = _declare("cache.misses", "miss")
#: Bytes read from plan-cache entries on hits.
CACHE_BYTES_READ = _declare("cache.bytes_read", "byte")
#: Bytes written to the plan cache when storing entries.
CACHE_BYTES_WRITTEN = _declare("cache.bytes_written", "byte")
#: Entries removed by the size-capped eviction policy.
CACHE_EVICTIONS = _declare("cache.evictions", "entry")
#: Injected message-loss faults (message never arrived, retried).
FAULT_DROPS = _declare("fault.drops", "message")
#: Injected payload corruptions caught by the receive-side checksum.
FAULT_CORRUPTIONS = _declare("fault.corruptions", "message")
#: Injected message delays (delivered late; backoff time charged).
FAULT_DELAYS = _declare("fault.delays", "message")
#: Simulated rank crashes (each triggers graceful degradation).
FAULT_CRASHES = _declare("fault.crashes", "rank")
#: Re-delivery attempts made by the reliable-transport retry loop.
FAULT_RETRIES = _declare("fault.retries", "attempt")
#: Faults fully healed (messages re-delivered, crashed ranks absorbed).
FAULT_RECOVERIES = _declare("fault.recoveries", "event")
#: Solver-state snapshots persisted by the checkpoint manager.
CHECKPOINT_SAVES = _declare("checkpoint.saves", "snapshot")
#: Solver-state snapshots restored (resume or health rollback).
CHECKPOINT_RESTORES = _declare("checkpoint.restores", "snapshot")
#: Bytes written to checkpoint files.
CHECKPOINT_BYTES_WRITTEN = _declare("checkpoint.bytes_written", "byte")
#: Numerical-health incidents (NaN/Inf or sustained divergence).
HEALTH_EVENTS = _declare("health.events", "event")
#: Health-triggered rollbacks to the last checkpoint.
HEALTH_ROLLBACKS = _declare("health.rollbacks", "rollback")
#: Sinogram slices reconstructed by the streaming stack pipeline.
PIPELINE_SLICES = _declare("pipeline.slices", "slice")
#: Slice chunks processed by the streaming stack pipeline.
PIPELINE_CHUNKS = _declare("pipeline.chunks", "chunk")
#: Slices skipped on resume because a chunk checkpoint covered them.
PIPELINE_RESUMED_SLICES = _declare("pipeline.resumed_slices", "slice")
#: Wall seconds the conveyor's reader spent pulling chunks from a source.
DATAIO_READ_SECONDS = _declare("dataio.read_seconds", "second")
#: Wall seconds the conveyor's writer spent pushing slabs into a sink.
DATAIO_WRITE_SECONDS = _declare("dataio.write_seconds", "second")
#: Read-queue depth sampled each time the reader enqueues a chunk
#: (total / events = mean prefetch occupancy).
DATAIO_QUEUE_DEPTH = _declare("dataio.queue_depth", "chunk")
#: Raw stack bytes pulled from chunk sources.
DATAIO_BYTES_READ = _declare("dataio.bytes_read", "byte")
#: Volume bytes pushed into chunk sinks.
DATAIO_BYTES_WRITTEN = _declare("dataio.bytes_written", "byte")
#: Source reads re-attempted after a transient failure (OSError etc.).
DATAIO_READ_RETRIES = _declare("dataio.read_retries", "attempt")
#: Jobs offered to the service (accepted or rejected).
SERVICE_SUBMITTED = _declare("service.submitted", "job")
#: Submissions rejected with backpressure (queue full / rate limit).
SERVICE_REJECTED = _declare("service.rejected", "job")
#: Jobs finished with a durable result.
SERVICE_COMPLETED = _declare("service.completed", "job")
#: Jobs that exhausted their retry budget (or failed permanently).
SERVICE_FAILED = _declare("service.failed", "job")
#: Jobs cancelled because their deadline passed.
SERVICE_EXPIRED = _declare("service.expired", "job")
#: Solve attempts re-run after a transient job failure.
SERVICE_RETRIES = _declare("service.retries", "attempt")
#: Batched solves executed by the scheduler (1 per dispatch).
SERVICE_BATCHES = _declare("service.batches", "solve")
#: Jobs that shared a coalesced multi-RHS solve with at least one peer.
SERVICE_COALESCED_JOBS = _declare("service.coalesced_jobs", "job")
#: Acknowledged jobs re-queued by journal replay after a restart.
SERVICE_RECOVERED = _declare("service.recovered", "job")
#: Records appended to the job journal.
SERVICE_JOURNAL_RECORDS = _declare("service.journal_records", "record")
#: Terminal-job result payloads evicted from the spool (TTL / size cap).
SERVICE_EVICTIONS = _declare("service.evictions", "job")
#: Partition-range tasks executed by the parallel SpMV engine.
PARALLEL_TASKS = _declare("parallel.tasks", "task")
#: Parallel SpMV fan-outs dispatched (one per engine apply).
PARALLEL_DISPATCHES = _declare("parallel.dispatches", "dispatch")
#: SpMV kernel applications computed in float32 (default and fp32 paths).
DTYPE_FP32_SPMV = _declare("dtype.fp32_spmv", "call")
#: SpMV kernel applications computed in float64 (opt-in fp64 path).
DTYPE_FP64_SPMV = _declare("dtype.fp64_spmv", "call")

#: Scenario reconstructions run (sparse-view, limited-angle, try-center).
SCENARIO_RUNS = _declare("scenario.runs", "run")
#: Projection views dropped by a degraded-scan scenario.
SCENARIO_VIEWS_DROPPED = _declare("scenario.views_dropped", "view")
#: Rotation-center candidates scored by a try-center sweep.
SCENARIO_CENTER_CANDIDATES = _declare("scenario.center_candidates", "candidate")

__all__ = ["Counter", "unit_of"] + [
    constant for constant, value in list(globals().items())
    if isinstance(value, str) and value in CANONICAL_UNITS
]


def unit_of(name: str) -> str:
    """Default unit of a counter name ("count" for ad-hoc counters)."""
    return CANONICAL_UNITS.get(name, "count")


@dataclass
class Counter:
    """A named accumulator with a fixed unit."""

    name: str
    unit: str
    total: float = 0.0
    events: int = 0

    def add(self, value: float, unit: str | None = None) -> None:
        """Accumulate ``value``; rejects a mismatched unit."""
        if unit is not None and unit != self.unit:
            raise ValueError(
                f"counter {self.name!r} has unit {self.unit!r}, "
                f"refusing increment in {unit!r}"
            )
        self.total += value
        self.events += 1
