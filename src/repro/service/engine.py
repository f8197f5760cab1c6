"""The reconstruction-as-a-service engine.

MemXCT's memory-centric bargain — preprocess once per geometry,
amortize over every solve — is worth the most when *many clients*
share the expensive artifact.  This engine is that multi-tenant story:

* **Admission control** — a bounded queue with explicit backpressure.
  A full queue refuses the submission with a computed retry-after
  (recent solve throughput times backlog), never a silent drop; a
  per-tenant token bucket keeps one chatty client from starving the
  rest.
* **Durability** — accept = persist.  The input lands as a checked
  archive and an ``accepted`` record is fsynced to the journal
  *before* the submission is acknowledged (:mod:`repro.service.journal`),
  so ``kill -9`` at any instant loses nothing a client was told we
  have.  On restart, :meth:`ReconService.start` replays the journal
  and finishes every acknowledged in-flight job; because every solve
  here is deterministic — and a column of a batched solve is
  bit-identical to the same solve run alone — the recovered results
  are bit-exact regardless of how the scheduler re-groups the work.
* **Coalescing** — the scheduler drains compatible queued jobs (same
  geometry/solver/iterations/tolerance/precision) into a single
  multi-RHS :func:`~repro.solvers.cgls_batch` dispatch: the memoized
  matrix streams once per iteration for the whole cohort instead of
  once per client, the same amortization Table 5 of the paper buys
  across slices of one stack.
* **Deadlines** — per-job wall-clock deadlines are enforced at dequeue
  and *inside* the solve via the solvers' iteration callback: an
  expired job cancels the dispatch, expired members are journaled as
  ``expired``, and unexpired batch peers are requeued without losing
  their retry budget.
* **Bounded retries** — transiently failed solves are re-run per the
  shared :class:`repro.resilience.RetryPolicy` (exponential backoff);
  the budget exhausted, the job is journaled ``failed`` with its
  error, which is an answer, not a loss.
* **Opt-in checkpointing** — a job with ``checkpoint_every > 0`` runs
  solo with a :class:`~repro.resilience.CheckpointManager`, so a crash
  mid-solve resumes the recurrence bit-exactly instead of recomputing.

Threading discipline: HTTP handler threads only touch the admission
path (engine lock + journal lock); ONE scheduler thread runs every
solve, so the non-thread-safe obs registry is never entered
concurrently.  Counter increments accumulate under the engine lock and
are flushed to obs by whoever calls :meth:`ReconService.sync_obs`.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ..cache import PlanCache
from ..core.operator import OperatorConfig
from ..core.preprocess import preprocess
from ..geometry import ParallelBeamGeometry
from ..obs import (
    SERVICE_BATCHES,
    SERVICE_COALESCED_JOBS,
    SERVICE_COMPLETED,
    SERVICE_EVICTIONS,
    SERVICE_EXPIRED,
    SERVICE_FAILED,
    SERVICE_JOURNAL_RECORDS,
    SERVICE_RECOVERED,
    SERVICE_REJECTED,
    SERVICE_RETRIES,
    SERVICE_SUBMITTED,
    add_count,
)
from ..precision import solver_dtype
from ..resilience import CheckpointManager, RetryPolicy
from ..solvers.table import clip_counts, solver_row
from ..solvers import cgls, cgls_batch, mlem, mlem_batch, sirt, sirt_batch  # row entries
from .faults import InjectedSolveCrash, ServiceFaultConfig, ServiceFaultInjector
from .journal import JobJournal

__all__ = [
    "JobSpec",
    "Job",
    "ServiceConfig",
    "ReconService",
    "ServiceError",
    "QueueFullError",
    "RateLimitedError",
    "DroppedSubmissionError",
    "UnknownJobError",
    "ResultNotReadyError",
    "JobFailedError",
]

#: Job lifecycle states.  ``done``/``failed``/``expired`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "expired")
TERMINAL = frozenset({"done", "failed", "expired"})


# -- errors --------------------------------------------------------------


class ServiceError(RuntimeError):
    """A submission was refused; ``retry_after`` says when to try again."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class QueueFullError(ServiceError):
    """The admission queue is at capacity (backpressure, HTTP 429)."""


class RateLimitedError(ServiceError):
    """The tenant exceeded its token bucket (backpressure, HTTP 429)."""


class DroppedSubmissionError(ServiceError):
    """An injected pre-acknowledgement drop (chaos only, HTTP 503)."""


class UnknownJobError(KeyError):
    """No job with that id exists (HTTP 404)."""


class ResultNotReadyError(RuntimeError):
    """The job exists but has not finished yet (HTTP 409)."""

    def __init__(self, job_id: str, state: str):
        super().__init__(f"job {job_id} is {state}, result not ready")
        self.state = state


class JobFailedError(RuntimeError):
    """The job reached a terminal state without a result (HTTP 410).

    Also raised for *evicted* jobs — finished work whose spool payload
    was reclaimed by the result TTL or the spool size cap; the journal
    still answers ``status`` for them, but the bytes are gone.
    """

    def __init__(self, job_id: str, state: str, error: str | None):
        super().__init__(f"job {job_id} {state}: {error or 'no result'}")
        self.state = state
        self.error = error


class _DeadlineCancel(Exception):
    """Internal: a batch member's deadline passed mid-solve."""

    def __init__(self, expired_ids):
        super().__init__("deadline exceeded")
        self.expired_ids = frozenset(expired_ids)


# -- job model -----------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """Everything a client asks for, minus the sinogram itself.

    The geometry is carried as ``(num_angles, num_channels)`` — the
    sinogram shape — because that, plus the solve parameters, is what
    decides whether two jobs can share one batched dispatch.
    """

    num_angles: int
    num_channels: int
    tenant: str = "default"
    solver: str = "cg"
    iterations: int = 30
    tolerance: float = 0.0
    dtype: str | None = None
    deadline_s: float | None = None
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        solver_row(self.solver, slab=True, resilient=self.checkpoint_every > 0)
        if self.num_angles <= 0 or self.num_channels <= 0:
            raise ValueError(
                f"geometry must be non-empty, got "
                f"{self.num_angles} x {self.num_channels}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if not self.tenant:
            raise ValueError("tenant must be non-empty")

    @property
    def coalesce_key(self) -> tuple:
        """Jobs with equal keys are bit-safely batchable into one solve."""
        return (
            self.num_angles,
            self.num_channels,
            self.solver,
            self.iterations,
            float(self.tolerance),
            self.dtype,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass
class Job:
    """Mutable runtime state of one accepted job."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    accepted_wall: float = 0.0
    deadline_wall: float | None = None
    attempts: int = 0
    not_before: float = 0.0  # monotonic eligibility time (retry backoff)
    error: str | None = None
    recovered: bool = False
    resumed_iteration: int = 0
    batch_size: int = 0
    iterations_run: int = 0
    solve_seconds: float = 0.0
    terminal_wall: float = 0.0  # wall time the job turned terminal
    payload_bytes: int = 0  # on-disk spool footprint once terminal
    evicted: bool = False

    def status(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "evicted": self.evicted,
            "tenant": self.spec.tenant,
            "solver": self.spec.solver,
            "iterations": self.spec.iterations,
            "attempts": self.attempts,
            "error": self.error,
            "recovered": self.recovered,
            "resumed_iteration": self.resumed_iteration,
            "batch_size": self.batch_size,
            "iterations_run": self.iterations_run,
            "solve_seconds": self.solve_seconds,
            "accepted_wall": self.accepted_wall,
            "deadline_wall": self.deadline_wall,
        }


class _TokenBucket:
    """Per-tenant rate limiter: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float, clock):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def take(self) -> tuple[bool, float]:
        """(granted, retry_after).  Not thread-safe; call under a lock."""
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        needed = (1.0 - self._tokens) / self.rate if self.rate > 0 else float("inf")
        return False, needed


# -- configuration -------------------------------------------------------


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one engine instance (see ``docs/service.md``)."""

    spool: str
    queue_limit: int = 16
    max_batch: int = 8
    coalesce_window_s: float = 0.005
    rate_limit: float | None = None  # jobs/s per tenant; None = unlimited
    rate_burst: float = 4.0
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_retries=2, backoff_base=0.05, backoff_cap=2.0
    ))
    cache: object = "auto"
    ordering: str = "pseudo-hilbert"
    # Part of every plan key.  A scan with an 8-slot ray group runs the
    # orbit SpMM whatever it names; elsewhere it picks the layout.
    kernel: str = "buffered"
    faults: ServiceFaultConfig | None = None
    #: Evict a terminal job's spool payload this many seconds after it
    #: turns terminal (None = keep forever).  ``result`` then answers
    #: HTTP 410 instead of re-serving the bytes.
    result_ttl_s: float | None = None
    #: Cap on total spool bytes held by terminal jobs; oldest-first
    #: eviction brings the spool back under it (None = unbounded).
    spool_cap_bytes: int | None = None

    def __post_init__(self) -> None:
        # Fail a bad kernel name at config time, not at first dispatch.
        OperatorConfig(kernel=self.kernel)
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError(f"rate_limit must be > 0, got {self.rate_limit}")
        if self.rate_burst < 1:
            raise ValueError(f"rate_burst must be >= 1, got {self.rate_burst}")
        if self.result_ttl_s is not None and self.result_ttl_s <= 0:
            raise ValueError(
                f"result_ttl_s must be > 0, got {self.result_ttl_s}"
            )
        if self.spool_cap_bytes is not None and self.spool_cap_bytes < 0:
            raise ValueError(
                f"spool_cap_bytes must be >= 0, got {self.spool_cap_bytes}"
            )


# -- the engine ----------------------------------------------------------


class ReconService:
    """Journaled multi-tenant reconstruction engine.

    ``clock`` (wall time, deadlines + journal stamps) and ``monotonic``
    (backoff/eligibility) are injectable so tests drive deadline and
    rate-limit behaviour deterministically instead of sleeping.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        clock=time.time,
        monotonic=time.monotonic,
    ):
        self.config = config
        self.clock = clock
        self.monotonic = monotonic
        self.journal = JobJournal(config.spool)
        faults = config.faults
        if faults is None:
            faults = ServiceFaultConfig.from_env()
        self.injector = (
            ServiceFaultInjector(faults) if faults and faults.any_faults else None
        )
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queue: list[str] = []
        self._admitted = 0  # queued + running (bounds the queue_limit)
        self._buckets: dict[str, _TokenBucket] = {}
        self._tenants: dict[str, dict[str, int]] = {}
        self._operators: dict[tuple, object] = {}
        self._obs_pending: dict[str, float] = {}
        self._recent_solve_s: list[float] = []
        self._scheduler: threading.Thread | None = None
        self._stopping = False
        self._draining = False
        self.recovered_jobs = 0

    # -- lifecycle -------------------------------------------------------

    def start(self, recover: bool = True) -> "ReconService":
        """Replay the journal (optionally) and start the scheduler."""
        if recover:
            self.recover()
        with self._lock:
            self._stopping = False
            self._draining = False
        self._scheduler = threading.Thread(
            target=self._run, name="repro-service-scheduler", daemon=True
        )
        self._scheduler.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the scheduler; ``drain`` finishes the queue first.

        With ``drain=False`` queued jobs stay journaled as accepted —
        a restart recovers and finishes them, which is the SIGKILL
        story minus the kill.
        """
        with self._cond:
            self._stopping = True
            self._draining = drain
            self._cond.notify_all()
        if self._scheduler is not None:
            self._scheduler.join(timeout=timeout)
            self._scheduler = None

    def close(self) -> None:
        """Release file handles and cached operators (no scheduling)."""
        self.journal.close()
        for op in self._operators.values():
            op.close()
        self._operators.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop(drain=False, timeout=5.0)
        self.close()
        return False

    # -- recovery --------------------------------------------------------

    def recover(self) -> int:
        """Replay the journal; requeue acknowledged unfinished jobs.

        Returns the number of jobs requeued.  Terminal jobs are
        re-registered so ``status``/``result`` keep answering for them
        across restarts.  An acknowledged job whose input archive is
        missing or corrupt is journaled ``failed`` — an explicit
        answer, never a silent disappearance.
        """
        entries = sorted(self.journal.replay().values(), key=lambda e: e.seq)
        requeued = 0
        for entry in entries:
            try:
                spec = JobSpec.from_dict(entry.spec)
            except (TypeError, ValueError):
                continue  # journal from a newer/older schema: leave it be
            job = Job(
                job_id=entry.job_id,
                spec=spec,
                accepted_wall=float(entry.meta.get("accepted_wall", 0.0)),
                deadline_wall=entry.meta.get("deadline_wall"),
                recovered=True,
            )
            if entry.terminal:
                job.state = entry.state
                job.error = entry.error
                job.evicted = bool(entry.meta.get("evicted"))
                job.terminal_wall = float(
                    entry.meta.get("terminal_wall", job.accepted_wall)
                )
                if not job.evicted:
                    job.payload_bytes = self.journal.payload_bytes(
                        entry.job_id
                    )
                with self._lock:
                    self._jobs[entry.job_id] = job
                continue
            if not self.journal.verify_input(entry.job_id):
                job.state = "failed"
                job.error = "input archive missing or corrupt after restart"
                job.terminal_wall = self.clock()
                job.payload_bytes = self.journal.payload_bytes(entry.job_id)
                self.journal.record_failed(
                    entry.job_id, job.error, terminal_wall=job.terminal_wall
                )
                with self._lock:
                    self._jobs[entry.job_id] = job
                    self._bump(SERVICE_FAILED)
                    self._bump(SERVICE_JOURNAL_RECORDS)
                continue
            with self._cond:
                self._jobs[entry.job_id] = job
                self._queue.append(entry.job_id)
                self._admitted += 1
                self._bump(SERVICE_RECOVERED)
                requeued += 1
                self._cond.notify_all()
        self.recovered_jobs += requeued
        return requeued

    # -- admission -------------------------------------------------------

    def submit(self, sinogram, spec: JobSpec) -> dict:
        """Admit one job; returns its acknowledged status dict.

        Raises :class:`QueueFullError` / :class:`RateLimitedError`
        (explicit backpressure with ``retry_after``) or
        :class:`DroppedSubmissionError` (injected chaos).  On any of
        those, nothing was journaled: the client owns the retry.
        """
        sinogram = np.ascontiguousarray(np.asarray(sinogram, dtype=np.float64))
        if sinogram.shape != (spec.num_angles, spec.num_channels):
            raise ValueError(
                f"sinogram shape {sinogram.shape} does not match spec "
                f"{(spec.num_angles, spec.num_channels)}"
            )
        if not np.all(np.isfinite(sinogram)):
            raise ValueError("sinogram contains non-finite values")
        self._sweep_evictions()  # new work displaces the oldest results
        with self._lock:
            self._bump(SERVICE_SUBMITTED)
            tenant_stats = self._tenants.setdefault(
                spec.tenant, {"submitted": 0, "rejected": 0, "completed": 0}
            )
            tenant_stats["submitted"] += 1
            if self.injector is not None and self.injector.draw_drop():
                tenant_stats["rejected"] += 1
                self._bump(SERVICE_REJECTED)
                raise DroppedSubmissionError(
                    "submission dropped (injected fault)", retry_after=0.05
                )
            if self.config.rate_limit is not None:
                bucket = self._buckets.get(spec.tenant)
                if bucket is None:
                    bucket = self._buckets[spec.tenant] = _TokenBucket(
                        self.config.rate_limit, self.config.rate_burst,
                        self.monotonic,
                    )
                granted, retry_after = bucket.take()
                if not granted:
                    tenant_stats["rejected"] += 1
                    self._bump(SERVICE_REJECTED)
                    raise RateLimitedError(
                        f"tenant {spec.tenant!r} exceeded "
                        f"{self.config.rate_limit}/s",
                        retry_after=retry_after,
                    )
            if self._admitted >= self.config.queue_limit:
                tenant_stats["rejected"] += 1
                self._bump(SERVICE_REJECTED)
                raise QueueFullError(
                    f"queue full ({self._admitted}/{self.config.queue_limit})",
                    retry_after=self._estimate_retry_after(),
                )
            self._admitted += 1  # reserve the slot before the slow I/O
            accepted_wall = self.clock()
            job = Job(
                job_id=uuid.uuid4().hex[:16],
                spec=spec,
                accepted_wall=accepted_wall,
                deadline_wall=(
                    accepted_wall + spec.deadline_s
                    if spec.deadline_s is not None else None
                ),
            )
        try:
            self.journal.save_input(job.job_id, sinogram, spec.to_dict())
            self.journal.record_accepted(
                job.job_id,
                spec.to_dict(),
                accepted_wall=job.accepted_wall,
                deadline_wall=job.deadline_wall,
            )
        except BaseException:
            with self._lock:
                self._admitted -= 1
            raise
        with self._cond:
            self._bump(SERVICE_JOURNAL_RECORDS)
            self._jobs[job.job_id] = job
            self._queue.append(job.job_id)
            self._cond.notify_all()
            return job.status()

    def _estimate_retry_after(self) -> float:
        """Backlog drain estimate from recent solve throughput."""
        if not self._recent_solve_s:
            return 1.0
        mean = sum(self._recent_solve_s) / len(self._recent_solve_s)
        batches_pending = max(1, self._admitted) / self.config.max_batch
        return float(min(60.0, max(0.1, mean * batches_pending)))

    # -- queries ---------------------------------------------------------

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def status(self, job_id: str) -> dict:
        with self._lock:
            return self._get(job_id).status()

    def result(self, job_id: str):
        """The finished image; loads (and CRC-verifies) from the spool.

        An evicted job answers :class:`JobFailedError` (HTTP 410): the
        result existed, was durably served for its TTL / within the
        spool cap, and is now gone — an explicit answer, not a 404.
        """
        with self._lock:
            job = self._get(job_id)
            state, error, evicted = job.state, job.error, job.evicted
        if evicted:
            raise JobFailedError(
                job_id, "evicted",
                "result evicted from spool (ttl or capacity)",
            )
        if state == "done":
            image, _meta = self.journal.load_result(job_id)
            return image
        if state in TERMINAL:
            raise JobFailedError(job_id, state, error)
        raise ResultNotReadyError(job_id, state)

    def wait(self, job_ids=None, timeout: float = 30.0) -> bool:
        """Block until the given jobs (default: all) are terminal."""
        deadline = self.monotonic() + timeout
        with self._cond:
            while True:
                ids = job_ids if job_ids is not None else list(self._jobs)
                if all(self._jobs[j].state in TERMINAL
                       for j in ids if j in self._jobs):
                    return True
                remaining = deadline - self.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {s: 0 for s in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "queue_depth": len(self._queue),
                "admitted": self._admitted,
                "queue_limit": self.config.queue_limit,
                "states": states,
                "evicted_jobs": sum(
                    1 for job in self._jobs.values() if job.evicted
                ),
                "spool_payload_bytes": sum(
                    job.payload_bytes for job in self._jobs.values()
                ),
                "tenants": {t: dict(v) for t, v in self._tenants.items()},
                "recovered_jobs": self.recovered_jobs,
                "journal_records": self.journal.records_written,
                "faults": (
                    {
                        "drops": self.injector.drops,
                        "delays": self.injector.delays,
                        "crashes": self.injector.crashes,
                    }
                    if self.injector is not None else None
                ),
            }

    # -- obs bridge ------------------------------------------------------

    def _bump(self, name: str, value: float = 1.0) -> None:
        """Accumulate a counter delta; caller must hold the lock."""
        self._obs_pending[name] = self._obs_pending.get(name, 0.0) + value

    def sync_obs(self) -> None:
        """Flush accumulated counter deltas into the obs registry.

        Call from whatever thread owns observation (tests, the CLI's
        metrics epilogue) — the engine never touches the registry from
        its worker threads.
        """
        with self._lock:
            pending, self._obs_pending = self._obs_pending, {}
        for name, value in pending.items():
            add_count(name, value)

    # -- spool eviction --------------------------------------------------

    def _sweep_evictions(self) -> None:
        """Reclaim terminal-job payloads past TTL or over the size cap.

        Runs from the scheduler loop (each dispatch and each idle
        wake-up) and on every submission, so both policies hold without
        a dedicated janitor thread.  Oldest-terminal-first, matching
        the intuition that the longest-served result is the first to
        go.  Two-phase: victims are *marked* evicted under the lock
        (so concurrent sweepers never double-count), then the file
        deletes and journal appends happen outside it.
        """
        cfg = self.config
        if cfg.result_ttl_s is None and cfg.spool_cap_bytes is None:
            return
        now = self.clock()
        victims: list[Job] = []
        with self._lock:
            terminal = sorted(
                (
                    job for job in self._jobs.values()
                    if job.state in TERMINAL and not job.evicted
                ),
                key=lambda job: (job.terminal_wall, job.accepted_wall),
            )
            if cfg.result_ttl_s is not None:
                victims.extend(
                    job for job in terminal
                    if now - job.terminal_wall > cfg.result_ttl_s
                )
            if cfg.spool_cap_bytes is not None:
                chosen = {job.job_id for job in victims}
                survivors = [
                    job for job in terminal if job.job_id not in chosen
                ]
                total = sum(job.payload_bytes for job in survivors)
                for job in survivors:
                    if total <= cfg.spool_cap_bytes:
                        break
                    victims.append(job)
                    total -= job.payload_bytes
            for job in victims:
                job.evicted = True
                job.payload_bytes = 0
                self._bump(SERVICE_EVICTIONS)
        for job in victims:
            self.journal.evict_payloads(job.job_id)
            self.journal.record_evicted(job.job_id, evicted_wall=now)
            with self._lock:
                self._bump(SERVICE_JOURNAL_RECORDS)

    # -- scheduling ------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            if batch:
                self._dispatch(batch)
            self._sweep_evictions()

    def _eligible_index(self) -> int | None:
        """Index of the first runnable queued job (FIFO, backoff-aware)."""
        now = self.monotonic()
        for i, job_id in enumerate(self._queue):
            if self._jobs[job_id].not_before <= now:
                return i
        return None

    def _next_batch(self) -> list[Job] | None:
        """Block for work; returns a coalesced batch, [] to retry the
        loop (deadline expiries), or None to exit."""
        with self._cond:
            while True:
                idx = self._eligible_index()
                if idx is not None:
                    break
                if self._stopping and not (self._draining and self._queue):
                    return None
                if self._queue:
                    # Everything queued is backing off; sleep until the
                    # earliest job becomes eligible again.
                    now = self.monotonic()
                    wake = min(
                        self._jobs[j].not_before for j in self._queue
                    )
                    self._cond.wait(timeout=max(0.0, wake - now) or 0.01)
                else:
                    self._cond.wait(timeout=0.25)
                    # Idle wake-ups double as TTL sweeps (the RLock
                    # makes the re-entry from under the condition safe).
                    self._sweep_evictions()
        # A short accrual window lets near-simultaneous submissions
        # coalesce even when the scheduler is idle when they arrive.
        if self.config.coalesce_window_s > 0:
            time.sleep(self.config.coalesce_window_s)
        batch: list[Job] = []
        expired: list[Job] = []
        with self._cond:
            idx = self._eligible_index()
            if idx is None:
                return []
            head = self._jobs[self._queue.pop(idx)]
            now_wall = self.clock()
            now_mono = self.monotonic()
            if head.deadline_wall is not None and now_wall > head.deadline_wall:
                expired.append(head)
            else:
                batch.append(head)
                solo = head.spec.checkpoint_every > 0
                if not solo:
                    keep: list[str] = []
                    for job_id in self._queue:
                        job = self._jobs[job_id]
                        if (
                            len(batch) < self.config.max_batch
                            and job.not_before <= now_mono
                            and job.spec.checkpoint_every == 0
                            and job.spec.coalesce_key == head.spec.coalesce_key
                        ):
                            if (job.deadline_wall is not None
                                    and now_wall > job.deadline_wall):
                                expired.append(job)
                            else:
                                batch.append(job)
                        else:
                            keep.append(job_id)
                    self._queue[:] = keep
            for job in batch:
                job.state = "running"
                job.batch_size = len(batch)
        for job in expired:
            self._finalize_expired(job)
        return batch

    def _finalize_expired(self, job: Job) -> None:
        terminal_wall = self.clock()
        self.journal.record_expired(job.job_id, terminal_wall=terminal_wall)
        payload = self.journal.payload_bytes(job.job_id)
        with self._cond:
            job.state = "expired"
            job.error = "deadline exceeded"
            job.terminal_wall = terminal_wall
            job.payload_bytes = payload
            self._admitted -= 1
            self._bump(SERVICE_EXPIRED)
            self._bump(SERVICE_JOURNAL_RECORDS)
            self._cond.notify_all()

    def _operator_for(self, spec: JobSpec):
        key = (spec.num_angles, spec.num_channels, spec.dtype)
        op = self._operators.get(key)
        if op is None:
            geometry = ParallelBeamGeometry(spec.num_angles, spec.num_channels)
            op, _report = preprocess(
                geometry,
                config=OperatorConfig(kernel=self.config.kernel,
                                      dtype=spec.dtype),
                ordering=self.config.ordering,
                cache=PlanCache.resolve(self.config.cache),
            )
            self._operators[key] = op
        return op

    def _deadline_callback(self, batch: list[Job], crash: bool):
        """Per-iteration hook: deadline enforcement + injected crashes.

        Works for both solver callback shapes — ``(iteration, x)`` from
        the single-slice solvers and ``(iteration, X, active)`` from
        the batched ones.
        """
        deadlines = [
            (job.job_id, job.deadline_wall)
            for job in batch if job.deadline_wall is not None
        ]

        def callback(iteration, *_args):
            if crash and iteration >= 1:
                raise InjectedSolveCrash(
                    f"injected solve crash at iteration {iteration}"
                )
            if deadlines:
                now = self.clock()
                over = [jid for jid, dw in deadlines if now > dw]
                if over:
                    raise _DeadlineCancel(over)

        return callback

    def _dispatch(self, batch: list[Job]) -> None:
        if self.injector is not None:
            self.injector.on_solve_dispatch()  # may os._exit (die_at)
            delay = self.injector.draw_delay()
            if delay > 0:
                time.sleep(delay)
        crash = self.injector.draw_crash() if self.injector is not None else False
        started = self.monotonic()
        try:
            images, iterations, resumed = self._solve(batch, crash)
        except _DeadlineCancel as cancel:
            for job in batch:
                if job.job_id in cancel.expired_ids:
                    self._finalize_expired(job)
                else:
                    # An unexpired peer lost its ride, not its budget:
                    # requeue at the front, immediately eligible.
                    with self._cond:
                        job.state = "queued"
                        job.not_before = 0.0
                        self._queue.insert(0, job.job_id)
                        self._cond.notify_all()
            return
        except Exception as exc:  # noqa: BLE001 — every solve failure is policy
            self._handle_failure(batch, exc)
            return
        elapsed = self.monotonic() - started
        terminal_wall = self.clock()
        payload_sizes = []
        for j, job in enumerate(batch):
            self.journal.save_result(
                job.job_id,
                images[j],
                {
                    "iterations": int(iterations[j]),
                    "solver": job.spec.solver,
                    "batch_size": len(batch),
                    "attempts": job.attempts + 1,
                },
            )
            self.journal.record_done(
                job.job_id, iterations=int(iterations[j]),
                batch_size=len(batch), terminal_wall=terminal_wall,
            )
            payload_sizes.append(self.journal.payload_bytes(job.job_id))
        with self._cond:
            self._recent_solve_s.append(elapsed)
            del self._recent_solve_s[:-8]
            for j, job in enumerate(batch):
                job.state = "done"
                job.attempts += 1
                job.iterations_run = int(iterations[j])
                job.solve_seconds = elapsed
                job.terminal_wall = terminal_wall
                job.payload_bytes = payload_sizes[j]
                if resumed:
                    job.resumed_iteration = resumed
                self._admitted -= 1
                self._bump(SERVICE_COMPLETED)
                self._bump(SERVICE_JOURNAL_RECORDS)
                tenant = self._tenants.setdefault(
                    job.spec.tenant,
                    {"submitted": 0, "rejected": 0, "completed": 0},
                )
                tenant["completed"] += 1
            self._bump(SERVICE_BATCHES)
            if len(batch) > 1:
                self._bump(SERVICE_COALESCED_JOBS, float(len(batch)))
            self._cond.notify_all()

    def _handle_failure(self, batch: list[Job], exc: Exception) -> None:
        """Charge a failed attempt; requeue within budget, else fail."""
        policy = self.config.retry
        error = f"{type(exc).__name__}: {exc}"
        exhausted: list[Job] = []
        with self._cond:
            for job in batch:
                job.attempts += 1
                retries_used = job.attempts - 1
                if policy.exhausted(retries_used):
                    exhausted.append(job)
                else:
                    job.state = "queued"
                    job.not_before = (
                        self.monotonic() + policy.delay(retries_used)
                    )
                    self._queue.append(job.job_id)
                    self._bump(SERVICE_RETRIES)
            self._cond.notify_all()
        # Journal the terminal record BEFORE the state flip that releases
        # wait(): a caller who observes `failed` must find it on disk.
        for job in exhausted:
            terminal_wall = self.clock()
            self.journal.record_failed(
                job.job_id, error, terminal_wall=terminal_wall
            )
            payload = self.journal.payload_bytes(job.job_id)
            with self._cond:
                job.state = "failed"
                job.error = error
                job.terminal_wall = terminal_wall
                job.payload_bytes = payload
                self._admitted -= 1
                self._bump(SERVICE_FAILED)
                self._bump(SERVICE_JOURNAL_RECORDS)
                self._cond.notify_all()

    def _solve(self, batch: list[Job], crash: bool):
        """Run one dispatch; returns (images, iterations, resumed_from).

        A lone job is the single solve (with snapshots and bit-exact
        resume when its spec asks for them); a cohort is one slab solve
        — the same recurrence either way, so a job's image does not
        depend on whether it rode alone or coalesced.  Entries are read
        off this module at call time (wrappable, e.g. by a tracer).
        """
        spec = batch[0].spec
        row = solver_row(spec.solver)
        op = self._operator_for(spec)
        work = solver_dtype(op)
        inputs = []
        for job in batch:
            sinogram, _spec_doc = self.journal.load_input(job.job_id)
            inputs.append(op.sinogram_to_ordered(sinogram))
        kwargs = {
            "num_iterations": spec.iterations,
            "tolerance": spec.tolerance,
            "callback": self._deadline_callback(batch, crash),
        }
        if len(batch) > 1:
            Y = clip_counts(row, np.stack(inputs, axis=1).astype(work, copy=False), work)
            result = globals()[row.batch](op, Y, **kwargs)
            images = [
                op.ordered_to_image(np.ascontiguousarray(result.X[:, j]))
                for j in range(len(batch))
            ]
            return images, list(np.asarray(result.iterations).ravel()), 0
        resumed_from = 0
        if spec.checkpoint_every > 0:
            # Solo resilient solve: periodic snapshots, bit-exact resume.
            path = self.journal.checkpoint_path(batch[0].job_id)
            manager = CheckpointManager(path, every=spec.checkpoint_every)
            kwargs["checkpoint"] = manager
            snapshot = manager.load() if path.exists() else None
            if snapshot is not None:
                kwargs["resume"] = snapshot
                resumed_from = int(snapshot.iteration)
        y = clip_counts(row, np.ascontiguousarray(inputs[0]).astype(work, copy=False), work)
        result = globals()[row.entry](op, y, **kwargs)
        return [op.ordered_to_image(result.x)], [result.iterations], resumed_from
