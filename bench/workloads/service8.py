"""service8 — ``ReconService`` at its defaults: first job, cohort, lone jobs.

Why it exists: journal fsync, the spool, the scheduler thread and
request coalescing exist only here.  Three phases use the one layer in
different ways, so a trade between them shows:

* **A** — the first job of a fresh engine: on an empty plan cache it
  pays the whole operator build (``setup_s``), on a populated one only
  the load (``warm_setup_s``);
* **B** — throughput: scheduler stopped, eight compatible jobs queued,
  scheduler started, queue drained as one coalesced batch (``solve_s``);
* **C** — latency: a closed loop of one client, each round trip
  submit -> wait -> result before the next is sent (``job_p50_ms``).
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time

import numpy as np

from repro import OperatorConfig, obs, preprocess, reconstruct
from repro.cache import PlanCache
from repro.geometry import ParallelBeamGeometry
from repro.persist import atomic_savez_checked
from repro.phantoms import stacked_shepp_logan
from repro.service import JobJournal, JobSpec, ReconService, ServiceConfig

from .. import kernels, layers
from ..harness import Context, median, peak_rss_mb, pick_size, tail_percentile, timed
from ..tracing import Span, Tracer

SIZES = {
    "full": {"angles": 180, "channels": 128, "iterations": 10, "jobs": 8,
             "max_rel_residual": 0.06, "max_rmse": 0.10},
    "quick": {"angles": 48, "channels": 32, "iterations": 8, "jobs": 8,
              "max_rel_residual": 0.06, "max_rmse": 0.16},
}
BYPASSED = ("pipeline.", "dataio.", "dist.", "topology.")

#: What the engine builds: ``ServiceConfig``'s default kernel, mixed precision.
CONFIG = OperatorConfig(kernel="buffered")
COLD_ENGINES = 2  # phase A on an empty cache: set-up samples per run
TRIPS = 5  # closed-loop round trips of phase C, per cycle (end to end) or in all (traced)
WAIT_S = 120.0


@contextlib.contextmanager
def _service(ctx: Context, tag: str, cache_dir):
    """A started engine on a fresh spool and an explicit plan cache —
    everything else is the service default (buffered kernel,
    ``max_batch=8``, 5 ms coalescing window)."""
    config = ServiceConfig(spool=str(ctx.workdir / f"spool-{tag}"), cache=str(cache_dir))
    with ReconService(config) as svc:
        svc.start(recover=False)
        yield svc


def _round_trip(svc, sinogram, spec):
    job_id = svc.submit(sinogram, spec)["job_id"]
    svc.wait([job_id], timeout=WAIT_S)
    return svc.result(job_id)


class _Inputs:
    """Seeded sinograms plus the direct solves the service must match."""

    def __init__(self, ctx: Context, size: dict, cache_dir=None):
        self.size = size
        self.geometry = ParallelBeamGeometry(size["angles"], size["channels"])
        self.spec = JobSpec(num_angles=size["angles"], num_channels=size["channels"],
                            iterations=size["iterations"])
        # With ``cache_dir`` this build also populates the plan cache the
        # warm engines start on.
        self.operator, _ = preprocess(self.geometry, config=CONFIG, cache=cache_dir)
        self.phantoms = stacked_shepp_logan(size["channels"], size["jobs"])
        self.sinograms = [
            layers.noisy_sinogram(self.operator, phantom, ctx.seed + j)
            for j, phantom in enumerate(self.phantoms)
        ]
        self.direct = [
            reconstruct(s, self.geometry, operator=self.operator, solver="cg",
                        iterations=size["iterations"]).image
            for s in self.sinograms
        ]

    def check(self, ctx: Context, label: str, index: int, image) -> None:
        ctx.checks.check(f"{label} equals the direct solve",
                         np.array_equal(image, self.direct[index]))

    def quality(self, ctx: Context) -> dict:
        """Worst job; computed on the direct solves every served image
        was checked bit-equal to."""
        quality = {
            "rel_residual": max(
                layers.rel_residual(self.operator, image, sinogram)
                for image, sinogram in zip(self.direct, self.sinograms)
            ),
            "rmse": max(
                layers.rmse(image, phantom)
                for image, phantom in zip(self.direct, self.phantoms)
            ),
        }
        layers.check_ceilings(ctx, quality, self.size)
        layers.check_adjointness(ctx, self.operator)
        return quality


def _first_job(ctx: Context, svc, inputs: _Inputs, metric: str) -> None:
    """Phase A: the first round trip of a fresh engine, a sample of
    ``metric`` (``setup_s`` on an empty plan cache, ``warm_setup_s`` on a
    populated one)."""
    image = ctx.time(metric, _round_trip, svc, inputs.sinograms[0], inputs.spec)
    inputs.check(ctx, f"first job ({metric})", 0, image)


def _no_span(_name):
    return None


def _lone_jobs(ctx: Context, svc, inputs: _Inputs, trips: int, metric: str,
               span=_no_span) -> None:
    """Phase C: ``trips`` sequential round trips, one client, each a
    sample of ``metric``.  The traced run passes ``tracer.span`` to root
    each trip's spans."""
    for i in range(trips):
        j = i % len(inputs.sinograms)
        image = ctx.time(metric, _round_trip, svc, inputs.sinograms[j], inputs.spec,
                         span=span("service.roundtrip"))
        inputs.check(ctx, f"lone job {i} ({metric})", j, image)


def _cohort(ctx: Context, svc, inputs: _Inputs, span=_no_span) -> None:
    """Phase B: queue the cohort behind a stopped scheduler, then time
    start -> every job terminal as one ``solve_s`` sample."""
    svc.stop(drain=True, timeout=WAIT_S)
    ids = [svc.submit(s, inputs.spec)["job_id"] for s in inputs.sinograms]

    def drain():
        svc.start(recover=False)
        svc.wait(ids, timeout=WAIT_S)

    ctx.time("solve_s", drain, span=span("service.drain"))
    ctx.checks.attempt(len(ids) - 1)  # the sample counted one job
    sizes = [svc.status(j)["batch_size"] for j in ids]
    ctx.checks.check("cohort ran as one coalesced batch",
                     sizes == [len(ids)] * len(ids), str(sizes))
    for j, job_id in enumerate(ids):
        inputs.check(ctx, f"cohort job {j}", j, svc.result(job_id))


def measure(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    warm_cache = ctx.workdir / "plans-warm"
    inputs = _Inputs(ctx, size, warm_cache)

    for i in range(1 if ctx.quick else COLD_ENGINES):
        with _service(ctx, f"cold-{i}", ctx.workdir / f"plans-cold-{i}") as svc:
            _first_job(ctx, svc, inputs, "setup_s")
    for i in ctx.cycles(at_least=3, reserve=1.0):
        with _service(ctx, f"warm-{i}", warm_cache) as svc:
            _first_job(ctx, svc, inputs, "warm_setup_s")
            _lone_jobs(ctx, svc, inputs, TRIPS, "job_p50_ms")
            _cohort(ctx, svc, inputs)

    latencies = [1e3 * s for s in ctx.samples["job_p50_ms"]]
    percentile, tail = tail_percentile(latencies)
    ctx.notes.append(
        f"  lone-job latency (raw wall): n={len(latencies)}, p50 {median(latencies):.1f} ms; "
        f"highest percentile with >= 10 samples beyond it: p{percentile:.0f} = {tail:.1f} ms"
    )
    entries = PlanCache(warm_cache).entries()
    ctx.checks.check("warm engines shared the one plan entry", len(entries) == 1,
                     f"{len(entries)} entries")
    metrics = {name: ctx.metric(name) for name in ("setup_s", "warm_setup_s", "solve_s")}
    # A p50 is a median: this one metric takes the middle, not the quiet
    # quartile, of its samples (and of the yardstick's).
    metrics["job_p50_ms"] = 1e3 * ctx.metric("job_p50_ms", q=0.5)
    metrics["plan_mb"] = entries[0].nbytes / 1e6
    metrics.update(inputs.quality(ctx))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def _region(tracer: Tracer, name: str, parents: list[Span]) -> Span:
    """A synthetic root covering ``parents`` (main-thread spans) and the
    scheduler thread's spans inside their time window.

    ``service.wait`` is dropped from the children: the main thread only
    sleeps in it while the scheduler works, so the scheduler's own spans
    stand in for it and the root's self time is the part of the wall
    nobody claimed (coalescing window, hand-offs, bookkeeping).
    """
    main = threading.get_ident()
    lo, hi = parents[0].start, parents[-1].end
    root = Span(name, 0.0, None, main, end=sum(p.duration for p in parents))
    for parent in parents:
        root.children += [c for c in parent.children if c.name != "service.wait"]
    root.children += [
        s for s in tracer.spans
        if s.parent is None and s.thread != main and lo <= s.start and s.end <= hi
    ]
    return root


def trace(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    inputs = _Inputs(ctx, size)
    tracer = Tracer()
    # The engine's operator build is this same call with these arguments.
    _, cache_dir, metrics, setup_gap = layers.trace_setup(
        ctx, tracer, inputs.geometry, CONFIG
    )

    engine = sys.modules["repro.service.engine"]
    targets = layers.operator_targets() + [
        (ReconService, "submit", "service.submit"),
        (ReconService, "wait", "service.wait"),
        (ReconService, "result", "service.result"),
        (engine, "cgls", "solvers.cg"),
        (engine, "cgls_batch", "solvers.cg"),
        (JobJournal, "save_input", "journal.payload"),
        (JobJournal, "load_input", "journal.payload"),
        (JobJournal, "save_result", "journal.payload"),
        (JobJournal, "load_result", "journal.payload"),
        (JobJournal, "_append", "journal.record"),
        # the scheduler's coalescing window is its only sleep
        (time, "sleep", "service.window"),
    ]
    trips = 2 if ctx.quick else 2 * TRIPS
    with _service(ctx, "traced", cache_dir) as svc:
        _first_job(ctx, svc, inputs, "warm_setup_s")
        _lone_jobs(ctx, svc, inputs, trips, "untraced_trip_s")
        svc.sync_obs()  # flush what ran so far: the capture counts only traced work
        with tracer.patched(targets), obs.capture() as capture:
            _lone_jobs(ctx, svc, inputs, trips, "traced_trip_s", span=tracer.span)
            _cohort(ctx, svc, inputs, span=tracer.span)
            svc.sync_obs()
    untraced, traced = ctx.samples["untraced_trip_s"], ctx.samples["traced_trip_s"]
    (drain,) = tracer.named("service.drain")

    lone = _region(tracer, "lone jobs", tracer.named("service.roundtrip"))
    lone_gap = layers.close_accounts(ctx, tracer, lone, "lone jobs (phase C)")
    lone_stats = tracer.stats(lone)
    cohort = _region(tracer, "cohort", [drain])
    cohort_gap = layers.close_accounts(ctx, tracer, cohort, "cohort drain (phase B)")

    metrics.update(layers.solve_layer_metrics(tracer, lone, capture))
    lone_solve_s = lone_stats["solvers.cg"].total / trips
    latency_s = lone.duration / trips
    payload = {"sinogram": inputs.sinograms[0]}
    savez_ms = 1e3 * median(
        timed(atomic_savez_checked, ctx.workdir / "payload.npz", payload)[0]
        for _ in range(5)
    )
    metrics.update(
        {
            "service.ack_ms": lone_stats["service.submit"].mean_ms,
            "service.result_ms": lone_stats["service.result"].mean_ms,
            "service.overhead_ms": 1e3 * (latency_s - lone_solve_s),
            "persist.savez_ms": savez_ms,
            "service.solve_share": lone_solve_s / latency_s,
            # base: the cohort solved as lone jobs, one after another
            "service.cohort_vs_looped": drain.duration / (size["jobs"] * lone_solve_s),
            "service.batches": capture.total(obs.SERVICE_BATCHES),
            "service.journal_records": capture.total(obs.SERVICE_JOURNAL_RECORDS),
        }
    )
    inputs.quality(ctx)

    metrics.update(kernels.probe(ctx, inputs.operator))
    metrics["obs.overhead_frac"] = (median(traced) - median(untraced)) / median(untraced)
    metrics["bench.unattributed_frac"] = max(setup_gap, lone_gap, cohort_gap)
    return metrics
