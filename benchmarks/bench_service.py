"""Service acceptance — coalesced multi-RHS batching and zero-fault tax.

The MemXCT amortization argument applied to a *job server*: compatible
concurrent reconstruction requests share one operator, so the scheduler
coalescing them into a single multi-RHS solve streams the matrix once
per iteration for the whole batch instead of once per job.  This
benchmark submits the same eight same-geometry jobs to two engines:

* **independent** — ``max_batch=1``: eight solo solves, the matrix
  re-streamed for every job;
* **coalesced**   — ``max_batch=8`` with the jobs queued before the
  scheduler starts: one batched solve serves all eight.

Both engines run the service's one plan: on this half-turn scan the
orbit SpMM over the traced rows ``Q``, each call a multi-column SpMM
whose regular stream a batch reads once.  Results are compared
bit-exactly: coalescing never changes arithmetic.

A second phase measures the fault-injection tax: an engine with an
armed injector that (almost) never fires must cost within a few
percent of an engine with no injector at all — robustness plumbing
may not slow down the healthy path.

Acceptance:

* coalesced aggregate wall time is >= 1.5x faster than independent;
* all results bit-identical between the two engines;
* armed-but-idle fault injection overhead is < 5%.

``REPRO_BENCH_SMOKE=1`` shrinks the instance and relaxes the timing
thresholds so CI can exercise the harness quickly.
"""

import os
import time

import numpy as np

from repro.resilience import RetryPolicy
from repro.service import JobSpec, ReconService, ServiceConfig, ServiceFaultConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

ANGLES = 90 if SMOKE else 180
CHANNELS = 64 if SMOKE else 128
JOBS = 8
ITERATIONS = 6 if SMOKE else 12
MIN_SPEEDUP = 1.1 if SMOKE else 1.5
MAX_FAULT_TAX = 0.25 if SMOKE else 0.05
REPEATS = 2 if SMOKE else 4


def _sinograms():
    rng = np.random.default_rng(42)
    return [rng.random((ANGLES, CHANNELS)) for _ in range(JOBS)]


def _spec():
    return JobSpec(
        num_angles=ANGLES, num_channels=CHANNELS, iterations=ITERATIONS
    )


def _run_engine(tmp, tag, sinos, *, max_batch, faults=None):
    """Queue all jobs, then start the scheduler and time the drain.

    Submitting before ``start`` removes arrival jitter: the coalescing
    engine sees the whole cohort at its first dispatch, the independent
    engine drains the same queue one job at a time.  Preprocessing is
    excluded by warming the operator cache with a throwaway job first.
    """
    config = ServiceConfig(
        spool=str(tmp / tag),
        queue_limit=2 * JOBS,
        max_batch=max_batch,
        coalesce_window_s=0.0,
        retry=RetryPolicy(max_retries=0),
        faults=faults,
    )
    with ReconService(config) as svc:
        warm = svc.submit(sinos[0], _spec())
        svc.start(recover=False)
        assert svc.wait([warm["job_id"]], timeout=600)

        svc.stop(drain=True, timeout=600)
        acks = [svc.submit(s, _spec()) for s in sinos]
        t0 = time.perf_counter()
        svc.start(recover=False)
        assert svc.wait([a["job_id"] for a in acks], timeout=600)
        wall = time.perf_counter() - t0

        images = [svc.result(a["job_id"]) for a in acks]
        sizes = sorted(svc.status(a["job_id"])["batch_size"] for a in acks)
        svc.stop(drain=False, timeout=60)
    return wall, images, sizes


def test_coalesced_batching_speedup(tmp_path, report):
    sinos = _sinograms()
    solo_wall, solo_images, solo_sizes = _run_engine(
        tmp_path, "independent", sinos, max_batch=1
    )
    batch_wall, batch_images, batch_sizes = _run_engine(
        tmp_path, "coalesced", sinos, max_batch=JOBS
    )

    speedup = solo_wall / batch_wall
    exact = all(
        np.array_equal(a, b) for a, b in zip(solo_images, batch_images)
    )
    assert solo_sizes == [1] * JOBS
    assert batch_sizes == [JOBS] * JOBS

    lines = [
        f"service coalescing, {JOBS} jobs of {ANGLES}x{CHANNELS}, "
        f"CG x{ITERATIONS}, orbit kernel"
        + (" [smoke]" if SMOKE else ""),
        f"  independent (max_batch=1) : {solo_wall:8.3f} s aggregate",
        f"  coalesced   (max_batch={JOBS}) : {batch_wall:8.3f} s aggregate",
        f"  aggregate speedup         : {speedup:8.2f}x  "
        f"(acceptance >= {MIN_SPEEDUP}x)",
        f"  results bit-identical     : {exact}",
    ]
    report(
        "bench_service_coalescing",
        "\n".join(lines),
        extra={
            "independent_seconds": solo_wall,
            "coalesced_seconds": batch_wall,
            "speedup": speedup,
            "bit_exact": exact,
            "smoke": SMOKE,
        },
    )
    assert exact, "coalescing changed the arithmetic"
    assert speedup >= MIN_SPEEDUP, (
        f"coalesced batch only {speedup:.2f}x faster "
        f"(needed {MIN_SPEEDUP}x)"
    )


def test_zero_fault_overhead(tmp_path, report):
    sinos = _sinograms()
    # crash probability ~0 keeps the injector armed (every dispatch
    # draws) without ever firing — this measures pure plumbing tax.
    armed = ServiceFaultConfig(crash=1e-12, seed=1)

    # Interleave the two configurations so slow machine drift (thermal,
    # frequency scaling) hits both equally instead of biasing whichever
    # ran last; best-of-N then discards transient stalls.
    plain_walls, armed_walls = [], []
    for rep in range(REPEATS):
        wall, _, _ = _run_engine(
            tmp_path, f"plain{rep}", sinos, max_batch=JOBS, faults=None
        )
        plain_walls.append(wall)
        wall, _, _ = _run_engine(
            tmp_path, f"armed{rep}", sinos, max_batch=JOBS, faults=armed
        )
        armed_walls.append(wall)
    plain_wall = min(plain_walls)
    armed_wall = min(armed_walls)
    tax = armed_wall / plain_wall - 1.0

    lines = [
        f"service fault-injection tax, {JOBS} coalesced jobs of "
        f"{ANGLES}x{CHANNELS}, CG x{ITERATIONS}, best of {REPEATS}"
        + (" [smoke]" if SMOKE else ""),
        f"  no injector         : {plain_wall:8.3f} s",
        f"  armed, never fires  : {armed_wall:8.3f} s",
        f"  overhead            : {tax * 100:8.2f} %  "
        f"(acceptance < {MAX_FAULT_TAX * 100:.0f}%)",
    ]
    report(
        "bench_service_fault_tax",
        "\n".join(lines),
        extra={
            "plain_seconds": plain_wall,
            "armed_seconds": armed_wall,
            "overhead": tax,
            "smoke": SMOKE,
        },
    )
    assert tax < MAX_FAULT_TAX, (
        f"armed-but-idle fault injection costs {tax * 100:.1f}% "
        f"(allowed {MAX_FAULT_TAX * 100:.0f}%)"
    )
