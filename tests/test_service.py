"""The service battery: journal, admission, coalescing, deadlines,
retries, recovery, chaos, and the HTTP front end.

The load-bearing invariants, from docs/service.md:

* acknowledge only after journaling — ``kill -9`` at any instant loses
  no acknowledged job, and recovered results are **bit-exact** against
  an uninterrupted run (deterministic solves + per-column-exact
  batching make re-grouping safe);
* backpressure is explicit — a full queue or a rate-limited tenant is
  a 429 with Retry-After, never a silent drop;
* compatible concurrent requests coalesce into one multi-RHS solve;
* deadlines cancel mid-solve via the solver callback hook;
* transient failures heal through the shared RetryPolicy.

Subprocess tests (kill -9, SIGTERM) drive the real CLI; everything
else exercises the engine in-process for speed and determinism.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs, reconstruct
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.persist import (
    CorruptArchiveError,
    RecordLog,
    RecordLogError,
    atomic_savez_checked,
    load_checked_npz,
)
from repro.resilience import CheckpointManager, RetryPolicy
from repro.service import (
    DroppedSubmissionError,
    JobFailedError,
    JobJournal,
    JobSpec,
    QueueFullError,
    RateLimitedError,
    ReconService,
    ResultNotReadyError,
    ServiceClient,
    ServiceConfig,
    ServiceFaultConfig,
    ServiceServer,
    UnknownJobError,
    parse_service_fault_spec,
)
from repro.solvers import cgls


RNG = np.random.default_rng(20260808)
ANGLES, CHANNELS = 36, 24


def sino(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((ANGLES, CHANNELS))


def spec(**kw) -> JobSpec:
    kw.setdefault("num_angles", ANGLES)
    kw.setdefault("num_channels", CHANNELS)
    kw.setdefault("iterations", 6)
    return JobSpec(**kw)


def make_engine(tmp_path, *, clock=None, monotonic=None, **cfg) -> ReconService:
    cfg.setdefault("spool", str(tmp_path / "spool"))
    cfg.setdefault("coalesce_window_s", 0.0)
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    if monotonic is not None:
        kwargs["monotonic"] = monotonic
    return ReconService(ServiceConfig(**cfg), **kwargs)


def reference(sinogram, config=None, **kw) -> np.ndarray:
    """``reconstruct``'s image on the service's operator (a default
    config): a job's result is it bit for bit."""
    kw.setdefault("iterations", 6)
    return reconstruct(sinogram, config=config, **kw).image


# -- persist primitives --------------------------------------------------


class TestRecordLog:
    def test_roundtrip(self, tmp_path):
        log = RecordLog(tmp_path / "log")
        payloads = [b"alpha", b"", b"\x00\xff" * 100]
        for p in payloads:
            log.append(p)
        log.close()
        assert RecordLog(tmp_path / "log").replay() == payloads

    def test_missing_file_is_empty(self, tmp_path):
        assert RecordLog(tmp_path / "nope").replay() == []

    @pytest.mark.parametrize("cut", [1, 4, 7, 10])
    def test_torn_tail_dropped(self, tmp_path, cut):
        path = tmp_path / "log"
        log = RecordLog(path)
        log.append(b"intact")
        log.append(b"will-be-torn")
        log.close()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - cut])  # kill -9 mid-append
        assert RecordLog(path).replay() == [b"intact"]

    def test_corrupt_middle_raises(self, tmp_path):
        path = tmp_path / "log"
        log = RecordLog(path)
        log.append(b"first-record")
        log.append(b"second-record")
        log.close()
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0xFF  # flip a payload byte of the FIRST record
        path.write_bytes(bytes(blob))
        with pytest.raises(RecordLogError):
            RecordLog(path).replay()

    def test_append_after_replay(self, tmp_path):
        path = tmp_path / "log"
        with RecordLog(path) as log:
            log.append(b"one")
        with RecordLog(path) as log:
            assert log.replay() == [b"one"]
            log.append(b"two")
            assert log.replay() == [b"one", b"two"]


class TestCheckedArchive:
    def test_roundtrip(self, tmp_path):
        payload = {"image": RNG.random((8, 8)), "meta": np.uint32(7)}
        atomic_savez_checked(tmp_path / "a.npz", payload)
        loaded = load_checked_npz(tmp_path / "a.npz")
        assert np.array_equal(loaded["image"], payload["image"])
        assert "checksum" not in loaded

    def test_bit_flip_detected(self, tmp_path):
        atomic_savez_checked(tmp_path / "a.npz", {"x": np.arange(64.0)})
        blob = bytearray((tmp_path / "a.npz").read_bytes())
        blob[len(blob) // 2] ^= 0x01
        (tmp_path / "a.npz").write_bytes(bytes(blob))
        with pytest.raises(CorruptArchiveError):
            load_checked_npz(tmp_path / "a.npz")

    def test_unreadable_raises(self, tmp_path):
        (tmp_path / "junk.npz").write_bytes(b"not a zip at all")
        with pytest.raises(CorruptArchiveError):
            load_checked_npz(tmp_path / "junk.npz")


class TestRetryPolicy:
    def test_schedule(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.1, backoff_cap=0.25)
        assert policy.delays() == [0.1, 0.2, 0.25]
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


# -- fault spec ----------------------------------------------------------


class TestServiceFaults:
    def test_parse(self):
        cfg = parse_service_fault_spec(
            "drop=0.1, delay=0.2, delay_s=0.01, crash=0.3, "
            "crash_first=2, die_at=5, seed=9"
        )
        assert cfg == ServiceFaultConfig(
            drop=0.1, delay=0.2, delay_s=0.01, crash=0.3,
            crash_first=2, die_at=5, seed=9,
        )
        assert cfg.any_faults

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown service fault key"):
            parse_service_fault_spec("explode=1.0")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ServiceFaultConfig(drop=1.0)

    def test_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_FAULTS", raising=False)
        assert ServiceFaultConfig.from_env() is None
        monkeypatch.setenv("REPRO_SERVICE_FAULTS", "crash=0.5,seed=3")
        assert ServiceFaultConfig.from_env() == ServiceFaultConfig(
            crash=0.5, seed=3
        )


# -- job spec ------------------------------------------------------------


class TestJobSpec:
    def test_roundtrip(self):
        s = spec(solver="sirt", tolerance=1e-6, deadline_s=5.0, tenant="t1")
        assert JobSpec.from_dict(s.to_dict()) == s

    def test_validation(self):
        with pytest.raises(ValueError, match="solver"):
            spec(solver="fbp")
        with pytest.raises(ValueError):
            spec(iterations=0)
        with pytest.raises(ValueError):
            spec(deadline_s=0.0)
        with pytest.raises(ValueError):
            spec(tenant="")

    def test_coalesce_key(self):
        assert spec(tenant="a").coalesce_key == spec(tenant="b").coalesce_key
        assert spec(iterations=6).coalesce_key != spec(iterations=7).coalesce_key
        assert spec().coalesce_key != spec(dtype="float32").coalesce_key


# -- journal -------------------------------------------------------------


class TestJobJournal:
    def test_replay_folds_states(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_accepted("a", {"solver": "cg"}, accepted_wall=1.0)
        journal.record_accepted("b", {"solver": "cg"})
        journal.record_done("a", iterations=6)
        journal.record_failed("b", "boom")
        journal.record_done("ghost")  # terminal for unknown job: ignored
        entries = journal.replay()
        assert entries["a"].state == "done"
        assert entries["b"].state == "failed" and entries["b"].error == "boom"
        assert "ghost" not in entries
        assert [e.seq for e in sorted(entries.values(), key=lambda e: e.seq)] == [0, 1]

    def test_input_roundtrip_and_verify(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.save_input("j1", sino(1), spec().to_dict())
        loaded, doc = journal.load_input("j1")
        assert np.array_equal(loaded, sino(1))
        assert JobSpec.from_dict(doc) == spec()
        assert journal.verify_input("j1")
        journal.input_path("j1").write_bytes(b"garbage")
        assert not journal.verify_input("j1")
        assert not journal.verify_input("never-existed")


# -- engine: happy path --------------------------------------------------


class TestEngineSolve:
    def test_single_job_bit_exact(self, tmp_path):
        with make_engine(tmp_path) as svc:
            svc.start(recover=False)
            ack = svc.submit(sino(0), spec())
            assert ack["state"] == "queued"
            assert svc.wait([ack["job_id"]], timeout=60)
            assert np.array_equal(svc.result(ack["job_id"]), reference(sino(0)))
            status = svc.status(ack["job_id"])
            assert status["state"] == "done"
            assert status["attempts"] == 1
            assert status["iterations_run"] == 6

    @pytest.mark.parametrize("solver", ["cg", "sirt", "mlem"])
    def test_all_solvers(self, tmp_path, solver):
        measured = np.abs(sino(2)) + 0.1  # mlem needs positive data
        expected = reference(measured, solver=solver)
        with make_engine(tmp_path) as svc:
            svc.start(recover=False)
            ack = svc.submit(measured, spec(solver=solver))
            assert svc.wait([ack["job_id"]], timeout=60)
            assert np.array_equal(svc.result(ack["job_id"]), expected)

    def test_float32_job_matches_fp32_reconstruct(self, tmp_path):
        with make_engine(tmp_path) as svc:
            svc.start(recover=False)
            ack = svc.submit(sino(3), spec(dtype="float32"))
            assert svc.wait([ack["job_id"]], timeout=60)
            assert np.array_equal(
                svc.result(ack["job_id"]),
                reference(sino(3), config=OperatorConfig(dtype="float32")),
            )

    @pytest.mark.parametrize("angles", [ANGLES, ANGLES - 1])
    @pytest.mark.parametrize("seeded_by", ["csr", "buffered", "ell"])
    def test_the_engine_serves_the_entry_any_kernel_stored(self, tmp_path, seeded_by, angles):
        """An engine at defaults finds the plan entry a config naming any
        kernel stored: one entry after a job, on a plan of ``Q`` (36
        views) or of ``A`` (35)."""
        from repro.cache import PlanCache

        cache = PlanCache(tmp_path / "plans")
        geometry = ParallelBeamGeometry(angles, CHANNELS)
        preprocess(geometry, config=OperatorConfig(kernel=seeded_by), cache=cache)
        with make_engine(tmp_path, cache=str(cache.root)) as svc:
            svc.start(recover=False)
            ack = svc.submit(sino(0)[:angles], spec(num_angles=angles))
            assert svc.wait([ack["job_id"]], timeout=60)
            assert svc.status(ack["job_id"])["state"] == "done"
        assert len(cache.entries()) == 1

    def test_unknown_and_not_ready(self, tmp_path):
        with make_engine(tmp_path) as svc:
            with pytest.raises(UnknownJobError):
                svc.status("nope")
            ack = svc.submit(sino(0), spec())  # scheduler never started
            with pytest.raises(ResultNotReadyError):
                svc.result(ack["job_id"])

    def test_bad_sinogram_rejected(self, tmp_path):
        with make_engine(tmp_path) as svc:
            with pytest.raises(ValueError, match="shape"):
                svc.submit(np.zeros((2, 2)), spec())
            bad = sino(0).copy()
            bad[0, 0] = np.nan
            with pytest.raises(ValueError, match="finite"):
                svc.submit(bad, spec())


class TestCoalescing:
    def test_queued_jobs_coalesce_into_one_batch(self, tmp_path):
        sinos = [sino(i) for i in range(4)]
        with make_engine(tmp_path) as svc:
            acks = [svc.submit(s, spec(tenant=f"t{i % 2}"))
                    for i, s in enumerate(sinos)]
            svc.start(recover=False)  # queue drains as ONE dispatch
            assert svc.wait(timeout=60)
            for s, ack in zip(sinos, acks):
                assert np.array_equal(svc.result(ack["job_id"]), reference(s))
                assert svc.status(ack["job_id"])["batch_size"] == 4
            with obs.capture() as cap:
                svc.sync_obs()
            counters = {c.name: c.total for c in cap.counters.values()}
            assert counters[obs.SERVICE_BATCHES] == 1
            assert counters[obs.SERVICE_COALESCED_JOBS] == 4
            assert counters[obs.SERVICE_COMPLETED] == 4

    @pytest.mark.parametrize("solver", ["cg", "sirt", "mlem"])
    def test_solo_equals_coalesced_with_firing_tolerance(self, tmp_path, solver):
        """A job's image must not depend on whether it rode alone or in
        a cohort — including where its own tolerance stops it."""
        sinos = [sino(i) for i in range(3)]
        job = spec(solver=solver, iterations=40, tolerance=0.7)
        outcomes = []
        for name, max_batch in (("solo", 1), ("cohort", 8)):
            with make_engine(tmp_path / name, max_batch=max_batch) as svc:
                acks = [svc.submit(s, job) for s in sinos]
                svc.start(recover=False)
                assert svc.wait(timeout=60)
                status = [svc.status(a["job_id"]) for a in acks]
                assert {st["batch_size"] for st in status} == {min(max_batch, 3)}
                outcomes.append(
                    (
                        [svc.result(a["job_id"]) for a in acks],
                        [st["iterations_run"] for st in status],
                    )
                )
        (solo_images, solo_iters), (cohort_images, cohort_iters) = outcomes
        assert solo_iters == cohort_iters
        assert max(solo_iters) < 40  # the tolerance fired
        for a, b in zip(solo_images, cohort_images):
            assert np.array_equal(a, b)

    def test_incompatible_jobs_split_batches(self, tmp_path):
        with make_engine(tmp_path) as svc:
            a = svc.submit(sino(0), spec(iterations=6))
            b = svc.submit(sino(1), spec(iterations=7))
            svc.start(recover=False)
            assert svc.wait(timeout=60)
            assert svc.status(a["job_id"])["batch_size"] == 1
            assert svc.status(b["job_id"])["batch_size"] == 1
            with obs.capture() as cap:
                svc.sync_obs()
            counters = {c.name: c.total for c in cap.counters.values()}
            assert counters[obs.SERVICE_BATCHES] == 2

    def test_max_batch_respected(self, tmp_path):
        with make_engine(tmp_path, max_batch=2, queue_limit=8) as svc:
            acks = [svc.submit(sino(i), spec()) for i in range(3)]
            svc.start(recover=False)
            assert svc.wait(timeout=60)
            sizes = sorted(svc.status(a["job_id"])["batch_size"] for a in acks)
            assert sizes == [1, 2, 2]


# -- admission control ---------------------------------------------------


class TestBackpressure:
    def test_queue_full_raises_with_retry_after(self, tmp_path):
        with make_engine(tmp_path, queue_limit=2) as svc:
            svc.submit(sino(0), spec())
            svc.submit(sino(1), spec())
            with pytest.raises(QueueFullError) as err:
                svc.submit(sino(2), spec())
            assert err.value.retry_after > 0
            with obs.capture() as cap:
                svc.sync_obs()
            counters = {c.name: c.total for c in cap.counters.values()}
            assert counters[obs.SERVICE_SUBMITTED] == 3
            assert counters[obs.SERVICE_REJECTED] == 1

    def test_rejection_not_journaled(self, tmp_path):
        with make_engine(tmp_path, queue_limit=1) as svc:
            svc.submit(sino(0), spec())
            with pytest.raises(QueueFullError):
                svc.submit(sino(1), spec())
            assert len(svc.journal.replay()) == 1  # only the accepted job

    def test_rate_limit_per_tenant(self, tmp_path):
        clock = FakeMonotonic()
        svc = make_engine(
            tmp_path, rate_limit=1.0, rate_burst=2.0, queue_limit=64,
            monotonic=clock,
        )
        with svc:
            svc.submit(sino(0), spec(tenant="greedy"))
            svc.submit(sino(1), spec(tenant="greedy"))
            with pytest.raises(RateLimitedError) as err:
                svc.submit(sino(2), spec(tenant="greedy"))
            assert 0 < err.value.retry_after <= 1.0
            # Another tenant is unaffected by greedy's exhaustion.
            svc.submit(sino(3), spec(tenant="patient"))
            # Tokens refill with time.
            clock.advance(1.5)
            svc.submit(sino(4), spec(tenant="greedy"))


class FakeMonotonic:
    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TickClock:
    """Wall clock that advances a fixed step per call — deterministic
    deadline expiry without sleeping."""

    def __init__(self, start: float = 1000.0, step: float = 0.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# -- deadlines -----------------------------------------------------------


class TestDeadlines:
    def test_expired_before_dispatch(self, tmp_path):
        clock = TickClock(step=0.0)
        with make_engine(tmp_path, clock=clock) as svc:
            ack = svc.submit(sino(0), spec(deadline_s=5.0))
            clock.now += 10.0  # deadline passes while queued
            svc.start(recover=False)
            assert svc.wait([ack["job_id"]], timeout=30)
            status = svc.status(ack["job_id"])
            assert status["state"] == "expired"
            with pytest.raises(JobFailedError, match="expired"):
                svc.result(ack["job_id"])
            entries = svc.journal.replay()
            assert entries[ack["job_id"]].state == "expired"

    def test_cancelled_mid_solve(self, tmp_path):
        # Each clock call advances 1s: accepted at t0, the per-iteration
        # deadline check crosses deadline_s=3 after a few iterations of
        # a 50-iteration budget — the solve is cancelled, not finished.
        clock = TickClock(step=1.0)
        with make_engine(tmp_path, clock=clock) as svc:
            ack = svc.submit(sino(0), spec(iterations=50, deadline_s=3.0))
            svc.start(recover=False)
            assert svc.wait([ack["job_id"]], timeout=30)
            status = svc.status(ack["job_id"])
            assert status["state"] == "expired"

    def test_expired_peer_does_not_kill_batch(self, tmp_path):
        clock = TickClock(step=0.0)
        with make_engine(tmp_path, clock=clock) as svc:
            doomed = svc.submit(sino(0), spec(deadline_s=1.0))
            healthy = svc.submit(sino(1), spec())
            clock.now += 5.0
            svc.start(recover=False)
            assert svc.wait(timeout=60)
            assert svc.status(doomed["job_id"])["state"] == "expired"
            assert svc.status(healthy["job_id"])["state"] == "done"
            assert np.array_equal(
                svc.result(healthy["job_id"]), reference(sino(1))
            )


# -- retries -------------------------------------------------------------


class TestRetries:
    def test_transient_crash_healed(self, tmp_path):
        svc = make_engine(
            tmp_path,
            faults=ServiceFaultConfig(crash_first=1),
            retry=RetryPolicy(max_retries=2, backoff_base=0.0),
        )
        with svc:
            svc.start(recover=False)
            ack = svc.submit(sino(0), spec())
            assert svc.wait([ack["job_id"]], timeout=60)
            status = svc.status(ack["job_id"])
            assert status["state"] == "done"
            assert status["attempts"] == 2
            assert np.array_equal(svc.result(ack["job_id"]), reference(sino(0)))
            with obs.capture() as cap:
                svc.sync_obs()
            counters = {c.name: c.total for c in cap.counters.values()}
            assert counters[obs.SERVICE_RETRIES] == 1

    def test_budget_exhausted_fails_explicitly(self, tmp_path):
        svc = make_engine(
            tmp_path,
            faults=ServiceFaultConfig(crash_first=100),
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
        )
        with svc:
            svc.start(recover=False)
            ack = svc.submit(sino(0), spec())
            assert svc.wait([ack["job_id"]], timeout=60)
            status = svc.status(ack["job_id"])
            assert status["state"] == "failed"
            assert "InjectedSolveCrash" in status["error"]
            with pytest.raises(JobFailedError):
                svc.result(ack["job_id"])
            entries = svc.journal.replay()
            assert entries[ack["job_id"]].state == "failed"


# -- recovery ------------------------------------------------------------


class TestRecovery:
    def test_acknowledged_jobs_survive_restart(self, tmp_path):
        sinos = [sino(i) for i in range(3)]
        svc1 = make_engine(tmp_path)
        acks = [svc1.submit(s, spec()) for s in sinos]  # never scheduled
        svc1.close()

        svc2 = make_engine(tmp_path)
        with svc2:
            svc2.start(recover=True)
            assert svc2.wait(timeout=60)
            for s, ack in zip(sinos, acks):
                assert np.array_equal(svc2.result(ack["job_id"]), reference(s))
                assert svc2.status(ack["job_id"])["recovered"]
            with obs.capture() as cap:
                svc2.sync_obs()
            counters = {c.name: c.total for c in cap.counters.values()}
            assert counters[obs.SERVICE_RECOVERED] == 3

    def test_terminal_jobs_stay_queryable(self, tmp_path):
        svc1 = make_engine(tmp_path)
        with svc1:
            svc1.start(recover=False)
            ack = svc1.submit(sino(0), spec())
            assert svc1.wait([ack["job_id"]], timeout=60)
        svc2 = make_engine(tmp_path)
        with svc2:
            svc2.start(recover=True)
            assert svc2.status(ack["job_id"])["state"] == "done"
            assert np.array_equal(svc2.result(ack["job_id"]), reference(sino(0)))

    def test_corrupt_input_fails_loudly(self, tmp_path):
        svc1 = make_engine(tmp_path)
        ack = svc1.submit(sino(0), spec())
        svc1.close()
        # Simulate on-disk rot between crash and restart.
        (tmp_path / "spool" / "jobs" / ack["job_id"] / "input.npz").write_bytes(
            b"rotten"
        )
        svc2 = make_engine(tmp_path)
        with svc2:
            svc2.start(recover=True)
            status = svc2.status(ack["job_id"])
            assert status["state"] == "failed"
            assert "corrupt" in status["error"]
            entries = svc2.journal.replay()
            assert entries[ack["job_id"]].state == "failed"

    def test_torn_journal_tail_tolerated(self, tmp_path):
        svc1 = make_engine(tmp_path)
        ack = svc1.submit(sino(0), spec())
        svc1.close()
        log = tmp_path / "spool" / "journal.log"
        blob = log.read_bytes()
        log.write_bytes(blob + blob[-5:])  # torn frame appended by a crash
        svc2 = make_engine(tmp_path)
        with svc2:
            svc2.start(recover=True)
            assert svc2.wait(timeout=60)
            assert np.array_equal(svc2.result(ack["job_id"]), reference(sino(0)))

    def test_checkpointed_job_resumes_bit_exact(self, tmp_path):
        svc = make_engine(tmp_path)
        ack = svc.submit(sino(0), spec(iterations=10, checkpoint_every=3))
        # Simulate a previous run killed mid-solve: leave a real
        # iteration-3 checkpoint in the job's spool slot.
        geometry = ParallelBeamGeometry(ANGLES, CHANNELS)
        op, _ = preprocess(geometry, config=OperatorConfig())
        y = op.sinogram_to_ordered(sino(0))
        manager = CheckpointManager(
            svc.journal.checkpoint_path(ack["job_id"]), every=3
        )
        cgls(op, y, num_iterations=3, checkpoint=manager)
        op.close()
        with svc:
            svc.start(recover=False)
            assert svc.wait([ack["job_id"]], timeout=60)
            status = svc.status(ack["job_id"])
            assert status["state"] == "done"
            assert status["resumed_iteration"] == 3
            assert np.array_equal(
                svc.result(ack["job_id"]), reference(sino(0), iterations=10)
            )


# -- spool eviction ------------------------------------------------------


class TestEviction:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="result_ttl_s"):
            make_engine(tmp_path, result_ttl_s=0.0)
        with pytest.raises(ValueError, match="result_ttl_s"):
            make_engine(tmp_path, result_ttl_s=-1.0)
        with pytest.raises(ValueError, match="spool_cap_bytes"):
            make_engine(tmp_path, spool_cap_bytes=-1)

    def test_ttl_evicts_finished_result(self, tmp_path):
        clock = TickClock(step=0.0)
        with make_engine(tmp_path, clock=clock, result_ttl_s=10.0) as svc:
            svc.start(recover=False)
            ack = svc.submit(sino(0), spec())
            assert svc.wait([ack["job_id"]], timeout=60)
            job_id = ack["job_id"]
            # Within TTL the result is served normally.
            assert np.array_equal(svc.result(job_id), reference(sino(0)))
            clock.now += 30.0  # TTL passes
            svc._sweep_evictions()
            with pytest.raises(JobFailedError, match="evicted"):
                svc.result(job_id)
            status = svc.status(job_id)
            assert status["state"] == "done"  # history survives eviction
            assert status["evicted"]
            assert not (tmp_path / "spool" / "jobs" / job_id).exists()
            entries = svc.journal.replay()
            assert entries[job_id].meta.get("evicted") is True
            with obs.capture() as cap:
                svc.sync_obs()
            counters = {c.name: c.total for c in cap.counters.values()}
            assert counters[obs.SERVICE_EVICTIONS] == 1

    def test_spool_cap_evicts_oldest_first(self, tmp_path):
        from repro.service.engine import Job

        svc = make_engine(tmp_path, spool_cap_bytes=10**9)
        image = np.zeros((CHANNELS, CHANNELS))
        jobs = []
        for i, wall in enumerate([100.0, 200.0, 300.0]):
            job = Job(job_id=f"job{i}", spec=spec(), state="done",
                      accepted_wall=wall, terminal_wall=wall)
            svc.journal.save_input(job.job_id, sino(i), spec().to_dict())
            svc.journal.save_result(job.job_id, image, {"iterations": 6})
            job.payload_bytes = svc.journal.payload_bytes(job.job_id)
            svc._jobs[job.job_id] = job
            jobs.append(job)
        # A cap that holds exactly the two newest payloads: the oldest
        # (and only the oldest) must go.
        cap = jobs[1].payload_bytes + jobs[2].payload_bytes
        object.__setattr__(svc.config, "spool_cap_bytes", cap)
        svc._sweep_evictions()
        assert jobs[0].evicted
        assert not jobs[1].evicted and not jobs[2].evicted
        assert not (tmp_path / "spool" / "jobs" / "job0").exists()
        (tmp_path / "spool" / "jobs" / "job1" / "result.npz").stat()
        svc.close()

    def test_cap_zero_reclaims_all_terminal_payloads(self, tmp_path):
        with make_engine(tmp_path, spool_cap_bytes=0) as svc:
            svc.start(recover=False)
            acks = [svc.submit(sino(i), spec()) for i in range(2)]
            assert svc.wait(timeout=60)
            svc._sweep_evictions()
            for ack in acks:
                with pytest.raises(JobFailedError, match="evicted"):
                    svc.result(ack["job_id"])
            assert svc.stats()["spool_payload_bytes"] == 0
            assert svc.stats()["evicted_jobs"] == 2

    def test_eviction_survives_restart(self, tmp_path):
        clock = TickClock(step=0.0)
        with make_engine(tmp_path, clock=clock, result_ttl_s=5.0) as svc1:
            svc1.start(recover=False)
            ack = svc1.submit(sino(0), spec())
            assert svc1.wait([ack["job_id"]], timeout=60)
            clock.now += 10.0
            svc1._sweep_evictions()
        # A fresh engine (no eviction config) learns from the journal
        # that the payload is durably gone: 410, never a silent 404.
        with make_engine(tmp_path) as svc2:
            svc2.start(recover=True)
            status = svc2.status(ack["job_id"])
            assert status["state"] == "done"
            assert status["evicted"]
            with pytest.raises(JobFailedError, match="evicted"):
                svc2.result(ack["job_id"])

    def test_evicted_result_is_http_410(self, tmp_path):
        clock = TickClock(step=0.0)
        svc = make_engine(tmp_path, clock=clock, result_ttl_s=5.0)
        svc.start(recover=False)
        server = ServiceServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.port}"
        try:
            client = ServiceClient(url)
            ack = client.submit(sino(0), {"iterations": 6})
            assert client.wait(ack["job_id"], timeout=60)["state"] == "done"
            clock.now += 30.0
            svc._sweep_evictions()
            with pytest.raises(Exception) as err:
                urllib.request.urlopen(f"{url}/v1/jobs/{ack['job_id']}/result")
            assert err.value.code == 410
        finally:
            server.shutdown()
            server.server_close()
            svc.stop(drain=False, timeout=10)
            svc.close()


# -- chaos ---------------------------------------------------------------


class TestChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_acknowledged_job_lost_under_faults(self, tmp_path, seed):
        faults = ServiceFaultConfig(
            drop=0.2, delay=0.3, delay_s=0.001, crash=0.25, seed=seed
        )
        svc = make_engine(
            tmp_path,
            faults=faults,
            queue_limit=64,
            retry=RetryPolicy(max_retries=8, backoff_base=0.0),
        )
        submit_retry = RetryPolicy(max_retries=20, backoff_base=0.0)
        with svc:
            svc.start(recover=False)
            acks = []
            for i in range(8):
                attempt = 0
                while True:  # the client's drop-retry loop
                    try:
                        acks.append(svc.submit(sino(i), spec(tenant=f"t{i % 3}")))
                        break
                    except DroppedSubmissionError:
                        assert not submit_retry.exhausted(attempt)
                        attempt += 1
            assert svc.wait(timeout=120)
            # Zero acknowledged-job loss: every ack reached `done` with
            # a bit-exact result despite drops, delays, and crashes.
            for i, ack in enumerate(acks):
                assert svc.status(ack["job_id"])["state"] == "done"
                assert np.array_equal(svc.result(ack["job_id"]), reference(sino(i)))


# -- HTTP front end ------------------------------------------------------


@pytest.fixture()
def http_service(tmp_path):
    svc = make_engine(tmp_path, queue_limit=4)
    svc.start(recover=False)
    server = ServiceServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield svc, server, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        svc.stop(drain=False, timeout=10)
        svc.close()


class TestHTTP:
    def test_submit_status_result_roundtrip(self, http_service):
        _svc, _server, url = http_service
        client = ServiceClient(url)
        ack = client.submit(sino(0), {"iterations": 6, "tenant": "http"})
        final = client.wait(ack["job_id"], timeout=60)
        assert final["state"] == "done"
        assert np.array_equal(client.result(ack["job_id"]), reference(sino(0)))
        stats = client.stats()
        assert stats["states"]["done"] >= 1
        assert stats["tenants"]["http"]["completed"] == 1

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        svc = make_engine(tmp_path, queue_limit=1)  # scheduler NOT started
        server = ServiceServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.port}"
        try:
            client = ServiceClient(url, obey_backpressure=False)
            client.submit(sino(0), {"iterations": 6})
            with pytest.raises(Exception) as err:
                client.submit(sino(1), {"iterations": 6})
            http_err = err.value
            assert getattr(http_err, "code", None) == 429
            assert "Retry-After" in http_err.headers
            assert int(http_err.headers["Retry-After"]) >= 1
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_unknown_routes_and_jobs(self, http_service):
        _svc, _server, url = http_service
        for path in ("/nope", "/v1/jobs/does-not-exist",
                     "/v1/jobs/does-not-exist/result"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{url}{path}")
            assert err.value.code == 404

    def test_healthz(self, http_service):
        _svc, _server, url = http_service
        with urllib.request.urlopen(f"{url}/v1/healthz") as resp:
            assert json.loads(resp.read()) == {"ok": True}

    def test_client_retries_through_drops(self, tmp_path):
        svc = make_engine(
            tmp_path, faults=ServiceFaultConfig(drop=0.5, seed=7),
            queue_limit=64,
        )
        svc.start(recover=False)
        server = ServiceServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}",
                retry=RetryPolicy(max_retries=30, backoff_base=0.0),
            )
            acks = [client.submit(sino(i), {"iterations": 6}) for i in range(4)]
            for i, ack in enumerate(acks):
                assert client.wait(ack["job_id"], timeout=60)["state"] == "done"
                assert np.array_equal(client.result(ack["job_id"]),
                                      reference(sino(i)))
        finally:
            server.shutdown()
            server.server_close()
            svc.stop(drain=False, timeout=10)
            svc.close()


# -- subprocess battery: kill -9 / SIGTERM over the real CLI -------------


def _serve_subprocess(spool, extra_args=()):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spool", str(spool),
         "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=10)
        raise RuntimeError(f"server died at startup (exit {proc.returncode})")
    return proc, json.loads(line)["port"]


@pytest.mark.slow
class TestSubprocess:
    def test_kill9_restart_completes_bit_exact(self, tmp_path):
        spool = tmp_path / "spool"
        proc, port = _serve_subprocess(spool)
        client = ServiceClient(f"http://127.0.0.1:{port}")
        sinos = [sino(i) for i in range(3)]
        try:
            acks = [
                client.submit(s, {"iterations": 25, "tenant": f"t{i}"})
                for i, s in enumerate(sinos)
            ]
            ckpt = client.submit(
                sinos[0], {"iterations": 40, "checkpoint_every": 5}
            )
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        proc2, port2 = _serve_subprocess(spool)
        client2 = ServiceClient(f"http://127.0.0.1:{port2}")
        try:
            for i, ack in enumerate(acks):
                final = client2.wait(ack["job_id"], timeout=120)
                assert final["state"] == "done", final
                assert np.array_equal(
                    client2.result(ack["job_id"]),
                    reference(sinos[i], iterations=25),
                )
            final = client2.wait(ckpt["job_id"], timeout=120)
            assert final["state"] == "done"
            assert np.array_equal(
                client2.result(ckpt["job_id"]),
                reference(sinos[0], iterations=40),
            )
        finally:
            os.kill(proc2.pid, signal.SIGKILL)
            proc2.wait(timeout=30)

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        spool = tmp_path / "spool"
        proc, port = _serve_subprocess(spool)
        client = ServiceClient(f"http://127.0.0.1:{port}")
        acks = [client.submit(sino(i), {"iterations": 10}) for i in range(2)]
        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        # Drained: both jobs reached `done` in the journal before exit.
        journal = JobJournal(spool)
        entries = journal.replay()
        for ack in acks:
            assert entries[ack["job_id"]].state == "done"
        journal.close()

    def test_die_at_fault_then_restart(self, tmp_path):
        spool = tmp_path / "spool"
        # die_at=1: the server hard-exits (os._exit) at its first solve
        # dispatch — a deterministic kill -9 mid-job.
        proc, port = _serve_subprocess(spool, ("--faults", "die_at=1"))
        client = ServiceClient(f"http://127.0.0.1:{port}")
        ack = client.submit(sino(0), {"iterations": 10})
        assert proc.wait(timeout=60) == 137
        proc2, port2 = _serve_subprocess(spool)
        client2 = ServiceClient(f"http://127.0.0.1:{port2}")
        try:
            final = client2.wait(ack["job_id"], timeout=120)
            assert final["state"] == "done"
            assert final["recovered"]
            assert np.array_equal(
                client2.result(ack["job_id"]),
                reference(sino(0), iterations=10),
            )
        finally:
            os.kill(proc2.pid, signal.SIGKILL)
            proc2.wait(timeout=30)
