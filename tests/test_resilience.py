"""Resilience subsystem: fault-injected comm, checkpoint/resume, health.

Three claims are exercised on the same distributed scenario the
equivalence suite uses (``A = R C A_p`` over simulated ranks):

* transient communication faults (drop / corrupt / delay) are healed
  by the reliable transport **bit-exactly** — the chaos run returns
  the same iterate as the fault-free run, and the logical comm volume
  (what the Table 1 cost model meters) is unchanged;
* a rank crash triggers graceful degradation — the dead rank's row
  partitions are redistributed to the survivors and the solve
  completes within 1e-5 of the fault-free reconstruction;
* a killed solve resumes from its periodic checkpoint to a
  bit-identical final iterate, and the numerical-health monitor turns
  NaN/divergence into rollback-with-damping instead of garbage output.
"""

import warnings

import numpy as np
import pytest

from repro import obs
from repro.core import OperatorConfig, preprocess, reconstruct
from repro.dist import DistributedOperator, SimComm, decompose_both
from repro.geometry import ParallelBeamGeometry
from repro.resilience import (
    CheckpointError,
    CheckpointIntegrityWarning,
    CheckpointManager,
    CommDeliveryError,
    FaultConfig,
    FaultInjector,
    HealthMonitor,
    RankCrashError,
    SolverCheckpoint,
    parse_fault_spec,
)
from repro.solvers import cgls, mlem, sirt

from .test_partitioned import _assert_same_rank_data

ITERATIONS = 12


@pytest.fixture(scope="module")
def system():
    """Serial operator + consistent measurement (same as equivalence suite)."""
    geometry = ParallelBeamGeometry(24, 32)
    operator, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
    truth = np.random.default_rng(0).random(operator.num_pixels).astype(np.float32)
    y = operator.forward(truth)
    reference = cgls(operator, y, num_iterations=ITERATIONS)
    return operator, y, reference


def _partitioned(operator, num_ranks, faults=None):
    tomo_dec, sino_dec = decompose_both(
        operator.tomo_ordering, operator.sino_ordering, num_ranks
    )
    comm = None
    if faults is not None:
        injector = faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        comm = SimComm(num_ranks, fault_injector=injector)
    return DistributedOperator(operator.matrix, tomo_dec, sino_dec, comm=comm)


class TestFaultSpec:
    def test_parse_full_spec(self):
        cfg = parse_fault_spec(
            "drop=0.05, corrupt=0.02, delay=0.01, crash=1@3, crash=2@7, "
            "seed=42, retries=5, backoff=1e-4"
        )
        assert cfg.drop == 0.05 and cfg.corrupt == 0.02 and cfg.delay == 0.01
        assert cfg.crashes == ((3, 1), (7, 2))
        assert cfg.seed == 42 and cfg.max_retries == 5 and cfg.backoff_base == 1e-4

    def test_crash_without_call_index_defaults_to_first_collective(self):
        assert parse_fault_spec("crash=2").crashes == ((1, 2),)

    @pytest.mark.parametrize("bad", ["drop", "nope=1", "drop=1.5", "crash=0@0"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_default_seed_only_fills_gap(self):
        assert parse_fault_spec("drop=0.1", default_seed=9).seed == 9
        assert parse_fault_spec("drop=0.1,seed=3", default_seed=9).seed == 3

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultConfig.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "drop=0.05")
        monkeypatch.setenv("REPRO_FAULT_SEED", "123")
        cfg = FaultConfig.from_env()
        assert cfg.drop == 0.05 and cfg.seed == 123

    def test_injection_is_seeded_and_reproducible(self):
        cfg = FaultConfig(drop=0.3, corrupt=0.2, seed=11)
        inj_a, inj_b = FaultInjector(cfg), FaultInjector(cfg)
        seq_a = [inj_a.draw(0, 1) for _ in range(50)]
        seq_b = [inj_b.draw(0, 1) for _ in range(50)]
        assert seq_a == seq_b
        assert {"drop", "corrupt"} & set(seq_a)  # faults actually fire

    def test_local_copies_never_fault(self):
        inj = FaultInjector(FaultConfig(drop=0.99, seed=0))
        assert all(inj.draw(2, 2) == "ok" for _ in range(20))

    def test_corrupt_payload_always_changes_bytes(self):
        inj = FaultInjector(FaultConfig(seed=0))
        payload = np.zeros(8, dtype=np.float32)
        for _ in range(10):
            corrupted = inj.corrupt_payload(payload)
            assert not np.array_equal(corrupted.view(np.uint8), payload.view(np.uint8))


@pytest.mark.parametrize("num_ranks", [2, 4])
class TestChaosSweep:
    """Transient-fault sweep over the distributed equivalence scenario."""

    @pytest.mark.parametrize(
        "spec",
        [
            "drop=0.08,seed=1",
            "drop=0.05,corrupt=0.02,seed=7",
            "drop=0.10,corrupt=0.05,delay=0.05,seed=13",
        ],
    )
    def test_recovered_solve_is_bit_exact(self, system, num_ranks, spec):
        operator, y, _ = system
        clean = cgls(_partitioned(operator, num_ranks), y, num_iterations=ITERATIONS)
        injector = FaultInjector(FaultConfig.parse(spec))
        chaotic = cgls(
            _partitioned(operator, num_ranks, faults=injector),
            y,
            num_iterations=ITERATIONS,
        )
        # Retried payloads are redelivered intact, so recovery is exact,
        # not merely approximate.
        assert np.array_equal(chaotic.x, clean.x)
        stats = injector.stats
        assert stats.drops + stats.corruptions + stats.delays > 0
        # Every drop/corruption was eventually healed (a message that
        # faults twice still counts as one recovery).
        assert stats.recoveries > 0
        assert stats.retries >= stats.recoveries

    def test_comm_log_meters_logical_traffic_only(self, system, num_ranks):
        """Retries are overhead, not algorithm traffic: the CommLog (and
        hence the Table 1 comm counters) must match the fault-free run."""
        operator, y, _ = system
        clean_op = _partitioned(operator, num_ranks)
        with obs.capture():
            cgls(clean_op, y, num_iterations=ITERATIONS)
        chaos_op = _partitioned(
            operator, num_ranks, faults=FaultConfig(drop=0.05, corrupt=0.02, seed=7)
        )
        with obs.capture() as cap:
            cgls(chaos_op, y, num_iterations=ITERATIONS)
        assert (
            chaos_op.comm.log.off_diagonal_volume()
            == clean_op.comm.log.off_diagonal_volume()
        )
        assert cap.total(obs.COMM_BYTES) == chaos_op.comm.log.off_diagonal_volume()
        assert cap.total(obs.FAULT_RETRIES) > 0

    def test_exhausted_retry_budget_raises(self, system, num_ranks):
        operator, y, _ = system
        op = _partitioned(
            operator, num_ranks, faults=FaultConfig(drop=0.9, seed=0, max_retries=0)
        )
        with pytest.raises(CommDeliveryError):
            cgls(op, y, num_iterations=2)


class TestCrashDegradation:
    def test_crash_redistributes_and_converges(self, system):
        operator, y, reference = system
        injector = FaultInjector(FaultConfig(crashes=((5, 1),), seed=3))
        op = _partitioned(operator, 4, faults=injector)
        result = cgls(op, y, num_iterations=ITERATIONS)
        assert op.num_ranks == 3
        assert op.degradations == [
            {"dead": [1], "from_ranks": 4, "to_ranks": 3, "topology": "flat(4)"}
        ]
        assert injector.stats.crashes == 1
        scale = float(np.max(np.abs(reference.x)))
        assert np.max(np.abs(result.x - reference.x)) <= 1e-5 * scale

    def test_chaos_plus_crash_still_converges(self, system):
        """The acceptance scenario: p=0.05 drop+corrupt AND a rank crash."""
        operator, y, reference = system
        injector = FaultInjector(
            FaultConfig(drop=0.05, corrupt=0.05, crashes=((6, 2),), seed=21)
        )
        result = cgls(
            _partitioned(operator, 4, faults=injector), y, num_iterations=ITERATIONS
        )
        assert injector.stats.crashes == 1
        assert injector.stats.drops + injector.stats.corruptions > 0
        scale = float(np.max(np.abs(reference.x)))
        assert np.max(np.abs(result.x - reference.x)) <= 1e-5 * scale

    def test_injector_survives_degradation(self, system):
        """The same injector (same RNG stream) drives the rebuilt comm."""
        operator, y, _ = system
        injector = FaultInjector(FaultConfig(drop=0.05, crashes=((4, 0),), seed=5))
        op = _partitioned(operator, 4, faults=injector)
        cgls(op, y, num_iterations=ITERATIONS)
        assert op.comm.fault_injector is injector
        assert injector.dead_ranks() == set()  # consumed by degrade()

    def test_crash_of_last_survivor_reraises(self, system):
        operator, y, _ = system
        injector = FaultInjector(FaultConfig(crashes=((1, 0), (2, 0)), seed=0))
        op = _partitioned(operator, 2, faults=injector)
        # Rank 0 dies at call 1 (degrade to 1 rank); the renumbered sole
        # survivor dies at call 2 — nothing remains to absorb the work.
        with pytest.raises(RankCrashError):
            cgls(op, y, num_iterations=ITERATIONS)


class TestCheckpointResume:
    def test_kill_and_resume_cg_is_bit_exact(self, system, tmp_path):
        operator, y, _ = system
        path = tmp_path / "solve.npz"
        full = cgls(operator, y, num_iterations=ITERATIONS)
        # "Killed" run: stops at iteration 8 with a checkpoint at 8.
        cgls(
            operator, y, num_iterations=8,
            checkpoint=CheckpointManager(path, every=4),
        )
        resumed = cgls(
            operator, y, num_iterations=ITERATIONS,
            resume=CheckpointManager(path),
        )
        assert np.array_equal(resumed.x, full.x)
        assert resumed.residual_norms == full.residual_norms
        assert resumed.solution_norms == full.solution_norms
        assert resumed.iterations == full.iterations

    def test_resume_accepts_path_and_snapshot(self, system, tmp_path):
        operator, y, _ = system
        path = tmp_path / "cg.npz"
        manager = CheckpointManager(path, every=3)
        full = cgls(operator, y, num_iterations=9, checkpoint=manager)
        by_path = cgls(operator, y, num_iterations=9, resume=path)
        by_snap = cgls(operator, y, num_iterations=9, resume=manager.last)
        assert np.array_equal(by_path.x, full.x)
        assert np.array_equal(by_snap.x, full.x)

    def test_parent_layout_cg_checkpoint_resumes_bit_exactly(self, system, tmp_path):
        """The on-disk layout is a contract: 1-D ``x``/``r``/``p`` plus the
        scalars ``gamma``/``gamma0``/``damping``.  A snapshot hand-built
        that way mid-run (here from the textbook recurrence, no solver
        involved) must continue to the uninterrupted run's bits."""
        operator, y, full = system
        work = np.dtype(operator.solve_dtype)
        y = np.asarray(y, dtype=work)
        x = np.zeros(operator.num_pixels, dtype=work)
        r = y - np.asarray(operator.forward(x), dtype=work)
        s = np.asarray(operator.adjoint(r), dtype=work)
        p, gamma = s.copy(), float(s @ s)
        gamma0, rnorms, xnorms = gamma, [float(np.linalg.norm(r))], [0.0]
        for _ in range(5):
            q = np.asarray(operator.forward(p), dtype=work)
            alpha = gamma / float(q @ q)
            x += alpha * p
            r -= alpha * q
            s = np.asarray(operator.adjoint(r), dtype=work)
            gamma, previous = float(s @ s), gamma
            p = s + (gamma / previous) * p
            rnorms.append(float(np.linalg.norm(r)))
            xnorms.append(float(np.linalg.norm(x)))
        path = tmp_path / "parent.npz"
        CheckpointManager(path).save(
            SolverCheckpoint(
                solver="cg", iteration=5,
                arrays={"x": x, "r": r, "p": p},
                scalars={"gamma": gamma, "gamma0": gamma0, "damping": 1.0},
                residual_norms=rnorms, solution_norms=xnorms,
            )
        )
        resumed = cgls(operator, y, num_iterations=ITERATIONS, resume=path)
        assert np.array_equal(resumed.x, full.x)
        assert resumed.residual_norms == full.residual_norms
        assert resumed.solution_norms == full.solution_norms
        assert resumed.iterations == full.iterations
        # ... and what the driver writes is that same layout.
        manager = CheckpointManager(tmp_path / "driver.npz", every=5)
        cgls(operator, y, num_iterations=5, checkpoint=manager)
        written = CheckpointManager(tmp_path / "driver.npz").require()
        assert sorted(written.arrays) == ["p", "r", "x"]
        assert sorted(written.scalars) == ["damping", "gamma", "gamma0"]
        for name, expected in (("x", x), ("r", r), ("p", p)):
            assert written.arrays[name].shape == expected.shape
            assert np.array_equal(written.arrays[name], expected)
        assert written.scalars["gamma"] == gamma

    def test_sirt_resume_is_bit_exact(self, system, tmp_path):
        operator, y, _ = system
        path = tmp_path / "sirt.npz"
        full = sirt(operator, y, num_iterations=10)
        sirt(operator, y, num_iterations=6, checkpoint=CheckpointManager(path, every=3))
        resumed = sirt(operator, y, num_iterations=10, resume=path)
        assert np.array_equal(resumed.x, full.x)
        assert resumed.residual_norms == full.residual_norms

    def test_mlem_resume_is_bit_exact(self, system, tmp_path):
        operator, _, _ = system
        truth = np.random.default_rng(2).random(operator.num_pixels)
        y = np.abs(np.asarray(operator.forward(truth), dtype=np.float64))
        path = tmp_path / "mlem.npz"
        full = mlem(operator, y, num_iterations=8)
        mlem(operator, y, num_iterations=4, checkpoint=CheckpointManager(path, every=2))
        resumed = mlem(operator, y, num_iterations=8, resume=path)
        assert np.array_equal(resumed.x, full.x)

    def test_resume_rejects_wrong_solver(self, system, tmp_path):
        operator, y, _ = system
        path = tmp_path / "cg.npz"
        cgls(operator, y, num_iterations=4, checkpoint=CheckpointManager(path, every=2))
        with pytest.raises(CheckpointError, match="cannot resume"):
            sirt(operator, y, num_iterations=4, resume=path)

    def test_explicit_resume_from_missing_file_is_an_error(self, system, tmp_path):
        operator, y, _ = system
        with pytest.raises(CheckpointError, match="no checkpoint"):
            cgls(operator, y, num_iterations=4, resume=tmp_path / "nothing.npz")

    def test_corrupt_checkpoint_warns_on_load_and_raises_on_require(self, tmp_path):
        path = tmp_path / "ck.npz"
        manager = CheckpointManager(path, every=1)
        manager.save(
            SolverCheckpoint(
                solver="cg", iteration=1,
                arrays={"x": np.arange(6, dtype=np.float64)},
                residual_norms=[1.0], solution_norms=[2.0],
            )
        )
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        fresh = CheckpointManager(path)
        with pytest.warns(CheckpointIntegrityWarning):
            assert fresh.load() is None
        with pytest.raises(CheckpointError):
            CheckpointManager(path).require()

    def test_atomic_overwrite_keeps_latest_snapshot(self, tmp_path):
        path = tmp_path / "ck.npz"
        manager = CheckpointManager(path, every=1)
        for it in (1, 2, 3):
            manager.save(
                SolverCheckpoint(
                    solver="cg", iteration=it,
                    arrays={"x": np.full(4, float(it))},
                    residual_norms=[float(it)], solution_norms=[0.0],
                )
            )
        loaded = CheckpointManager(path).require()
        assert loaded.iteration == 3
        assert np.array_equal(loaded.arrays["x"], np.full(4, 3.0))

    def test_counters_account_saves_and_restores(self, system, tmp_path):
        operator, y, _ = system
        path = tmp_path / "ck.npz"
        with obs.capture() as cap:
            cgls(operator, y, num_iterations=8,
                 checkpoint=CheckpointManager(path, every=4))
            cgls(operator, y, num_iterations=ITERATIONS, resume=path)
        assert cap.total(obs.CHECKPOINT_SAVES) == 2
        assert cap.total(obs.CHECKPOINT_RESTORES) == 1
        assert cap.total(obs.CHECKPOINT_BYTES_WRITTEN) > 0


class _PoisonedOperator:
    """Delegating wrapper whose forward turns to NaN after N calls."""

    def __init__(self, op, poison_after):
        self._op = op
        self._calls = 0
        self._poison_after = poison_after
        self.num_rays = op.num_rays
        self.num_pixels = op.num_pixels

    def forward(self, x):
        out = np.asarray(self._op.forward(x), dtype=np.float64)
        self._calls += 1
        if self._calls > self._poison_after:
            out = out.copy()
            out[0] = np.nan
        return out

    def adjoint(self, y):
        return self._op.adjoint(np.nan_to_num(y))


class TestHealthMonitor:
    def test_non_finite_triggers_rollback_then_abort(self):
        monitor = HealthMonitor(max_rollbacks=1)
        x = np.ones(4)
        assert monitor.observe(1, x, 1.0) == "ok"
        assert monitor.observe(2, x, float("nan")) == "rollback"
        monitor.rolled_back()
        assert monitor.observe(3, x, float("inf")) == "abort"
        assert [i.kind for i in monitor.incidents] == ["non-finite", "non-finite"]

    def test_sustained_divergence_needs_full_window(self):
        monitor = HealthMonitor(divergence_window=3, divergence_factor=10.0)
        x = np.ones(4)
        assert monitor.observe(1, x, 1.0) == "ok"
        assert monitor.observe(2, x, 100.0) == "ok"
        assert monitor.observe(3, x, 100.0) == "ok"
        assert monitor.observe(4, x, 5.0) == "ok"  # recovery resets the streak
        assert monitor.observe(5, x, 200.0) == "ok"
        assert monitor.observe(6, x, 200.0) == "ok"
        assert monitor.observe(7, x, 200.0) == "rollback"
        assert monitor.last_incident.kind == "divergence"

    def test_cg_rolls_back_to_checkpoint_with_damped_step(self, system):
        operator, y, _ = system
        poisoned = _PoisonedOperator(operator, poison_after=9)
        monitor = HealthMonitor(max_rollbacks=2)
        with obs.capture() as cap:
            result = cgls(
                poisoned, y, num_iterations=ITERATIONS,
                checkpoint=CheckpointManager(every=2),
                health=monitor,
            )
        assert np.all(np.isfinite(result.x))
        assert monitor.rollbacks >= 1
        assert "numerical health abort" in result.stop_reason
        assert cap.total(obs.HEALTH_EVENTS) >= 1
        assert cap.total(obs.HEALTH_ROLLBACKS) >= 1

    def test_sirt_rollback_halves_relaxation_and_finishes(self, system):
        operator, y, _ = system
        poisoned = _PoisonedOperator(operator, poison_after=6)
        monitor = HealthMonitor(max_rollbacks=1)
        result = sirt(
            poisoned, y, num_iterations=8,
            checkpoint=CheckpointManager(every=2),
            health=monitor,
        )
        assert np.all(np.isfinite(result.x))
        assert monitor.rollbacks == 1

    def test_healthy_solve_is_untouched_by_monitor(self, system):
        operator, y, reference = system
        result = cgls(
            operator, y, num_iterations=ITERATIONS,
            checkpoint=CheckpointManager(every=4),
            health=HealthMonitor(),
        )
        assert np.array_equal(result.x, reference.x)
        assert result.stop_reason == reference.stop_reason


def _reconstruct_scene():
    geometry = ParallelBeamGeometry(24, 32)
    rng = np.random.default_rng(4)
    operator, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
    truth = rng.random(operator.num_pixels).astype(np.float32)
    sinogram = operator.ordered_to_sinogram(
        np.asarray(operator.forward(truth), dtype=np.float64)
    )
    return geometry, operator, sinogram


class TestReconstructIntegration:
    @pytest.fixture(scope="class")
    def scene(self):
        return _reconstruct_scene()

    def test_rank_crash_never_reaches_the_memo(self):
        """degrade() replaces the solve's rank list; the operator's
        memoized 4-rank decomposition is neither replaced nor mutated,
        and a clean solve after the crash is a fresh operator's."""
        geometry, operator, sinogram = _reconstruct_scene()
        chaotic = reconstruct(
            sinogram, geometry, operator=operator, solver="cg", iterations=8,
            num_ranks=4, faults="drop=0.05,crash=1@3,seed=7",
        )
        assert chaotic.extra["surviving_ranks"] == 3
        (held,) = operator._rank_data.values()
        members = list(held)
        clean = reconstruct(
            sinogram, geometry, operator=operator, solver="cg", iterations=8,
            num_ranks=4,
        )
        (after,) = operator._rank_data.values()
        assert after is held and len(held) == 4
        assert all(a is b for a, b in zip(after, members, strict=True))
        tomo_dec, sino_dec = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, 4, operator.plan.gather
        )
        _assert_same_rank_data(
            DistributedOperator(operator.plan, tomo_dec, sino_dec, rank_data=held),
            DistributedOperator(operator.plan, tomo_dec, sino_dec),
        )
        _, other, _ = _reconstruct_scene()
        reference = reconstruct(
            sinogram, geometry, operator=other, solver="cg", iterations=8,
            num_ranks=4,
        )
        assert np.array_equal(clean.image, reference.image)

    def test_faults_require_multiple_ranks(self, scene):
        geometry, operator, sinogram = scene
        with pytest.raises(ValueError, match="num_ranks"):
            reconstruct(sinogram, geometry, operator=operator, faults="drop=0.1")

    def test_resilience_kwargs_rejected_for_non_iterative_solvers(self, scene):
        geometry, operator, sinogram = scene
        with pytest.raises(ValueError, match="does not support"):
            reconstruct(
                sinogram, geometry, operator=operator,
                solver="sgd", checkpoint_every=2,
            )

    def test_fault_stats_and_checkpoint_reported_in_extra(self, scene, tmp_path):
        geometry, operator, sinogram = scene
        result = reconstruct(
            sinogram, geometry, operator=operator,
            solver="cg", iterations=6, num_ranks=2,
            faults="drop=0.05,seed=7",
            checkpoint=tmp_path / "ck", checkpoint_every=3,
            health=True,
        )
        assert result.extra["fault_stats"]["retries"] >= result.extra[
            "fault_stats"
        ]["drops"]
        assert result.extra["checkpoint_path"].endswith(".npz")

    def test_reconstruct_resume_matches_uninterrupted(self, scene, tmp_path):
        geometry, operator, sinogram = scene
        path = tmp_path / "ck"
        full = reconstruct(
            sinogram, geometry, operator=operator, solver="cg", iterations=10
        )
        reconstruct(
            sinogram, geometry, operator=operator, solver="cg", iterations=5,
            checkpoint=path, checkpoint_every=5,
        )
        resumed = reconstruct(
            sinogram, geometry, operator=operator, solver="cg", iterations=10,
            resume=path,
        )
        assert np.array_equal(resumed.image, full.image)

    def test_ambient_env_chaos_is_bit_exact(self, scene, monkeypatch):
        """The CI chaos job's contract: REPRO_FAULTS + REPRO_FAULT_SEED on
        an unmodified distributed solve changes nothing observable."""
        geometry, operator, sinogram = scene
        clean = reconstruct(
            sinogram, geometry, operator=operator,
            solver="cg", iterations=8, num_ranks=4,
        )
        monkeypatch.setenv("REPRO_FAULTS", "drop=0.03,corrupt=0.01")
        monkeypatch.setenv("REPRO_FAULT_SEED", "20190817")
        chaotic = reconstruct(
            sinogram, geometry, operator=operator,
            solver="cg", iterations=8, num_ranks=4,
        )
        assert np.array_equal(chaotic.image, clean.image)
