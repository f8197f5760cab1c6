"""Resilience overhead and recovery cost.

The resilience layer (docs/resilience.md) must be free when unused:
the fault-injection hooks in ``SimComm`` and the checkpoint/health
hooks in the solvers sit on the per-collective and per-iteration
paths, so their zero-fault cost is measured here against the plain
distributed solve.  Acceptance: < 5% overhead with no faults, no
checkpointing, and no monitor attached.

The same scenario is then run under chaos (drops + corruptions + one
rank crash) to price recovery: retries, healed messages, degradation,
and the bit-exactness of transient-fault healing all land in the JSON
report via the ``fault.*`` / ``checkpoint.*`` / ``health.*`` counters
the conftest capture already collects.
"""

import time

import numpy as np

from repro.core import OperatorConfig, preprocess
from repro.dist import DistributedOperator, SimComm, decompose_both
from repro.geometry import ParallelBeamGeometry
from repro.resilience import CheckpointManager, FaultConfig, FaultInjector, HealthMonitor
from repro.solvers import cgls

MAX_OVERHEAD = 0.05
NUM_RANKS = 4
ITERATIONS = 20
REPEATS = 5


def _build(operator, injector=None):
    tomo_dec, sino_dec = decompose_both(
        operator.tomo_ordering, operator.sino_ordering, NUM_RANKS, operator.plan.gather
    )
    comm = SimComm(NUM_RANKS, fault_injector=injector) if injector else None
    return DistributedOperator(operator.plan, tomo_dec, sino_dec, comm=comm)


def _best_of(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_resilience_overhead_and_recovery(report):
    geometry = ParallelBeamGeometry(48, 64)
    operator, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
    truth = np.random.default_rng(0).random(operator.num_pixels).astype(np.float32)
    y = operator.forward(truth)

    # Plain distributed solve: no injector, no checkpoint, no monitor.
    plain_op = _build(operator)
    plain = _best_of(lambda: cgls(plain_op, y, num_iterations=ITERATIONS))

    # Armed but idle: injector attached with all probabilities zero,
    # plus an in-memory checkpoint policy and a health monitor — the
    # configuration a cautious production run would use.  Only the
    # solve is timed; operator construction is identical either way.
    armed_op = _build(operator, injector=FaultInjector(FaultConfig(seed=0)))
    armed = _best_of(
        lambda: cgls(
            armed_op, y, num_iterations=ITERATIONS,
            checkpoint=CheckpointManager(every=5),
            health=HealthMonitor(),
        )
    )
    overhead = armed / plain - 1.0

    # Chaos run: transient faults heal bit-exactly, one crash degrades.
    clean = cgls(plain_op, y, num_iterations=ITERATIONS)
    transient = FaultInjector(FaultConfig(drop=0.05, corrupt=0.02, seed=7))
    chaotic = cgls(
        _build(operator, injector=transient), y, num_iterations=ITERATIONS
    )
    transient_bit_exact = bool(np.array_equal(chaotic.x, clean.x))

    crash_inj = FaultInjector(
        FaultConfig(drop=0.05, corrupt=0.02, crashes=((5, 1),), seed=21)
    )
    crash_op = _build(operator, injector=crash_inj)
    t0 = time.perf_counter()
    crashed = cgls(crash_op, y, num_iterations=ITERATIONS)
    crash_seconds = time.perf_counter() - t0
    scale = float(np.max(np.abs(clean.x)))
    crash_err = float(np.max(np.abs(crashed.x - clean.x))) / scale
    # Degradation moves partition boundaries (different float summation
    # order), so mid-convergence iterates drift; the claim is that the
    # degraded solve *converges equivalently*, measured on the residual.
    crash_residual_ratio = crashed.residual_norms[-1] / clean.residual_norms[-1]

    lines = [
        f"resilience overhead, {NUM_RANKS} ranks x {ITERATIONS} CG iterations "
        f"(48x64 geometry, best of {REPEATS})",
        f"  plain distributed solve  : {plain * 1e3:8.2f} ms",
        f"  armed (injector+ckpt+hm) : {armed * 1e3:8.2f} ms",
        f"  zero-fault overhead      : {overhead * 100:8.2f} %  "
        f"(acceptance < {MAX_OVERHEAD * 100:.0f}%)",
        "recovery cost under chaos (drop=0.05, corrupt=0.02):",
        f"  transient faults healed  : {transient.stats.retries} retries, "
        f"bit-exact = {transient_bit_exact}",
        f"  + rank crash (4 -> {crash_op.num_ranks} ranks): "
        f"{crash_seconds * 1e3:.2f} ms, max rel err {crash_err:.2e}, "
        f"residual ratio {crash_residual_ratio:.4f}",
    ]
    report(
        "resilience_overhead",
        "\n".join(lines),
        extra={
            "num_ranks": NUM_RANKS,
            "iterations": ITERATIONS,
            "plain_seconds": plain,
            "armed_seconds": armed,
            "overhead_fraction": overhead,
            "max_overhead": MAX_OVERHEAD,
            "transient_bit_exact": transient_bit_exact,
            "transient_fault_stats": transient.stats.as_dict(),
            "crash_fault_stats": crash_inj.stats.as_dict(),
            "crash_degradations": list(crash_op.degradations),
            "crash_max_rel_err": crash_err,
            "crash_residual_ratio": crash_residual_ratio,
        },
    )

    assert transient_bit_exact
    assert crash_op.degradations and crash_op.num_ranks == NUM_RANKS - 1
    assert abs(crash_residual_ratio - 1.0) < 0.05
    assert overhead < MAX_OVERHEAD, (
        f"resilience hooks cost {overhead * 100:.1f}% on the zero-fault path "
        f"(plain {plain * 1e3:.2f} ms, armed {armed * 1e3:.2f} ms)"
    )
