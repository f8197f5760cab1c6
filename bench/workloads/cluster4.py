"""cluster4 — one 192x192 slice solved over four simulated ranks, 2x2.

Why it exists: domain decomposition, the per-rank ``A_p`` build, the
``SimComm``/``HierComm`` exchange and its two-level accounting dominate
here and appear in no other workload.  The rank-local kernels are plain
CSR, so a buffered/ELL layout change must not show; communication
counts repeat exactly and are compared as counts.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import OperatorConfig, obs, reconstruct
from repro.dist import DistributedOperator, SimComm, decompose_both, hier_alltoallv_time
from repro.geometry import ParallelBeamGeometry
from repro.machine import get_machine
from repro.phantoms import shepp_logan
from repro.topology import parse_topology

from .. import kernels, layers
from ..harness import Context, peak_rss_mb, pick_size, timed
from ..tracing import Tracer

SIZES = {
    "full": {"angles": 192, "channels": 192, "iterations": 10,
             "max_rel_residual": 0.05, "max_rmse": 0.10},
    "quick": {"angles": 48, "channels": 48, "iterations": 10,
              "max_rel_residual": 0.04, "max_rmse": 0.15},
}
BYPASSED = ("pipeline.", "dataio.", "service.", "persist.")

CONFIG = OperatorConfig(kernel="csr")
RANKS = 4
TOPOLOGY = "nodes:2,ranks:2"
MODEL_MACHINE = "dgx1"  # link parameters the alpha-beta prediction uses
#: The wire carries float32 partial sums and CG on noisy data amplifies
#: the rounding — most at mid-solve, where this workload stops — so
#: distributed-vs-serial agreement is relative, not bitwise: over 80 seeds
#: at 10 iterations the gap's median is 8e-4, its 90th percentile 1.7e-2
#: and its maximum 3.0e-2, hence 1e-1 (a wrong exchange gives O(1); the
#: sharp check is hierarchical == flat, bit for bit).
SERIAL_RTOL = 1e-1
COLD_BUILDS = 2  # set-up samples per run
WARM_LOADS = 2  # warm set-up samples per cycle (a load is 0.13 s of a 3 s cycle)
SOLVES_PER_LOAD = 2
CHECK_RESERVE_S = 3.5  # the flat and serial reference solves follow the loop


def _solve(sinogram, geometry, operator, size, topology=TOPOLOGY, ranks=RANKS):
    return reconstruct(
        sinogram, geometry, operator=operator, num_ranks=ranks, topology=topology,
        iterations=size["iterations"],
    )


def _check_output(ctx: Context, operator, hier, sinogram, phantom, geometry, size) -> dict:
    flat = _solve(sinogram, geometry, operator, size, topology="flat")
    serial = _solve(sinogram, geometry, operator, size, ranks=1)
    ctx.checks.check("hierarchical equals flat bit for bit",
                     np.array_equal(hier.image, flat.image))
    gap = np.linalg.norm(hier.image - serial.image) / np.linalg.norm(serial.image)
    ctx.checks.below("distributed vs serial (relative L2)", gap, SERIAL_RTOL)
    quality = {
        "rel_residual": layers.rel_residual(operator, hier.image, sinogram),
        "rmse": layers.rmse(hier.image, phantom),
    }
    layers.check_ceilings(ctx, quality, size)
    return quality


def measure(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    geometry = ParallelBeamGeometry(size["angles"], size["channels"])
    operator, cache_dir, report = layers.cold_build(ctx, geometry, CONFIG, 0)
    phantom = shepp_logan(size["channels"])
    sinogram = layers.noisy_sinogram(operator, phantom, ctx.seed)
    layers.check_adjointness(ctx, operator)

    first, counts = None, []
    for i in ctx.cycles(at_least=3, reserve=CHECK_RESERVE_S):
        # One operator alive at a time keeps peak RSS honest (a result
        # holds the operator it was solved with).
        result = None
        if 0 < i < COLD_BUILDS:  # the cold builds are spread through the run
            operator = None
            operator, cache_dir, report = layers.cold_build(ctx, geometry, CONFIG, i)
        for _ in range(WARM_LOADS):
            operator = None
            operator = layers.warm_build(ctx, geometry, CONFIG, cache_dir)
        # The per-rank build of the first solve after a load lands on
        # pages the guest has to fetch back from the host (1.4-2.3 s where
        # the second reads 1.3-1.4 s): two solves per load, so the steady
        # mode is never the minority of the samples.
        for _ in range(SOLVES_PER_LOAD):
            result = ctx.time("solve_s", _solve, sinogram, geometry, operator, size)
            counts.append(result.extra["hier_comm"])
            first = result.image if first is None else first
    ctx.checks.check(
        "repeated solves are bit-identical", np.array_equal(first, result.image)
    )
    ctx.checks.check(
        "communication counts repeat exactly", all(c == counts[0] for c in counts[1:])
    )
    metrics = layers.timing_metrics(ctx, cache_dir, report)
    # One job = one distributed reconstruct call: solve_s restated in ms
    # (independent information only on service8).
    metrics["job_p50_ms"] = 1e3 * metrics["solve_s"]
    metrics.update(_check_output(ctx, operator, result, sinogram, phantom, geometry, size))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def _model_comm_seconds(operator, exchanges: int) -> tuple[float, float]:
    """Alpha-beta prediction for the solve's exchanges, and the largest
    rank's share of the nonzeros.

    One forward pass on a standalone distributed operator yields the
    pairwise byte matrix of ``C``; backprojection moves its transpose.
    """
    topology = parse_topology(TOPOLOGY, RANKS)
    tomo, sino = decompose_both(operator.tomo_ordering, operator.sino_ordering, RANKS)
    dist = DistributedOperator(operator.matrix, tomo, sino, topology=topology)
    dist.forward(np.ones(dist.num_pixels, dtype=np.float32))
    volume = dist.last_comm_log().volume_bytes
    machine = get_machine(MODEL_MACHINE)
    per_pair = hier_alltoallv_time(volume, topology, machine) + hier_alltoallv_time(
        volume.T, topology, machine
    )
    nnz = dist.per_rank_nnz()
    return per_pair * exchanges / 2, float(nnz.max() / nnz.sum())


def trace(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    geometry = ParallelBeamGeometry(size["angles"], size["channels"])
    tracer = Tracer()
    operator, _, metrics, setup_gap = layers.trace_setup(ctx, tracer, geometry, CONFIG)
    phantom = shepp_logan(size["channels"])
    sinogram = layers.noisy_sinogram(operator, phantom, ctx.seed)
    layers.check_adjointness(ctx, operator)

    untraced_s, _ = timed(_solve, sinogram, geometry, operator, size)
    reconstructor = sys.modules["repro.core.reconstructor"]
    targets = [
        (reconstructor, "decompose_both", "dist.decompose"),
        (DistributedOperator, "__init__", "dist.build"),
        (reconstructor, "cgls", "solvers.cg"),
        (DistributedOperator, "forward", "dist.fwd"),
        (DistributedOperator, "adjoint", "dist.adj"),
        (SimComm, "alltoallv", "dist.comm"),
    ]
    with tracer.patched(targets), obs.capture() as capture:
        with tracer.span("solve") as root:
            result = _solve(sinogram, geometry, operator, size)
    ctx.checks.attempt(2)
    stats = tracer.stats(root)
    metrics.update(layers.solve_layer_metrics(tracer, root, capture))

    probe = kernels.probe(ctx, operator)
    metrics.update(probe)
    iterations = capture.total(obs.SOLVER_ITERATIONS)
    model_s, nnz_share = _model_comm_seconds(operator, stats["dist.comm"].count)
    hier = result.extra["hier_comm"]
    metrics.update(
        {
            "dist.decompose_s": stats["dist.decompose"].total,
            "dist.build_s": stats["dist.build"].total,
            "dist.fwd_ms": stats["dist.fwd"].mean_ms,
            "dist.adj_ms": stats["dist.adj"].mean_ms,
            # base: serial CSR forward + adjoint on the same matrix
            "dist.vs_serial": (stats["dist.fwd"].mean_ms + stats["dist.adj"].mean_ms)
            / (probe["sparse.csr.fwd_ms"] + probe["sparse.csr.adj_ms"]),
            "dist.comm_s": stats["dist.comm"].total,
            "dist.model_comm_s": model_s,
            "dist.comm_bytes_per_iter": capture.total(obs.COMM_BYTES) / iterations,
            "dist.comm_msgs_per_iter": capture.total(obs.COMM_MESSAGES) / iterations,
            "dist.max_rank_nnz_share": nnz_share,
            "topology.intra_bytes": hier["intra_bytes"],
            "topology.inter_bytes": hier["inter_bytes"],
            "topology.inter_msgs": hier["inter_messages"],
        }
    )
    solve_gap = layers.close_accounts(ctx, tracer, root, "solve (reconstruct, 4 ranks)")
    _check_output(ctx, operator, result, sinogram, phantom, geometry, size)

    metrics["obs.overhead_frac"] = (root.duration - untraced_s) / untraced_s
    metrics["bench.unattributed_frac"] = max(setup_gap, solve_gap)
    return metrics
