"""slice256 — one 256x256 slice, built cold, reloaded warm, solved with CG.

Why it exists: ray tracing, the ordered transpose, the buffered layout
build, the plan cache and the single-right-hand-side SpMV do all the
work here; pipeline, dataio, dist and service do none.  It is the
workload a set-up or single-vector kernel change must move, and the one
whose plan-cache entry is large enough (hundreds of MB) to notice.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import OperatorConfig, obs, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import shepp_logan

from .. import kernels, layers
from ..harness import Context, peak_rss_mb, pick_size, timed
from ..tracing import Tracer

SIZES = {
    "full": {"angles": 256, "channels": 256, "iterations": 10,
             "max_rel_residual": 0.05, "max_rmse": 0.10},
    "quick": {"angles": 64, "channels": 64, "iterations": 10,
              "max_rel_residual": 0.04, "max_rmse": 0.13},
}
BYPASSED = ("pipeline.", "dataio.", "dist.", "topology.", "service.", "persist.")
WARM_LOADS = 3


def _solve(sinogram, geometry, operator, size):
    return reconstruct(
        sinogram, geometry, operator=operator, solver="cg", iterations=size["iterations"]
    )


def _check_output(ctx: Context, operator, result, sinogram, phantom, size) -> dict:
    quality = {
        "rel_residual": layers.rel_residual(operator, result.image, sinogram),
        "rmse": layers.rmse(result.image, phantom),
    }
    layers.check_ceilings(ctx, quality, size)
    return quality


def measure(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    geometry = ParallelBeamGeometry(size["angles"], size["channels"])
    config = OperatorConfig()
    # The cold build is 13-18 s of the run: a single sample, and what is
    # left holds no interleaved cycles — warm loads, then solves.
    operator, cache_dir, report = layers.cold_build(ctx, geometry, config, 0)
    phantom = shepp_logan(size["channels"])
    sinogram = layers.noisy_sinogram(operator, phantom, ctx.seed)
    for _ in range(1 if ctx.quick else WARM_LOADS):
        operator = None  # one operator alive at a time keeps peak RSS honest
        operator = layers.warm_build(ctx, geometry, config, cache_dir)
    # Also the first calls on the loaded operator, which build its lazy
    # index plans: the solves below are steady state.
    layers.check_adjointness(ctx, operator)

    images = []
    for _ in ctx.cycles(at_least=3, reserve=1.0):
        result = ctx.time("solve_s", _solve, sinogram, geometry, operator, size)
        images.append(result.image)
    ctx.checks.check(
        "repeated solves are bit-identical",
        all(np.array_equal(images[0], image) for image in images[1:]),
    )
    metrics = layers.timing_metrics(ctx, cache_dir, report)
    # One job = one reconstruct call here, so this restates solve_s in
    # ms; it carries independent information only on service8.
    metrics["job_p50_ms"] = 1e3 * metrics["solve_s"]
    metrics.update(_check_output(ctx, operator, result, sinogram, phantom, size))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def trace(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    geometry = ParallelBeamGeometry(size["angles"], size["channels"])
    tracer = Tracer()
    operator, _, metrics, setup_gap = layers.trace_setup(
        ctx, tracer, geometry, OperatorConfig()
    )
    phantom = shepp_logan(size["channels"])
    sinogram = layers.noisy_sinogram(operator, phantom, ctx.seed)
    layers.check_adjointness(ctx, operator)

    untraced_s, _ = timed(_solve, sinogram, geometry, operator, size)
    solver_targets = [(sys.modules["repro.core.reconstructor"], "cgls", "solvers.cg")]
    with tracer.patched(layers.operator_targets() + solver_targets), obs.capture() as capture:
        with tracer.span("solve") as root:
            result = _solve(sinogram, geometry, operator, size)
    ctx.checks.attempt(2)
    metrics.update(layers.solve_layer_metrics(tracer, root, capture))
    solve_gap = layers.close_accounts(ctx, tracer, root, "solve (reconstruct, cg)")
    _check_output(ctx, operator, result, sinogram, phantom, size)

    metrics.update(kernels.probe(ctx, operator))
    metrics["obs.overhead_frac"] = (root.duration - untraced_s) / untraced_s
    metrics["bench.unattributed_frac"] = max(setup_gap, solve_gap)
    return metrics
