"""stack16 — a 16-slice raw stack reconstructed disk to disk.

Why it exists: the same ``sparse`` layer used the other way round —
multi-right-hand-side slab kernels, end-to-end fp32, the ELL layout —
plus the conditioning stages, rotation-centre finding and the
read-ahead/write-behind conveyor.  Building the operator takes ~2 s of
a ~20 s run, so a set-up win must not show here, and a single-vector
kernel win that taxes ``spmv_batch`` must.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro import OperatorConfig, obs
from repro.cache import PlanCache
from repro.dataio import load_volume, make_sink, open_source, save_stack
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import (
    inject_center_shift,
    ring_gains,
    simulate_counts,
    stacked_shepp_logan,
    synthetic_darks_flats,
)
from repro.pipeline import Stage, default_stages, reconstruct_stack

from .. import kernels, layers
from ..harness import Context, peak_rss_mb, pick_size, timed
from ..tracing import Tracer

SIZES = {
    "full": {"slices": 16, "angles": 180, "channels": 128, "shard_slices": 4,
             "chunk_slices": 8, "iterations": 5,
             "max_rel_residual": 0.17, "max_rmse": 0.012},
    "quick": {"slices": 4, "angles": 48, "channels": 32, "shard_slices": 2,
              "chunk_slices": 2, "iterations": 8,
              "max_rel_residual": 0.25, "max_rmse": 0.05},
}
BYPASSED = ("dist.", "topology.", "service.", "persist.")

CONFIG = OperatorConfig(kernel="ell", dtype="float32")
CENTER_SHIFT = 1.75  # channels the rotation axis is displaced by
CHECK_SLICES = 2  # leading slices re-solved in memory for the sink check
COLD_BUILDS = 3  # set-up samples per run
WARM_LOADS = 3  # warm set-up samples per cycle (a load is 0.1 s of a 4.5 s cycle)
CHECK_RESERVE_S = 2.5  # the in-memory re-solve and the residuals follow the loop


@dataclass
class _Acquisition:
    """A synthetic raw stack on disk plus what it should reconstruct to."""

    shard_dir: object
    raw: np.ndarray  # (slices, angles, channels) photon counts
    darks: np.ndarray
    flats: np.ndarray
    truth: np.ndarray  # (slices, n, n) phantom stack, attenuation-scaled
    clean: np.ndarray  # (rays, slices) its noise-free line integrals, ordered


def _write_inputs(ctx: Context, size: dict, operator) -> _Acquisition:
    """Seeded raw counts with darks/flats, rings and a centre shift,
    saved as npz shards — ``pipeline.demo_stack``'s recipe, projected
    with one slab call instead of a vector call per slice."""
    slices, channels = size["slices"], size["channels"]
    truth = stacked_shepp_logan(channels, slices)
    ordered = np.stack([operator.image_to_ordered(t) for t in truth], axis=1)
    clean = np.asarray(operator.forward_batch(ordered), dtype=np.float64)
    sinograms = np.stack([operator.ordered_to_sinogram(column) for column in clean.T])
    darks, flats = synthetic_darks_flats(slices, channels, seed=ctx.seed + 1)
    raw, scale = simulate_counts(
        inject_center_shift(sinograms, CENTER_SHIFT), darks, flats,
        gains=ring_gains(channels, seed=ctx.seed + 2), seed=ctx.seed,
    )
    shard_dir = ctx.workdir / "raw-stack"
    save_stack(shard_dir, raw, darks, flats, shard_slices=size["shard_slices"])
    return _Acquisition(shard_dir, raw, darks, flats, scale * truth, scale * clean)


def _run_stack(shard_dir, out_dir, size: dict, cache_dir):
    return reconstruct_stack(
        shard_dir, config=CONFIG, solver="cg", iterations=size["iterations"],
        chunk_slices=size["chunk_slices"],
        sink=make_sink(out_dir, size["slices"], size["channels"]),
        prefetch=2, cache=cache_dir,
    )


def _check_output(ctx: Context, operator, data: _Acquisition, result, size: dict) -> dict:
    """Sink volume against the truth, the clean data and an in-memory run."""
    volume = load_volume(result.extra["output_path"])
    found = float(result.extra["center_shift"])
    ctx.checks.below("centre shift error (px)", abs(found - CENTER_SHIFT), 0.5)

    # The leading slices again, in memory, with the found centre pinned:
    # batched columns are bit-exact per slice, so the streamed volume
    # must match whatever the chunking was.
    k = CHECK_SLICES
    memory = reconstruct_stack(
        data.raw[:k], operator=operator, solver="cg", iterations=size["iterations"],
        stages=default_stages(data.darks[:, :k], data.flats[:, :k], center_shift=found),
    )
    ctx.checks.check("sink volume equals an in-memory run",
                     np.array_equal(volume[:k], memory.volume))

    # Data consistency against the clean (unshifted, noise-free) line
    # integrals of the scaled truth; worst slice.
    ordered = np.stack([operator.image_to_ordered(image) for image in volume], axis=1)
    gap = data.clean - np.asarray(operator.forward_batch(ordered), dtype=np.float64)
    residuals = np.linalg.norm(gap, axis=0) / np.linalg.norm(data.clean, axis=0)
    quality = {
        "rel_residual": float(residuals.max()),
        "rmse": layers.rmse(volume, data.truth),
    }
    layers.check_ceilings(ctx, quality, size)
    return quality


def measure(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    geometry = ParallelBeamGeometry(size["angles"], size["channels"])
    operator, cache_dir, report = layers.cold_build(ctx, geometry, CONFIG, 0)
    data = _write_inputs(ctx, size, operator)
    layers.check_adjointness(ctx, operator)

    for i in ctx.cycles(at_least=3, reserve=CHECK_RESERVE_S):
        if 0 < i < COLD_BUILDS:  # the cold builds are spread through the run
            operator = None  # one operator alive at a time keeps peak RSS honest
            operator, cache_dir, report = layers.cold_build(ctx, geometry, CONFIG, i)
        for _ in range(WARM_LOADS):
            operator = None
            operator = layers.warm_build(ctx, geometry, CONFIG, cache_dir)
        # reconstruct_stack loads its own operator from the same cache
        result = ctx.time("solve_s", _run_stack, data.shard_dir,
                          ctx.workdir / f"volume-{i}", size, cache_dir)
    metrics = layers.timing_metrics(ctx, cache_dir, report)
    # One job = one slice of the stack: wall per slice, a restatement of
    # solve_s (independent information only on service8).
    metrics["job_p50_ms"] = 1e3 * metrics["solve_s"] / size["slices"]
    metrics.update(_check_output(ctx, operator, data, result, size))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def _stage_span(stage, *_args) -> str:
    return "pipeline.center" if stage.name == "center" else "pipeline.stages"


def _time_dataio(shard_dir, result, size: dict, scratch) -> dict:
    """Standalone reads and writes of the chunks the run moved (inside
    the run they overlap the solve on the conveyor's threads)."""
    chunks = [(c["start"], c["stop"]) for c in result.chunks]
    volume = load_volume(result.extra["output_path"])
    source = open_source(shard_dir)
    sink = make_sink(scratch, size["slices"], size["channels"])
    read_s = sum(timed(source.read, a, b)[0] for a, b in chunks)
    write_s = sum(timed(sink.write, a, b, volume[a:b])[0] for a, b in chunks)
    source.close()
    sink.close()
    return {"dataio.read_s": read_s, "dataio.write_s": write_s}


def trace(ctx: Context) -> dict:
    size = pick_size(SIZES, ctx)
    geometry = ParallelBeamGeometry(size["angles"], size["channels"])
    tracer = Tracer()
    operator, cache_dir, metrics, setup_gap = layers.trace_setup(
        ctx, tracer, geometry, CONFIG
    )
    data = _write_inputs(ctx, size, operator)
    layers.check_adjointness(ctx, operator)

    untraced_s, _ = timed(_run_stack, data.shard_dir, ctx.workdir / "volume-untraced",
                          size, cache_dir)
    targets = layers.operator_targets() + [
        (Stage, "__call__", _stage_span),
        (sys.modules["repro.pipeline.executor"], "cgls_batch", "solvers.cg"),
        (PlanCache, "load", "cache.load"),
    ]
    with tracer.patched(targets), obs.capture() as capture:
        with tracer.span("solve") as root:
            result = _run_stack(data.shard_dir, ctx.workdir / "volume-traced", size,
                                cache_dir)
    ctx.checks.attempt(2)
    stats = tracer.stats(root)
    metrics.update(layers.solve_layer_metrics(tracer, root, capture))
    metrics.update(
        {
            "pipeline.stages_s": stats["pipeline.stages"].total,
            "pipeline.center_s": stats["pipeline.center"].total,
            "pipeline.solve_s": stats["solvers.cg"].total,
            "pipeline.other_s": stats["unattributed"].self_time,
            "dataio.bytes_read": capture.total(obs.DATAIO_BYTES_READ),
            "dataio.bytes_written": capture.total(obs.DATAIO_BYTES_WRITTEN),
        }
    )
    metrics.update(
        _time_dataio(data.shard_dir, result, size, ctx.workdir / "volume-rewrite")
    )
    solve_gap = layers.close_accounts(ctx, tracer, root, "solve (reconstruct_stack)")
    _check_output(ctx, operator, data, result, size)

    metrics.update(kernels.probe(ctx, operator))
    metrics["obs.overhead_frac"] = (root.duration - untraced_s) / untraced_s
    metrics["bench.unattributed_frac"] = max(setup_gap, solve_gap)
    return metrics
