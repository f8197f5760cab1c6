"""Streaming pipeline acceptance — batched multi-RHS vs a loop of slices.

The MemXCT amortization argument applied to 3D stacks: the operator's
regular streams (values, indices, padding) are the dominant memory
traffic of an SpMV, and a slab of ``S`` right-hand sides lets one pass
over those streams serve every slice at once.  This benchmark
reconstructs an 8-slice 128x128 stack through the full pipeline
(dark/flat normalization, negative log, ring suppression, center
correction, CG) and compares it with the loop it replaces:

* **looped**  — the same conditioning stages, then an explicit loop of
  single-slice ``cgls`` calls, re-streaming the matrix for each slice;
* **batched** — ``reconstruct_stack(...)``: one multi-RHS CG over the
  ``(rays, 8)`` slab, streaming the matrix once per iteration.

The comparison runs the plan ``preprocess`` builds: on this half-turn
scan (128 views) the orbit SpMM over the traced rows ``Q``, whose
calls are multi-column SpMMs already, so a slab reads ``Q`` once per
iteration for all slices (a scan without an 8-slot group would run
csr).  The batch paths share the same bit-exact contract; see
docs/pipeline.md.

Acceptance:

* the two volumes are bit-identical (batching never changes arithmetic);
* rotation-center search recovers the injected shift within 0.5 px.

The speedup is reported, not asserted.  A 2x floor was set while the
kernels were numpy expressions; on the orbit SpMM a looped slice is one
8-column call, which runs the compiled row loops (about 2x scipy's),
while the slab's 64 columns run at scipy's speed, so over ten runs
interleaved with ``bench_scenarios.py`` the batched solve read
0.73-1.01x of the looped one (median 0.94x; docs/pipeline.md).
"""

import time

import numpy as np

from repro import obs
from repro.core import OperatorConfig
from repro.pipeline import StageContext, default_stages, demo_stack, reconstruct_stack
from repro.precision import solver_dtype
from repro.solvers import cgls

CENTER_TOL = 0.5
SIZE = 128
SLICES = 8
ITERATIONS = 10
INJECTED_SHIFT = 1.75


def _looped(demo):
    """The conditioning the pipeline runs on its one chunk, then one
    single-slice CG per slice; returns the volume and the solve seconds."""
    op = demo.operator
    ctx = StageContext(angles=demo.geometry.angles())
    ctx.info["slice_offset"] = 0
    chunk = demo.raw
    for stage in default_stages(demo.darks, demo.flats):
        chunk = stage(chunk, ctx)
    images, seconds = [], 0.0
    for sinogram in chunk:
        y = op.sinogram_to_ordered(sinogram).astype(solver_dtype(op))
        t0 = time.perf_counter()
        x = cgls(op, y, num_iterations=ITERATIONS).x
        seconds += time.perf_counter() - t0
        images.append(op.ordered_to_image(x))
    return np.stack(images), seconds


def test_batched_stack_speedup(report):
    demo = demo_stack(
        size=SIZE,
        num_slices=SLICES,
        center_shift=INJECTED_SHIFT,
        poisson=False,
        config=OperatorConfig(),
    )
    common = dict(
        darks=demo.darks,
        flats=demo.flats,
        operator=demo.operator,
        solver="cg",
        iterations=ITERATIONS,
    )

    # Warm both code paths (allocator, imports) outside the timed region.
    reconstruct_stack(demo.raw[:1], demo.geometry, **common)

    with obs.capture() as cap_batch:
        t0 = time.perf_counter()
        batched = reconstruct_stack(demo.raw, demo.geometry, **common)
        batched_wall = time.perf_counter() - t0
    with obs.capture() as cap_loop:
        t0 = time.perf_counter()
        looped_volume, looped_solve_seconds = _looped(demo)
        looped_wall = time.perf_counter() - t0

    speedup = looped_solve_seconds / batched.solve_seconds
    bit_exact = np.array_equal(batched.volume, looped_volume)
    found = batched.extra["center_shift"]
    center_error = abs(found - demo.center_shift)
    reg_batch = cap_batch.total(obs.SPMV_REGULAR_BYTES)
    reg_loop = cap_loop.total(obs.SPMV_REGULAR_BYTES)

    lines = [
        f"streaming pipeline, {SIZE}x{SIZE} orbit kernel, {SLICES} slices, "
        f"CG x{ITERATIONS}",
        f"  looped solve            : {looped_solve_seconds:8.3f} s "
        f"({looped_solve_seconds / SLICES * 1e3:7.1f} ms/slice)",
        f"  batched solve           : {batched.solve_seconds:8.3f} s "
        f"({batched.solve_seconds / SLICES * 1e3:7.1f} ms/slice)",
        f"  speedup                 : {speedup:8.2f} x",
        f"  regular stream traffic  : {reg_loop / 1e9:8.2f} GB looped vs "
        f"{reg_batch / 1e9:.2f} GB batched",
        f"  volumes bit-identical   : {bit_exact}",
        f"  center shift            : injected {demo.center_shift:+.3f} px, "
        f"found {found:+.3f} px (err {center_error:.3f}, "
        f"acceptance <= {CENTER_TOL} px)",
    ]
    report(
        "pipeline_batched_vs_looped",
        "\n".join(lines),
        extra={
            "size": SIZE,
            "slices": SLICES,
            "iterations": ITERATIONS,
            "kernel": "orbit",
            "looped_solve_seconds": looped_solve_seconds,
            "batched_solve_seconds": batched.solve_seconds,
            "looped_wall_seconds": looped_wall,
            "batched_wall_seconds": batched_wall,
            "speedup": speedup,
            "regular_bytes_looped": reg_loop,
            "regular_bytes_batched": reg_batch,
            "bit_exact": bit_exact,
            "injected_shift": demo.center_shift,
            "found_shift": found,
            "center_error": center_error,
            "center_tolerance": CENTER_TOL,
        },
    )

    assert bit_exact, "batched and looped volumes diverged"
    assert center_error <= CENTER_TOL, (
        f"center search missed injected shift by {center_error:.3f} px"
    )
