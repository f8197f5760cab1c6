"""Scenario acceptance — the try-center sweep as one batched solve.

The tomocupy-style rotation-center search reconstructs the same slice
at ``S`` candidate centers.  Run naively that is ``S`` independent CG
solves, each re-streaming the operator's regular streams (values,
indices, padding) every iteration.  The batched-RHS machinery packs
the candidates into one ``(rays, S)`` slab and streams the matrix once
per iteration for all of them — the pipeline benchmark's amortization
argument applied to an alignment workload.

The comparison runs the plan ``preprocess`` builds: on this half-turn
scan (160 views) the orbit SpMM over the traced rows ``Q`` (a scan
without an 8-slot group would run csr).

Acceptance:

* every candidate's reconstruction is **bit-identical** between the
  two paths (batching never changes arithmetic);
* the entropy score finds the injected axis shift within 0.5 px.

The speedup is reported, not asserted.  A looped candidate is one
8-column call per kernel, which runs the compiled row loops (about 2x
scipy's), while the 104-column slab runs at scipy's speed, so over ten
runs interleaved with ``bench_pipeline.py`` the batched sweep read
0.82-0.98x of the looped one (median 0.91x; docs/scenarios.md).  The
1.5x floor it replaced was set on the ELL kernel.
"""

import time

import numpy as np

from repro import obs
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import shepp_logan
from repro.scenarios import center_slab, nominal_center, shift_sinogram, try_center
from repro.solvers import cgls

CENTER_TOL = 0.5
SIZE = 128
ANGLES = 160
ITERATIONS = 10
INJECTED_SHIFT = 1.75
CANDIDATES = np.arange(-3.0, 3.25, 0.5)  # 13 candidates around nominal


def test_try_center_batched_vs_looped(report):
    geometry = ParallelBeamGeometry(ANGLES, SIZE)
    operator, _ = preprocess(
        geometry, config=OperatorConfig(), cache="off"
    )
    phantom = shepp_logan(SIZE)
    sinogram = operator.project_image(phantom)
    off_center = shift_sinogram(sinogram, -INJECTED_SHIFT)
    centers = nominal_center(geometry) + CANDIDATES
    slab = center_slab(operator, off_center, centers)

    # Warm both code paths outside the timed region.
    try_center(geometry, off_center, centers[:2], num_iterations=1, operator=operator)
    cgls(operator, slab[:, 0], num_iterations=1)

    t0 = time.perf_counter()
    swept = try_center(
        geometry, off_center, centers, num_iterations=ITERATIONS, operator=operator
    )
    batched_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    looped = [
        cgls(operator, slab[:, j], num_iterations=ITERATIONS).x
        for j in range(centers.size)
    ]
    looped_wall = time.perf_counter() - t0

    speedup = looped_wall / batched_wall
    bit_exact = all(
        np.array_equal(swept.batch.column(j).x, looped[j])
        for j in range(centers.size)
    )
    center_error = abs(swept.best_center - (nominal_center(geometry) + INJECTED_SHIFT))

    lines = [
        f"try-center sweep, {ANGLES}x{SIZE} orbit kernel, "
        f"{centers.size} candidates, CG x{ITERATIONS}",
        f"  looped sweep           : {looped_wall:8.3f} s "
        f"({looped_wall / centers.size * 1e3:7.1f} ms/candidate)",
        f"  batched sweep          : {batched_wall:8.3f} s "
        f"({batched_wall / centers.size * 1e3:7.1f} ms/candidate)",
        f"  speedup                : {speedup:8.2f} x",
        f"  columns bit-identical  : {bit_exact}",
        f"  center                 : injected {INJECTED_SHIFT:+.3f} px, found "
        f"{swept.best_center - nominal_center(geometry):+.3f} px "
        f"(err {center_error:.3f}, acceptance <= {CENTER_TOL} px)",
    ]
    report(
        "scenarios_try_center",
        "\n".join(lines),
        extra={
            "size": SIZE,
            "angles": ANGLES,
            "candidates": int(centers.size),
            "iterations": ITERATIONS,
            "kernel": "orbit",
            "looped_wall_seconds": looped_wall,
            "batched_wall_seconds": batched_wall,
            "speedup": speedup,
            "bit_exact": bit_exact,
            "injected_shift": INJECTED_SHIFT,
            "found_shift": swept.best_center - nominal_center(geometry),
            "center_error": center_error,
            "center_tolerance": CENTER_TOL,
        },
    )

    assert bit_exact, "batched and looped candidate reconstructions diverged"
    assert center_error <= CENTER_TOL, (
        f"entropy score missed injected shift by {center_error:.3f} px"
    )
