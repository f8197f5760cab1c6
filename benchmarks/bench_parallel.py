"""Shared-memory parallel backend acceptance — speedup curve + bit-identity.

The paper's intra-node scaling story (Fig. 9's OpenMP threads over
Hilbert-ordered partition ranges) rendered on the reproduction's
backend: the same reconstruction is run serially and with 2 and 4
workers in both thread and process modes, and the cold preprocessing
(per-angle Siddon tracing) is run serially and fanned out.  Only
process mode partitions SpMV — the kernels are scipy's compiled CSR
loops, which hold the GIL — so the solve floors are asserted on
process mode, and a thread spec, which runs the serial kernel, must
simply not be slower than serial.

The process floors need the workers' cores to be *free*.  The solver's
float64 dot products run in OpenBLAS, whose helper threads spin for
~0.13 s after every threaded call; with the default BLAS threading on a
2-core host one of them sits on a worker's core through every dispatch
and ``process:2`` reads 0.87x of serial.  With
``OPENBLAS_NUM_THREADS=1`` the same code reads 1.52-1.58x.  So the
process floors are asserted when ``OPENBLAS_NUM_THREADS=1`` is set (CI
sets it) and only reported otherwise.

Acceptance (speedups are only asserted when the host actually has the
cores — a single-core container can execute the decomposition but not
exhibit it; CI runners enforce the floors):

* every parallel volume is **bit-identical** to the serial volume —
  asserted unconditionally, on any machine;
* ``thread:2`` solves at no less than 0.9x of serial, on any machine
  (it was 0.52x while threads still dispatched the GIL-bound kernel);
* with >= 2 free cores: ``process:2`` reconstruct speedup > 1.3x;
* with >= 4 free cores: ``process:4`` keeps that 1.3x (the 2.0x floor
  of the numpy kernels is gone with them: the compiled kernel is
  memory-bound and its 4-core scaling has not been measured — the
  development host has two) and cold preprocess (tracing) speedup
  >= 1.5x at 4 workers.

``REPRO_BENCH_PARALLEL_SIZE`` scales the demo (default 256; set 512
for the paper-scale run — tracing grows ~cubically, so budget minutes).

At an even size the scan has an 8-slot ray group, so ``kernel="buffered"``
builds no layout: the solves time the orbit SpMM over the traced rows
``Q`` (the ``process`` engine partitions ``Q``), not the buffered layout.
"""

import os
import time

import numpy as np

from repro.core import OperatorConfig, preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import shepp_logan

SIZE = int(os.environ.get("REPRO_BENCH_PARALLEL_SIZE", "256"))
ITERATIONS = 20
MIN_SPEEDUP_2 = 1.3
MIN_SPEEDUP_4 = 1.3
MIN_THREAD_VS_SERIAL = 0.9
MIN_PREPROCESS_SPEEDUP_4 = 1.5


def _config(workers=None) -> OperatorConfig:
    return OperatorConfig(
        kernel="buffered", partition_size=128, buffer_bytes=8192, workers=workers
    )


def test_parallel_speedup_curve(report):
    cores = os.cpu_count() or 1
    blas_pinned = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    geometry = ParallelBeamGeometry(SIZE, SIZE)

    # -- cold preprocess: serial vs 4-worker tracing fan-out ------------
    t0 = time.perf_counter()
    operator, serial_report = preprocess(geometry, config=_config())
    preprocess_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    op_parallel, parallel_report = preprocess(geometry, config=_config(workers=4))
    preprocess_parallel = time.perf_counter() - t0
    matrices_equal = (
        np.array_equal(op_parallel.matrix.displ, operator.matrix.displ)
        and np.array_equal(op_parallel.matrix.ind, operator.matrix.ind)
        and np.array_equal(op_parallel.matrix.val, operator.matrix.val)
    )
    op_parallel.close()
    preprocess_speedup = preprocess_serial / preprocess_parallel
    tracing_speedup = (
        serial_report.tracing_seconds / parallel_report.tracing_seconds
    )

    # -- reconstruction: serial vs 2/4 workers, thread and process ------
    sinogram = operator.project_image(shepp_logan(SIZE))

    def solve(workers=None):
        """Best of two solves; the first also derives the compiled
        views (in the workers, for a process spec)."""
        operator.set_workers(workers)
        try:
            results = [
                reconstruct(
                    sinogram,
                    geometry,
                    solver="cg",
                    iterations=ITERATIONS,
                    operator=operator,
                )
                for _ in range(2)
            ]
        finally:
            operator.set_workers(None)
        return min(results, key=lambda r: r.solve_seconds)

    solve()  # warm caches (compiled views, allocator) outside timing
    reference = solve()
    timings = {"serial": reference.solve_seconds}
    for count in (2, 4):
        for mode in ("thread", "process"):
            result = solve(workers=f"{mode}:{count}")
            assert np.array_equal(result.image, reference.image), (
                f"{mode}:{count} volume differs from serial"
            )
            timings[f"{mode}:{count}"] = result.solve_seconds
    speedup = {label: timings["serial"] / seconds for label, seconds in timings.items()}
    best = {2: speedup["process:2"], 4: speedup["process:4"]}

    lines = [
        f"parallel backend, {SIZE}x{SIZE} buffered kernel, CG x{ITERATIONS}, "
        f"{cores} core(s), OPENBLAS_NUM_THREADS="
        f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        f"  preprocess cold         : {preprocess_serial:8.3f} s serial vs "
        f"{preprocess_parallel:.3f} s at 4 workers "
        f"({preprocess_speedup:.2f}x; tracing {tracing_speedup:.2f}x)",
    ]
    for label, seconds in timings.items():
        lines.append(
            f"  solve {label:<17} : {seconds:8.3f} s ({speedup[label]:5.2f}x)"
        )
    lines += [
        f"  process:2 speedup       : {best[2]:8.2f}x (floor {MIN_SPEEDUP_2}x, "
        f"enforced with >= 2 cores and single-threaded BLAS)",
        f"  process:4 speedup       : {best[4]:8.2f}x (floor {MIN_SPEEDUP_4}x, "
        f"enforced with >= 4 cores and single-threaded BLAS)",
        f"  thread:2 vs serial      : {speedup['thread:2']:8.2f}x (floor "
        f"{MIN_THREAD_VS_SERIAL}x: threads run the serial kernel)",
        f"  volumes bit-identical   : True",
        f"  traced matrices equal   : {matrices_equal}",
    ]
    report(
        "parallel_speedup",
        "\n".join(lines),
        extra={
            "size": SIZE,
            "iterations": ITERATIONS,
            "cores": cores,
            "blas_pinned": blas_pinned,
            "preprocess_serial_seconds": preprocess_serial,
            "preprocess_parallel_seconds": preprocess_parallel,
            "preprocess_speedup": preprocess_speedup,
            "tracing_speedup": tracing_speedup,
            "solve_seconds": timings,
            "best_speedup_2": best[2],
            "best_speedup_4": best[4],
            "min_speedup_2": MIN_SPEEDUP_2,
            "min_speedup_4": MIN_SPEEDUP_4,
        },
    )

    assert matrices_equal, "parallel tracing changed the matrix"
    assert speedup["thread:2"] >= MIN_THREAD_VS_SERIAL, (
        f"thread:2 solves at {speedup['thread:2']:.2f}x of serial, below "
        f"{MIN_THREAD_VS_SERIAL}x"
    )
    if cores >= 2 and blas_pinned:
        assert best[2] > MIN_SPEEDUP_2, (
            f"process:2 speedup {best[2]:.2f}x below {MIN_SPEEDUP_2}x floor"
        )
    if cores >= 4 and blas_pinned:
        assert best[4] >= MIN_SPEEDUP_4, (
            f"process:4 speedup {best[4]:.2f}x below {MIN_SPEEDUP_4}x floor"
        )
    if cores >= 4:
        assert tracing_speedup >= MIN_PREPROCESS_SPEEDUP_4, (
            f"tracing speedup {tracing_speedup:.2f}x below "
            f"{MIN_PREPROCESS_SPEEDUP_4}x floor"
        )
