"""Thread-parallel backend acceptance — speedup table + bit-identity.

The paper's intra-node scaling story (Fig. 9's OpenMP threads over
Hilbert-ordered partition ranges) rendered on the reproduction's
backend: the same reconstruction is solved serially and at ``thread:2``
and ``thread:4`` — each spec partitions SpMV over the shared thread
pool, since scipy's loops and the compiled row loops both release the
GIL — and the cold preprocessing (per-angle Siddon tracing) is run
serially and fanned out.  The solves are timed in interleaved rounds
(one solve per spec per round, the order rotating), and a speedup is
the median over rounds of the paired ratio, so a host slowdown hits
both sides of a pair alike.

The solve speedups are reported, not asserted.  Over 20 runs on a
2-vCPU Xeon with ``OPENBLAS_NUM_THREADS=1`` (two batches of ten, five
rounds each) ``thread:2`` read 0.64-0.99x of a 0.19-0.37 s serial solve
and ``thread:4`` 0.68-0.98x: on that host the scheduler ran both of a
dispatch's 2-3 ms ranges on one vCPU (``sched_getcpu`` read the same
CPU for all 80 ranges of a solve), so no floor above 1x holds there.
With BLAS threading left on, its helper threads, which spin ~0.13 s
after every threaded call, also take a worker's core.

Acceptance:

* every parallel volume is **bit-identical** to the serial volume —
  asserted unconditionally, on any machine;
* with >= 4 cores: cold preprocess (tracing) speedup >= 1.5x at 4
  workers.

``REPRO_BENCH_PARALLEL_SIZE`` scales the demo (default 256; set 512
for the paper-scale run — tracing grows ~cubically, so budget minutes).

At an even size the scan has an 8-slot ray group: the solves time the
orbit SpMM over the traced rows ``Q`` (the engine partitions ``Q``); at
an odd size they time csr.
"""

import os
import time

import numpy as np

from repro.core import OperatorConfig, preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import shepp_logan

SIZE = int(os.environ.get("REPRO_BENCH_PARALLEL_SIZE", "256"))
ITERATIONS = 20
ROUNDS = 5
SPECS = ("serial", "thread:2", "thread:4")
MIN_PREPROCESS_SPEEDUP_4 = 1.5


def _config(workers=None) -> OperatorConfig:
    return OperatorConfig(partition_size=128, workers=workers)


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

    # -- reconstruction: serial vs thread:2 / thread:4, interleaved ------
    sinogram = operator.project_image(shepp_logan(SIZE))

    def solve(workers):
        operator.set_workers(workers)
        try:
            return reconstruct(
                sinogram, geometry, solver="cg", iterations=ITERATIONS, operator=operator
            )
        finally:
            operator.set_workers(None)

    reference = solve("serial").image  # warms views and allocator
    rounds = []
    for index in range(ROUNDS):
        order = SPECS[index % len(SPECS):] + SPECS[: index % len(SPECS)]
        seconds = {}
        for spec in order:
            result = solve(spec)
            assert np.array_equal(result.image, reference), f"{spec} volume differs"
            seconds[spec] = result.solve_seconds
        rounds.append(seconds)
    timings = {spec: float(np.median([r[spec] for r in rounds])) for spec in SPECS}
    speedup = {
        spec: float(np.median([r["serial"] / r[spec] for r in rounds])) for spec in SPECS
    }

    lines = [
        f"parallel backend, {SIZE}x{SIZE} orbit kernel, CG x{ITERATIONS}, "
        f"{cores} core(s), OPENBLAS_NUM_THREADS="
        f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        f"  preprocess cold         : {preprocess_serial:8.3f} s serial vs "
        f"{preprocess_parallel:.3f} s at 4 workers "
        f"({preprocess_speedup:.2f}x; tracing {tracing_speedup:.2f}x)",
    ]
    for spec in SPECS:
        lines.append(
            f"  solve {spec:<17} : {timings[spec]:8.3f} s ({speedup[spec]:5.2f}x, "
            f"median of {ROUNDS} rounds)"
        )
    lines += [
        f"  volumes bit-identical   : True",
        f"  traced matrices equal   : {matrices_equal}",
    ]
    report(
        "parallel_speedup",
        "\n".join(lines),
        extra={
            "size": SIZE,
            "iterations": ITERATIONS,
            "rounds": ROUNDS,
            "cores": cores,
            "blas_pinned": blas_pinned,
            "preprocess_serial_seconds": preprocess_serial,
            "preprocess_parallel_seconds": preprocess_parallel,
            "preprocess_speedup": preprocess_speedup,
            "tracing_speedup": tracing_speedup,
            "solve_seconds": timings,
            "speedup": speedup,
        },
    )

    assert matrices_equal, "parallel tracing changed the matrix"
    if cores >= 4:
        assert tracing_speedup >= MIN_PREPROCESS_SPEEDUP_4, (
            f"tracing speedup {tracing_speedup:.2f}x below "
            f"{MIN_PREPROCESS_SPEEDUP_4}x floor"
        )
