"""Table 4 — MemXCT vs the compute-centric approach (Trace).

The paper runs 45 SIRT iterations with both codes on one KNL and
reports 49.2x (ADS2, MCDRAM-resident) and 6.86x (RDS1, DRAM-bound)
per-iteration speedups.  Here both operators execute the identical
SIRT recurrence in Python — the only difference is memoization vs
on-the-fly ray tracing — so the measured speedup isolates exactly the
redundant-computation cost.  Absolute Python times differ from C, but
the *direction and scale* of the advantage is the reproduced claim.
"""

import time

import numpy as np

from repro.core import CompXCTOperator, OperatorConfig, preprocess
from repro.solvers import sirt
from repro.utils import render_table

SIRT_ITERATIONS = 45
PAPER_SPEEDUPS = {"ADS2": 49.2, "RDS1": 6.86}


def _measure(spec):
    g = spec.geometry()
    t0 = time.perf_counter()
    config = OperatorConfig(kernel="buffered", partition_size=128, buffer_bytes=8192)
    op, rep = preprocess(g, config=config)
    preproc = time.perf_counter() - t0

    truth = spec.phantom()
    y = op.project_image(truth).reshape(-1)
    y_ordered = op.sinogram_to_ordered(y.reshape(g.sinogram_shape))

    t0 = time.perf_counter()
    sirt(op, y_ordered, num_iterations=SIRT_ITERATIONS)
    mem_recon = time.perf_counter() - t0

    comp = CompXCTOperator(g)
    t0 = time.perf_counter()
    sirt(comp, y, num_iterations=SIRT_ITERATIONS)
    comp_recon = time.perf_counter() - t0
    return preproc, mem_recon, comp_recon


def test_table4_memxct_vs_compxct(report, scaled_specs, benchmark):
    rows = []
    speedups = {}
    for name in ("ADS2", "RDS1"):
        spec = scaled_specs[name]
        preproc, mem_recon, comp_recon = _measure(spec)
        speedup = comp_recon / mem_recon
        speedups[name] = speedup
        rows.append(
            [name, "Trace (CompXCT)", "n/a", f"{comp_recon:.2f} s",
             f"{comp_recon / SIRT_ITERATIONS * 1e3:.1f} ms", "1x"]
        )
        rows.append(
            [name, "MemXCT", f"{preproc:.2f} s", f"{mem_recon:.2f} s",
             f"{mem_recon / SIRT_ITERATIONS * 1e3:.1f} ms",
             f"{speedup:.2f}x (paper {PAPER_SPEEDUPS[name]}x)"]
        )

    table = render_table(
        ["Dataset", "Code", "Preproc.", "Reconst.", "Per-Iter.", "Speedup"],
        rows,
        title=(
            f"Table 4: {SIRT_ITERATIONS} SIRT iterations, memoized vs on-the-fly "
            "(scaled instances, Python kernels)"
        ),
    )
    report("table4_compxct", table)

    # Shape assertions: MemXCT wins on both datasets, by more where the
    # data is smaller relative to tracing cost.
    assert speedups["ADS2"] > 3.0
    assert speedups["RDS1"] > 1.5

    # Timed kernel for pytest-benchmark: one memoized SIRT iteration.
    spec = scaled_specs["ADS2"]
    op, _ = preprocess(spec.geometry())
    y = op.sinogram_to_ordered(op.project_image(spec.phantom()))
    benchmark(lambda: sirt(op, y, num_iterations=1))
