"""Table 4 — MemXCT vs the compute-centric approach (Trace).

The paper runs 45 SIRT iterations with both codes on one KNL and
reports 49.2x (ADS2, MCDRAM-resident) and 6.86x (RDS1, DRAM-bound)
per-iteration speedups.  Here both operators execute the identical
SIRT recurrence in Python — the only difference is memoization vs
on-the-fly ray tracing — so the measured speedup isolates exactly the
redundant-computation cost.  Absolute Python times differ from C, but
the *direction and scale* of the advantage is the reproduced claim.

What does **not** reproduce is the gap between the datasets.  The
paper's ADS2 fits MCDRAM and its RDS1 is DRAM-bound, so ADS2 gains 7x
more than RDS1; here the two scaled instances (3.7 and 14.7 Mnnz) run
the same compiled SpMV out of the same memory level at the same rate
per nonzero, on-the-fly tracing costs in proportion to the same
nonzeros, and the speedup is the ratio of those two per-nonzero costs
on either instance.  The memoized solve is short (0.5 s on ADS2), so
it is timed five times and the fastest kept: the shared reference guest
has spells of a few seconds at about half speed (kernel and numpy
arithmetic alike; a fresh process often starts in one), and a single
timing that lands in one reads 22-31 ms per iteration instead of 11-13
— the "15-19x" of four runs in fourteen.  The on-the-fly solve is 20-70 s
and averages over them.  ``SpMV share`` is the part of that fastest
memoized solve spent in the kernel; the rest is SIRT's vector
arithmetic.

Both scaled instances are half-turn parallel scans with an even number
of views, so their plans have an 8-slot ray group: ``kernel="buffered"``
builds no layout there and the memoized column times the orbit SpMM
over the traced rows ``Q``, not Listing 3's buffered kernel.
"""

import time

import numpy as np

from repro.core import CompXCTOperator, OperatorConfig, preprocess
from repro.solvers import sirt
from repro.utils import render_table

from conftest import host_line

SIRT_ITERATIONS = 45
MEM_REPEATS = 5
PAPER_SPEEDUPS = {"ADS2": 49.2, "RDS1": 6.86}
FLOOR = 16.0


def _measure(spec, cap):
    g = spec.geometry()
    t0 = time.perf_counter()
    config = OperatorConfig(kernel="buffered", partition_size=128, buffer_bytes=8192)
    op, rep = preprocess(g, config=config)
    preproc = time.perf_counter() - t0

    truth = spec.phantom()
    y = op.project_image(truth).reshape(-1)
    y_ordered = op.sinogram_to_ordered(y.reshape(g.sinogram_shape))

    comp = CompXCTOperator(g)
    t0 = time.perf_counter()
    sirt(comp, y, num_iterations=SIRT_ITERATIONS)
    comp_recon = time.perf_counter() - t0

    timings = []
    for _ in range(MEM_REPEATS):
        seen = len(cap.spans)
        t0 = time.perf_counter()
        sirt(op, y_ordered, num_iterations=SIRT_ITERATIONS)
        elapsed = time.perf_counter() - t0
        spmv = sum(s.duration for s in cap.spans[seen:] if s.name.startswith("spmv."))
        timings.append((elapsed, spmv / elapsed))
    mem_recon, spmv_share = min(timings)
    return preproc, mem_recon, comp_recon, spmv_share


def test_table4_memxct_vs_compxct(report, scaled_specs, benchmark, bench_capture):
    rows = []
    speedups = {}
    shares = {}
    for name in ("ADS2", "RDS1"):
        spec = scaled_specs[name]
        preproc, mem_recon, comp_recon, shares[name] = _measure(spec, bench_capture)
        speedup = comp_recon / mem_recon
        speedups[name] = speedup
        rows.append(
            [name, "Trace (CompXCT)", "n/a", f"{comp_recon:.2f} s",
             f"{comp_recon / SIRT_ITERATIONS * 1e3:.1f} ms", "n/a", "1x"]
        )
        rows.append(
            [name, "MemXCT", f"{preproc:.2f} s", f"{mem_recon:.2f} s",
             f"{mem_recon / SIRT_ITERATIONS * 1e3:.1f} ms", f"{shares[name]:.0%}",
             f"{speedup:.2f}x (paper {PAPER_SPEEDUPS[name]}x)"]
        )

    table = render_table(
        ["Dataset", "Code", "Preproc.", "Reconst.", "Per-Iter.", "SpMV share", "Speedup"],
        rows,
        title=(
            f"Table 4: {SIRT_ITERATIONS} SIRT iterations, memoized vs on-the-fly "
            "(scaled instances, compiled SpMV vs numpy Siddon)"
        ),
    )
    report(
        "table4_compxct",
        f"{table}\n{host_line()}",
        extra={"speedups": speedups, "spmv_share": shares},
    )

    # What EXPERIMENTS.md claims: memoization wins by more than an
    # order of magnitude on both instances (floors at half the lowest
    # value measured, see there), the two gains are of one size — not
    # the paper's 7x apart — and a memoized iteration is kernel time.
    assert speedups["ADS2"] > FLOOR
    assert speedups["RDS1"] > FLOOR
    assert 0.5 < speedups["ADS2"] / speedups["RDS1"] < 2.0
    assert min(shares.values()) > 0.8

    # Timed kernel for pytest-benchmark: one memoized SIRT iteration.
    spec = scaled_specs["ADS2"]
    op, _ = preprocess(spec.geometry())
    y = op.sinogram_to_ordered(op.project_image(spec.phantom()))
    benchmark(lambda: sirt(op, y, num_iterations=1))
