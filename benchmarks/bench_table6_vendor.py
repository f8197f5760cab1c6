"""Table 6 — comparison with vendor SpMV libraries (MKL / cuSPARSE).

Two reproductions of the same claim:

* **measured** — scipy.sparse plays the general-purpose vendor library
  on this machine: we time scipy CSR SpMV on the row-major matrix
  against our baseline, Hilbert-ordered, and buffered kernels on scaled
  ADS2 and report the relative speedups (paper KNL column: 1.42x /
  4.99x / 6.55x).  Our kernels run the *same compiled loop* over their
  own arrays, so this row is the layout effect alone — ordering and
  staging — at whatever size the host's caches let it show;
* **modeled** — device-level speedups for KNL/K80/P100/V100 from the
  performance model with cache-simulated miss rates, reproducing the
  full Table 6 including K80's baseline *slowdown* (0.52x, small L2).
"""

import numpy as np

from repro.cachesim import miss_rate_buffered, miss_rate_csr
from repro.machine import KernelProfile, PerformanceModel, get_device
from repro.sparse import build_ell
from repro.utils import render_table

PAPER = {
    "KNL": (1.42, 4.99, 6.55),
    "K80": (0.52, 1.13, 1.56),
    "P100": (1.39, 1.93, 2.23),
    "V100": (1.79, 1.84, 2.11),
}

MAX_TRACE = 400_000


def test_table6_vendor_comparison(report, ads2_scaled, benchmark):
    raw = ads2_scaled["raw"]
    ordered = ads2_scaled["ordered"]
    buffered = ads2_scaled["buffered"]
    x = np.random.default_rng(0).random(raw.num_cols).astype(np.float32)
    scipy_raw = raw.to_scipy()

    import time

    def timeit(fn, *args, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best

    t_vendor = timeit(scipy_raw.dot, x)
    t_base = timeit(raw.spmv, x)
    t_hilb = timeit(ordered.spmv, x)
    t_buf = timeit(buffered.spmv, x)
    measured = (t_vendor / t_base, t_vendor / t_hilb, t_vendor / t_buf)
    # The GPU rows of the paper run partition-padded ELL: the same two
    # matrices in that layout (128-row blocks), padding streamed.
    measured_ell = tuple(
        t_vendor / timeit(build_ell(matrix, 128).spmv, x) for matrix in (raw, ordered)
    )

    # Device-level model: miss rates simulated on *scaled* caches —
    # the scaled 128^2 domain (64 KB) would fit wholly inside any
    # full-size device L2, so each cache is shrunk by the same factor
    # the dataset was (ADS2 full tomogram is 512^2 = 16x the cells).
    rows = [
        [
            "python (scipy as vendor)",
            f"{measured[0]:.2f}x",
            f"{measured[1]:.2f}x",
            f"{measured[2]:.2f}x",
            "measured; same compiled CSR loop on both sides: the layout effect alone",
        ],
        [
            "python, ELL (scipy as vendor)",
            f"{measured_ell[0]:.2f}x",
            f"{measured_ell[1]:.2f}x",
            "-",
            "measured; column-major slabs read in place by the compiled COO loop, padding included",
        ],
    ]
    measured_rows = len(rows)
    full_cells = 512 * 512
    scaled_cells = raw.num_cols
    nnz = ordered.nnz
    for dev_name, paper in PAPER.items():
        dev = get_device(dev_name)
        l2 = max(4096, int(dev.l2_bytes) * scaled_cells // full_cells)
        mr_base = miss_rate_csr(
            raw, l2, dev.cache_line_bytes, max_accesses=MAX_TRACE, include_regular=True
        ).miss_rate
        mr_hilb = miss_rate_csr(
            ordered, l2, dev.cache_line_bytes, max_accesses=MAX_TRACE, include_regular=True
        ).miss_rate
        mr_buf = miss_rate_buffered(buffered, l2, dev.cache_line_bytes).miss_rate
        pm = PerformanceModel(dev)
        smt = dev.max_smt
        t_b = pm.projection_time(KernelProfile.csr_baseline(nnz, mr_base), smt=smt)
        t_h = pm.projection_time(KernelProfile.csr_baseline(nnz, mr_hilb), smt=smt)
        t_u = pm.projection_time(
            KernelProfile.buffered(nnz, int(buffered.map.shape[0]), mr_buf), smt=smt
        )
        # Vendor library: a well-tuned general CSR SpMV — bandwidth
        # bound at 8 B/FMA on row-major data with the baseline miss
        # traffic, no latency exposure (MKL/cuSPARSE blocking).
        t_v = pm.projection_time(
            KernelProfile(
                nnz=nnz,
                irregular_accesses=nnz,
                miss_rate=mr_base,
                latency_bound=False,
            ),
            smt=smt,
        )
        rows.append(
            [
                dev_name,
                f"{t_v / t_b:.2f}x (paper {paper[0]}x)",
                f"{t_v / t_h:.2f}x (paper {paper[1]}x)",
                f"{t_v / t_u:.2f}x (paper {paper[2]}x)",
                f"L2 miss: {mr_base:.0%} -> {mr_hilb:.0%} -> {mr_buf:.0%}",
            ]
        )

    table = render_table(
        ["Device", "Baseline", "Pseudo-Hilbert", "Multi-Stage Buffering", "Notes"],
        rows,
        title="Table 6: speedup over vendor SpMV (scaled ADS2, scaled caches)",
    )
    report("table6_vendor", table)

    # Shape assertions on the modeled device rows ("sp_" = speedup over
    # the vendor kernel): the optimizations must rank baseline <=
    # hilbert <= buffered on every device, with buffering ahead of the
    # vendor everywhere (Table 6's bottom row is > 1x on all devices).
    for row in rows[measured_rows:]:
        sp_base = float(row[1].split("x")[0])
        sp_hilb = float(row[2].split("x")[0])
        sp_buf = float(row[3].split("x")[0])
        assert sp_base <= sp_hilb * 1.05
        assert sp_hilb <= sp_buf * 1.05
        assert sp_buf > 1.0
    # Same loop on both sides: no layout may cost more than a factor
    # of two against the vendor call (sanity on the measured row).
    assert min(measured) > 0.5

    benchmark(buffered.spmv, x)
