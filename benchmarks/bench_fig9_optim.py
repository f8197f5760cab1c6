"""Fig. 9 — single-device performance of the three optimization levels.

For ADS1..ADS4 (scaled) x {baseline CSR, pseudo-Hilbert, multi-stage
buffering} we measure:

* real Python kernel times (relative speedups are genuine measurements);
* L2 miss rates from the cache simulator (Fig. 9(b)) — caches are
  scaled with the datasets so the capacity ratio matches full size;
* modeled KNL GFLOPS / bandwidth and GPU GFLOPS (Fig. 9(a), (c)-(f))
  using the measured miss rates and full-size dataset footprints.

Paper shapes to reproduce: baseline KNL GFLOPS *fall* with dataset
size (latency bound, rising miss rate); Hilbert ordering lifts all
datasets (most on KNL, least on V100 with its big L2); buffering adds
~1.3x on KNL (ADS2+) and modest gains on GPUs; ADS3/4 drop on KNL as
regular data spills MCDRAM.
"""

import time

import numpy as np

from repro.cachesim import miss_rate_buffered, miss_rate_csr
from repro.core import get_dataset
from repro.machine import KernelProfile, PerformanceModel, get_device
from repro.sparse import build_buffered
from repro.utils import render_table

from conftest import SCALES, build_ordered

DATASET_NAMES = ["ADS1", "ADS2", "ADS3", "ADS4"]
MAX_TRACE = 300_000

# Paper Fig. 9(a) KNL GFLOPS, eyeballed from the bars (baseline,
# hilbert, buffered) for context in the report.
PAPER_KNL = {
    "ADS1": (14, 22, 22),
    "ADS2": (10, 46, 62),
    "ADS3": (7, 26, 33),
    "ADS4": (5, 17, 23),
}


def _time_kernel(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def test_fig9_optimization_levels(report, benchmark):
    knl = get_device("KNL")
    pm_knl = PerformanceModel(knl)
    gpu_models = {d: PerformanceModel(get_device(d)) for d in ("K80", "P100", "V100")}

    rows = []
    knl_gflops = {}
    miss_rates = {}
    for name in DATASET_NAMES:
        spec = get_dataset(name).scaled(SCALES[name])
        raw, _, _ = build_ordered(spec, "row-major")
        ordered, _, _ = build_ordered(spec)
        buffered = build_buffered(ordered, 128, 8192)
        x = np.random.default_rng(0).random(raw.num_cols).astype(np.float32)

        # Scaled cache: keep the capacity/domain ratio of a 1 MB L2
        # slice at full size (domains shrink by SCALES[name]^2).
        full_cells = get_dataset(name).num_channels ** 2
        cap = max(2048, (1 << 20) * spec.num_channels**2 // full_cells)
        cap = 1 << int(np.log2(cap))
        mr_base = miss_rate_csr(
            raw, cap, max_accesses=MAX_TRACE, include_regular=True
        ).miss_rate
        mr_hilb = miss_rate_csr(
            ordered, cap, max_accesses=MAX_TRACE, include_regular=True
        ).miss_rate
        mr_buf = miss_rate_buffered(buffered, cap).miss_rate
        miss_rates[name] = (mr_base, mr_hilb, mr_buf)

        t_base = _time_kernel(raw.spmv, x)
        t_hilb = _time_kernel(ordered.spmv, x)
        t_buf = _time_kernel(buffered.spmv, x)

        # Model at FULL dataset size with the measured miss rates.
        full = get_dataset(name)
        nnz = int(full.estimated_nnz)
        reg_csr = full.regular_bytes(8.0)[0]
        reg_buf = full.regular_bytes(6.0)[0]
        p_base = KernelProfile.csr_baseline(nnz, mr_base, reg_csr)
        p_hilb = KernelProfile.csr_baseline(nnz, mr_hilb, reg_csr)
        p_buf = KernelProfile.buffered(nnz, nnz // 40, mr_buf, reg_buf)
        g_base = pm_knl.gflops(p_base, smt=2)
        g_hilb = pm_knl.gflops(p_hilb, smt=4)
        g_buf = pm_knl.gflops(p_buf, smt=4)
        knl_gflops[name] = (g_base, g_hilb, g_buf)
        bw_buf = pm_knl.bandwidth_utilization(p_buf, smt=4)

        gpu_cells = []
        for dev in ("K80", "P100", "V100"):
            if name in ("ADS3", "ADS4"):
                gpu_cells.append("n/a (exceeds GPU memory)")
                continue
            gm = gpu_models[dev]
            gpu_cells.append(
                f"{gm.gflops(p_base):.0f}/{gm.gflops(p_hilb):.0f}/{gm.gflops(p_buf):.0f}"
            )

        rows.append(
            [
                name,
                f"{mr_base:.0%}/{mr_hilb:.0%}/{mr_buf:.0%}",
                f"{t_base / t_hilb:.2f}x/{t_base / t_buf:.2f}x",
                f"{g_base:.0f}/{g_hilb:.0f}/{g_buf:.0f}",
                f"{PAPER_KNL[name][0]}/{PAPER_KNL[name][1]}/{PAPER_KNL[name][2]}",
                f"{bw_buf:.0f}",
                *gpu_cells,
            ]
        )

    table = render_table(
        ["Dataset", "L2 miss b/h/buf", "Python speedup h/buf",
         "KNL GFLOPS (model)", "KNL GFLOPS (paper)", "KNL BW GB/s",
         "K80 GFLOPS", "P100 GFLOPS", "V100 GFLOPS"],
        rows,
        title="Fig. 9: optimization levels (baseline / pseudo-Hilbert / buffered)",
    )
    report("fig9_optim", table)

    # Shape assertions.  ADS1 is exempt from the strict improvements:
    # the paper itself notes it "does not benefit from Hilbert ordering
    # as much as other datasets due to its small size" (Section 4.2.2),
    # and at ADS1's domain:cache ratio the baseline barely misses.
    for name in DATASET_NAMES:
        b, h, u = miss_rates[name]
        gb, gh, gu = knl_gflops[name]
        if name == "ADS1":
            assert h <= b + 0.02
            assert gh >= 0.9 * gb
        else:
            assert h < b, f"{name}: Hilbert must cut the miss rate"
            assert gh > gb, f"{name}: Hilbert must lift KNL GFLOPS"
        assert gu >= 0.9 * gh, f"{name}: buffering must not regress"
    # Baseline GFLOPS fall with dataset size (paper 4.2.1).
    assert knl_gflops["ADS4"][0] < knl_gflops["ADS1"][0]
    # MCDRAM spill: ADS4's optimized GFLOPS below ADS2's.
    assert knl_gflops["ADS4"][2] < knl_gflops["ADS2"][2]

    # Benchmark target: the buffered kernel on scaled ADS2.
    spec = get_dataset("ADS2").scaled(SCALES["ADS2"])
    ordered, _, _ = build_ordered(spec)
    buffered = build_buffered(ordered, 128, 8192)
    x = np.random.default_rng(1).random(ordered.num_cols).astype(np.float32)
    benchmark(buffered.spmv, x)
