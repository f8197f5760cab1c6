"""Kernel anatomy: orderings, buffering, cache behaviour, tuning.

Run:  python examples/kernels_and_tuning.py

A tour of the single-device optimizations for systems people: compare
the three kernels (CSR baseline, Hilbert-ordered, multi-stage
buffered) on real timings and simulated L2 miss rates, then sweep the
tuning space the way paper Fig. 10 does and print the KNL heat map.
"""

import time

import numpy as np

from repro import get_dataset
from repro.cachesim import miss_rate_buffered, miss_rate_csr
from repro.machine import get_device, heatmap, sweep_tuning, best_configuration
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix, build_buffered
from repro.trace import build_projection_matrix
from repro.utils import render_table


def timeit(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    spec = get_dataset("ADS2").scaled(0.25)
    g = spec.geometry()
    print(f"building {spec.name} ({g.sinogram_shape} sinogram)...")
    raw = CSRMatrix.from_scipy(build_projection_matrix(g))  # the row-major baseline
    n = g.grid.n
    tomo = make_ordering("pseudo-hilbert", n, n, min_tiles=16)
    sino = make_ordering("pseudo-hilbert", g.num_angles, g.num_channels, min_tiles=16)
    ordered = CSRMatrix.from_scipy(
        build_projection_matrix(g, row_rank=sino.rank, col_rank=tomo.rank)
    )
    buffered = build_buffered(ordered, partition_size=128, buffer_bytes=8192)

    x = np.random.default_rng(0).random(raw.num_cols).astype(np.float32)
    cap = 64 * 1024  # a scaled L2 slice

    rows = [
        ["CSR baseline (row-major)",
         f"{timeit(raw.spmv, x) * 1e3:.2f} ms",
         f"{miss_rate_csr(raw, cap, max_accesses=300_000).miss_rate:.0%}",
         "8 B/FMA"],
        ["CSR + pseudo-Hilbert",
         f"{timeit(ordered.spmv, x) * 1e3:.2f} ms",
         f"{miss_rate_csr(ordered, cap, max_accesses=300_000).miss_rate:.0%}",
         "8 B/FMA"],
        ["multi-stage buffered (16-bit)",
         f"{timeit(buffered.spmv, x) * 1e3:.2f} ms",
         f"{miss_rate_buffered(buffered, cap).miss_rate:.0%} (staging stream)",
         "6 B/FMA"],
    ]
    print(render_table(["kernel", "python time", "sim. L2 miss rate",
                        "regular traffic"], rows))
    print(f"\nbuffered layout: {buffered.num_stages} stages total, "
          f"{buffered.stages_per_partition().mean():.1f} per partition, "
          f"map stream {buffered.map.shape[0]:,} entries")

    # --- tuning sweep (Fig. 10) -----------------------------------------
    knl = get_device("KNL")
    points = sweep_tuning(ordered, knl,
                          partition_sizes=[32, 128, 512],
                          buffer_sizes=[2048, 8192, 32768],
                          smts=[1, 2, 4],
                          modeled_num_rows=750 * 512)  # full-size ADS2 rows
    best = best_configuration(points)
    print(f"\nKNL tuning optimum (model): partition {best.partition_size}, "
          f"buffer {best.buffer_bytes // 1024} KB, {best.smt} SMT "
          f"-> {best.gflops:.0f} GFLOPS (paper: 128 / 8 KB / 4 SMT)")

    grid, parts, buffers = heatmap(points, smt=4)
    print("\n4 SMT/core heat map (GFLOPS):")
    header = "part\\buf " + " ".join(f"{b // 1024:>4}K" for b in buffers)
    print(header)
    for i, p in enumerate(parts):
        print(f"{p:>8} " + " ".join(f"{v:5.0f}" for v in grid[i]))


if __name__ == "__main__":
    main()
