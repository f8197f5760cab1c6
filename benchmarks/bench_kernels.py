"""Kernel micro-benchmarks (performance-regression tracking).

Not tied to a specific paper table — these time each core kernel in
isolation with pytest-benchmark so changes to the implementations are
visible as regressions: tracing, orderings, transposition, the three
SpMV layouts, buffered construction, and the distributed forward.

``test_fp32_spmv_speedup`` is the payoff claim of docs/precision.md: at
256x256, batched SpMV in float32 is >= 1.5x faster than float64 (the
multi-RHS path is pure streaming, so the 2x byte reduction shows
through); single-vector SpMV, where index traffic is not amortized,
still gains >= 1.1x.
"""

import time

import numpy as np
import pytest

from repro.dist import DistributedOperator, decompose_both
from repro.geometry import ParallelBeamGeometry
from repro.ordering import make_ordering, pseudo_hilbert_order
from repro.sparse import CSRMatrix, build_buffered, build_ell, scan_transpose
from repro.trace import build_projection_matrix
from repro.utils import render_table


@pytest.fixture(scope="module")
def system(ads2_scaled):
    x = np.random.default_rng(0).random(ads2_scaled["ordered"].num_cols).astype(np.float32)
    y = np.random.default_rng(1).random(ads2_scaled["ordered"].num_rows).astype(np.float32)
    return ads2_scaled, x, y


def test_kernel_trace_angle(benchmark, scaled_specs):
    g = scaled_specs["ADS2"].geometry()
    from repro.trace import trace_angle

    benchmark(trace_angle, g, 7)


def test_kernel_full_trace(benchmark, scaled_specs):
    benchmark(build_projection_matrix, scaled_specs["ADS1"].geometry())


def test_kernel_pseudo_hilbert_build(benchmark):
    benchmark(pseudo_hilbert_order, 512, 512, 32)


def test_kernel_morton_build(benchmark):
    benchmark(make_ordering, "morton", 512, 512)


def test_kernel_scan_transpose(benchmark, system):
    data, _, _ = system
    benchmark(scan_transpose, data["ordered"])


def test_kernel_csr_spmv(benchmark, system):
    data, x, _ = system
    benchmark(data["ordered"].spmv, x)


def test_kernel_buffered_spmv(benchmark, system):
    data, x, _ = system
    benchmark(data["buffered"].spmv, x)


def test_kernel_ell_spmv(benchmark, system):
    data, x, _ = system
    ell = build_ell(data["ordered"], 128)
    benchmark(ell.spmv, x)


def test_kernel_buffered_build(benchmark, system):
    data, _, _ = system
    benchmark(build_buffered, data["ordered"], 128, 8192)


def test_kernel_distributed_forward(benchmark, system):
    data, x, _ = system
    td, sd = decompose_both(data["tomo"], data["sino"], 8)
    op = DistributedOperator(data["ordered"], td, sd)
    benchmark(op.forward, x)


def test_kernel_adjoint_spmv(benchmark, system):
    data, _, y = system
    transpose = scan_transpose(data["ordered"])
    benchmark(transpose.spmv, y)


def _traced(num_angles, num_channels, dtype="float32"):
    g = ParallelBeamGeometry(num_angles, num_channels)
    n = g.grid.n
    tomo = make_ordering("pseudo-hilbert", n, n, min_tiles=16)
    sino = make_ordering("pseudo-hilbert", g.num_angles, g.num_channels, min_tiles=16)
    raw = build_projection_matrix(g, row_rank=sino.rank, col_rank=tomo.rank)
    return CSRMatrix.from_scipy(raw, dtype=dtype)


def _interleaved_minima(calls, rounds=25):
    """Fastest time of each ``(fn, x)`` call, the calls taken in turn.

    Round-robin (the protocol of ``tests/test_obs.py::
    TestDisabledOverhead``): a host slowdown lands on every side of a
    ratio alike instead of on whichever block of repeats it falls in.
    """
    best = [float("inf")] * len(calls)
    for fn, x in calls:  # one untimed call each: page in, derive views
        fn(x)
    for _ in range(rounds):
        for i, (fn, x) in enumerate(calls):
            t0 = time.perf_counter()
            fn(x)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_fp32_spmv_speedup(report):
    """float32 vs float64 SpMV at 256x256 (paper-kernel value dtypes)."""
    m64 = _traced(256, 256, dtype="float64")
    m32 = m64.astype("float32")
    rng = np.random.default_rng(0)
    x32 = rng.random(m32.num_cols, dtype=np.float32)
    x64 = x32.astype(np.float64)
    X32 = rng.random((m32.num_cols, 8), dtype=np.float32)
    X64 = X32.astype(np.float64)

    t_single_32, t_single_64, t_batch_32, t_batch_64 = _interleaved_minima(
        [(m32.spmv, x32), (m64.spmv, x64), (m32.spmv, X32), (m64.spmv, X64)]
    )
    single_speedup = t_single_64 / t_single_32
    batch_speedup = t_batch_64 / t_batch_32

    rows = [
        ["single-vector", f"{t_single_32 * 1e3:.2f} ms", f"{t_single_64 * 1e3:.2f} ms",
         f"{single_speedup:.2f}x", ">= 1.1x"],
        ["batched (8 RHS)", f"{t_batch_32 * 1e3:.2f} ms", f"{t_batch_64 * 1e3:.2f} ms",
         f"{batch_speedup:.2f}x", ">= 1.5x"],
    ]
    report(
        "kernels_fp32_speedup",
        render_table(
            ["SpMV", "fp32", "fp64", "speedup", "floor"],
            rows,
            title=f"fp32 vs fp64 SpMV, 256x256 (nnz = {m32.nnz:,})",
        ),
        extra={
            "single_speedup": single_speedup,
            "batch_speedup": batch_speedup,
            "nnz": m32.nnz,
        },
    )
    # The multi-RHS path streams values/vectors with index traffic
    # amortized over 8 columns — the 2x byte halving must show.
    assert batch_speedup >= 1.5, f"batched fp32 speedup {batch_speedup:.2f}x < 1.5x"
    assert single_speedup >= 1.1, f"single fp32 speedup {single_speedup:.2f}x < 1.1x"
