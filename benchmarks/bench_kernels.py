"""Kernel micro-benchmarks (performance-regression tracking).

Not tied to a specific paper table — these time each core kernel in
isolation with pytest-benchmark so changes to the implementations are
visible as regressions: tracing, orderings, transposition, the three
SpMV layouts, buffered construction, and the distributed forward.
"""

import numpy as np
import pytest

from repro.dist import DistributedOperator, decompose_both
from repro.ordering import make_ordering, pseudo_hilbert_order
from repro.sparse import build_buffered, build_ell, scan_transpose
from repro.trace import build_projection_matrix


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
