"""Kernel table: every SpMV layout on one ordered matrix, beside scipy.

The paper's Table 6 row, measured on whichever matrix the workload
built: all three layouts are constructed from the same ordered CSR
matrix and timed through the operator's public entry points, with
scipy's CSR matvec/matmat on the same matrix in the same run as the
base of every ``vs_scipy`` ratio.

GFLOPS and GB/s are *computed*: ``2 * nnz`` operations and the byte
counts of ``memory_footprint()``, divided by measured time.  No roofline
ratio is claimed — the host's last-level cache exceeds the matrix, so
``sparse.copy_gbs`` is a cache-resident copy rate, not a memory bound.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core import MemXCTOperator
from repro.sparse import build_buffered, build_ell

from .harness import Context, median, timed

KERNELS = ("csr", "buffered", "ell")
BATCH = 8
REPS = 3  # timed calls behind each median (1 in quick mode)


def _median_ms(fn, arg, reps: int) -> float:
    # Untimed first call: the layouts build index plans lazily, and a
    # call that grows the process to a new peak pays for fresh pages
    # (5x on the 256x256 slab) — the table reports the steady state.
    fn(arg)
    return 1e3 * median(timed(fn, arg)[0] for _ in range(reps))


def _all_layouts(operator) -> dict[str, MemXCTOperator]:
    """One operator per kernel, sharing the matrix and every layout."""
    cfg = operator.config
    matrix, transpose = operator.matrix, operator.transpose
    layouts = {
        "buffered_forward": operator.buffered_forward
        or build_buffered(matrix, cfg.partition_size, cfg.buffer_bytes),
        "buffered_adjoint": operator.buffered_adjoint
        or build_buffered(transpose, cfg.partition_size, cfg.buffer_bytes),
        "ell_forward": operator.ell_forward or build_ell(matrix, cfg.partition_size),
        "ell_adjoint": operator.ell_adjoint or build_ell(transpose, cfg.partition_size),
    }
    return {
        kernel: MemXCTOperator(
            operator.geometry,
            operator.tomo_ordering,
            operator.sino_ordering,
            matrix,
            transpose,
            replace(cfg, kernel=kernel, workers="serial"),
            **layouts,
        )
        for kernel in KERNELS
    }


def probe(ctx: Context, operator) -> dict:
    """The ``sparse.*`` kernel metrics for ``operator``'s matrix."""
    reps = 1 if ctx.quick else REPS
    rng = np.random.default_rng(ctx.seed)
    dtype = operator.compute_dtype
    x = rng.random(operator.num_pixels).astype(dtype)
    y = rng.random(operator.num_rays).astype(dtype)
    slab = rng.random((operator.num_pixels, BATCH)).astype(dtype)
    nnz = operator.matrix.nnz

    scipy_matrix = operator.matrix.to_scipy()
    scipy_ms = _median_ms(scipy_matrix.dot, x, reps)
    metrics = {
        "sparse.scipy.fwd_ms": scipy_ms,
        "sparse.scipy.batch8_ms_per_rhs": _median_ms(scipy_matrix.dot, slab, reps) / BATCH,
    }
    for kernel, op in _all_layouts(operator).items():
        fwd_ms = _median_ms(op.forward, x, reps)
        batch_ms = _median_ms(op.forward_batch, slab, max(1, reps // 2)) / BATCH
        footprint = op.memory_footprint()
        moved = footprint["regular_forward"] + footprint["irregular_forward"]
        metrics.update(
            {
                f"sparse.{kernel}.fwd_ms": fwd_ms,
                f"sparse.{kernel}.adj_ms": _median_ms(op.adjoint, y, reps),
                f"sparse.{kernel}.gflops": 2 * nnz / (fwd_ms * 1e-3) / 1e9,
                f"sparse.{kernel}.gbs": moved / (fwd_ms * 1e-3) / 1e9,
                # base: scipy CSR matvec on the same matrix, this run
                f"sparse.{kernel}.vs_scipy": scipy_ms / fwd_ms,
                f"sparse.{kernel}.batch8_ms_per_rhs": batch_ms,
                # > 1 means batching pays; base: the single-vector call
                f"sparse.{kernel}.batch_gain": fwd_ms / batch_ms,
            }
        )

    # numpy copy at the csr kernel's regular working set (read + write)
    working_set = nnz * (operator.matrix.val.dtype.itemsize + 4)
    src = np.ones(working_set, dtype=np.uint8)
    dst = np.empty_like(src)
    copy_ms = _median_ms(lambda a: np.copyto(dst, a), src, reps)
    metrics["sparse.copy_gbs"] = 2 * working_set / (copy_ms * 1e-3) / 1e9
    return metrics
