"""Address-trace generation for the SpMV kernels.

The performance story of the paper is entirely about the *irregular*
stream: the gathers ``x[ind[j]]`` in Listing 2 and the staging gathers
``x[map[i]]`` in Listing 3.  The regular streams (``ind``, ``val``,
``displ``) are sequential and prefetch perfectly, so only the irregular
streams are traced.

Element addresses assume 4-byte (float32) vector elements, matching the
paper's data types.
"""

from __future__ import annotations

import numpy as np

from ..sparse import BufferedMatrix, CSRMatrix, ELLPartitioned, csr_row_sums
from ..sparse.csr import spmv_input

__all__ = [
    "irregular_trace_csr",
    "irregular_trace_buffered",
    "listing3_spmv",
    "ell_lockstep_spmv",
    "combined_trace_csr",
    "footprint_coordinates",
    "ELEMENT_BYTES",
]

ELEMENT_BYTES = 4

#: Regular streams (ind, val) live far above the input vector in the
#: address space; one shared base keeps the trace compact.
_STREAM_BASE = np.int64(1) << 40


def irregular_trace_csr(matrix: CSRMatrix) -> np.ndarray:
    """Byte addresses of the ``x`` gathers of the baseline CSR kernel.

    Rows are processed in storage order and each row's nonzeros in
    their stored order, exactly as Listing 2 executes.
    """
    return matrix.ind.astype(np.int64) * ELEMENT_BYTES


def combined_trace_csr(matrix: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Gather trace interleaved with the regular-stream traffic.

    The baseline CSR kernel streams ``ind`` (4 B) and ``val`` (4 B)
    while gathering ``x``; on a shared cache (KNL's per-tile L2, GPU
    L2) the streams continually evict gathered lines, which is where
    the measured miss rates of paper Fig. 9(b) come from even when the
    input vector alone would fit.  Returns ``(addresses, is_gather)``;
    miss rates are reported for the gather accesses only.
    """
    nnz = matrix.nnz
    gather = matrix.ind.astype(np.int64) * ELEMENT_BYTES
    stream = _STREAM_BASE + np.arange(nnz, dtype=np.int64) * 8  # ind+val pair
    addresses = np.empty(2 * nnz, dtype=np.int64)
    addresses[0::2] = stream
    addresses[1::2] = gather
    is_gather = np.zeros(2 * nnz, dtype=bool)
    is_gather[1::2] = True
    return addresses, is_gather


def irregular_trace_buffered(buffered: BufferedMatrix) -> np.ndarray:
    """Byte addresses of the memory-side gathers of the buffered kernel.

    After multi-stage buffering, the only irregular accesses that reach
    the memory hierarchy are the staging reads ``x[map[i]]``; the
    per-nonzero gathers hit the explicitly managed L1 buffer and never
    leave the core.  The trace is therefore the concatenated ``map``
    stream in stage order.
    """
    return buffered.map.astype(np.int64) * ELEMENT_BYTES


def listing3_spmv(buffered: BufferedMatrix, x: np.ndarray) -> np.ndarray:
    """Literal rendering of paper Listing 3 (partition/stage loops).

    Slow (Python-level loops over partitions and stages) but
    structurally identical to the C kernel: each stage's inputs are
    explicitly staged (``x[map[...]]`` — the accesses
    :func:`irregular_trace_buffered` traces) and its nonzeros gather
    from that buffer.  This is the reference
    :meth:`BufferedMatrix.spmv <repro.sparse.BufferedMatrix.spmv>` is
    tested against, not a production kernel.
    """
    x = np.asarray(x)
    if x.shape[0] != buffered.num_cols:
        raise ValueError(f"x has {x.shape[0]} entries, expected {buffered.num_cols}")
    partitions = buffered.partitions
    partsize = partitions.partition_size
    y = np.zeros(buffered.num_rows, dtype=np.result_type(x.dtype, np.float32))
    for part in range(partitions.num_partitions):
        row0, row1 = partitions.bounds(part)
        output = np.zeros(partsize, dtype=y.dtype)
        for stage in range(buffered.partdispl[part], buffered.partdispl[part + 1]):
            s0, s1 = buffered.stagedispl[stage], buffered.stagedispl[stage + 1]
            buffer = x[buffered.map[s0:s1]]  # explicit staging gather
            base = stage * partsize
            d = buffered.displ[base : base + partsize + 1]
            prod = buffered.val[d[0] : d[-1]] * buffer[buffered.ind[d[0] : d[-1]]]
            output += csr_row_sums(prod, d - d[0], partsize)
        y[row0:row1] += output[: row1 - row0]
    return y


def ell_lockstep_spmv(ell: ELLPartitioned, x: np.ndarray) -> np.ndarray:
    """Literal lockstep rendering of the partition-padded ELL kernel.

    One vector operation per pad slot over the rows of a partition —
    a warp stepping through its column-major slab (paper §3.1.4), the
    padded slots multiplying ``x[0]`` by ``0.0`` in place of a branch.
    Slow (three numpy calls per slot) but it states the summation
    order: this is the reference
    :meth:`ELLPartitioned.spmv <repro.sparse.ELLPartitioned.spmv>` is
    tested bit-identical to, for a vector or an ``(n, S)`` slab, not a
    production kernel.
    """
    x = spmv_input(x, ell.num_cols)
    columns = x.shape[1:]
    dtype = np.result_type(x.dtype, np.float32, *ell.val_slabs[:1])
    y = np.zeros((ell.num_rows,) + columns, dtype=dtype)
    for part in range(ell.partitions.num_partitions):
        start, stop = ell.partitions.bounds(part)
        ind = ell.ind_slabs[part]
        val = ell.val_slabs[part]
        if columns:
            val = val[:, :, None]
        acc = np.zeros((stop - start,) + columns, dtype=y.dtype)
        for w in range(ind.shape[0]):
            acc += val[w] * x[ind[w]]
        y[start:stop] = acc
    return y


def footprint_coordinates(
    matrix: CSRMatrix, row_range: tuple[int, int], domain_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """2D coordinates (in the *row-major* input domain) gathered by a
    row range, with multiplicity.

    Used to draw the access-footprint pictures of paper Figs. 5/6 and
    to compute data-reuse statistics.  ``domain_cols`` is the width of
    the 2D input domain the columns index into.
    """
    lo, hi = matrix.displ[row_range[0]], matrix.displ[row_range[1]]
    cols = matrix.ind[lo:hi].astype(np.int64)
    return cols % domain_cols, cols // domain_cols
