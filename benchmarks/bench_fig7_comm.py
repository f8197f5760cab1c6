"""Fig. 7 — sparse communication structure across 16 processes.

Paper Fig. 7 decomposes 256x256 tomogram/sinogram domains over 16
processes and shows: (c) a sparse communication matrix — only
interacting subdomain pairs exchange data; (d) per-pair volumes of
process 7; (e) total send/receive volumes per process.  We rebuild the
same decomposition and print all three, plus the backprojection-
equals-transpose property.
"""

import numpy as np

from repro.dist import DistributedOperator, SimComm, decompose_both
from repro.geometry import ParallelBeamGeometry
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix
from repro.trace import build_projection_matrix
from repro.utils import render_table

RANKS = 16


def test_fig7_communication_matrix(report, benchmark):
    g = ParallelBeamGeometry(256, 256)
    tomo = make_ordering("pseudo-hilbert", 256, 256, tile_size=64)
    sino = make_ordering("pseudo-hilbert", 256, 256, tile_size=64)
    matrix = CSRMatrix.from_scipy(
        build_projection_matrix(g, row_rank=sino.rank, col_rank=tomo.rank)
    )
    td, sd = decompose_both(tomo, sino, RANKS)
    comm = SimComm(RANKS)
    op = DistributedOperator(matrix, td, sd, comm=comm)

    volume = op.communication_matrix()  # forward pass, bytes
    partners = op.interaction_counts()
    send_kb = volume.sum(axis=1) / 1024
    recv_kb = volume.sum(axis=0) / 1024

    # (c) the sparse pattern as a text matrix.
    pattern_lines = ["    " + " ".join(f"{q:>2}" for q in range(RANKS))]
    for p in range(RANKS):
        cells = " ".join(" ." if volume[p, q] == 0 else " #" for q in range(RANKS))
        pattern_lines.append(f"{p:>3} {cells}")
    pattern = "\n".join(pattern_lines)

    # (d) pairwise volumes of process 7.
    pair_rows = [
        [q, f"{volume[7, q] / 1024:.1f}", f"{volume[q, 7] / 1024:.1f}"]
        for q in range(RANKS)
        if volume[7, q] or volume[q, 7]
    ]
    pair_table = render_table(
        ["Pair process", "Send (KB)", "Recv (KB)"], pair_rows,
        title="Fig. 7(d): pairwise communication of process 7",
    )

    # (e) totals per process.
    total_rows = [
        [p, f"{send_kb[p]:.1f}", f"{recv_kb[p]:.1f}", int(partners[p])]
        for p in range(RANKS)
    ]
    total_table = render_table(
        ["Process", "Send (KB)", "Recv (KB)", "Partners"], total_rows,
        title="Fig. 7(e): total communication per process",
    )

    sparsity = float((volume > 0).sum()) / (RANKS * (RANKS - 1))
    report(
        "fig7_comm",
        "Fig. 7(c): forward-projection communication matrix "
        f"(sparsity: {sparsity:.0%} of off-diagonal pairs exchange data)\n"
        + pattern
        + "\n\n"
        + pair_table
        + "\n\n"
        + total_table,
    )

    # Shape assertions mirroring the paper's observations:
    # - the matrix is sparse (process 7 talks to ~8 of 15 peers);
    assert 0.2 < sparsity < 0.9
    assert 4 <= partners[7] <= 12
    # - pair volumes are asymmetric across peers (more data to nearer
    #   subdomains);
    sent7 = volume[7][volume[7] > 0]
    assert sent7.max() > 2 * sent7.min()
    # - backprojection communication is the exact transpose.
    x = np.random.default_rng(0).random(matrix.num_cols).astype(np.float32)
    op.forward(x)
    fwd_log = comm.log.volume_bytes.copy()
    comm.reset_log()
    op.adjoint(np.random.default_rng(1).random(matrix.num_rows).astype(np.float32))
    np.testing.assert_array_equal(comm.log.volume_bytes, fwd_log.T)

    benchmark(op.forward, x)
