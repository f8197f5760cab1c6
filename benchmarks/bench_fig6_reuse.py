"""Fig. 6 — partition data reuse and multi-stage buffer shapes.

Paper Fig. 6(a): a 64^2-cell partition of a 256^2 domain reuses each
gathered input 46.63x (tomogram partition reading the sinogram) and
64.73x (sinogram partition reading the tomogram) on average.
Fig. 6(b): with a 32 KB buffer those partitions stage their inputs in
4 and 3 stages respectively.  We rebuild the exact 256x256 instance
and measure both.
"""

import numpy as np

from repro.geometry import ParallelBeamGeometry
from repro.ordering import make_ordering
from repro.sparse import (
    CSRMatrix,
    RowPartitions,
    build_buffered,
    partition_data_reuse,
    scan_transpose,
)
from repro.trace import build_projection_matrix
from repro.utils import render_table

PARTITION_CELLS = 64 * 64  # one 64x64 subdomain per partition
BUFFER_BYTES = 32 * 1024


def test_fig6_reuse_and_staging(report, benchmark):
    g = ParallelBeamGeometry(256, 256)
    tomo = make_ordering("pseudo-hilbert", 256, 256, tile_size=64)
    sino = make_ordering("pseudo-hilbert", 256, 256, tile_size=64)
    fwd = CSRMatrix.from_scipy(  # sinogram rows
        build_projection_matrix(g, row_rank=sino.rank, col_rank=tomo.rank)
    )
    adj = scan_transpose(fwd)  # tomogram rows

    parts_fwd = RowPartitions(fwd.num_rows, PARTITION_CELLS)
    parts_adj = RowPartitions(adj.num_rows, PARTITION_CELLS)
    reuse_sino_partition = partition_data_reuse(fwd, parts_fwd)  # reads tomogram
    reuse_tomo_partition = partition_data_reuse(adj, parts_adj)  # reads sinogram

    buf_fwd = build_buffered(fwd, PARTITION_CELLS, BUFFER_BYTES)
    buf_adj = build_buffered(adj, PARTITION_CELLS, BUFFER_BYTES)

    rows = [
        [
            "sinogram partition reading tomogram domain (forward)",
            f"{reuse_sino_partition.mean():.2f}",
            "46.63",
            f"{buf_fwd.stages_per_partition().mean():.1f}",
            "4",
        ],
        [
            "tomogram partition reading sinogram domain (backproj.)",
            f"{reuse_tomo_partition.mean():.2f}",
            "64.73",
            f"{buf_adj.stages_per_partition().mean():.1f}",
            "3",
        ],
    ]
    table = render_table(
        ["Partition", "Avg data reuse", "Paper reuse", "Stages (32 KB buffer)",
         "Paper stages"],
        rows,
        title="Fig. 6: 64x64 partitions of 256x256 domains",
    )
    report("fig6_reuse", table)

    # Shape assertions: the paper's exact instance, so the reuse
    # averages should land close to its 46.63 / 64.73.
    assert abs(reuse_sino_partition.mean() - 46.63) < 5.0
    assert abs(reuse_tomo_partition.mean() - 64.73) < 5.0
    assert reuse_tomo_partition.mean() > reuse_sino_partition.mean()
    assert 1 <= buf_fwd.stages_per_partition().mean() <= 8
    assert 1 <= buf_adj.stages_per_partition().mean() <= 8

    x = np.random.default_rng(0).random(fwd.num_cols).astype(np.float32)
    benchmark(buf_fwd.spmv, x)
