"""Ablation — tile granularity vs load balance vs preprocessing cost.

Paper Section 3.4: "While processes are not perfectly load balanced,
it can be improved by finer tile granularity at the cost of more
preprocessing."  We sweep the tile size of the two-level ordering,
decompose over a fixed rank count, and measure all three sides of the
trade: compute load imbalance (max/mean nnz per rank), communication
volume, and ordering-construction time.
"""

import time

import numpy as np

from repro.dist import DistributedOperator, decompose_both
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix
from repro.trace import build_projection_matrix
from repro.utils import render_table

RANKS = 16
TILE_SIZES = [32, 16, 8, 4]


def test_ablation_tile_granularity(report, scaled_specs, benchmark):
    spec = scaled_specs["ADS2"]
    g = spec.geometry()
    # One row-major trace, permuted per tile size: what is timed below is
    # ordering + re-ordering + decomposition, which a trace per tile (the
    # builder's row_rank/col_rank path) would swamp.
    raw = CSRMatrix.from_scipy(build_projection_matrix(g))
    n = g.grid.n

    rows = []
    imbalances = []
    preproc_times = []
    for tile in TILE_SIZES:
        t0 = time.perf_counter()
        tomo = make_ordering("pseudo-hilbert", n, n, tile_size=tile)
        sino = make_ordering(
            "pseudo-hilbert", g.num_angles, g.num_channels, tile_size=tile
        )
        matrix = raw.permute(sino.perm, tomo.rank).sort_rows_by_index()
        td, sd = decompose_both(tomo, sino, RANKS)
        op = DistributedOperator(matrix, td, sd)
        elapsed = time.perf_counter() - t0

        nnz = op.per_rank_nnz().astype(np.float64)
        imbalance = nnz.max() / nnz.mean()
        imbalances.append(imbalance)
        preproc_times.append(elapsed)
        rows.append(
            [
                f"{tile}x{tile}",
                tomo.two_level.num_tiles,
                f"{td.load_imbalance():.3f}",
                f"{imbalance:.3f}",
                f"{op.communication_matrix().sum() / 1024:.0f} KB",
                f"{elapsed:.2f} s",
            ]
        )

    table = render_table(
        ["Tile", "Tiles (tomo)", "Cell imbalance", "nnz imbalance",
         "Comm volume", "Decomposition+ordering time"],
        rows,
        title=f"Ablation: tile granularity at P = {RANKS} (scaled ADS2)",
    )
    report("ablation_granularity", table)

    # The paper's trade-off: finer tiles improve the compute balance...
    assert imbalances[-1] <= imbalances[0] + 1e-9
    # ...and balance is decent at reasonable granularity.
    assert imbalances[-1] < 1.5

    benchmark(make_ordering, "pseudo-hilbert", n, n, 8)
