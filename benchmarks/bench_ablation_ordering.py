"""Ablation — why pseudo-Hilbert and not Morton or row-major?

DESIGN.md calls out the two properties the ordering must deliver
(paper Section 3.2): cache locality *and* partition connectivity.
This ablation quantifies both for all four ordering schemes on the
same dataset: L2 miss rates of the SpMV gather stream, partition
connectivity (fraction of ordered partitions that form one connected
2D region), and distributed communication volume.

Expected outcome (the paper's argument): Morton nearly matches
Hilbert on cache miss rate but produces disconnected partitions,
which inflates the communication footprint; row-major fails on both
axes.
"""

import numpy as np

from repro.cachesim import miss_rate_csr
from repro.dist import DistributedOperator, decompose_both
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix
from repro.trace import build_projection_matrix
from repro.utils import render_table

from conftest import build_ordered

ORDERINGS = ["row-major", "morton", "hilbert", "pseudo-hilbert"]
CACHE_BYTES = 16 * 1024
# Deliberately not a power of four: aligned power-of-four runs of a
# Morton order happen to be perfect squares, masking its weakness.
# Real partition sizes (thread blocks of 128/192 rows, uneven rank
# splits) are not aligned, and there Morton partitions disconnect.
PARTITION_CELLS = 192
MAX_TRACE = 300_000


def _connectivity(ordering, partition_cells):
    """Fraction of equal-size partitions forming a single connected
    region in 2D (4-neighbour)."""
    x, y = ordering.coordinates()
    n = ordering.num_cells
    connected = 0
    total = 0
    for start in range(0, n - partition_cells + 1, partition_cells):
        cells = set(
            zip(
                x[start : start + partition_cells].tolist(),
                y[start : start + partition_cells].tolist(),
            )
        )
        # BFS from one cell.
        seed = next(iter(cells))
        seen = {seed}
        frontier = [seed]
        while frontier:
            cx, cy = frontier.pop()
            for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                if (nx, ny) in cells and (nx, ny) not in seen:
                    seen.add((nx, ny))
                    frontier.append((nx, ny))
        total += 1
        connected += seen == cells
    return connected / total if total else 1.0


def test_ablation_ordering_schemes(report, scaled_specs, benchmark):
    spec = scaled_specs["ADS2"]
    g = spec.geometry()
    # One row-major trace re-ordered four ways: tracing dominates, so the
    # sweep permutes instead of handing each scheme's ranks to the builder.
    raw = CSRMatrix.from_scipy(build_projection_matrix(g))
    n = g.grid.n

    rows = []
    results = {}
    for name in ORDERINGS:
        tomo = make_ordering(name, n, n, min_tiles=64)
        sino = make_ordering(name, g.num_angles, g.num_channels, min_tiles=64)
        matrix = (
            raw if name == "row-major"
            else raw.permute(sino.perm, tomo.rank).sort_rows_by_index()
        )
        miss = miss_rate_csr(matrix, CACHE_BYTES, max_accesses=MAX_TRACE).miss_rate
        conn = _connectivity(tomo, PARTITION_CELLS)
        td, sd = decompose_both(tomo, sino, 16)
        comm_kb = DistributedOperator(matrix, td, sd).communication_matrix().sum() / 1024
        results[name] = (miss, conn, comm_kb)
        rows.append([name, f"{miss:.1%}", f"{conn:.0%}", f"{comm_kb:.0f} KB"])

    table = render_table(
        ["Ordering", "L2 miss rate", "Connected partitions", "Comm volume (P=16)"],
        rows,
        title="Ablation: ordering schemes on scaled ADS2 "
        f"({PARTITION_CELLS}-cell partitions, {CACHE_BYTES // 1024} KB cache)",
    )
    report("ablation_ordering", table)

    # The paper's claims, as assertions:
    # 1. Hilbert-family orderings cut the miss rate vs row-major.
    assert results["pseudo-hilbert"][0] < 0.7 * results["row-major"][0]
    # 2. Morton caches almost as well as Hilbert...
    assert results["morton"][0] < 0.8 * results["row-major"][0]
    # 3. ...but yields disconnected partitions where the curve schemes
    #    stay (near-)fully connected (paper Section 3.2.3).
    assert results["morton"][1] < results["pseudo-hilbert"][1]
    assert results["pseudo-hilbert"][1] > 0.9
    # 4. Connected partitions reduce communication vs row-major.
    assert results["pseudo-hilbert"][2] < results["row-major"][2]

    tomo = make_ordering("pseudo-hilbert", n, n, min_tiles=64)
    benchmark(_connectivity, tomo, PARTITION_CELLS)
