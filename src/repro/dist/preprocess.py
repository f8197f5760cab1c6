"""Distributed (MPI-parallel) preprocessing — paper Section 3.5.

The paper's preprocessing "is MPI+OpenMP parallel": ranks trace
disjoint subsets of the projection angles, then route each traced
nonzero to the rank that owns its tomogram column, so the *global*
matrix never materializes on any single node — the property that lets
per-node memory shrink as 1/P and makes terabyte-scale problems fit.

The pipeline here mirrors that exactly over the simulated
communicator:

1. every rank runs Siddon tracing for its angle range (angle-parallel,
   embarrassingly so);
2. the traced (row, column, length) triplets are exchanged with one
   ``Alltoallv`` keyed by the tomogram-column owner;
3. each rank assembles its partial matrix ``A_p``, its scan-based
   transpose, and the send segments of the communication plan —
   exactly the :class:`RankData` the runtime operator consumes.

Each rank's data are array-equal to slicing the globally built, ordered
matrix (verified in tests); the difference is the memory high-water mark.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..geometry import ScanGeometry
from ..ordering import make_ordering
from ..sparse import CSRMatrix
from ..topology import HierComm, Topology
from ..trace import trace_view_range
from .decomposition import decompose_both
from .partitioned import DistributedOperator, RankData
from .simmpi import SimComm

__all__ = ["distributed_preprocess"]


def distributed_preprocess(
    geometry: ScanGeometry,
    num_ranks: int,
    ordering: str = "pseudo-hilbert",
    min_tiles: int = 16,
    comm: SimComm | None = None,
    topology: Topology | None = None,
) -> DistributedOperator:
    """Preprocess in parallel across simulated ranks.

    Returns a ready :class:`DistributedOperator` whose per-rank data
    was built without ever holding the full matrix: rank ``r`` traces
    angles ``[r*M/P, (r+1)*M/P)`` and ships each nonzero to its
    tomogram-column owner.  With a non-flat ``topology`` (explicit or
    ambient ``REPRO_TOPOLOGY``), the triplet exchange and the returned
    operator run over a hierarchical :class:`HierComm`.
    """
    if num_ranks <= 0:
        raise ValueError(f"rank count must be positive, got {num_ranks}")
    if comm is None:
        topology = topology if topology is not None else Topology.ambient(num_ranks)
        if topology.num_ranks != num_ranks:
            raise ValueError(
                f"topology spans {topology.num_ranks} ranks, expected {num_ranks}"
            )
        comm = SimComm(num_ranks) if topology.is_flat else HierComm(topology)
    if comm.size != num_ranks:
        raise ValueError(f"communicator has {comm.size} ranks, expected {num_ranks}")

    tomo_ordering = make_ordering(
        ordering, *geometry.tomo_layout_shape, min_tiles=min_tiles
    )
    sino_ordering = make_ordering(
        ordering, *geometry.sino_layout_shape, min_tiles=min_tiles
    )
    tomo_dec, sino_dec = decompose_both(tomo_ordering, sino_ordering, num_ranks)

    # Step 1+2: angle-parallel tracing, then triplet exchange by column
    # owner.  The tracer's per-ray counts expand into ranked rows; the
    # three parallel Alltoallv calls model one exchange of a
    # (row, col, val) struct stream.
    angle_cuts = np.round(np.linspace(0, geometry.num_angles, num_ranks + 1)).astype(int)
    col_rank = tomo_ordering.rank.astype(np.int32)
    row_rank = sino_ordering.rank.astype(np.int32)
    sends: tuple[list, list, list] = ([], [], [])  # rows, cols, vals: rank -> owner -> piece
    for r in range(num_ranks):
        start, stop = int(angle_cuts[r]), int(angle_cuts[r + 1])
        views = [(view, geometry.num_channels) for view in range(start, stop)]
        task = (geometry, views, col_rank, np.dtype(np.float32))
        counts, cols, vals = trace_view_range(task)
        first_ray = int(geometry.ray_index(start, 0))
        rows = np.repeat(row_rank[first_ray : first_ray + len(counts)], counts)
        owners = tomo_dec.owner_of(cols)
        order = np.argsort(owners, kind="stable")
        cuts = np.searchsorted(owners[order], np.arange(num_ranks + 1))
        for send, stream in zip(sends, (rows[order], cols[order], vals[order])):
            send.append([stream[cuts[q] : cuts[q + 1]] for q in range(num_ranks)])
    recvs = [comm.alltoallv(send) for send in sends]

    # Step 3: each rank assembles its triplets as A_p^T (local tomogram
    # cell by global sinogram position) and cuts it with the constructor
    # that slices a global transpose.
    rank_data = []
    for p in range(num_ranks):
        rows, cols, vals = (np.concatenate(recv[p]) for recv in recvs)
        c0, c1 = int(tomo_dec.bounds[p]), int(tomo_dec.bounds[p + 1])
        local = sp.coo_matrix((vals, (cols - c0, rows)), shape=(c1 - c0, int(sino_dec.bounds[-1])))
        rank_data.append(
            RankData.from_transpose_rows(CSRMatrix.from_scipy(local), 0, c1 - c0, sino_dec.bounds)
        )

    return DistributedOperator(
        matrix=None,
        tomo_dec=tomo_dec,
        sino_dec=sino_dec,
        comm=comm,
        rank_data=rank_data,
    )
