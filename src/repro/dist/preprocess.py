"""Distributed (MPI-parallel) preprocessing — paper Section 3.5.

The paper's preprocessing "is MPI+OpenMP parallel": ranks trace
disjoint subsets of the projection angles, then route each traced
nonzero to the rank that owns its tomogram column, so the *global*
matrix never materializes on any single node — the property that lets
per-node memory shrink as 1/P and makes terabyte-scale problems fit.

The pipeline here mirrors that exactly over the simulated
communicator:

1. every rank traces a contiguous run of the geometry's traced views:
   the rows of ``Q`` on a scan with an 8-slot ray group, else expanded
   to every ray of their orbits, the rows of ``A``;
2. the (row, column, length) triplets are exchanged with one
   ``Alltoallv`` keyed by the tomogram-column owner (whole orbits per
   rank on a plan of ``Q``, contiguous tiles otherwise);
3. each rank assembles its columns of the plan and cuts itself with
   :meth:`RankData.cut` — exactly the :class:`RankData` the runtime
   operator consumes.

Each rank's data are array-equal to the serial plan's own cut; the
difference is the memory high-water mark.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..geometry import ScanGeometry
from ..ordering import make_ordering
from ..sparse import CSRMatrix, OrbitMatrix, orbit_group
from ..topology import HierComm, Topology
from ..trace import trace_view_range
from ..trace.matrix_builder import _traced_views
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
    the ``r``-th of ``P`` contiguous runs of the traced views, each
    traced ray once, and ships each nonzero of the plan's rows it
    traced (``Q``'s, or their orbits' rows of ``A``) to its
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
    col_rank = tomo_ordering.rank.astype(np.int32)
    row_rank = sino_ordering.rank.astype(np.int32)
    group = geometry.ray_group()
    traced = np.arange(geometry.num_rays) if group is None else group.stored_rays()
    # With an 8-slot group the ranks hold Q's columns, whole orbits each:
    # the serial plan's maps, from a Q with no nonzeros.
    layout = None
    if orbit_group(geometry) is not None:
        empty = CSRMatrix(np.zeros(len(traced) + 1), [], [], len(col_rank))
        layout = OrbitMatrix.from_group(empty, group, col_rank, sino_ordering.perm)
    tomo_dec, sino_dec = decompose_both(
        tomo_ordering, sino_ordering, num_ranks, None if layout is None else layout.gather
    )
    owner = tomo_dec.owner_of(np.arange(len(col_rank)))

    # Step 1+2: each traced ray traced once (a smaller group's rows
    # expanded by the builder's expansion over a Q of the run's rows),
    # then three parallel Alltoallv calls model one exchange of a
    # (row, col, val) struct stream.
    views = _traced_views(geometry)
    view_cuts = np.round(np.linspace(0, len(views), num_ranks + 1)).astype(int)
    ray_cuts = np.cumsum([0] + [channels for _, channels in views])[view_cuts]
    q_row = None if group is None else np.searchsorted(traced, group.source)
    sends: tuple[list, list, list] = ([], [], [])  # rows, cols, vals: rank -> owner -> piece
    for r in range(num_ranks):
        lo, hi = int(ray_cuts[r]), int(ray_cuts[r + 1])
        task = (geometry, views[view_cuts[r] : view_cuts[r + 1]], col_rank, np.dtype(np.float32))
        counts, cols, vals = trace_view_range(task)
        if layout is not None:
            rows = np.arange(lo, hi, dtype=np.int32)
        elif group is not None:
            held = np.zeros(len(traced), np.int64)
            held[lo:hi] = counts
            run = CSRMatrix(np.concatenate(([0], np.cumsum(held))), cols, vals, len(col_rank))
            rays = np.flatnonzero((q_row >= lo) & (q_row < hi))
            expanded = OrbitMatrix.from_group(run, group, col_rank, rays).expand()
            counts, cols, vals = expanded.row_nnz(), expanded.ind, expanded.val
            rows = row_rank[rays]
        else:
            rows = row_rank[lo:hi]
        rows = np.repeat(rows, counts)
        owners = owner[cols]
        order = np.argsort(owners, kind="stable")
        cuts = np.searchsorted(owners[order], np.arange(num_ranks + 1))
        for send, stream in zip(sends, (rows[order], cols[order], vals[order])):
            send.append([stream[cuts[q] : cuts[q + 1]] for q in range(num_ranks)])
    recvs = [comm.alltoallv(send) for send in sends]

    # Step 3: each rank assembles its columns of the plan and cuts them.
    shape = (len(traced) if layout is not None else geometry.num_rays, len(col_rank))
    rank_data = []
    for p in range(num_ranks):
        rows, cols, vals = (np.concatenate(recv[p]) for recv in recvs)
        block = CSRMatrix.from_scipy(sp.coo_matrix((vals, (rows, cols)), shape=shape))
        plan = block if layout is None else OrbitMatrix(block, layout.gather, layout.out)
        rank_data += RankData.cut(plan, tomo_dec, sino_dec.bounds, ranks=[p])

    return DistributedOperator(
        matrix=None,
        tomo_dec=tomo_dec,
        sino_dec=sino_dec,
        comm=comm,
        rank_data=rank_data,
    )
