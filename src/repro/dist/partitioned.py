"""Distributed MemXCT operator: the ``A = R C A_p`` factorization.

Paper Section 3.4: each rank owns one tomogram subdomain and one
sinogram subdomain (contiguous pseudo-Hilbert tile ranges).  Forward
projection is three steps —

* ``A_p`` — each rank forward-projects *its tomogram columns* into
  partial sums for every sinogram row it intersects;
* ``C``   — partial sinogram data moves to the rows' owners through a
  sparse ``Alltoallv`` (only interacting pairs exchange data);
* ``R``   — owners reduce overlapping partials.

Backprojection is the transpose path ``A^T = A_p^T C^T R^T``: owners
*duplicate* their sinogram values to every interacting rank, which
backprojects onto its own tomogram columns — no reduction on the
tomogram side because column ownership is disjoint.  A rank holds
``A_p`` alone, with no transpose: its forward is a row gather, and
each rank's adjoint is a serial scatter (``spmv_transposed``), whose
sums are the scan transpose's gather's bit for bit.  Every rank's
data, of either plan form, come from one cut (:meth:`RankData.cut`).

The wire carries float32: on a float32 plan the adjoint is the serial
kernel's bit for bit, and the forward equals it up to the wire's
rounding of the partial sums (tests hold it to ``rtol=1e-4``).  On an
orbit plan each rank owns whole orbits of the pixel maps and runs
``Q``'s 8-column kernels over its own columns of ``Q``.

Graceful degradation: when the (fault-injected) communicator reports a
rank crash, the serial-facade passes hand the dead ranks' tomogram
columns and sinogram rows to the survivors
(:meth:`DistributedOperator.degrade`: globally on a flat topology,
within the node group first on a hierarchical one), attach a fresh
communicator with the same fault injector, and re-execute the pass.
The solve continues; only the partitioning changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import FAULT_RECOVERIES, add_count, span
from ..resilience.faults import RankCrashError
from ..sparse import CSRMatrix, OrbitMatrix
from ..topology import HierComm, HierLog, Topology
from .decomposition import Decomposition, decompose_both
from .simmpi import CommLog, SimComm

__all__ = ["DistributedOperator", "RankData"]

_VALUE_BYTES = 4  # float32 sinogram payloads on the wire


@dataclass
class RankData:
    """Preprocessed per-rank state.

    Attributes
    ----------
    partial_matrix:
        ``A_p``: rows are this rank's *touched* sinogram rows, columns
        its local tomogram cells, float32 values.  On a plan of ``A``
        a :class:`~repro.sparse.CSRMatrix`; on an orbit plan an
        :class:`~repro.sparse.OrbitMatrix` over the rank's columns of
        ``Q``.  Both directions run on it (``spmv`` /
        ``spmv_transposed``); no rank holds a transpose.
    touched_rows:
        Sorted global sinogram positions with at least one nonzero in
        this rank's tomogram columns.
    send_segments:
        ``send_segments[q] = (lo, hi)`` slice of ``touched_rows`` owned
        by rank ``q`` (contiguous because ownership ranges are
        contiguous in curve order).
    """

    partial_matrix: CSRMatrix | OrbitMatrix
    touched_rows: np.ndarray
    send_segments: list[tuple[int, int]]
    # The sums of A's rows this rank owns in the sinogram decomposition,
    # filled by an orbit plan's DistributedOperator.row_sums(): they live
    # as long as the rank data, so a memoized cut reuses them.
    _row_sums: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def cut(cls, plan, tomo_dec: Decomposition, sino_bounds, ranks=None) -> list["RankData"]:
        """The data of ``ranks`` (every rank of ``tomo_dec`` by default),
        cut from ``plan`` (``A``, or an orbit plan) in one pass over its
        stored rows.

        One stable sort of the stored nonzeros by their column's owner
        lays each rank's nonzeros out in row order: its rows of ``A``
        (or ``Q``), columns renumbered onto its cells (ascending), values
        float32 whatever the plan stores — the wire is.  An orbit rank
        also takes each touched ray's ``(row, slot)`` in its rows and its
        cells' maps, which closure makes permutations of the cells.  A
        plan holding only the columns of the ranks asked for cuts those
        alone.
        """
        orbit = isinstance(plan, OrbitMatrix)
        stored = plan.stored if orbit else plan
        num_ranks, bounds = tomo_dec.num_ranks, tomo_dec.bounds
        sizes = np.diff(bounds)
        # Each column's owner and its index among the owner's cells.
        owner = np.repeat(np.arange(num_ranks, dtype=np.min_scalar_type(num_ranks)), sizes)
        local = (np.arange(stored.num_cols) - np.repeat(bounds[:-1], sizes)).astype(np.int32)
        if tomo_dec.cells is not None:
            owner[tomo_dec.cells], local[tomo_dec.cells] = owner.copy(), local.copy()
        key = owner[stored.ind]
        order = np.argsort(key, kind="stable")  # numpy radix-sorts keys of <= 16 bits
        ends = np.zeros(num_ranks + 1, np.int64)
        np.cumsum(np.bincount(key, minlength=num_ranks), out=ends[1:])
        row_of = np.repeat(np.arange(stored.num_rows, dtype=np.int32), stored.row_nnz())[order]
        if orbit:
            ray_row, ray_slot = np.divmod(plan.out, plan.slots)
        cut = []
        for p in range(num_ranks) if ranks is None else ranks:
            nonzeros, rows = order[ends[p] : ends[p + 1]], row_of[ends[p] : ends[p + 1]]
            first = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first nonzero
            touched = rows[first].astype(np.intp)
            block = CSRMatrix(np.append(first, len(rows)), local[stored.ind[nonzeros]],
                              stored.val[nonzeros], int(sizes[p]))
            if orbit:
                at = np.full(stored.num_rows, -1, np.int64)
                at[touched] = np.arange(len(touched))
                row = at[ray_row]  # each ray's row of Q_p, or -1
                touched = np.flatnonzero(row >= 0)
                out = row[touched] * plan.slots + ray_slot[touched]
                block = OrbitMatrix(block, local[plan.gather[tomo_dec.rank_cells(p)]], out)
            cuts = np.searchsorted(touched, sino_bounds)
            segments = [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]
            cut.append(cls(block, touched, segments))
        return cut


class DistributedOperator:
    """MemXCT's distributed forward/backprojection over a SimComm.

    Vectors are in *ordered* coordinates: ``x`` along the tomogram
    curve, ``y`` along the sinogram curve.  The serial-API methods
    (:meth:`forward` / :meth:`adjoint`) scatter, execute all ranks, and
    gather, so the operator plugs directly into the solvers.

    ``matrix`` is the plan the ranks are cut from (:meth:`RankData.cut`):
    ``A`` itself on a contiguous tomogram decomposition, or an orbit
    plan (:class:`~repro.sparse.OrbitMatrix`) on an orbit-closed one,
    cut by columns of ``Q`` with no ``A``.  Neither builds an ``A^T``.
    """

    def __init__(
        self,
        matrix: CSRMatrix | OrbitMatrix | None,
        tomo_dec: Decomposition,
        sino_dec: Decomposition,
        comm: SimComm | None = None,
        rank_data: list[RankData] | None = None,
        topology: Topology | None = None,
    ):
        if tomo_dec.num_ranks != sino_dec.num_ranks:
            raise ValueError("tomogram and sinogram decompositions must agree on ranks")
        if matrix is not None:
            if matrix.num_rows != sino_dec.ordering.num_cells:
                raise ValueError("matrix rows must match the sinogram domain")
            if matrix.num_cols != tomo_dec.ordering.num_cells:
                raise ValueError("matrix columns must match the tomogram domain")
            orbit = isinstance(matrix, OrbitMatrix)
            if not (tomo_dec.orbit_closed(matrix.gather) if orbit else tomo_dec.cells is None):
                raise ValueError("an orbit plan needs an orbit-closed tomogram "
                                 "decomposition, a plan of A a contiguous one")
        elif rank_data is None:
            raise ValueError("either a global matrix or per-rank data is required")
        self.matrix = matrix
        self.tomo_dec = tomo_dec
        self.sino_dec = sino_dec
        self.num_ranks = tomo_dec.num_ranks
        if topology is not None and topology.num_ranks != self.num_ranks:
            raise ValueError(
                f"topology spans {topology.num_ranks} ranks, "
                f"decompositions have {self.num_ranks}"
            )
        if comm is not None:
            self.comm = comm
            # An explicit communicator wins: a HierComm carries its own
            # topology, anything else runs flat.
            self.topology = getattr(comm, "topology", None) or Topology.flat(comm.size)
        else:
            self.topology = (
                topology if topology is not None else Topology.ambient(self.num_ranks)
            )
            self.comm = (
                SimComm(self.num_ranks)
                if self.topology.is_flat
                else HierComm(self.topology)
            )
        self.retired_logs: list[CommLog] = []
        self.degradations: list[dict] = []
        self._recv_local_ids: list[list[np.ndarray]] = []
        if rank_data is None:
            rank_data = RankData.cut(matrix, tomo_dec, sino_dec.bounds)
        else:
            self._check_rank_data(rank_data)
        self.ranks = rank_data
        self._build_recv_ids()

    # -- preprocessing --------------------------------------------------

    def _check_rank_data(self, rank_data: list[RankData]) -> None:
        """Refuse supplied rank data cut for other decompositions.

        Shape checks and one pass over the touched rows: a stale memo or
        a hand-made list that does not fit would otherwise solve a
        different system silently.
        """
        if len(rank_data) != self.num_ranks:
            raise ValueError(
                f"expected {self.num_ranks} rank-data entries, got {len(rank_data)}"
            )
        num_rays = int(self.sino_dec.bounds[-1])
        for p, rank in enumerate(rank_data):
            touched = rank.touched_rows.shape[0]
            ends = [0] + [hi for _, hi in rank.send_segments]
            for fits, what in (
                (rank.partial_matrix.num_cols == self.tomo_dec.rank_size(p),
                 "partial_matrix columns must be the rank's tomogram cells"),
                (rank.partial_matrix.num_rows == touched,
                 "partial_matrix must have one row per touched row"),
                (len(rank.send_segments) == self.num_ranks
                 and [lo for lo, _ in rank.send_segments] == ends[:-1]
                 and ends[-1] == touched,
                 "send_segments must tile touched_rows, one segment per rank"),
                (touched == 0 or rank.touched_rows[-1] < num_rays,
                 "touched_rows must lie inside the sinogram domain"),
                # The owners' reduction adds a segment with one fancy-indexed
                # ``+=``, which counts a repeated id once.
                ((np.diff(rank.touched_rows) > 0).all(),
                 "touched_rows must be sorted and unique"),
            ):
                if not fits:
                    raise ValueError(f"rank {p}: {what}")

    def _build_recv_ids(self) -> None:
        """Receiver-side local row ids for the reduction step: slices
        of each rank's (strictly increasing) ``touched_rows``."""
        sino_bounds = self.sino_dec.bounds
        self._recv_local_ids = [
            [
                self.ranks[p].touched_rows[slice(*self.ranks[p].send_segments[q])]
                - sino_bounds[q]
                for p in range(self.num_ranks)
            ]
            for q in range(self.num_ranks)
        ]

    # -- protocol properties ---------------------------------------------

    @property
    def num_rays(self) -> int:
        return self.sino_dec.ordering.num_cells

    @property
    def num_pixels(self) -> int:
        return self.tomo_dec.ordering.num_cells

    # -- distributed passes -----------------------------------------------

    def forward_pieces(self, x_pieces: list[np.ndarray]) -> list[np.ndarray]:
        """Distributed forward projection on per-rank tomogram pieces."""
        # A_p: partial forward projections.
        partials = [
            self.ranks[p].partial_matrix.spmv(np.asarray(x_pieces[p], dtype=np.float32))
            for p in range(self.num_ranks)
        ]
        # C: sparse exchange of partial sinogram segments.
        send = [
            [
                partials[p][slice(*self.ranks[p].send_segments[q])].astype(
                    np.float32, copy=False
                )
                for q in range(self.num_ranks)
            ]
            for p in range(self.num_ranks)
        ]
        recv = self.comm.alltoallv(send)
        # R: overlapped reduction at the owners.
        y_pieces = []
        for q in range(self.num_ranks):
            y_q = np.zeros(self.sino_dec.rank_size(q), dtype=np.float64)
            for p in range(self.num_ranks):
                y_q[self._recv_local_ids[q][p]] += recv[q][p]
            y_pieces.append(y_q)
        return y_pieces

    def adjoint_pieces(self, y_pieces: list[np.ndarray]) -> list[np.ndarray]:
        """Distributed backprojection on per-rank sinogram pieces."""
        # R^T/C^T: owners duplicate their sinogram values to interactors.
        send = [
            [
                np.asarray(y_pieces[q], dtype=np.float32)[self._recv_local_ids[q][p]]
                for p in range(self.num_ranks)
            ]
            for q in range(self.num_ranks)
        ]
        recv = self.comm.alltoallv(send)
        # A_p^T: local backprojection onto owned tomogram columns.  Segments
        # arrive in ascending owner order = ascending touched-row order, so
        # concatenation realigns with A_p rows.
        return [
            self.ranks[p].partial_matrix.spmv_transposed(np.concatenate(recv[p]))
            for p in range(self.num_ranks)
        ]

    # -- graceful degradation ----------------------------------------------

    def degrade(self, dead_ranks) -> None:
        """Redistribute crashed ranks' subdomains to the survivors.

        On a flat topology the both-domain decomposition is rebuilt
        globally over ``num_ranks - len(dead_ranks)`` ranks (survivors
        renumber; by orbits on an orbit plan).  On a hierarchical
        topology each dead rank's curve ranges are absorbed by the
        nearest surviving rank of its own node group — keeping the
        redistribution on the intra-node fabric — with the nearest
        global neighbour as fallback when an entire node died; the
        shrunken :class:`Topology` preserves the survivors' node
        placement.  Either way the ranks are cut afresh and a fresh
        communicator inherits the fault injector so the chaos schedule
        keeps running.  Requires the plan (``A`` or its orbit form) —
        per-rank-only operators cannot re-shard the lost columns.
        """
        dead = sorted(set(int(r) for r in dead_ranks))
        survivors = self.num_ranks - len(dead)
        if survivors < 1:
            raise RankCrashError(dead)
        if self.matrix is None:
            raise RuntimeError(
                "cannot degrade: operator was built from per-rank data only; "
                "the plan is required to redistribute a dead rank"
            )
        with span("resilience.degrade", dead=dead, survivors=survivors):
            injector = self.comm.fault_injector
            if injector is not None:
                injector.consume_crashes()
                injector.record_recovery(len(dead))
            self.retired_logs.append(self.comm.log)
            record = {
                "dead": dead,
                "from_ranks": self.num_ranks,
                "to_ranks": survivors,
                "topology": self.topology.describe(),
            }
            if self.topology.is_flat:
                self.tomo_dec, self.sino_dec = decompose_both(
                    self.tomo_dec.ordering, self.sino_dec.ordering, survivors,
                    self.matrix.gather if isinstance(self.matrix, OrbitMatrix) else None,
                )
                self.topology = Topology.flat(survivors)
                self.comm = SimComm(survivors, fault_injector=injector)
            else:
                absorbed_by = self._absorption_targets(dead)
                record["absorbed_by"] = absorbed_by
                self.tomo_dec = _absorb_ranges(self.tomo_dec, absorbed_by)
                self.sino_dec = _absorb_ranges(self.sino_dec, absorbed_by)
                self.topology = self.topology.without_ranks(set(dead))
                self.comm = HierComm(self.topology, fault_injector=injector)
            self.degradations.append(record)
            self.num_ranks = survivors
            self.ranks = RankData.cut(self.matrix, self.tomo_dec, self.sino_dec.bounds)
            self._build_recv_ids()
        add_count(FAULT_RECOVERIES, len(dead))

    def _absorption_targets(self, dead: list[int]) -> dict[int, int]:
        """Surviving rank that inherits each dead rank's curve ranges.

        Prefers the nearest survivor inside the dead rank's node group
        (ties go left); node groups are contiguous rank runs, so the
        same-node nearest never skips a survivor and the absorbed
        ranges always merge into tile-aligned bounds.  When a whole
        node died, falls back to the globally nearest survivor.
        """
        dead_set = set(dead)
        alive = [r for r in range(self.num_ranks) if r not in dead_set]
        targets: dict[int, int] = {}
        for d in dead:
            group = self.topology.group(self.topology.node_of(d))
            candidates = [r for r in group if r not in dead_set] or alive
            targets[d] = min(candidates, key=lambda r: (abs(r - d), r))
        return targets

    def _absorbing_crashes(self, apply_pass):
        """Run a serial-facade pass, degrading past any rank crashes."""
        while True:
            try:
                return apply_pass()
            except RankCrashError as exc:
                self.degrade(exc.ranks)

    # -- serial facade (solver protocol) -----------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``y = A x`` with ordered-domain vectors."""
        x = np.asarray(x)

        def run():
            pieces = self.tomo_dec.scatter(x)
            return self.sino_dec.gather(self.forward_pieces(pieces))

        return self._absorbing_crashes(run)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """``x = A^T y`` with ordered-domain vectors."""
        y = np.asarray(y)

        def run():
            pieces = self.sino_dec.scatter(y)
            return self.tomo_dec.gather(self.adjoint_pieces(pieces))

        return self._absorbing_crashes(run)

    def row_sums(self) -> np.ndarray:
        # An orbit plan's sums are A's, bit for bit: Q sums a row in its
        # own column order, which differs in the last bit.  One rank's
        # rows are expanded at a time, once per rank data.
        if isinstance(self.matrix, OrbitMatrix):
            bounds = self.sino_dec.bounds
            for p, rank in enumerate(self.ranks):
                if rank._row_sums is None:
                    rows = self.matrix.partition_slice(bounds[p], bounds[p + 1], 1)
                    rank._row_sums = rows.expand().row_sums()
            return np.concatenate([rank._row_sums for rank in self.ranks])
        if self.matrix is not None:
            return self.matrix.row_sums()
        return self.forward(np.ones(self.num_pixels, dtype=np.float32))

    def col_sums(self) -> np.ndarray:
        # An orbit plan's own: on a float32 plan, the ranks' adjoint of ones.
        if self.matrix is not None:
            return self.matrix.col_sums()
        return self.adjoint(np.ones(self.num_rays, dtype=np.float32))

    # -- accounting ---------------------------------------------------------

    def communication_matrix(self) -> np.ndarray:
        """Forward-pass bytes between every rank pair (paper Fig. 7(c)).

        Entry ``[p, q]`` is what ``p`` sends to ``q`` during ``C``; the
        backprojection matrix is its transpose (paper Section 3.4.2).
        """
        volume = np.zeros((self.num_ranks, self.num_ranks), dtype=np.int64)
        for p in range(self.num_ranks):
            for q in range(self.num_ranks):
                lo, hi = self.ranks[p].send_segments[q]
                if p != q:
                    volume[p, q] = (hi - lo) * _VALUE_BYTES
        return volume

    def interaction_counts(self) -> np.ndarray:
        """Number of interacting partner ranks per rank."""
        volume = self.communication_matrix()
        return ((volume + volume.T) > 0).sum(axis=1)

    def per_rank_nnz(self) -> np.ndarray:
        """Nonzeros of each rank's ``A_p`` (compute load balance)."""
        return np.asarray([r.partial_matrix.nnz for r in self.ranks], dtype=np.int64)

    def reduction_elements(self) -> int:
        """Total elements summed by ``R`` in one forward pass."""
        return int(sum(r.touched_rows.shape[0] for r in self.ranks))

    def last_comm_log(self) -> CommLog:
        """Traffic log of the underlying communicator."""
        return self.comm.log

    def hier_log(self) -> HierLog | None:
        """Two-level traffic split (None on a flat communicator)."""
        return getattr(self.comm, "hier", None)


def _absorb_ranges(dec: Decomposition, absorbed_by: dict[int, int]) -> Decomposition:
    """Merge dead ranks' curve ranges into their absorbing survivors.

    Every dead rank maps to a survivor on the same side of any other
    survivor (nearest-neighbour assignment over contiguous groups), so
    each survivor inherits a contiguous run of ranks and the new
    bounds are a subset of the old tile-aligned cuts.  Orbit-closed
    ranks' ``cells`` merge whole, so the survivors' stay closed.
    """
    sizes = np.diff(dec.bounds)
    merged = sizes.astype(np.int64).copy()
    for d, t in absorbed_by.items():
        merged[t] += merged[d]
        merged[d] = 0
    survivor_sizes = np.asarray(
        [merged[r] for r in range(dec.num_ranks) if r not in absorbed_by],
        dtype=np.int64,
    )
    bounds = np.zeros(survivor_sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(survivor_sizes, out=bounds[1:])
    cells, owner = dec.cells, np.repeat(np.arange(survivor_sizes.shape[0]), survivor_sizes)
    if cells is not None:  # each survivor's cells ascending again
        cells = cells[np.lexsort((cells, owner))]
    return Decomposition(dec.ordering, survivor_sizes.shape[0], bounds, cells)
