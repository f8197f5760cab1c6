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
tomogram side because column ownership is disjoint.  Both passes are
pure gather/reduce; there are no scatter races anywhere.

The wire carries float32: on a float32 plan the adjoint is the serial
kernel's bit for bit, and the forward equals it up to the wire's
rounding of the partial sums (tests hold it to ``rtol=1e-4``).  On an
orbit plan each rank owns whole orbits of the pixel maps and runs
``Q``'s 8-column kernels over its own columns of ``Q``.

Graceful degradation: when the (fault-injected) communicator reports a
rank crash, the serial-facade passes redistribute the dead rank's
tomogram columns and sinogram rows to the survivors, attach a fresh
communicator (same fault injector, same RNG stream), and re-execute
the pass.  On a flat topology the both-domain decomposition is rebuilt
globally over the surviving rank count; on a hierarchical topology
(``topology=`` / ambient ``REPRO_TOPOLOGY``) each crashed rank's curve
ranges are absorbed by the nearest surviving rank **of its own node
group first** — redistribution stays on the intra-node fabric and the
shrunken topology keeps node locality — falling back to the nearest
global neighbour only when a whole node died.  The solve continues;
only the partitioning changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import FAULT_RECOVERIES, add_count, span
from ..resilience.faults import RankCrashError
from ..sparse import CSRMatrix, OrbitMatrix, scan_transpose
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
        its local tomogram cells.  On a plan of ``A``, the scan
        transpose of ``partial_transpose``; on an orbit plan, an
        :class:`~repro.sparse.OrbitMatrix` over the rank's columns of
        ``Q``, which runs both directions.
    partial_transpose:
        ``A_p^T`` on a plan of ``A`` — the cut of ``A^T``'s rows
        ``[c0, c1)``, its columns renumbered onto ``touched_rows``;
        backprojection runs on it.  ``None`` on an orbit plan.
    touched_rows:
        Sorted global sinogram positions with at least one nonzero in
        this rank's tomogram columns.
    send_segments:
        ``send_segments[q] = (lo, hi)`` slice of ``touched_rows`` owned
        by rank ``q`` (contiguous because ownership ranges are
        contiguous in curve order).
    """

    partial_matrix: CSRMatrix | OrbitMatrix
    partial_transpose: CSRMatrix | None
    touched_rows: np.ndarray
    send_segments: list[tuple[int, int]]
    # The sums of A's rows this rank owns in the sinogram decomposition,
    # filled by an orbit plan's DistributedOperator.row_sums(): they live
    # as long as the rank data, so a memoized cut reuses them.
    _row_sums: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_transpose_rows(
        cls, transpose: CSRMatrix, c0: int, c1: int, sino_bounds: np.ndarray
    ) -> "RankData":
        """The rank owning tomogram cells ``[c0, c1)``, cut from ``A^T``.

        Rows ``[c0, c1)`` of the ordered transpose *are* ``A_p^T`` with
        global sinogram positions for columns, already in scan order:
        the touched rows are the block's distinct columns,
        ``partial_transpose`` is the block with its columns renumbered
        onto them (a view of the values, a block-sized copy of the
        indices) and ``A_p`` is its scan transpose.  Rank blocks hold
        float32 values whatever the source stores — the wire does too.
        """
        lo, hi = transpose.displ[c0], transpose.displ[c1]
        ind = transpose.ind[lo:hi]
        hit = np.zeros(transpose.num_cols, dtype=bool)
        hit[ind] = True
        touched = np.flatnonzero(hit)
        local = np.empty(transpose.num_cols, dtype=np.int32)
        local[touched] = np.arange(touched.shape[0], dtype=np.int32)
        partial_transpose = CSRMatrix(
            displ=transpose.displ[c0 : c1 + 1] - lo,
            ind=local[ind],
            val=transpose.val[lo:hi],
            num_cols=touched.shape[0],
        )
        cuts = np.searchsorted(touched, sino_bounds)
        return cls(
            partial_matrix=scan_transpose(partial_transpose),
            partial_transpose=partial_transpose,
            touched_rows=touched,
            send_segments=[(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])],
        )

    @classmethod
    def from_orbit_cells(
        cls, plan: OrbitMatrix, cells: np.ndarray, sino_bounds: np.ndarray
    ) -> "RankData":
        """The rank owning the orbit-closed ordered ``cells`` (ascending):
        ``Q``'s rows that meet them, columns renumbered onto them (float32
        values), each touched ray's ``(row, slot)`` there, and the cells'
        maps, which closure makes permutations of the cells."""
        stored = plan.stored
        local = np.full(stored.num_cols, -1, np.int32)
        local[cells] = np.arange(cells.shape[0])
        col = local[stored.ind]
        hit = col >= 0
        kept = np.zeros(stored.nnz + 1, np.int64)  # hits before each nonzero
        np.cumsum(hit, out=kept[1:])
        rows = np.flatnonzero(np.diff(kept[stored.displ]))
        q_p = CSRMatrix(
            displ=np.append(kept[stored.displ[rows]], kept[-1]),
            ind=col[hit],
            val=stored.val[hit],
            num_cols=cells.shape[0],
        )
        at = np.full(stored.num_rows, -1, np.int64)
        at[rows] = np.arange(rows.shape[0])
        row = at[plan.out // plan.slots]  # each ray's row of Q_p, or -1
        touched = np.flatnonzero(row >= 0)
        out = row[touched] * plan.slots + plan.out[touched] % plan.slots
        cuts = np.searchsorted(touched, sino_bounds)
        segments = [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]
        return cls(OrbitMatrix(q_p, local[plan.gather[cells]], out), None, touched, segments)


class DistributedOperator:
    """MemXCT's distributed forward/backprojection over a SimComm.

    Vectors are in *ordered* coordinates: ``x`` along the tomogram
    curve, ``y`` along the sinogram curve.  The serial-API methods
    (:meth:`forward` / :meth:`adjoint`) scatter, execute all ranks, and
    gather, so the operator plugs directly into the solvers.

    ``matrix`` is the plan the ranks are cut from: ``A`` itself, cut
    by rows of ``A^T``, or an orbit plan
    (:class:`~repro.sparse.OrbitMatrix`) on an orbit-closed tomogram
    decomposition, cut by columns of ``Q`` with no ``A`` or ``A^T``.
    """

    def __init__(
        self,
        matrix: CSRMatrix | OrbitMatrix | None,
        tomo_dec: Decomposition,
        sino_dec: Decomposition,
        comm: SimComm | None = None,
        rank_data: list[RankData] | None = None,
        topology: Topology | None = None,
        transpose: CSRMatrix | None = None,
    ):
        if tomo_dec.num_ranks != sino_dec.num_ranks:
            raise ValueError("tomogram and sinogram decompositions must agree on ranks")
        if matrix is not None:
            if matrix.num_rows != sino_dec.ordering.num_cells:
                raise ValueError("matrix rows must match the sinogram domain")
            if matrix.num_cols != tomo_dec.ordering.num_cells:
                raise ValueError("matrix columns must match the tomogram domain")
            if transpose is not None and transpose.shape != matrix.shape[::-1]:
                raise ValueError("transpose must have the matrix's shape, transposed")
            orbit = isinstance(matrix, OrbitMatrix)
            if not (tomo_dec.orbit_closed(matrix.gather) if orbit else tomo_dec.cells is None):
                raise ValueError("an orbit plan needs an orbit-closed tomogram "
                                 "decomposition, a plan of A a contiguous one")
        elif rank_data is None:
            raise ValueError("either a global matrix or per-rank data is required")
        self.matrix = matrix
        # The scan transpose of ``matrix`` the caller already holds (an
        # operator's); without one the first build of a plan of ``A``
        # derives it, once.  An orbit plan's build reads none.
        self.transpose = transpose
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
        if rank_data is not None:
            self._check_rank_data(rank_data)
            self.ranks = rank_data
        else:
            self._build()
        self._build_recv_ids()

    # -- preprocessing --------------------------------------------------

    def _check_rank_data(self, rank_data: list[RankData]) -> None:
        """Refuse supplied rank data cut for other decompositions.

        O(P) shape checks: a stale memo or a hand-made list that does
        not fit would otherwise solve a different system silently.
        """
        if len(rank_data) != self.num_ranks:
            raise ValueError(
                f"expected {self.num_ranks} rank-data entries, got {len(rank_data)}"
            )
        num_rays = int(self.sino_dec.bounds[-1])
        for p, rank in enumerate(rank_data):
            touched = rank.touched_rows.shape[0]
            ends = [0] + [hi for _, hi in rank.send_segments]
            size, transpose = self.tomo_dec.rank_size(p), rank.partial_transpose
            for fits, what in (
                (rank.partial_matrix.num_cols == size
                 and (transpose is None or transpose.num_rows == size),
                 "partial_transpose rows and partial_matrix columns must be "
                 "the rank's tomogram cells"),
                (transpose is None or rank.partial_matrix.shape == transpose.shape[::-1],
                 "partial_matrix must be partial_transpose's shape, transposed"),
                (rank.partial_matrix.num_rows == touched,
                 "partial_matrix must have one row per touched row"),
                (len(rank.send_segments) == self.num_ranks
                 and [lo for lo, _ in rank.send_segments] == ends[:-1]
                 and ends[-1] == touched,
                 "send_segments must tile touched_rows, one segment per rank"),
                (touched == 0 or rank.touched_rows[-1] < num_rays,
                 "touched_rows must lie inside the sinogram domain"),
            ):
                if not fits:
                    raise ValueError(f"rank {p}: {what}")

    def _build(self) -> None:
        """Cut every rank's data: on an orbit plan its columns of ``Q``,
        else its block of the transpose (views + one block-sized index
        copy each; no copy of the global matrix)."""
        sino_bounds = self.sino_dec.bounds
        if isinstance(self.matrix, OrbitMatrix):
            self.ranks = [
                RankData.from_orbit_cells(self.matrix, self.tomo_dec.rank_cells(p), sino_bounds)
                for p in range(self.num_ranks)
            ]
            return
        if self.transpose is None:
            self.transpose = scan_transpose(self.matrix)
        bounds = self.tomo_dec.bounds
        self.ranks = [
            RankData.from_transpose_rows(self.transpose, bounds[p], bounds[p + 1], sino_bounds)
            for p in range(self.num_ranks)
        ]

    def _build_recv_ids(self) -> None:
        """Receiver-side local row ids for the reduction step.

        Each id list is a slice of a rank's ``touched_rows``, which must
        be strictly increasing: the owner-side reduction adds a segment
        with one fancy-indexed ``+=``, which counts a repeated id once.
        """
        for p, rank in enumerate(self.ranks):
            if (np.diff(rank.touched_rows) <= 0).any():
                raise ValueError(
                    f"rank {p}: touched_rows must be sorted and unique"
                )
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
        # A_p^T: local backprojection onto owned tomogram columns.
        x_pieces = []
        for p in range(self.num_ranks):
            # Segments arrive in ascending owner order = ascending
            # touched-row order, so concatenation realigns with A_p rows.
            y_sub = np.concatenate(
                [recv[p][q] for q in range(self.num_ranks)]
                or [np.empty(0, dtype=np.float32)]
            )
            rank = self.ranks[p]  # an orbit rank's A_p runs both directions
            x_pieces.append(rank.partial_matrix.spmv_transposed(y_sub)
                            if rank.partial_transpose is None
                            else rank.partial_transpose.spmv(y_sub))
        return x_pieces

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
        placement.  Either way ``A_p``/``A_p^T`` and
        the exchange segments are re-partitioned and a fresh
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
            self._build()
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
