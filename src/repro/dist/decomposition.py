"""Both-domain decomposition over MPI ranks (paper Section 3.4, Fig. 4b).

Traditional distributed XCT partitions one domain and duplicates the
other; MemXCT partitions *both* the tomogram and the sinogram.  Each
rank owns one contiguous range of the two-level pseudo-Hilbert curve in
each domain — whole tiles, so subdomains are connected 2D regions.
Tile granularity controls load balance ("it can be improved by finer
tile granularity at the cost of more preprocessing").

An orbit plan's ranks own whole orbits of the pixel maps instead, so
a rank's columns of ``Q`` are its columns of ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ordering import DomainOrdering

__all__ = ["Decomposition", "decompose_domain", "decompose_both"]


@dataclass(frozen=True)
class Decomposition:
    """Ownership of one domain's cells by ``num_ranks``.

    ``cells`` lists the ordered positions rank-major (``None``: the
    identity, a contiguous cut); ``bounds`` has ``num_ranks + 1``
    entries, and rank ``p`` owns ``cells[bounds[p]:bounds[p + 1]]``.
    """

    ordering: DomainOrdering
    num_ranks: int
    bounds: np.ndarray
    cells: np.ndarray | None = None

    def rank_cells(self, rank: int) -> np.ndarray:
        """Ordered positions owned by ``rank``, ascending."""
        lo, hi = self.bounds[rank], self.bounds[rank + 1]
        return np.arange(lo, hi) if self.cells is None else self.cells[lo:hi]

    def owner_of(self, positions: np.ndarray) -> np.ndarray:
        """Rank owning each ordered position (vectorized)."""
        positions = np.asarray(positions)
        if self.cells is not None:  # each position's rank-major slot
            positions = np.argsort(self.cells)[positions]
        return np.searchsorted(self.bounds, positions, side="right") - 1

    def orbit_closed(self, orbits: np.ndarray) -> bool:
        """Whether every rank owns each image ``orbits[c]`` of its cells ``c``."""
        owner = self.owner_of(np.arange(self.ordering.num_cells))
        return bool((owner[orbits] == owner[:, None]).all())

    def rank_size(self, rank: int) -> int:
        """Number of cells owned by ``rank``."""
        return int(self.bounds[rank + 1] - self.bounds[rank])

    def load_imbalance(self) -> float:
        """``max / mean`` cells per rank (1.0 = perfect balance)."""
        sizes = np.diff(self.bounds).astype(np.float64)
        mean = sizes.mean()
        return float(sizes.max() / mean) if mean > 0 else 1.0

    def scatter(self, ordered: np.ndarray) -> list[np.ndarray]:
        """Split an ordered-domain vector into per-rank pieces."""
        ordered = np.asarray(ordered)
        ordered = ordered if self.cells is None else ordered[self.cells]
        return [ordered[lo:hi] for lo, hi in zip(self.bounds[:-1], self.bounds[1:])]

    def gather(self, pieces: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank pieces into one ordered-domain vector."""
        if len(pieces) != self.num_ranks:
            raise ValueError(f"expected {self.num_ranks} pieces, got {len(pieces)}")
        joined = np.concatenate([np.asarray(p) for p in pieces])
        if self.cells is not None:
            joined[self.cells] = joined.copy()
        return joined


def decompose_domain(ordering: DomainOrdering, num_ranks: int) -> Decomposition:
    """Assign contiguous curve ranges of one domain to ranks.

    For a two-level (pseudo-Hilbert) ordering, cuts are placed on tile
    boundaries — each subdomain is "a single or several tiles" exactly
    as in paper Fig. 4(b).  For tile-less orderings the cells are split
    evenly (used by comparison baselines).
    """
    if num_ranks <= 0:
        raise ValueError(f"rank count must be positive, got {num_ranks}")
    n = ordering.num_cells
    if ordering.two_level is not None and ordering.two_level.num_tiles >= num_ranks:
        tile_displ = ordering.two_level.tile_displ
        # Greedy: advance each cut to the tile boundary nearest the
        # ideal even split.
        bounds = np.zeros(num_ranks + 1, dtype=np.int64)
        bounds[-1] = n
        for p in range(1, num_ranks):
            target = round(p * n / num_ranks)
            idx = np.searchsorted(tile_displ, target)
            lo = tile_displ[max(idx - 1, 0)]
            hi = tile_displ[min(idx, len(tile_displ) - 1)]
            bounds[p] = lo if target - lo <= hi - target else hi
        bounds = np.maximum.accumulate(bounds)
    else:
        bounds = np.round(np.linspace(0, n, num_ranks + 1)).astype(np.int64)
    return Decomposition(ordering=ordering, num_ranks=num_ranks, bounds=bounds)


def decompose_orbits(
    ordering: DomainOrdering, num_ranks: int, orbits: np.ndarray
) -> Decomposition:
    """Assign whole orbits of ``orbits`` (``(cells, slots)``: where each
    pixel map sends a cell) to ranks, so every rank's set is closed under
    every map.  An orbit's representative is its smallest position; each
    rank takes one contiguous run of representatives, runs balanced by cells.
    """
    if num_ranks <= 0:
        raise ValueError(f"rank count must be positive, got {num_ranks}")
    n = ordering.num_cells
    rep = np.asarray(orbits).min(axis=1)
    size = np.bincount(rep, minlength=n)  # an orbit's cells, at its representative
    owner = ((np.cumsum(size) - size) * num_ranks // max(n, 1))[rep]
    bounds = np.zeros(num_ranks + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=num_ranks), out=bounds[1:])
    cells = np.argsort(owner, kind="stable")
    return Decomposition(ordering=ordering, num_ranks=num_ranks, bounds=bounds, cells=cells)


def decompose_both(
    tomo_ordering: DomainOrdering,
    sino_ordering: DomainOrdering,
    num_ranks: int,
    orbits: np.ndarray | None = None,
) -> tuple[Decomposition, Decomposition]:
    """Decompose both domains over the same ranks; the tomogram by whole
    orbits when an orbit plan's ``gather`` is given as ``orbits``."""
    return (
        decompose_domain(tomo_ordering, num_ranks)
        if orbits is None
        else decompose_orbits(tomo_ordering, num_ranks, orbits),
        decompose_domain(sino_ordering, num_ranks),
    )
