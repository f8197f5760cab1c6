"""Two-level rank topology for the simulated distributed substrate.

MemXCT's original runs are flat: every MPI rank talks to every other
rank over the same network link.  Petascale XCT (arXiv 2009.07226)
extends the design to multi-GPU nodes where the communicator is
*hierarchical*: the M ranks sharing a node first reduce/gather over
the fast intra-node fabric (NVLink / shared memory), then one leader
per node exchanges the aggregated payload over the slower inter-node
network.  :class:`Topology` is the static description of that
grouping — which ranks live on which node — consumed by
:class:`~repro.topology.HierComm`, the partitioned operator's
degradation policy, and the α–β cost model.

A topology partitions ranks ``0..P-1`` into contiguous node groups.
Contiguity matters: the both-domain decomposition assigns each rank a
contiguous pseudo-Hilbert range, so contiguous rank groups map to
spatially compact super-domains per node — exactly the property the
paper's hierarchical exchange exploits (neighbouring subdomains share
most of their communication partners).

Ambient configuration follows the house pattern (``REPRO_FAULTS``,
``REPRO_WORKERS``, ``REPRO_DTYPE``): setting ``REPRO_TOPOLOGY`` to
e.g. ``nodes:2,ranks:2`` makes every default-constructed communicator
hierarchical, so unmodified test suites can run on the two-level path
in CI.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = ["Topology", "parse_topology", "TOPOLOGY_ENV"]

#: Environment variable supplying an ambient topology spec.
TOPOLOGY_ENV = "REPRO_TOPOLOGY"


@dataclass(frozen=True)
class Topology:
    """Partition of ranks ``0..P-1`` into contiguous node groups.

    ``groups[g]`` is the tuple of global ranks placed on node ``g``.
    A *flat* topology has one single group holding every rank (one
    "node", no inter-node links — equivalently the classic flat
    communicator where every pair shares one link class).
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("topology needs at least one node group")
        flat: list[int] = []
        for group in self.groups:
            if not group:
                raise ValueError("topology node groups must be non-empty")
            flat.extend(group)
        expected = list(range(len(flat)))
        if sorted(flat) != expected:
            raise ValueError(
                f"topology groups must partition ranks 0..{len(flat) - 1} "
                f"exactly, got {self.groups}"
            )
        if flat != sorted(flat):
            raise ValueError(
                "topology node groups must be contiguous ascending rank "
                f"runs, got {self.groups}"
            )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def flat(num_ranks: int) -> "Topology":
        """All ranks on one node: the classic flat communicator."""
        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        return Topology((tuple(range(num_ranks)),))

    @staticmethod
    def hierarchical(num_nodes: int, ranks_per_node: int) -> "Topology":
        """``num_nodes`` nodes of ``ranks_per_node`` ranks each."""
        if num_nodes <= 0 or ranks_per_node <= 0:
            raise ValueError(
                "num_nodes and ranks_per_node must be positive, got "
                f"{num_nodes} x {ranks_per_node}"
            )
        return Topology(
            tuple(
                tuple(range(g * ranks_per_node, (g + 1) * ranks_per_node))
                for g in range(num_nodes)
            )
        )

    @staticmethod
    def grouped(num_ranks: int, ranks_per_node: int) -> "Topology":
        """Group ``num_ranks`` into nodes of ``ranks_per_node`` (last may
        be partial) — how an ambient spec applies to an arbitrary P."""
        if num_ranks <= 0 or ranks_per_node <= 0:
            raise ValueError(
                "num_ranks and ranks_per_node must be positive, got "
                f"{num_ranks} / {ranks_per_node}"
            )
        num_nodes = math.ceil(num_ranks / ranks_per_node)
        return Topology(
            tuple(
                tuple(range(g * ranks_per_node, min((g + 1) * ranks_per_node, num_ranks)))
                for g in range(num_nodes)
            )
        )

    @staticmethod
    def ambient(num_ranks: int) -> "Topology":
        """Topology for ``num_ranks`` honouring ``REPRO_TOPOLOGY``: its
        spec read by :func:`parse_topology`, the grammar of
        ``--topology``; flat without the env var or for a single rank.
        """
        spec = os.environ.get(TOPOLOGY_ENV, "").strip()
        if num_ranks <= 1:
            return Topology.flat(num_ranks)
        return parse_topology(spec or "flat", num_ranks)

    # -- queries --------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def num_nodes(self) -> int:
        return len(self.groups)

    @property
    def is_flat(self) -> bool:
        """True when there is no inter-node link to model."""
        return len(self.groups) == 1

    @property
    def ranks_per_node(self) -> int:
        """Largest node group (uniform size for regular topologies)."""
        return max(len(g) for g in self.groups)

    def node_of(self, rank: int) -> int:
        """Node group index owning ``rank``."""
        for g, group in enumerate(self.groups):
            if group[0] <= rank <= group[-1]:
                return g
        raise ValueError(f"rank {rank} not in topology of {self.num_ranks} ranks")

    def group(self, node: int) -> tuple[int, ...]:
        return self.groups[node]

    def leader(self, node: int) -> int:
        """The rank that stages this node's inter-node traffic."""
        return self.groups[node][0]

    def node_map(self) -> list[int]:
        """``node_map()[rank]`` = node index of each rank."""
        owners = [0] * self.num_ranks
        for g, group in enumerate(self.groups):
            for r in group:
                owners[r] = g
        return owners

    def without_ranks(self, dead: set[int] | frozenset[int]) -> "Topology":
        """Topology over the survivors, renumbered ``0..P'-1``.

        Node groups keep their surviving members; groups whose every
        rank died disappear.  Used when rank crashes degrade the
        communicator: the shrunken topology preserves node locality for
        the survivors.
        """
        survivors = [r for r in range(self.num_ranks) if r not in dead]
        if not survivors:
            raise ValueError("cannot build a topology with zero surviving ranks")
        renumber = {r: i for i, r in enumerate(survivors)}
        groups = []
        for group in self.groups:
            alive = tuple(renumber[r] for r in group if r not in dead)
            if alive:
                groups.append(alive)
        return Topology(tuple(groups))

    def describe(self) -> str:
        if self.is_flat:
            return f"flat({self.num_ranks})"
        sizes = [len(g) for g in self.groups]
        if len(set(sizes)) == 1:
            return f"nodes:{self.num_nodes},ranks:{sizes[0]}"
        return f"nodes:{self.num_nodes},ranks:{'/'.join(str(s) for s in sizes)}"


def _parse_spec(spec: str) -> tuple[int, int]:
    """``"nodes:N,ranks:M"`` -> ``(N, M)`` (either key optional)."""
    nodes = ranks = None
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(
                f"bad topology spec {spec!r}: expected nodes:N,ranks:M"
            )
        key, _, value = part.partition(":")
        key = key.strip().lower()
        try:
            parsed = int(value)
        except ValueError:
            raise ValueError(
                f"bad topology spec {spec!r}: {value!r} is not an integer"
            ) from None
        if parsed <= 0:
            raise ValueError(f"bad topology spec {spec!r}: counts must be positive")
        if key in ("nodes", "n"):
            nodes = parsed
        elif key in ("ranks", "m", "ranks_per_node"):
            ranks = parsed
        else:
            raise ValueError(f"bad topology spec {spec!r}: unknown key {key!r}")
    if nodes is None and ranks is None:
        raise ValueError(f"bad topology spec {spec!r}: expected nodes:N,ranks:M")
    return nodes or 1, ranks or 1


def parse_topology(spec: str, num_ranks: int | None = None) -> Topology:
    """Parse ``nodes:N,ranks:M`` (or ``flat``) into a :class:`Topology`.

    With ``num_ranks`` given, the spec is validated against it: an
    exact ``N*M == num_ranks`` grouping uses N nodes of M; otherwise
    ranks are grouped M per node (the CLI accepts a machine-shaped
    spec for any ``--ranks``).
    """
    spec = spec.strip()
    if spec.lower() in ("flat", ""):
        if num_ranks is None:
            raise ValueError("flat topology needs a rank count")
        return Topology.flat(num_ranks)
    nodes, ranks_per_node = _parse_spec(spec)
    if num_ranks is None:
        return Topology.hierarchical(nodes, ranks_per_node)
    if ranks_per_node >= num_ranks:
        return Topology.flat(num_ranks)
    return Topology.grouped(num_ranks, ranks_per_node)
