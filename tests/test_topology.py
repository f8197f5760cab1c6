"""Two-level topology battery: grouping invariants, bit-exactness,
hierarchical accounting, degradation locality, and ambient chaos.

The load-bearing claim of :mod:`repro.topology` is that the
hierarchical communicator is an *accounting* layer, not a numerical
one: any workload run through :class:`HierComm` is bit-identical —
``np.array_equal``, not merely close — to the same workload on a flat
:class:`SimComm`, on every kernel layout, for single and batched
solves, and under ambient fault injection.  On top of that, the
two-level traffic split it records must be conservative: everything
that crosses the inter-node network appears in the flat log's
off-diagonal volume too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, reconstruct
from repro.core import OperatorConfig, preprocess
from repro.dist import DistributedOperator, SimComm, decompose_both
from repro.geometry import ParallelBeamGeometry
from repro.resilience import FaultConfig, FaultInjector
from repro.solvers import cgls, cgls_batch
from repro.topology import HierComm, HierLog, Topology, parse_topology

ITERATIONS = 12


# -- topology invariants -------------------------------------------------


class TestTopology:
    def test_flat_is_one_group(self):
        topo = Topology.flat(4)
        assert topo.groups == ((0, 1, 2, 3),)
        assert topo.is_flat and topo.num_nodes == 1 and topo.num_ranks == 4
        assert topo.describe() == "flat(4)"

    def test_hierarchical_shape(self):
        topo = Topology.hierarchical(2, 3)
        assert topo.groups == ((0, 1, 2), (3, 4, 5))
        assert not topo.is_flat
        assert topo.leader(0) == 0 and topo.leader(1) == 3
        assert topo.node_of(4) == 1
        assert topo.describe() == "nodes:2,ranks:3"

    def test_grouped_last_node_partial(self):
        topo = Topology.grouped(5, 2)
        assert topo.groups == ((0, 1), (2, 3), (4,))
        assert topo.ranks_per_node == 2
        assert topo.describe() == "nodes:3,ranks:2/2/1"

    @pytest.mark.parametrize(
        "groups",
        [
            (),  # no groups at all
            ((0, 1), ()),  # an empty node
            ((0, 2), (1, 3)),  # interleaved, not contiguous
            ((0, 1), (3, 4)),  # rank 2 missing
            ((0, 1), (1, 2)),  # rank 1 owned twice
        ],
    )
    def test_rejects_non_partitions(self, groups):
        with pytest.raises(ValueError):
            Topology(tuple(tuple(g) for g in groups))

    def test_without_ranks_keeps_locality(self):
        topo = Topology.hierarchical(2, 2)
        shrunk = topo.without_ranks({1})
        assert shrunk.groups == ((0,), (1, 2))  # survivors renumbered
        # A whole dead node disappears rather than leaving an empty group.
        assert Topology.hierarchical(2, 2).without_ranks({0, 1}).groups == ((0, 1),)
        with pytest.raises(ValueError, match="zero surviving"):
            topo.without_ranks({0, 1, 2, 3})

    @given(
        num_ranks=st.integers(1, 64),
        ranks_per_node=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouping_partitions_ranks_exactly(self, num_ranks, ranks_per_node):
        topo = Topology.grouped(num_ranks, ranks_per_node)
        flat = [r for group in topo.groups for r in group]
        assert flat == list(range(num_ranks))  # exact, ordered partition
        assert all(len(g) <= ranks_per_node for g in topo.groups)
        assert sum(len(g) for g in topo.groups[:-1]) % ranks_per_node == 0
        node_map = topo.node_map()
        for g, group in enumerate(topo.groups):
            assert topo.leader(g) == group[0]
            for r in group:
                assert topo.node_of(r) == g and node_map[r] == g

    @given(
        num_ranks=st.integers(2, 24),
        ranks_per_node=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_without_ranks_renumbers_survivors(self, num_ranks, ranks_per_node, data):
        topo = Topology.grouped(num_ranks, ranks_per_node)
        dead = data.draw(
            st.sets(st.integers(0, num_ranks - 1), min_size=1,
                    max_size=num_ranks - 1)
        )
        shrunk = topo.without_ranks(dead)
        assert shrunk.num_ranks == num_ranks - len(dead)
        flat = [r for group in shrunk.groups for r in group]
        assert flat == list(range(shrunk.num_ranks))
        # Survivors keep their relative order and their node grouping:
        # two survivors share a new node iff they shared an old one.
        survivors = [r for r in range(num_ranks) if r not in dead]
        old_node = {r: topo.node_of(r) for r in survivors}
        for i, r in enumerate(survivors):
            for j, s in enumerate(survivors):
                same_old = old_node[r] == old_node[s]
                same_new = shrunk.node_of(i) == shrunk.node_of(j)
                assert same_old == same_new


class TestParse:
    def test_parse_exact_and_grouped(self):
        assert parse_topology("nodes:2,ranks:2").groups == ((0, 1), (2, 3))
        assert parse_topology("nodes:2,ranks:2", num_ranks=4).num_nodes == 2
        # Machine-shaped spec on a different rank count: group by M.
        assert parse_topology("nodes:2,ranks:3", num_ranks=4).groups == (
            (0, 1, 2), (3,),
        )
        assert parse_topology("flat", num_ranks=3).is_flat
        # M >= P collapses to flat: there is no inter-node link to model.
        assert parse_topology("nodes:8,ranks:16", num_ranks=4).is_flat

    @pytest.mark.parametrize(
        "bad", ["nodes", "nodes:two", "nodes:0", "widgets:3", "nodes:-1", ","]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError, match="topology"):
            parse_topology(bad, num_ranks=4)

    def test_ambient_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
        assert Topology.ambient(4).is_flat
        monkeypatch.setenv("REPRO_TOPOLOGY", "nodes:2,ranks:2")
        assert Topology.ambient(4).groups == ((0, 1), (2, 3))
        assert Topology.ambient(1).is_flat  # a single rank is always flat
        monkeypatch.setenv("REPRO_TOPOLOGY", "ranks:64")
        assert Topology.ambient(4).is_flat  # whole job fits on one node

    @pytest.mark.parametrize("ranks", [1, 4, 6])
    @pytest.mark.parametrize("spec", ["flat", "nodes:2,ranks:2", "ranks:3"])
    def test_ambient_spec_reads_the_argument_grammar(self, spec, ranks, monkeypatch):
        """``REPRO_TOPOLOGY`` means what ``--topology`` and
        ``reconstruct(topology=)`` mean, ``flat`` included."""
        monkeypatch.setenv("REPRO_TOPOLOGY", spec)
        assert Topology.ambient(ranks) == parse_topology(spec, ranks)


# -- the distributed scenario --------------------------------------------


@pytest.fixture(scope="module", params=["csr", "buffered", "ell"])
def system(request):
    """One serial operator per kernel layout plus a consistent measurement."""
    geometry = ParallelBeamGeometry(24, 32)
    operator, _ = preprocess(
        geometry, config=OperatorConfig(kernel=request.param)
    )
    truth = np.random.default_rng(0).random(operator.num_pixels).astype(np.float32)
    y = operator.forward(truth)
    yield operator, y
    operator.close()


def _operator(serial, num_ranks, topology=None, faults=None):
    tomo_dec, sino_dec = decompose_both(
        serial.tomo_ordering, serial.sino_ordering, num_ranks
    )
    comm = None
    if faults is not None:
        injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        if topology is not None and not topology.is_flat:
            comm = HierComm(topology, fault_injector=injector)
        else:
            comm = SimComm(num_ranks, fault_injector=injector)
    return DistributedOperator(
        serial.matrix, tomo_dec, sino_dec, comm=comm, topology=topology
    )


# -- bit-exactness of the hierarchical path ------------------------------


class TestBitExact:
    """flat vs hierarchical: np.array_equal on every layout and pass."""

    def test_forward_and_adjoint(self, system):
        serial, y = system
        flat = _operator(serial, 4)
        hier = _operator(serial, 4, topology=Topology.hierarchical(2, 2))
        assert isinstance(hier.comm, HierComm)
        x = np.random.default_rng(1).random(serial.num_pixels).astype(np.float32)
        assert np.array_equal(hier.forward(x), flat.forward(x))
        assert np.array_equal(hier.adjoint(y), flat.adjoint(y))

    def test_full_solve(self, system):
        serial, y = system
        flat = cgls(_operator(serial, 4), y, num_iterations=ITERATIONS)
        hier = cgls(
            _operator(serial, 4, topology=Topology.hierarchical(2, 2)),
            y,
            num_iterations=ITERATIONS,
        )
        assert np.array_equal(hier.x, flat.x)
        assert hier.stop_reason == flat.stop_reason

    def test_batched_solve(self, system):
        serial, y = system
        rng = np.random.default_rng(2)
        Y = np.stack([y, y * 0.5 + rng.random(y.shape).astype(np.float32)], axis=1)
        flat = cgls_batch(_operator(serial, 4), Y, num_iterations=8)
        hier = cgls_batch(
            _operator(serial, 4, topology=Topology.hierarchical(2, 2)),
            Y,
            num_iterations=8,
        )
        assert np.array_equal(hier.X, flat.X)

    def test_ragged_topology(self, system):
        serial, y = system
        flat = _operator(serial, 4)
        hier = _operator(serial, 4, topology=Topology.grouped(4, 3))
        assert hier.topology.describe() == "nodes:2,ranks:3/1"
        assert np.array_equal(hier.adjoint(y), flat.adjoint(y))


# -- hierarchical accounting ---------------------------------------------


class TestHierAccounting:
    def test_inter_bytes_bounded_by_flat_cross_node_volume(self, system):
        serial, y = system
        topo = Topology.hierarchical(2, 2)
        op = _operator(serial, 4, topology=topo)
        cgls(op, y, num_iterations=ITERATIONS)
        hier = op.hier_log()
        assert isinstance(hier, HierLog)
        # Everything the leaders exchanged is flat off-node traffic:
        # aggregation can only merge messages, never invent bytes
        # (allreduce halving makes it strictly cheaper than the ring).
        volume = op.comm.log.volume_bytes
        node_of = topo.node_map()
        cross = sum(
            int(volume[p, q])
            for p in range(4)
            for q in range(4)
            if p != q and node_of[p] != node_of[q]
        )
        assert 0 < hier.inter_bytes() <= cross
        # Aggregation sends at most one message per interacting node
        # pair per collective — strictly fewer than the flat rank-pair
        # messages it replaces.
        counts = op.comm.log.message_counts
        cross_messages = sum(
            int(counts[p, q])
            for p in range(4)
            for q in range(4)
            if p != q and node_of[p] != node_of[q]
        )
        assert 0 < hier.inter_messages < cross_messages
        assert hier.intra_bytes > 0 and hier.intra_messages > 0
        assert hier.collective_calls == op.comm.log.collective_calls

    def test_counters_and_spans_emitted(self, system):
        serial, y = system
        op = _operator(serial, 4, topology=Topology.hierarchical(2, 2))
        with obs.capture() as cap:
            cgls(op, y, num_iterations=4)
        hier = op.hier_log()
        assert cap.total(obs.COMM_INTRA_BYTES) == hier.intra_bytes
        assert cap.total(obs.COMM_INTER_BYTES) == hier.inter_bytes()
        assert cap.total(obs.COMM_INTRA_MESSAGES) == hier.intra_messages
        assert cap.total(obs.COMM_INTER_MESSAGES) == hier.inter_messages
        assert cap.span_names().count("comm.intra_exchange") > 0
        assert cap.span_names().count("comm.inter_exchange") > 0
        # The flat log (and COMM_BYTES) is untouched by the hierarchy.
        assert cap.total(obs.COMM_BYTES) == op.comm.log.off_diagonal_volume()

    def test_single_node_topology_has_no_inter_traffic(self, system):
        serial, y = system
        op = _operator(serial, 2, topology=Topology.grouped(2, 2))
        assert op.topology.is_flat  # 2 ranks on a 2-rank node
        assert op.hier_log() is None  # plain SimComm, no hier layer


# -- chaos on the hierarchical path --------------------------------------


class TestHierChaos:
    @pytest.mark.parametrize("spec", ["drop=0.08,seed=1", "drop=0.05,corrupt=0.02,seed=7"])
    def test_faults_heal_bit_exactly(self, system, spec):
        serial, y = system
        clean = cgls(
            _operator(serial, 4, topology=Topology.hierarchical(2, 2)),
            y,
            num_iterations=ITERATIONS,
        )
        chaotic = cgls(
            _operator(
                serial, 4,
                topology=Topology.hierarchical(2, 2),
                faults=FaultConfig.parse(spec),
            ),
            y,
            num_iterations=ITERATIONS,
        )
        assert np.array_equal(chaotic.x, clean.x)

    def test_hier_log_meters_logical_traffic_only(self, system):
        serial, y = system
        topo = Topology.hierarchical(2, 2)
        clean_op = _operator(serial, 4, topology=topo)
        cgls(clean_op, y, num_iterations=ITERATIONS)
        chaos_op = _operator(
            serial, 4, topology=topo,
            faults=FaultConfig(drop=0.05, corrupt=0.02, seed=7),
        )
        cgls(chaos_op, y, num_iterations=ITERATIONS)
        assert chaos_op.hier_log().inter_bytes() == clean_op.hier_log().inter_bytes()
        assert chaos_op.hier_log().intra_bytes == clean_op.hier_log().intra_bytes

    def test_ambient_env_chaos_on_ambient_topology(self, monkeypatch):
        """CI contract: REPRO_TOPOLOGY + REPRO_FAULTS on an unmodified
        reconstruct() changes nothing observable in the image."""
        geometry = ParallelBeamGeometry(24, 32)
        operator, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
        rng = np.random.default_rng(4)
        truth = rng.random(operator.num_pixels).astype(np.float32)
        sinogram = operator.ordered_to_sinogram(
            np.asarray(operator.forward(truth), dtype=np.float64)
        )
        clean = reconstruct(
            sinogram, geometry, operator=operator,
            solver="cg", iterations=8, num_ranks=4,
        )
        assert clean.extra["topology"] == "flat(4)"
        monkeypatch.setenv("REPRO_TOPOLOGY", "nodes:2,ranks:2")
        monkeypatch.setenv("REPRO_FAULTS", "drop=0.03,corrupt=0.01")
        monkeypatch.setenv("REPRO_FAULT_SEED", "20190817")
        chaotic = reconstruct(
            sinogram, geometry, operator=operator,
            solver="cg", iterations=8, num_ranks=4,
        )
        assert np.array_equal(chaotic.image, clean.image)
        assert chaotic.extra["topology"] == "nodes:2,ranks:2"
        assert chaotic.extra["hier_comm"]["inter_bytes"] > 0
        operator.close()

    def test_ambient_faults_are_reported(self, monkeypatch):
        """The fault stats of a solve are its communicator's, whether the
        injector was passed in or read from ``REPRO_FAULTS``."""
        from repro.phantoms import shepp_logan

        spec = "drop=0.2,corrupt=0.1,seed=3"
        geometry = ParallelBeamGeometry(24, 16)
        operator, _ = preprocess(geometry)
        sinogram = operator.project_image(shepp_logan(16))
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        explicit = reconstruct(
            sinogram, geometry, operator=operator, num_ranks=2, iterations=3, faults=spec
        )
        monkeypatch.setenv("REPRO_FAULTS", spec)
        ambient = reconstruct(sinogram, geometry, operator=operator, num_ranks=2, iterations=3)
        assert explicit.extra["fault_stats"]["drops"] > 0
        assert ambient.extra["fault_stats"] == explicit.extra["fault_stats"]
        assert np.array_equal(ambient.image, explicit.image)
        operator.close()


# -- crash degradation on the hierarchical path --------------------------


class TestHierDegradation:
    def test_crash_absorbed_within_node_group(self, system):
        serial, y = system
        reference = cgls(_operator(serial, 4), y, num_iterations=ITERATIONS)
        injector = FaultInjector(FaultConfig(crashes=((5, 1),), seed=3))
        op = _operator(
            serial, 4, topology=Topology.hierarchical(2, 2), faults=injector
        )
        result = cgls(op, y, num_iterations=ITERATIONS)
        assert op.num_ranks == 3
        record = op.degradations[0]
        assert record["dead"] == [1]
        assert record["topology"] == "nodes:2,ranks:2"
        # Rank 1's work stays on its node: absorbed by rank 0, not 2/3.
        assert record["absorbed_by"] == {1: 0}
        # The shrunken communicator keeps the node structure.
        assert op.topology.groups == ((0,), (1, 2))
        assert isinstance(op.comm, HierComm)
        scale = float(np.max(np.abs(reference.x)))
        assert np.max(np.abs(result.x - reference.x)) <= 1e-5 * scale

    def test_whole_node_death_falls_back_globally(self, system):
        serial, y = system
        reference = cgls(_operator(serial, 4), y, num_iterations=ITERATIONS)
        injector = FaultInjector(
            FaultConfig(crashes=((4, 2), (5, 2)), seed=9)
        )
        op = _operator(
            serial, 4, topology=Topology.hierarchical(2, 2), faults=injector
        )
        result = cgls(op, y, num_iterations=ITERATIONS)
        # Node 1 (ranks 2,3) died entirely across two degradations; the
        # survivors are node 0's ranks and the solve still converges.
        assert op.num_ranks == 2
        assert op.topology.groups == ((0, 1),)
        scale = float(np.max(np.abs(reference.x)))
        assert np.max(np.abs(result.x - reference.x)) <= 1e-5 * scale
