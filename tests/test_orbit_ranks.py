"""Orbit-closed ranks: properties of the orbit decomposition and of the
distributed operator that runs each rank's columns of ``Q``.

Every rank's cells must be closed under every pixel map of the ray
group (so its columns of ``Q`` are its columns of ``A``), before and
after a crash's ``degrade()``; the distributed adjoint is the serial
plan's bit for bit, and the forward equals it up to the float32 wire.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OperatorConfig, preprocess
from repro.dist import DistributedOperator, decompose_both
from repro.geometry import ParallelBeamGeometry
from repro.sparse import OrbitMatrix
from repro.topology import Topology

SHAPES = [(24, 32), (24, 31), (36, 23), (36, 24)]


@pytest.fixture(scope="module")
def operators():
    """One preprocessed orbit-plan operator per shape, shared by every example."""
    built = {}
    for shape in SHAPES + [(8, 4)]:
        built[shape], _ = preprocess(
            ParallelBeamGeometry(*shape), config=OperatorConfig(kernel="csr"), cache=None
        )
        assert isinstance(built[shape].plan, OrbitMatrix)
    return built


def _decompose(operator, ranks):
    return decompose_both(
        operator.tomo_ordering, operator.sino_ordering, ranks, operator.plan.gather
    )


def _assert_closed_partition(dec, gather):
    owned = np.concatenate([dec.rank_cells(p) for p in range(dec.num_ranks)])
    assert np.array_equal(np.sort(owned), np.arange(gather.shape[0]))
    assert dec.bounds[0] == 0 and dec.bounds[-1] == gather.shape[0]
    for p in range(dec.num_ranks):
        cells = dec.rank_cells(p)
        assert np.all(np.diff(cells) > 0)
        assert np.isin(gather[cells], cells).all()  # every image stays home
    assert dec.orbit_closed(gather)


rank_cases = st.one_of(
    st.tuples(st.sampled_from(SHAPES), st.integers(1, 7)),
    st.just(((8, 4), 20)),
)


class TestOrbitDecomposition:
    @given(case=rank_cases)
    @settings(max_examples=30, deadline=None)
    def test_partitions_the_cells_into_closed_sets(self, operators, case):
        shape, ranks = case
        operator = operators[shape]
        tomo_dec, sino_dec = _decompose(operator, ranks)
        _assert_closed_partition(tomo_dec, operator.plan.gather)
        assert sino_dec.cells is None  # the sinogram stays contiguous
        sizes = np.diff(tomo_dec.bounds)
        if shape == (8, 4):
            assert (sizes == 0).any()

    @given(case=rank_cases, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scatter_gather_and_owner_follow_the_cells(self, operators, case, seed):
        shape, ranks = case
        operator = operators[shape]
        tomo_dec, _ = _decompose(operator, ranks)
        x = np.random.default_rng(seed).random(operator.num_pixels)
        pieces = tomo_dec.scatter(x)
        assert np.array_equal(tomo_dec.gather(pieces), x)
        owner = tomo_dec.owner_of(np.arange(operator.num_pixels))
        for p, piece in enumerate(pieces):
            assert np.array_equal(piece, x[tomo_dec.rank_cells(p)])
            assert (owner[tomo_dec.rank_cells(p)] == p).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_contiguous_cut_is_not_closed(self, operators, shape):
        operator = operators[shape]
        contiguous, _ = decompose_both(operator.tomo_ordering, operator.sino_ordering, 4)
        assert not contiguous.orbit_closed(operator.plan.gather)
        solo, _ = decompose_both(operator.tomo_ordering, operator.sino_ordering, 1)
        assert solo.orbit_closed(operator.plan.gather)


class TestOrbitRanks:
    @given(case=rank_cases, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_adjoint_is_the_plans_and_forward_is_close(self, operators, case, seed):
        shape, ranks = case
        operator = operators[shape]
        plan = operator.plan
        dist = DistributedOperator(plan, *_decompose(operator, ranks))
        rng = np.random.default_rng(seed)
        y = rng.random(plan.num_rows).astype(np.float32)
        x = rng.random(plan.num_cols).astype(np.float32)
        assert np.array_equal(dist.adjoint(y), plan.spmv_transposed(y))
        np.testing.assert_allclose(dist.forward(x), plan.spmv(x), rtol=1e-4, atol=1e-4)

    @given(
        shape=st.sampled_from(SHAPES),
        ranks=st.integers(2, 7),
        hierarchical=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_degrade_stays_closed(self, operators, shape, ranks, hierarchical, data):
        operator = operators[shape]
        plan = operator.plan
        topology = Topology.grouped(ranks, 2) if hierarchical else Topology.flat(ranks)
        dist = DistributedOperator(plan, *_decompose(operator, ranks), topology=topology)
        dead = data.draw(
            st.lists(st.integers(0, ranks - 1), min_size=1, max_size=ranks - 1, unique=True)
        )
        dist.degrade(dead)
        assert dist.num_ranks == ranks - len(dead)
        _assert_closed_partition(dist.tomo_dec, plan.gather)
        assert operator._matrix is None and operator._transpose is None
        assert sum(r.partial_matrix.stored.nnz for r in dist.ranks) == plan.stored.nnz
        y = np.random.default_rng(len(dead)).random(plan.num_rows).astype(np.float32)
        assert np.array_equal(dist.adjoint(y), plan.spmv_transposed(y))
