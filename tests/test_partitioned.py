"""Tests for the distributed A = R C A_p operator (paper Section 3.4)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess
from repro.dist import DistributedOperator, SimComm, decompose_both
from repro.geometry import ParallelBeamGeometry
from repro.sparse import OrbitMatrix, scan_transpose
from repro.topology import Topology, parse_topology


@pytest.fixture(scope="module")
def setup(ordered_medium):
    matrix, tomo, sino = ordered_medium
    return matrix, tomo, sino


def _make_op(setup, ranks, comm=None):
    matrix, tomo, sino = setup
    td, sd = decompose_both(tomo, sino, ranks)
    return DistributedOperator(matrix, td, sd, comm=comm)


class TestExactness:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 8, 16])
    def test_forward_matches_serial(self, setup, ranks, rng):
        matrix, _, _ = setup
        op = _make_op(setup, ranks)
        x = rng.random(matrix.num_cols).astype(np.float32)
        np.testing.assert_allclose(op.forward(x), matrix.spmv(x), rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("ranks", [1, 2, 5, 16])
    def test_adjoint_matches_serial(self, setup, ranks, rng):
        matrix, _, _ = setup
        op = _make_op(setup, ranks)
        y = rng.random(matrix.num_rows).astype(np.float32)
        ref = scan_transpose(matrix).spmv(y)
        np.testing.assert_allclose(op.adjoint(y), ref, rtol=1e-4, atol=1e-4)

    def test_adjoint_consistency(self, setup, rng):
        """<A x, y> == <x, A^T y> (inner-product test)."""
        matrix, _, _ = setup
        op = _make_op(setup, 4)
        x = rng.random(matrix.num_cols).astype(np.float32)
        y = rng.random(matrix.num_rows).astype(np.float32)
        lhs = float(np.dot(op.forward(x), y.astype(np.float64)))
        rhs = float(np.dot(x.astype(np.float64), op.adjoint(y)))
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_pieces_api(self, setup, rng):
        matrix, _, _ = setup
        op = _make_op(setup, 4)
        x = rng.random(matrix.num_cols).astype(np.float32)
        pieces = op.tomo_dec.scatter(x)
        y_pieces = op.forward_pieces(pieces)
        assert len(y_pieces) == 4
        np.testing.assert_allclose(
            op.sino_dec.gather(y_pieces), matrix.spmv(x), rtol=1e-4, atol=1e-4
        )


class TestStructure:
    def test_per_rank_nnz_sums_to_total(self, setup):
        matrix, _, _ = setup
        op = _make_op(setup, 8)
        assert op.per_rank_nnz().sum() == matrix.nnz

    def test_comm_matrix_is_sparse(self, setup):
        """Only interacting pairs communicate (paper Fig. 7(c))."""
        op = _make_op(setup, 16)
        volume = op.communication_matrix()
        assert np.trace(volume) == 0
        assert (volume == 0).any()  # some pairs never talk

    def test_backprojection_comm_is_transpose(self, setup, rng):
        """Paper Section 3.4.2: the backprojection communication matrix
        is the transpose of the forward one."""
        matrix, _, _ = setup
        comm = SimComm(8)
        op = _make_op(setup, 8, comm=comm)
        x = rng.random(matrix.num_cols).astype(np.float32)
        op.forward(x)
        fwd_vol = comm.log.volume_bytes.copy()
        comm.reset_log()
        op.adjoint(rng.random(matrix.num_rows).astype(np.float32))
        adj_vol = comm.log.volume_bytes
        np.testing.assert_array_equal(adj_vol, fwd_vol.T)

    def test_logged_volume_matches_plan(self, setup, rng):
        matrix, _, _ = setup
        comm = SimComm(4)
        op = _make_op(setup, 4, comm=comm)
        op.forward(rng.random(matrix.num_cols).astype(np.float32))
        planned = op.communication_matrix()
        logged = comm.log.volume_bytes.copy()
        np.fill_diagonal(logged, 0)
        np.testing.assert_array_equal(logged, planned)

    def test_comm_volume_grows_sublinearly(self, setup):
        """Total footprint ~ sqrt(P): quadrupling ranks roughly doubles
        the exchanged volume (paper Section 3.4.3)."""
        v4 = _make_op(setup, 4).communication_matrix().sum()
        v16 = _make_op(setup, 16).communication_matrix().sum()
        assert 1.3 < v16 / v4 < 3.5

    def test_reduction_elements(self, setup):
        op = _make_op(setup, 4)
        assert op.reduction_elements() >= op.num_rays  # overlap duplicates rows
        solo = _make_op(setup, 1)
        assert solo.reduction_elements() == solo.num_rays

    def test_interaction_counts(self, setup):
        op = _make_op(setup, 8)
        partners = op.interaction_counts()
        assert partners.shape == (8,)
        assert (partners >= 1).all() and (partners <= 7).all()


class TestValidation:
    def test_rank_mismatch_rejected(self, setup):
        matrix, tomo, sino = setup
        td, _ = decompose_both(tomo, sino, 4)
        _, sd = decompose_both(tomo, sino, 8)
        with pytest.raises(ValueError):
            DistributedOperator(matrix, td, sd)

    def test_domain_mismatch_rejected(self, setup):
        matrix, tomo, sino = setup
        td, sd = decompose_both(tomo, tomo, 4)  # wrong sinogram domain
        with pytest.raises(ValueError):
            DistributedOperator(matrix, td, sd)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda r, n: replace(r, touched_rows=r.touched_rows[:-1]),
             "partial_matrix must have one row per touched row"),
            (lambda r, n: replace(r, send_segments=r.send_segments[:-1]),
             "send_segments must tile touched_rows, one segment per rank"),
            (lambda r, n: replace(
                r, send_segments=[(lo + 1, hi) for lo, hi in r.send_segments[:1]]
                + r.send_segments[1:]),
             "send_segments must tile"),
            (lambda r, n: replace(r, touched_rows=r.touched_rows + n),
             "touched_rows must lie inside the sinogram domain"),
        ],
        ids=["touched", "segment-count", "segment-gap", "range"],
    )
    def test_rank_data_that_do_not_fit_rejected(self, setup, spoil, message):
        """A stale or hand-made rank-data list fails loudly instead of
        solving a different system."""
        matrix, tomo, sino = setup
        op = _make_op(setup, 4)
        rank_data = list(op.ranks)
        rank_data[1] = spoil(rank_data[1], matrix.num_rows)
        with pytest.raises(ValueError, match=f"rank 1: {message}"):
            DistributedOperator(matrix, op.tomo_dec, op.sino_dec, rank_data=rank_data)

    def test_rank_data_of_another_rank_count_rejected(self, setup):
        matrix, tomo, sino = setup
        td, sd = decompose_both(tomo, sino, 3)
        four = _make_op(setup, 4)
        with pytest.raises(
            ValueError, match="rank 0: partial_matrix columns must be the rank's tomogram cells"
        ):
            DistributedOperator(matrix, td, sd, rank_data=four.ranks[:3])


def _rank_arrays(op):
    """Every array of every rank's data, flattened for comparison."""
    out = []
    for rank in op.ranks:
        m = rank.partial_matrix
        if isinstance(m, OrbitMatrix):  # an orbit rank: Q_p and its maps
            out += [m.gather, m.out, np.asarray(m.shape)]
            m = m.stored
        out += [m.displ, m.ind, m.val, np.asarray(m.shape)]
        out += [rank.touched_rows, np.asarray(rank.send_segments)]
    return out


def _assert_same_rank_data(a, b):
    assert a.num_ranks == b.num_ranks
    for x, y in zip(_rank_arrays(a), _rank_arrays(b), strict=True):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


class TestBuildFromTranspose:
    """Rank data are the plan's own cut: each rank's columns of ``A``,
    float32 whatever the plan stores, and no transpose."""

    @pytest.mark.parametrize("value_dtype", ["float32", "float64"])
    def test_blocks_are_the_matrix_columns(self, setup, rng, value_dtype):
        """Each block is ``A``'s touched rows on the rank's columns, in
        float32 on an fp64 plan too (the wire is), and its adjoint (a
        scatter) is its scan transpose's gather, bit for bit."""
        matrix, tomo, sino = setup
        dense = matrix.to_scipy().toarray()
        td, sd = decompose_both(tomo, sino, 3)
        op = DistributedOperator(matrix.astype(value_dtype), td, sd)
        for p, rank in enumerate(op.ranks):
            assert rank.partial_matrix.val.dtype == np.float32
            c0, c1 = op.tomo_dec.bounds[p], op.tomo_dec.bounds[p + 1]
            assert np.array_equal(
                rank.partial_matrix.to_scipy().toarray(),
                dense[rank.touched_rows, c0:c1],
            )
            assert np.array_equal(
                rank.touched_rows, np.flatnonzero(dense[:, c0:c1].any(axis=1))
            )
            y = rng.random(rank.partial_matrix.num_rows).astype(np.float32)
            assert np.array_equal(
                rank.partial_matrix.spmv_transposed(y),
                scan_transpose(rank.partial_matrix).spmv(y),
            )

    @pytest.mark.parametrize("topology", ["flat", "nodes:2,ranks:2"])
    def test_degrade_reslices_like_a_fresh_build(self, setup, topology):
        matrix, tomo, sino = setup
        td, sd = decompose_both(tomo, sino, 4)
        op = DistributedOperator(matrix, td, sd, topology=parse_topology(topology, 4))
        op.degrade([1])
        assert op.num_ranks == 3
        if topology == "flat":
            td3, sd3 = decompose_both(tomo, sino, 3)
            assert np.array_equal(op.tomo_dec.bounds, td3.bounds)
            assert np.array_equal(op.sino_dec.bounds, sd3.bounds)
        fresh = DistributedOperator(
            matrix, op.tomo_dec, op.sino_dec, topology=op.topology
        )
        _assert_same_rank_data(op, fresh)

    def test_build_copies_no_global_matrix(self, setup):
        """A build keeps each rank's ``A_p`` and its row data, and no
        transpose; what it allocates beyond them is the cut's one sort."""
        import tracemalloc

        matrix, tomo, sino = setup
        ranks = 8
        td, sd = decompose_both(tomo, sino, ranks)
        topology = Topology.flat(ranks)
        DistributedOperator(matrix, td, sd, topology=topology)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op = DistributedOperator(matrix, td, sd, topology=topology)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_global_copy = matrix.ind.nbytes + matrix.val.nbytes
        blocks = sum(r.partial_matrix.ind.nbytes + r.partial_matrix.val.nbytes for r in op.ranks)
        rows = sum(r.partial_matrix.displ.nbytes + r.touched_rows.nbytes for r in op.ranks)
        # Kept: the blocks (8 B/nnz) and their row data, plus the
        # receivers' row ids (another touched row each).  Measured at 2 /
        # 4 / 8 / 16 ranks: 1.09 / 1.14 / 1.21 / 1.31 global copies, where
        # a derived transpose kept 2.62-2.85.
        assert kept - before < blocks + 2 * rows
        # Transient: a 1-byte owner key, an 8-byte order and a 4-byte row
        # id (twice while permuted) per nonzero, 17 B against A's 8.
        # Measured 2.09 / 1.83 / 1.69 / 1.58 global copies.
        assert peak - kept < 2.25 * one_global_copy

    def test_plan_build_copies_no_global_matrix(self):
        """An orbit plan's build holds no ``A`` and no ``A^T`` at all:
        each rank keeps its own columns of ``Q``, an eighth of ``A``'s."""
        import tracemalloc

        operator, _ = preprocess(
            ParallelBeamGeometry(128, 128), config=OperatorConfig(kernel="csr")
        )
        plan = operator.plan
        assert isinstance(plan, OrbitMatrix)
        ranks = 8
        td, sd = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, ranks, plan.gather
        )
        topology = Topology.flat(ranks)
        DistributedOperator(plan, td, sd, topology=topology)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op = DistributedOperator(plan, td, sd, topology=topology)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_global_copy = plan.nnz * (4 + plan.stored.val.itemsize)
        assert peak - kept < one_global_copy / 2
        # Kept: 8 B per nonzero of Q plus each rank's maps and rays.
        assert op.per_rank_nnz().sum() == plan.nnz
        assert sum(rank.partial_matrix.stored.nnz for rank in op.ranks) == plan.stored.nnz
        assert kept - before < 0.5 * one_global_copy
