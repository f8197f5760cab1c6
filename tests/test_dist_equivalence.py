"""Distributed solver equivalence + the comm-volume claim (paper Table 1).

Running CG through the memory-centric partitioned operator
(``A = R C A_p``), the compute-centric duplicated baseline, and the
single-process operator must produce the same reconstruction for
P ∈ {1, 2, 4}.  On top of numerical equivalence, the obs counters must
show the paper's headline communication claim on real traffic:
partitioned (sparse Alltoallv of touched rows) moves fewer bytes than
duplicated (full-tomogram Allreduce per backprojection).
"""

import numpy as np
import pytest

from repro import obs
from repro.core import OperatorConfig, preprocess, reconstruct
from repro.dist import (
    DistributedOperator,
    DuplicatedOperator,
    RankData,
    decompose_both,
    distributed_preprocess,
)
from repro.geometry import ParallelBeamGeometry
from repro.solvers import cgls
from repro.sparse import OrbitMatrix

from .test_partitioned import _assert_same_rank_data

# Compare at (near-)convergence: mid-convergence CG iterates are
# hypersensitive to float32 rounding differences between operator
# implementations and can transiently disagree by percents before
# re-converging; at 12 iterations all three operators agree to ~1e-6.
ITERATIONS = 12


@pytest.fixture(scope="module")
def system():
    """Serial operator + measurement on a tomogram-heavy geometry."""
    geometry = ParallelBeamGeometry(24, 32)
    operator, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
    truth = np.random.default_rng(0).random(operator.num_pixels).astype(np.float32)
    y = operator.forward(truth)
    reference = cgls(operator, y, num_iterations=ITERATIONS)
    return operator, y, reference


def _partitioned(operator, num_ranks):
    tomo_dec, sino_dec = decompose_both(
        operator.tomo_ordering, operator.sino_ordering, num_ranks
    )
    return DistributedOperator(operator.matrix, tomo_dec, sino_dec)


@pytest.mark.parametrize("num_ranks", [1, 2, 4])
class TestSolverEquivalence:
    def test_partitioned_matches_serial(self, system, num_ranks):
        operator, y, reference = system
        result = cgls(_partitioned(operator, num_ranks), y, num_iterations=ITERATIONS)
        scale = float(np.max(np.abs(reference.x)))
        np.testing.assert_allclose(result.x, reference.x, rtol=1e-3, atol=1e-3 * scale)

    def test_duplicated_matches_serial(self, system, num_ranks):
        operator, y, reference = system
        result = cgls(
            DuplicatedOperator(operator.matrix, num_ranks), y, num_iterations=ITERATIONS
        )
        scale = float(np.max(np.abs(reference.x)))
        np.testing.assert_allclose(result.x, reference.x, rtol=1e-3, atol=1e-3 * scale)

    def test_partitioned_matches_duplicated(self, system, num_ranks):
        operator, y, _ = system
        part = cgls(_partitioned(operator, num_ranks), y, num_iterations=ITERATIONS)
        dup = cgls(
            DuplicatedOperator(operator.matrix, num_ranks), y, num_iterations=ITERATIONS
        )
        scale = float(np.max(np.abs(dup.x)))
        np.testing.assert_allclose(part.x, dup.x, rtol=1e-3, atol=1e-3 * scale)


@pytest.mark.parametrize("num_ranks", [2, 4])
class TestCommVolumeClaim:
    def _comm_bytes(self, op, y):
        with obs.capture() as cap:
            cgls(op, y, num_iterations=ITERATIONS)
        return cap.total(obs.COMM_BYTES), cap

    def test_partitioned_moves_fewer_bytes_than_duplicated(self, system, num_ranks):
        operator, y, _ = system
        part_bytes, part_cap = self._comm_bytes(_partitioned(operator, num_ranks), y)
        dup_bytes, dup_cap = self._comm_bytes(
            DuplicatedOperator(operator.matrix, num_ranks), y
        )
        assert part_bytes > 0 and dup_bytes > 0
        assert part_bytes < dup_bytes
        # Counter totals agree with the communicators' own byte logs.
        assert part_cap.total(obs.COMM_MESSAGES) > 0
        assert dup_cap.span_names().count("comm.allreduce") > 0
        assert part_cap.span_names().count("comm.alltoallv") > 0

    def test_counters_match_comm_log(self, system, num_ranks):
        operator, y, _ = system
        op = _partitioned(operator, num_ranks)
        with obs.capture() as cap:
            cgls(op, y, num_iterations=ITERATIONS)
        assert cap.total(obs.COMM_BYTES) == op.comm.log.off_diagonal_volume()


GEOMETRY = ParallelBeamGeometry(24, 32)


def _scene(config=None):
    """A fresh operator (so an empty rank memo) and a consistent sinogram."""
    operator, _ = preprocess(GEOMETRY, config=config or OperatorConfig(kernel="csr"))
    truth = np.random.default_rng(3).random(operator.num_pixels).astype(np.float32)
    sinogram = operator.ordered_to_sinogram(
        np.asarray(operator.forward(truth), dtype=np.float64)
    )
    return operator, sinogram


@pytest.fixture
def cuts(monkeypatch):
    """Names the form of every rank cut, whoever asks for it: ``"orbit"``
    for a rank's columns of ``Q``, ``"A"`` for its columns of ``A``."""
    calls = []

    def counting(plan, *args, _original=RankData.cut, **kwargs):
        ranks = _original(plan, *args, **kwargs)
        calls.extend(["orbit" if isinstance(plan, OrbitMatrix) else "A"] * len(ranks))
        return ranks

    monkeypatch.setattr(RankData, "cut", staticmethod(counting))
    return calls


def _solve(operator, sinogram, num_ranks=4, **kwargs):
    return reconstruct(
        sinogram, GEOMETRY, operator=operator, num_ranks=num_ranks, iterations=6,
        **kwargs,
    )


def _memo(operator):
    """The one memoized rank-data list (the slot holds at most one)."""
    (rank_data,) = operator._rank_data.values()
    return rank_data


class TestReconstructMemo:
    """A loaded operator cuts its rank decomposition once."""

    def test_second_solve_reuses_and_is_bit_identical(self, cuts):
        operator, sinogram = _scene()
        with obs.capture() as cap:
            first = _solve(operator, sinogram)
            assert cuts == ["orbit"] * 4
            held = _memo(operator)
            second = _solve(operator, sinogram)
        assert len(cuts) == 4  # nothing built
        assert _memo(operator) is held
        assert np.array_equal(first.image, second.image)
        assert first.extra == second.extra
        assert [s.attrs for s in cap.find_spans("dist.build")] == [
            {"ranks": 4, "reused": False},
            {"ranks": 4, "reused": True},
        ]

    def test_communicators_share_one_entry(self, cuts, monkeypatch):
        operator, sinogram = _scene()
        flat = _solve(operator, sinogram, topology="flat")
        held = _memo(operator)
        hier = _solve(operator, sinogram, topology="nodes:2,ranks:2")
        monkeypatch.setenv("REPRO_TOPOLOGY", "nodes:2,ranks:2")
        ambient = _solve(operator, sinogram)
        assert len(cuts) == 4
        assert len(operator._rank_data) == 1 and _memo(operator) is held
        assert "hier_comm" in hier.extra and "hier_comm" in ambient.extra
        assert np.array_equal(flat.image, hier.image)
        assert np.array_equal(flat.image, ambient.image)

    def test_another_rank_count_replaces_the_slot(self, cuts):
        operator, sinogram = _scene()
        first = _solve(operator, sinogram)
        four = _memo(operator)
        three = _solve(operator, sinogram, num_ranks=3)
        assert len(operator._rank_data) == 1 and len(_memo(operator)) == 3
        again = _solve(operator, sinogram)
        assert len(operator._rank_data) == 1 and len(_memo(operator)) == 4
        assert _memo(operator) is not four
        assert len(cuts) == 4 + 3 + 4
        assert np.array_equal(first.image, again.image)
        fresh, _ = _scene()
        assert np.array_equal(_solve(fresh, sinogram, num_ranks=3).image, three.image)

    def test_close_releases_the_slot(self, cuts):
        operator, sinogram = _scene()
        _solve(operator, sinogram)
        operator.set_workers("serial")  # an execution knob keeps it
        assert len(operator._rank_data) == 1
        operator.close()
        assert operator._rank_data == {}
        _solve(operator, sinogram)
        assert len(cuts) == 8

    def test_serial_solve_leaves_the_slot_alone(self, cuts):
        operator, sinogram = _scene()
        _solve(operator, sinogram)
        held = _memo(operator)
        _solve(operator, sinogram, num_ranks=1)
        assert _memo(operator) is held and len(cuts) == 4

    @pytest.mark.parametrize(
        "config",
        [
            OperatorConfig(kernel="buffered"),
            OperatorConfig(kernel="ell"),
            OperatorConfig(kernel="csr", dtype="float64"),
        ],
        ids=["buffered", "ell", "fp64"],
    )
    def test_ranks_are_float32_cuts_of_q(self, config):
        operator, sinogram = _scene(config)
        first = _solve(operator, sinogram)
        memo = _memo(operator)
        plan = operator.plan
        tomo_dec, sino_dec = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, 4, plan.gather
        )
        memoized = DistributedOperator(plan, tomo_dec, sino_dec, rank_data=memo)
        fresh = DistributedOperator(plan, tomo_dec, sino_dec)
        _assert_same_rank_data(memoized, fresh)
        for rank in memo:
            assert rank.partial_matrix.stored.val.dtype == np.float32
            assert isinstance(rank.partial_matrix, OrbitMatrix)
        assert sum(rank.partial_matrix.stored.nnz for rank in memo) == plan.stored.nnz
        assert operator._matrix is None and operator._transpose is None
        assert np.array_equal(_solve(operator, sinogram).image, first.image)

    def test_distributed_preprocess_is_untouched(self, cuts):
        """Matrix-free rank data still come from their own assembly, one
        cut per rank of its columns of ``Q``, and fit the decompositions
        they were built for."""
        dist = distributed_preprocess(GEOMETRY, 4)
        assert cuts == ["orbit"] * 4
        assert dist.matrix is None
        DistributedOperator(None, dist.tomo_dec, dist.sino_dec, rank_data=dist.ranks)


class TestPlanOfACut:
    """On a plan of ``A`` each rank holds its own columns of ``A``, cut
    from the plan itself: a distributed solve builds no ``A^T``."""

    @pytest.mark.parametrize(
        "geometry",
        [ParallelBeamGeometry(24, 32, angle_range=2 * np.pi), ParallelBeamGeometry(25, 32)],
        ids=["full-turn", "4-slot"],
    )
    def test_the_transpose_memo_stays_empty(self, cuts, geometry):
        # Serial: a thread engine partitions the operator's own transpose.
        config = OperatorConfig(kernel="csr", workers="serial")
        operator, _ = preprocess(geometry, config=config)
        assert operator.plan is operator.matrix
        truth = np.random.default_rng(3).random(operator.num_pixels).astype(np.float32)
        sinogram = operator.ordered_to_sinogram(
            np.asarray(operator.forward(truth), dtype=np.float64)
        )
        reconstruct(sinogram, geometry, operator=operator, num_ranks=4, iterations=6)
        assert operator._transpose is None
        assert cuts == ["A"] * 4


class TestOrbitPlanCut:
    """On an orbit plan each rank holds its own columns of ``Q``, and
    ``A`` / ``A^T`` are never built."""

    @pytest.mark.parametrize(
        "faults",
        [{}, {"topology": "nodes:2,ranks:2"}, {"faults": "crash=1@3,seed=7"}],
        ids=["flat", "hier", "degraded"],
    )
    def test_the_a_memo_stays_empty(self, cuts, faults):
        operator, sinogram = _scene()
        assert isinstance(operator.plan, OrbitMatrix)
        result = _solve(operator, sinogram, **faults)
        assert operator._matrix is None and operator._transpose is None
        assert cuts == ["orbit"] * (4 + 3 if "faults" in faults else 4)
        assert ("degradations" in result.extra) == ("faults" in faults)

    @pytest.mark.parametrize("solver, ranks_expanded", [("sirt", 4), ("sgd", 4), ("mlem", 0)])
    def test_row_sums_are_kept_with_the_rank_cut(self, monkeypatch, solver, ranks_expanded):
        """The first distributed SIRT / SGD solve expands one rank's
        rows at a time for ``A``'s row sums (MLEM reads none); the sums
        stay in the memoized rank data, so a second solve expands
        nothing, until close() drops them with the cut."""
        operator, sinogram = _scene()
        want = operator.plan.expand().row_sums()
        calls = []
        expand = OrbitMatrix.expand

        def counted(self, out=None):
            calls.append(self.num_rows)
            return expand(self, out)

        monkeypatch.setattr(OrbitMatrix, "expand", counted)
        first = _solve(operator, sinogram, solver=solver)
        expanded = len(calls)
        assert expanded == ranks_expanded
        if expanded:
            sums = np.concatenate([rank._row_sums for rank in _memo(operator)])
            assert sums.dtype == want.dtype and np.array_equal(sums, want)
        second = _solve(operator, sinogram, solver=solver)
        assert len(calls) == expanded  # no expand on the second solve
        assert np.array_equal(first.image, second.image)
        operator.close()
        assert operator._rank_data == {}
        assert np.array_equal(_solve(operator, sinogram, solver=solver).image, first.image)
        assert len(calls) == 2 * expanded

    @pytest.mark.parametrize("dtype", [None, "float64"], ids=["fp32", "fp64"])
    @pytest.mark.parametrize(
        "shape, ranks",
        [((24, 32), r) for r in (1, 2, 3, 4, 7)]
        + [((24, 31), 4), ((36, 24), 4), ((36, 23), 4), ((8, 4), 20)],
        ids=["1", "2", "3", "4", "7", "24x31", "36x24", "36x23", "8x4-20"],
    )
    def test_ranks_are_the_columns_of_a(self, shape, ranks, dtype):
        """Each rank's ``A_p`` expands to ``A``'s touched rows on the
        rank's cells (float32); row sums are ``A``'s and column sums the
        plan's, bit for bit, and the adjoint is the plan's on float32."""
        operator, _ = preprocess(
            ParallelBeamGeometry(*shape), config=OperatorConfig(kernel="csr", dtype=dtype)
        )
        plan = operator.plan
        matrix = plan.expand()
        dense = matrix.to_scipy().toarray().astype(np.float32)
        tomo_dec, sino_dec = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, ranks, plan.gather
        )
        dist = DistributedOperator(plan, tomo_dec, sino_dec)
        for p, rank in enumerate(dist.ranks):
            block = dense[:, tomo_dec.rank_cells(p)]
            assert np.array_equal(rank.touched_rows, np.flatnonzero(block.any(axis=1)))
            expanded = rank.partial_matrix.expand()
            assert expanded.val.dtype == np.float32
            assert np.array_equal(expanded.to_scipy().toarray(), block[rank.touched_rows])
        assert any(rank.partial_matrix.nnz == 0 for rank in dist.ranks) == (ranks == 20)
        assert sum(rank.partial_matrix.stored.nnz for rank in dist.ranks) == plan.stored.nnz
        for got, want in (
            (dist.row_sums(), matrix.row_sums()),
            (dist.col_sums(), plan.col_sums()),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        y = np.random.default_rng(5).random(plan.num_rows).astype(np.float32)
        if dtype is None:
            assert np.array_equal(dist.adjoint(y), plan.spmv_transposed(y))
            ones = np.ones(plan.num_rows, np.float32)
            assert np.array_equal(dist.adjoint(ones), plan.col_sums())

    def test_a_contiguous_cut_is_refused(self):
        operator, _ = _scene()
        tomo_dec, sino_dec = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, 4
        )
        with pytest.raises(ValueError, match="orbit-closed"):
            DistributedOperator(operator.plan, tomo_dec, sino_dec)
        orbit_dec, _ = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, 4, operator.plan.gather
        )
        with pytest.raises(ValueError, match="orbit-closed"):
            DistributedOperator(operator.matrix, orbit_dec, sino_dec)
