"""Tests for the MPI-parallel preprocessing pipeline (paper Section 3.5).

Every rank's data must be array-equal, dtype for dtype, to the serial
plan's own rank cut.  Four geometries run: a half-turn scan (an 8-slot
ray group), whose ranks trace only the group's traced rays and ship
them as rows of ``Q`` to whole-orbit owners; an odd-``M`` one (4
slots), whose ranks trace the traced rays and expand them to rows of
``A``; and a full-turn and a fan scan, with no group, whose rays are
all traced.
"""

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess
from repro.dist import (
    DistributedOperator,
    SimComm,
    decompose_both,
    distributed_preprocess,
)
from repro.geometry import FanBeamGeometry, ParallelBeamGeometry
from repro.sparse import OrbitMatrix, orbit_group
from repro.trace import matrix_builder

from .test_partitioned import _assert_same_rank_data


GEOMETRIES = {
    "symmetric": ParallelBeamGeometry(36, 24),
    "asymmetric": ParallelBeamGeometry(36, 24, angle_range=2 * np.pi),
    "odd-m": ParallelBeamGeometry(35, 24),
    "fan": FanBeamGeometry(36, 24, source_distance=48.0),
}


@pytest.fixture(scope="module", params=list(GEOMETRIES))
def geometry(request):
    return GEOMETRIES[request.param]


def _reference(geometry, op):
    """The serial plan, and its own rank cut: by whole orbits on a plan
    of ``Q``, by contiguous tiles on a plan of ``A``.  Its decompositions
    are op's."""
    serial, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
    plan = serial.plan
    tomo_dec, sino_dec = decompose_both(
        serial.tomo_ordering, serial.sino_ordering, op.num_ranks,
        plan.gather if isinstance(plan, OrbitMatrix) else None,
    )
    for mine, theirs in ((op.tomo_dec, tomo_dec), (op.sino_dec, sino_dec)):
        assert np.array_equal(mine.bounds, theirs.bounds)
        assert (mine.cells is None) == (theirs.cells is None)
        assert mine.cells is None or np.array_equal(mine.cells, theirs.cells)
    return DistributedOperator(plan, tomo_dec, sino_dec), plan


class TestDistributedPreprocess:
    @pytest.mark.parametrize("ranks", [1, 2, 5, 8])
    def test_matches_global_build(self, geometry, ranks, rng):
        op = distributed_preprocess(geometry, ranks)
        ref, matrix = _reference(geometry, op)
        x = rng.random(op.num_pixels).astype(np.float32)
        y = rng.random(op.num_rays).astype(np.float32)
        np.testing.assert_allclose(op.forward(x), ref.forward(x), rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(op.adjoint(y), ref.adjoint(y), rtol=1e-4, atol=1e-4)
        assert op.per_rank_nnz().sum() == matrix.nnz

    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 5, 6, 8])
    def test_rank_data_are_the_global_slices(self, geometry, ranks):
        """Assembled from received triplets or cut from the serial plan,
        a rank's data come out of one cut: equal arrays, equal dtypes,
        and the plan's form (``Q``'s columns where an 8-slot group
        applies)."""
        op = distributed_preprocess(geometry, ranks)
        ref, plan = _reference(geometry, op)
        _assert_same_rank_data(op, ref)
        orbit = orbit_group(geometry) is not None
        assert isinstance(plan, OrbitMatrix) == orbit
        assert all(isinstance(r.partial_matrix, OrbitMatrix) == orbit for r in op.ranks)

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_exchange_ships_the_plans_rows(self, geometry, ranks):
        """Each shipped nonzero is an int32 row, an int32 column and a
        float32 value (self-sends included): one per nonzero of ``Q`` on
        an 8-slot scan, of ``A`` otherwise."""
        comm = SimComm(ranks)
        _, plan = _reference(geometry, distributed_preprocess(geometry, ranks, comm=comm))
        stored = plan.stored if isinstance(plan, OrbitMatrix) else plan
        assert comm.log.volume_bytes.sum() == 12 * stored.nnz
        if geometry is GEOMETRIES["symmetric"]:
            assert stored.nnz < plan.nnz / 7

    def test_each_traced_ray_is_traced_once(self, geometry, monkeypatch):
        """Ranks trace disjoint runs of the traced views: the rays
        handed to ``trace_view`` are the ray group's traced rays, each
        once (120 of the half-turn 36x24 scan's 864), or every ray
        without a group."""
        real, handed = matrix_builder.trace_view, []

        def trace_view(geometry, angle_index, channels=None):
            count = geometry.num_channels if channels is None else channels
            handed.extend(geometry.ray_index(angle_index, np.arange(count)))
            return real(geometry, angle_index, channels)

        monkeypatch.setattr(matrix_builder, "trace_view", trace_view)
        group = geometry.ray_group()
        want = np.arange(geometry.num_rays) if group is None else group.stored_rays()
        if geometry is GEOMETRIES["symmetric"]:
            assert len(want) == 120
        for ranks in (1, 2, 3, 5, 8):
            handed.clear()
            distributed_preprocess(geometry, ranks)
            assert np.array_equal(np.sort(handed), want), ranks

    def test_no_global_matrix_held(self, geometry):
        """The point of distributed preprocessing: no rank (and not the
        operator) ever holds the full matrix."""
        op = distributed_preprocess(geometry, 4)
        assert op.matrix is None
        total = op.per_rank_nnz().sum()
        assert all(r.partial_matrix.nnz < total for r in op.ranks)

    def test_row_col_sums_without_matrix(self, geometry):
        op = distributed_preprocess(geometry, 3)
        ref, matrix = _reference(geometry, op)
        np.testing.assert_allclose(op.row_sums(), matrix.row_sums(), rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(op.col_sums(), matrix.col_sums(), rtol=1e-4, atol=1e-4)

    def test_solver_integration(self, geometry, rng):
        """The distributed-preprocessed operator plugs into CGLS."""
        from repro.solvers import cgls

        op = distributed_preprocess(geometry, 4)
        x_true = rng.random(op.num_pixels)
        y = op.forward(x_true.astype(np.float32))
        res = cgls(op, y, num_iterations=50)
        assert res.residual_norms[-1] < 0.05 * res.residual_norms[0]

    def test_preprocessing_traffic_logged(self, geometry):
        comm = SimComm(4)
        distributed_preprocess(geometry, 4, comm=comm)
        # Three triplet streams exchanged once each.
        assert comm.log.collective_calls == 3
        assert comm.log.off_diagonal_volume() > 0

    def test_comm_plan_matches_global_build(self, geometry):
        op = distributed_preprocess(geometry, 6)
        ref, _ = _reference(geometry, op)
        np.testing.assert_array_equal(
            op.communication_matrix(), ref.communication_matrix()
        )

    def test_validation(self, geometry):
        with pytest.raises(ValueError):
            distributed_preprocess(geometry, 0)
        with pytest.raises(ValueError):
            distributed_preprocess(geometry, 4, comm=SimComm(3))

    def test_rank_data_count_validated(self, geometry):
        op = distributed_preprocess(geometry, 2)
        with pytest.raises(ValueError):
            DistributedOperator(
                None, op.tomo_dec, op.sino_dec, rank_data=op.ranks[:1]
            )
        with pytest.raises(ValueError):
            DistributedOperator(None, op.tomo_dec, op.sino_dec)


class TestMemoryScalability:
    def test_max_rank_nnz_shrinks_with_ranks(self, geometry):
        """The headline property: per-rank matrix memory ~ 1/P."""
        sizes = {}
        for ranks in (1, 2, 4, 8):
            op = distributed_preprocess(geometry, ranks)
            sizes[ranks] = max(r.partial_matrix.nnz for r in op.ranks)
        assert sizes[2] < sizes[1]
        assert sizes[8] < 0.3 * sizes[1]

    def test_touched_rows_overlap_is_the_sqrt_term(self, geometry):
        """Sum of touched rows exceeds the sinogram size by the overlap
        (the MN/sqrt(P) memory term of Table 1), and the overlap grows
        with P."""
        overlaps = []
        for ranks in (2, 8):
            op = distributed_preprocess(geometry, ranks)
            total_touched = sum(r.touched_rows.shape[0] for r in op.ranks)
            overlaps.append(total_touched - op.num_rays)
        assert overlaps[0] >= 0
        assert overlaps[1] > overlaps[0]
