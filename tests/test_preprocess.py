"""Tests for the four-step preprocessing pipeline (paper Section 3.5)."""

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.sparse import CSRMatrix
from repro.trace import build_projection_matrix


class TestPreprocess:
    def test_report_has_all_steps(self, small_geometry):
        _, report = preprocess(small_geometry)
        assert report.ordering_seconds >= 0
        assert report.tracing_seconds > 0
        assert report.transpose_seconds > 0
        assert report.partitioning_seconds >= 0
        assert report.total_seconds == pytest.approx(
            report.ordering_seconds
            + report.tracing_seconds
            + report.transpose_seconds
            + report.partitioning_seconds
        )

    def test_matrix_is_permuted_raw_trace(self, small_geometry):
        """The ordered matrix must equal the raw trace re-indexed by the
        orderings — preprocessing only reorganizes, never changes, A."""
        op, _ = preprocess(small_geometry)
        raw = CSRMatrix.from_scipy(build_projection_matrix(small_geometry))
        expected = raw.permute(op.sino_ordering.perm, op.tomo_ordering.rank)
        np.testing.assert_allclose(
            op.matrix.to_scipy().toarray(), expected.to_scipy().toarray(), atol=1e-7
        )

    def test_transpose_is_consistent(self, small_geometry):
        op, _ = preprocess(small_geometry)
        np.testing.assert_allclose(
            op.transpose.to_scipy().toarray(),
            op.matrix.to_scipy().toarray().T,
            atol=1e-7,
        )

    def test_buffered_structures_built_only_for_buffered_kernel(self):
        """On a scan without an 8-slot group (23x32, odd ``M``)."""
        geometry = ParallelBeamGeometry(23, 32)
        op_b, _ = preprocess(geometry, config=OperatorConfig(kernel="buffered"))
        assert op_b.buffered_forward is not None
        assert op_b.buffered_adjoint is not None
        op_c, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
        assert op_c.buffered_forward is None
        op_e, _ = preprocess(geometry, config=OperatorConfig(kernel="ell"))
        assert op_e.ell_forward is not None and op_e.buffered_forward is None

    def test_an_eight_slot_scan_builds_no_layout_for_any_kernel(self, small_geometry):
        """Every kernel's plan is the one ``Q``, and every kernel gives
        the csr kernel's results, vector and slab, bit for bit."""
        from repro.sparse import OrbitMatrix

        ops = [
            preprocess(small_geometry, config=OperatorConfig(kernel=kernel))[0]
            for kernel in ("csr", "buffered", "ell")
        ]
        rng = np.random.default_rng(5)
        x, xs = rng.random(ops[0].num_pixels), rng.random((ops[0].num_pixels, 3))
        y, ys = rng.random(ops[0].num_rays), rng.random((ops[0].num_rays, 3))
        for op in ops:
            assert isinstance(op.plan, OrbitMatrix) and op._orbit_kernel
            for attr in ("buffered_forward", "buffered_adjoint", "ell_forward", "ell_adjoint"):
                assert getattr(op, attr) is None, attr
            for name in ("displ", "ind", "val"):
                assert np.array_equal(getattr(op.stored, name), getattr(ops[0].stored, name))
            for ours, theirs in zip(
                (op.forward(x), op.adjoint(y), op.forward(xs), op.adjoint(ys)),
                (ops[0].forward(x), ops[0].adjoint(y), ops[0].forward(xs), ops[0].adjoint(ys)),
            ):
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    @pytest.mark.parametrize("ordering", ["row-major", "morton", "hilbert", "pseudo-hilbert"])
    def test_all_orderings_work(self, ordering):
        g = ParallelBeamGeometry(12, 8)
        op, _ = preprocess(g, ordering=ordering)
        assert op.tomo_ordering.name == ordering
        x = np.ones(op.num_pixels, dtype=np.float32)
        assert op.forward(x).sum() > 0

    def test_rows_sorted_by_column(self, small_geometry):
        op, _ = preprocess(small_geometry)
        m = op.matrix
        for r in range(0, m.num_rows, 37):
            seg = m.ind[m.displ[r] : m.displ[r + 1]]
            assert np.all(np.diff(seg) >= 0)

    def test_preprocessing_amortizes_across_slices(self, small_geometry, rng):
        """Reusing the operator for a second 'slice' must not re-trace
        (the Table 5 many-slice argument): reconstruct with a supplied
        operator and confirm the report carries zero tracing time."""
        from repro.core import reconstruct

        op, report = preprocess(small_geometry)
        sino = rng.random(small_geometry.sinogram_shape)
        res = reconstruct(sino, small_geometry, iterations=2, operator=op)
        assert res.preprocess_report.tracing_seconds == 0.0
        assert res.operator is op


@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
def test_a_cold_eight_slot_build_never_expands_q(
    small_geometry, tmp_path, monkeypatch, kernel, cache
):
    """A cold build of a half-turn scan, whatever its kernel, never
    expands ``Q`` to ``A``: no layout is built from it."""
    from repro.sparse import OrbitMatrix

    calls = []
    expand = OrbitMatrix.expand

    def counted(self, out=None):
        calls.append(out)
        return expand(self, out)

    monkeypatch.setattr(OrbitMatrix, "expand", counted)
    op, report = preprocess(
        small_geometry,
        config=OperatorConfig(kernel=kernel),
        cache=tmp_path if cache else None,
    )
    assert not report.cache_hit and isinstance(op.plan, OrbitMatrix)
    assert calls == []
