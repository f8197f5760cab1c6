"""Tests for the three-step preprocessing pipeline (paper Section 3.5)."""

import filecmp
import itertools
import zipfile

import numpy as np
import pytest

from repro.cache import PlanCache
from repro.core import KERNELS, OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.sparse import CSRMatrix, OrbitMatrix
from repro.trace import build_projection_matrix

LAYOUTS = ("buffered_forward", "buffered_adjoint", "ell_forward", "ell_adjoint")


class TestPreprocess:
    def test_report_has_all_steps(self, small_geometry):
        _, report = preprocess(small_geometry)
        assert report.ordering_seconds >= 0
        assert report.tracing_seconds > 0
        assert report.transpose_seconds > 0
        assert report.total_seconds == pytest.approx(
            report.ordering_seconds + report.tracing_seconds + report.transpose_seconds
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

    @pytest.mark.parametrize("angles", [23, 24])
    def test_every_kernel_is_one_plan(self, tmp_path, angles):
        """No kernel builds a layout, on a plan of ``A`` (23 views, no
        8-slot group) or of ``Q`` (24): the three kernels' cache entries
        are one file, byte for byte, under one key and with no layout
        member, and every kernel gives the csr kernel's results, vector
        and slab, bit for bit."""
        geometry = ParallelBeamGeometry(angles, 32)
        ops, paths = [], []
        for kernel in KERNELS:
            cache = PlanCache(tmp_path / kernel)
            op, report = preprocess(geometry, config=OperatorConfig(kernel=kernel), cache=cache)
            ops.append(op)
            paths.append(cache.plan_path(report.cache_key))
        assert len({path.name for path in paths}) == 1
        assert all(filecmp.cmp(paths[0], path, shallow=False) for path in paths[1:])
        with zipfile.ZipFile(paths[0]) as archive:
            names = {name.removesuffix(".npy") for name in archive.namelist()}
        assert not {name for name in names if name[:3] in ("bf_", "ba_", "ef_", "ea_")}
        assert not names & {"kernel", "buffer_bytes"}
        assert isinstance(ops[0].plan, OrbitMatrix) == (angles % 2 == 0)
        rng = np.random.default_rng(5)
        x, xs = rng.random(ops[0].num_pixels), rng.random((ops[0].num_pixels, 3))
        y, ys = rng.random(ops[0].num_rays), rng.random((ops[0].num_rays, 3))
        csr = ops[0]
        for op in ops:
            for attr in LAYOUTS:
                assert getattr(op, attr) is None, attr
            for ours, theirs in zip(
                (op.forward(x), op.adjoint(y), op.forward(xs), op.adjoint(ys)),
                (csr.forward(x), csr.adjoint(y), csr.forward(xs), csr.adjoint(ys)),
            ):
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    @pytest.mark.parametrize("first,then", itertools.product(KERNELS, KERNELS))
    def test_every_path_returns_the_request_config(self, tmp_path, first, then):
        """Cold uncached, cold cached and warm calls return operators
        whose ``config`` is the request's, also where the warm hit is the
        entry a call naming another kernel stored."""
        geometry = ParallelBeamGeometry(23, 16)
        request = OperatorConfig(
            kernel=then, partition_size=32, buffer_bytes=4096, workers="serial"
        )
        uncached, _ = preprocess(geometry, config=request)
        cold, cold_report = preprocess(geometry, config=request, cache=tmp_path / "a")
        warm, warm_report = preprocess(geometry, config=request, cache=tmp_path / "a")
        preprocess(geometry, config=request.evolve(kernel=first), cache=tmp_path / "b")
        crossed, crossed_report = preprocess(geometry, config=request, cache=tmp_path / "b")
        assert not cold_report.cache_hit
        assert warm_report.cache_hit and crossed_report.cache_hit
        assert uncached.config == cold.config == warm.config == crossed.config == request

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
