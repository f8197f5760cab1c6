"""One contract for every scan geometry.

A geometry states four facts (array shapes, ordering rectangles, its
fingerprint document, its archive fields) and ``repro.trace.trace_view``
traces one of its views; everything else — the chunked builder, the
plan cache, the operator archive, the image-space helpers — is shared.
This class runs the same checks over parallel-, fan- and cone-beam, so
a geometry that drifts from the seam fails here rather than in one
caller's ``AttributeError``.
"""

import zlib

import numpy as np
import pytest

from repro.cache import plan_fingerprint
from repro.core import MemXCTOperator, OperatorConfig, preprocess
from repro.geometry import ConeBeamGeometry, FanBeamGeometry, ParallelBeamGeometry
from repro.io import FORMAT_VERSION, load_operator, save_operator
from repro.parallel.backend import make_backend, parse_workers
from repro.dist import distributed_preprocess
from repro.sparse import CSRMatrix, orbit_group, scan_transpose
from repro.trace import build_projection_matrix, matrix_builder, trace_view

GEOMETRIES = {
    "parallel": ParallelBeamGeometry(16, 12),
    "fan": FanBeamGeometry(16, 12, source_distance=40.0),
    "cone": ConeBeamGeometry(8, 4, 6, source_distance=30.0),
}

SMALL = OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=2048)


def _trace(geometry, spec):
    backend = make_backend(*parse_workers(spec))
    try:
        return build_projection_matrix(geometry, backend=backend)
    finally:
        backend.close()


def _assert_same_operator(a, b):
    assert type(a.geometry) is type(b.geometry)
    assert a.geometry == b.geometry
    assert a.config.partition_size == b.config.partition_size
    assert a.config.dtype == b.config.dtype
    for mine, theirs in ((a.matrix, b.matrix), (a.transpose, b.transpose)):
        assert mine.shape == theirs.shape
        for name in ("displ", "ind", "val"):
            got, want = getattr(mine, name), getattr(theirs, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(a.tomo_ordering.perm, b.tomo_ordering.perm)
    np.testing.assert_array_equal(a.sino_ordering.perm, b.sino_ordering.perm)
    assert (a.tomo_ordering.rows, a.tomo_ordering.cols) == a.geometry.tomo_layout_shape
    assert (b.sino_ordering.rows, b.sino_ordering.cols) == b.geometry.sino_layout_shape


@pytest.fixture(params=list(GEOMETRIES), scope="module")
def geometry(request):
    return GEOMETRIES[request.param]


class TestGeometryConformance:
    def test_shapes_and_rectangles_cover_the_domains(self, geometry):
        assert int(np.prod(geometry.sinogram_shape)) == geometry.num_rays
        assert int(np.prod(geometry.volume_shape)) == geometry.grid.num_pixels
        assert int(np.prod(geometry.sino_layout_shape)) == geometry.num_rays
        assert int(np.prod(geometry.tomo_layout_shape)) == geometry.grid.num_pixels
        assert len(geometry.tomo_layout_shape) == len(geometry.sino_layout_shape) == 2

    def test_trace_view_stays_inside_its_view(self, geometry):
        k = geometry.num_channels
        for angle_index in (0, geometry.num_angles - 1):
            segs = trace_view(geometry, angle_index)
            assert len(segs) > 0
            assert segs.ray_index.min() >= angle_index * k
            assert segs.ray_index.max() < (angle_index + 1) * k
            assert segs.pixel_index.max() < geometry.grid.num_pixels
            assert (segs.length > 0).all()

    @pytest.mark.parametrize("spec", ["thread:2", "process:2"])
    def test_worker_tracing_is_bit_identical_to_serial(self, geometry, spec):
        serial = _trace(geometry, "serial")
        parallel = _trace(geometry, spec)
        assert parallel.shape == serial.shape == (
            geometry.num_rays, geometry.grid.num_pixels
        )
        for name in ("indptr", "indices", "data"):
            got, want = getattr(parallel, name), getattr(serial, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("spec", ["serial", "2", "process:2"])
    @pytest.mark.parametrize("dtype", [None, "float64"])
    def test_traced_in_order_equals_traced_row_major_then_reordered(
        self, geometry, dtype, spec
    ):
        """The ordered pair straight from the builder is, array for
        array and dtype for dtype, the row-major trace permuted and
        re-sorted (the chain ``preprocess`` ran before the tracer took
        the rank arrays)."""
        op, _ = preprocess(
            geometry, config=OperatorConfig(kernel="csr", dtype=dtype, workers=spec)
        )
        matrix = (
            CSRMatrix.from_scipy(
                build_projection_matrix(geometry), dtype=dtype or "float32"
            )
            .permute(op.sino_ordering.perm, op.tomo_ordering.rank)
            .sort_rows_by_index()
        )
        for got, want in ((op.matrix, matrix), (op.transpose, scan_transpose(matrix))):
            assert got.shape == want.shape
            for name in ("displ", "ind", "val"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("which", ["row_rank", "col_rank"])
    def test_a_bad_rank_array_is_rejected_before_any_view_is_traced(
        self, geometry, which, monkeypatch
    ):
        def no_tracing(*args):
            raise AssertionError("traced a view before validating the ranks")

        monkeypatch.setattr(matrix_builder, "trace_view", no_tracing)
        size = {"row_rank": geometry.num_rays, "col_rank": geometry.grid.num_pixels}[
            which
        ]
        out_of_range, repeated = np.arange(size), np.arange(size)
        out_of_range[0] = size
        repeated[1] = repeated[0]
        for bad, match in (
            (np.arange(size - 1), "shape"),
            (np.arange(size).reshape(1, -1), "shape"),
            (out_of_range, "outside"),
            (-out_of_range, "outside"),
            (repeated, "injective"),
        ):
            with pytest.raises(ValueError, match=match):
                build_projection_matrix(geometry, **{which: bad})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_view_range_emits_ray_counts_and_eight_byte_pairs(self, geometry, dtype):
        """A view range is one count per ray of the range and two
        streams — int32 columns and values already in the matrix's
        dtype, with or without a rank array — trimmed to the nonzeros
        traced.  An empty range gives empty arrays."""
        reverse = np.arange(geometry.grid.num_pixels, dtype=np.int32)[::-1]
        for col_rank in (None, reverse):
            for start, stop in ((0, 2), (1, 1)):
                views = [(view, geometry.num_channels) for view in range(start, stop)]
                counts, cols, vals = matrix_builder.trace_view_range(
                    (geometry, views, col_rank, np.dtype(dtype))
                )
                assert (cols.dtype, vals.dtype) == (np.int32, dtype)
                assert counts.shape == ((stop - start) * geometry.num_channels,)
                assert cols.shape == vals.shape == (counts.sum(),)
                assert (cols.size > 0) == (stop > start)

    def test_distributed_preprocess_with_more_ranks_than_angles(self, geometry):
        """Ranks left without an angle trace an empty range and still
        receive, and assemble, their tomogram columns."""
        ranks = geometry.num_angles + 3
        dist = distributed_preprocess(geometry, ranks)
        op, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
        assert dist.per_rank_nnz().sum() == op.matrix.nnz
        x = np.linspace(0.0, 1.0, op.num_pixels).astype(np.float32)
        np.testing.assert_allclose(
            dist.forward(x), op.matrix.spmv(x), rtol=1e-5, atol=1e-5
        )

    def test_plan_cache_misses_then_hits_with_an_equal_operator(
        self, geometry, tmp_path
    ):
        cold, cold_report = preprocess(geometry, config=SMALL, cache=tmp_path)
        warm, warm_report = preprocess(geometry, config=SMALL, cache=tmp_path)
        assert not cold_report.cache_hit and warm_report.cache_hit
        assert cold_report.cache_key == warm_report.cache_key
        _assert_same_operator(warm, cold)
        assert warm.config == cold.config == SMALL
        # No plan holds a layout; an 8-slot scan's is ``Q``.
        assert warm.buffered_forward is None
        assert warm._orbit == (orbit_group(geometry) is not None)

    def test_archive_round_trips_to_an_equal_geometry_of_the_same_class(
        self, geometry, tmp_path
    ):
        op, _ = preprocess(geometry, config=SMALL)
        loaded = load_operator(save_operator(tmp_path / "op.npz", op))
        _assert_same_operator(loaded, op)
        x = np.linspace(0.0, 1.0, op.num_pixels)
        assert np.array_equal(loaded.forward(x), op.forward(x))

    def test_adjointness_fp64(self, geometry):
        op, _ = preprocess(
            geometry, config=OperatorConfig(kernel="csr", dtype="float64")
        )
        rng = np.random.default_rng(7)
        x = rng.random(op.num_pixels)
        y = rng.random(op.num_rays)
        lhs = float(op.forward(x) @ y)
        rhs = float(x @ op.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_image_space_helpers_use_the_geometry_shapes(self, geometry):
        op, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"))
        rng = np.random.default_rng(11)
        image = rng.random(geometry.volume_shape)
        sinogram = rng.random(geometry.sinogram_shape)
        back = op.ordered_to_image(op.image_to_ordered(image))
        assert back.shape == geometry.volume_shape
        assert np.array_equal(back, image)
        back = op.ordered_to_sinogram(op.sinogram_to_ordered(sinogram))
        assert back.shape == geometry.sinogram_shape
        assert np.array_equal(back, sinogram)
        assert op.project_image(image).shape == geometry.sinogram_shape
        assert op.backproject_sinogram(sinogram).shape == geometry.volume_shape


class TestOneSeam:
    def test_the_3d_helpers_are_the_2d_helpers(self):
        for alias, name in (
            ("volume_to_ordered", "image_to_ordered"),
            ("ordered_to_volume", "ordered_to_image"),
            ("projections_to_ordered", "sinogram_to_ordered"),
            ("ordered_to_projections", "ordered_to_sinogram"),
            ("project_volume", "project_image"),
            ("backproject_projections", "backproject_sinogram"),
        ):
            assert vars(MemXCTOperator)[alias] is vars(MemXCTOperator)[name]

    def test_3d_aliases_round_trip_a_cone_volume_and_stack(self):
        g = GEOMETRIES["cone"]
        op, _ = preprocess(g, config=OperatorConfig(kernel="csr"))
        rng = np.random.default_rng(3)
        volume = rng.random(g.volume_shape)
        stack = rng.random(g.sinogram_shape)
        assert g.volume_shape == (4, 6, 6) and g.sinogram_shape == (8, 4, 6)
        assert np.array_equal(op.ordered_to_volume(op.volume_to_ordered(volume)), volume)
        assert np.array_equal(
            op.ordered_to_projections(op.projections_to_ordered(stack)), stack
        )
        assert np.array_equal(op.project_volume(volume), op.project_image(volume))
        assert op.backproject_projections(stack).shape == g.volume_shape

    def test_fan_and_parallel_of_equal_size_get_different_plan_keys(self):
        parallel, fan = GEOMETRIES["parallel"], GEOMETRIES["fan"]
        assert parallel.sinogram_shape == fan.sinogram_shape
        assert plan_fingerprint(parallel) != plan_fingerprint(fan)

    def test_parallel_and_cone_fingerprint_documents_are_unchanged(self):
        # The documents existing cache keys hashed, but for one key: a
        # half-turn parallel scan traces each view orbit once, which may
        # move its plan values by an ulp, so its document gains
        # ``view_symmetry``.  Any other parallel scan keeps its document
        # (and its plan bytes).
        assert GEOMETRIES["parallel"].fingerprint_fields() == {
            "num_angles": 16,
            "num_channels": 12,
            "angle_range": "0x1.921fb54442d18p+1",
            "grid_n": 12,
            "pixel_size": "0x1.0000000000000p+0",
            "view_symmetry": "half-turn",
        }
        assert ParallelBeamGeometry(16, 12, angle_range=2 * np.pi).fingerprint_fields() == {
            "num_angles": 16,
            "num_channels": 12,
            "angle_range": "0x1.921fb54442d18p+2",
            "grid_n": 12,
            "pixel_size": "0x1.0000000000000p+0",
        }
        assert GEOMETRIES["cone"].fingerprint_fields() == {
            "kind": "cone",
            "num_angles": 8,
            "det_rows": 4,
            "det_cols": 6,
            "source_distance": "0x1.e000000000000p+4",
            "detector_distance": "0x1.e000000000000p+4",
            "det_spacing": "0x1.0000000000000p+1",
            "angle_range": "0x1.921fb54442d18p+2",
            "grid_n": 6,
            "grid_nz": 4,
            "voxel_size": "0x1.0000000000000p+0",
        }

    def test_parallel_archive_carries_no_kind_and_fan_only_adds_keys(self, tmp_path):
        """No plan archives a layout, so a parallel plan of ``A`` (15
        views) and one of ``Q`` (16 views) have the same keys."""
        keys = {}
        for name, geometry in (
            ("parallel", ParallelBeamGeometry(15, 12)),
            ("fan", GEOMETRIES["fan"]),
            ("orbit", GEOMETRIES["parallel"]),
        ):
            op, _ = preprocess(geometry, config=SMALL)
            with np.load(save_operator(tmp_path / name, op)) as npz:
                keys[name] = set(npz.files)
                assert int(npz["format_version"]) == FORMAT_VERSION
        assert "geometry_kind" not in keys["parallel"]
        assert keys["fan"] - keys["parallel"] == {
            "geometry_kind", "source_distance", "fan_angle"
        }
        assert keys["parallel"] <= keys["fan"]
        assert keys["orbit"] == keys["parallel"]

    def test_fan_matrix_matches_the_dedicated_builder_it_replaced(self):
        # shape / nnz / CRC recorded from the parent commit's
        # build_fan_projection_matrix (its own per-view loop).
        matrix = build_projection_matrix(GEOMETRIES["fan"])
        crc = 0
        for array in (matrix.indptr, matrix.indices, matrix.data):
            crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
        assert matrix.shape == (192, 144)
        assert matrix.nnz == 2768
        assert matrix.data.dtype == np.float32
        assert crc == 940297242
