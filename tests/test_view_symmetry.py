"""View symmetry: a half-turn parallel scan traces each orbit once.

On a square grid centred on the rotation axis, a uniform scan over pi
maps views onto each other — the x-mirror (view ``j`` to ``M - j``)
and, for even ``M``, the quarter turn (``j + M/2``) and the diagonal
(``M/2 - j``) — each keeping the channel index.  For even ``M`` the
half turn joins them (the ray group's 8 slots): channel ``N-1-c`` of a
view is channel ``c``'s trace with pixel ``p`` moved to ``P-1-p``, so
only the first half of a source view's channels is traced.  The
contract: a ray is, pair for pair, what a direct trace of it gives
(lengths to rounding); a geometry that declares no symmetry has no ray
group and traces every view directly; the expansion of the traced rows
is each ray's traced ray moved by its slot, bit for bit; and the build
is the same bytes however it is fanned out.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import preprocess
from repro.geometry import (
    ConeBeamGeometry,
    FanBeamGeometry,
    Grid2D,
    ParallelBeamGeometry,
    ScanGeometry,
)
from repro.parallel.backend import make_backend, parse_workers
from repro.trace import build_projection_matrix, trace_angle, trace_rays, trace_rays_3d, trace_view
from repro.trace.siddon import RaySegments


def _pairs(segs: RaySegments, num_pixels: int):
    """Each distinct ``(ray, pixel)`` of a trace and its summed length."""
    keys, inverse = np.unique(segs.ray_index * num_pixels + segs.pixel_index, return_inverse=True)
    return keys, np.bincount(inverse, weights=segs.length)


@st.composite
def half_turn_scans(draw):
    channels = draw(st.integers(2, 24))
    n = draw(st.integers(max(2, channels - 3), channels + 3).filter(lambda n: n != channels))
    pixel_size = draw(st.sampled_from([0.5, 1.0, 1.3]))
    return ParallelBeamGeometry(draw(st.integers(1, 48)), channels, grid=Grid2D(n, pixel_size))


@pytest.mark.parametrize("m", [36, 180, 192, 256, 17])
def test_traced_view_counts(m):
    """Stored rays: a source view's first 4 of 8 channels for even ``M``
    (all 8 for odd ``M``, which has no 8-slot group)."""
    views = {36: 10, 180: 46, 192: 49, 256: 65, 17: 9}[m]
    group = ParallelBeamGeometry(m, 8).ray_group()
    stored = group.stored_rays()
    assert len(np.unique(stored // 8)) == views
    assert len(stored) == views * (8 if m % 2 else 4)
    assert len(group.maps) == (4 if m % 2 else 8)


FIELDS = ("ray_index", "pixel_index", "length")


@st.composite
def any_half_turn_scan(draw):
    """``half_turn_scans`` with ``n = N`` allowed, and even ``M`` twice
    as likely (only even ``M`` turns channels)."""
    channels = draw(st.integers(2, 24))
    n = draw(st.integers(max(2, channels - 3), channels + 3))
    pixel_size = draw(st.sampled_from([0.5, 1.0, 1.3]))
    m = draw(st.integers(1, 24)) * draw(st.sampled_from([1, 2, 2]))
    return ParallelBeamGeometry(m, channels, grid=Grid2D(n, pixel_size))


@given(geometry=any_half_turn_scan())
@settings(max_examples=80, deadline=None)
def test_a_ray_is_its_traced_ray_moved_by_its_slot(geometry):
    """Every ray — a turned channel included — is its direct trace:
    the same pixels, lengths within ``rtol=1e-6``.  An odd ``N``'s
    centre channel is its own turn and is traced; so are views 0 and
    ``M/2`` whole where their rays run along grid lines."""
    m, n = geometry.num_angles, geometry.num_channels
    pixels = geometry.grid.num_pixels
    group = geometry.ray_group()
    views = [trace_angle(geometry, view) for view in range(m)]
    ray, pixel, length = (np.concatenate([getattr(v, f) for v in views]) for f in FIELDS)
    bounds = np.searchsorted(ray, np.arange(geometry.num_rays + 1))
    counts = np.diff(bounds)[group.source]
    take = np.concatenate([np.arange(bounds[s], bounds[s] + c) for s, c in zip(group.source, counts)])
    copied = RaySegments(
        np.repeat(np.arange(geometry.num_rays), counts),
        group.maps[np.repeat(group.slot, counts), pixel[take]],
        length[take],
    )
    got_keys, got = _pairs(copied, pixels)
    want_keys, want = _pairs(RaySegments(ray, pixel, length), pixels)
    assert np.array_equal(got_keys, want_keys)
    np.testing.assert_allclose(got, want, rtol=1e-6)
    stored = group.stored_rays()
    assert (group.slot[stored] == 0).all()
    # a source view is the smallest of its orbit; view M/2 is a source
    # too where its rays run along grid lines
    sources = np.unique(group.source // n)
    assert (group.source // n <= np.arange(geometry.num_rays) // n).all()
    along_lines = (geometry.grid.n - n) % 2
    assert len(sources) == ((m + 1) // 2 if m % 2 else m // 4 + 1 + along_lines)
    assert np.array_equal(sources, np.unique(stored // n))
    channel = np.arange(geometry.num_rays) % n
    turned = group.slot >= 4
    assert (group.source[turned] % n == n - 1 - channel[turned]).all()
    if m % 2:
        assert not turned.any()
        return
    assert np.isin(geometry.ray_index(sources, (n - 1) // 2), stored).all()
    if (geometry.grid.n - n) % 2:
        for view in {0, m // 2}:
            assert np.isin(geometry.ray_index(view, np.arange(n)), stored).all()


class TracedEveryRay(ParallelBeamGeometry):
    """The same scan without a ray group: every ray traced directly."""

    ray_group = ScanGeometry.ray_group


def assert_each_ray_is_its_traced_ray_moved(geometry, matrix, row_rank, col_rank):
    """Bit for bit, one slot's rays at a time: row ``row_rank[r]`` of
    ``matrix`` (a ``CSRMatrix``) is ray ``r``'s traced ray's row of a
    row-major build that traces every ray, pixels moved by ``r``'s slot
    and ranked by ``col_rank``, columns ascending."""
    group = geometry.ray_group()
    traced = build_projection_matrix(
        TracedEveryRay(geometry.num_angles, geometry.num_channels, grid=geometry.grid)
    )
    got = matrix.to_scipy()
    for slot, pixel_map in enumerate(group.maps):
        rays = np.flatnonzero(group.slot == slot)
        want = traced[group.source[rays]]
        want.indices = col_rank[pixel_map[want.indices]].astype(np.int32)
        want.has_sorted_indices = False
        want.sort_indices()
        ours = got[row_rank[rays]]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, name), getattr(want, name)), (slot, name)
        assert ours.data.dtype == want.data.dtype


@pytest.mark.parametrize(
    "workload, m, n",
    [("slice256", 256, 256), ("stack16/service8", 180, 128), ("cluster4", 192, 192)],
)
def test_the_expanded_a_is_each_ray_its_traced_ray_moved(workload, m, n):
    """The bench geometries: ``Q`` expanded through the 8 slots is the
    ordered ``A`` whose row of each ray is its traced ray's, pixels
    moved by its slot."""
    geometry = ParallelBeamGeometry(m, n)
    op, _ = preprocess(geometry)
    assert op.plan is not op.stored  # an orbit plan
    assert_each_ray_is_its_traced_ray_moved(
        geometry, op.matrix, op.sino_ordering.rank, op.tomo_ordering.rank
    )


@st.composite
def asymmetric_scans(draw):
    m, channels = draw(st.integers(1, 24)), draw(st.integers(3, 16))
    kind = draw(st.sampled_from(["full-turn", "limited", "near-pi", "fan", "cone"]))
    if kind == "fan":
        return FanBeamGeometry(m, channels, source_distance=2.0 * channels)
    if kind == "cone":
        return ConeBeamGeometry(m, draw(st.integers(1, 4)), channels, source_distance=4.0 * channels)
    angle_range = {"full-turn": 2 * np.pi, "limited": 0.5 * np.pi, "near-pi": np.nextafter(np.pi, 4)}
    return ParallelBeamGeometry(m, channels, angle_range=angle_range[kind])


@given(geometry=asymmetric_scans())
@settings(max_examples=30, deadline=None)
def test_a_geometry_without_symmetry_traces_every_view(geometry):
    """No ray group: every view is traced whole by the direct tracer of
    its kind, and the fingerprint document carries no ``view_symmetry``."""
    assert geometry.ray_group() is None
    assert "view_symmetry" not in geometry.fingerprint_fields()
    for view in range(geometry.num_angles):
        if isinstance(geometry, ParallelBeamGeometry):
            want = trace_angle(geometry, view)
        else:
            origins, directions = geometry.ray_bundle(view)
            tracer = trace_rays_3d if directions.shape[1] == 3 else trace_rays
            rays = geometry.ray_index(view, np.arange(geometry.num_channels))
            want = tracer(geometry.grid, origins, directions, rays)
        got = trace_view(geometry, view)
        for name in ("ray_index", "pixel_index", "length"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (view, name)


@pytest.fixture(scope="module")
def backends():
    made = {spec: make_backend(*parse_workers(spec)) for spec in ("2", "thread:3")}
    yield made
    for backend in made.values():
        backend.close()


@given(geometry=half_turn_scans(), ranked=st.booleans())
@settings(max_examples=12, deadline=None)
def test_fanned_out_builds_are_the_serial_bytes(backends, geometry, ranked):
    rng = np.random.default_rng(geometry.num_rays)
    ranks = {}
    if ranked:
        ranks = {
            "row_rank": rng.permutation(geometry.num_rays),
            "col_rank": rng.permutation(geometry.grid.num_pixels),
        }
    serial = build_projection_matrix(geometry, **ranks)
    for backend in backends.values():
        fanned = build_projection_matrix(geometry, backend=backend, **ranks)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(fanned, name), getattr(serial, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
