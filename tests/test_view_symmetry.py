"""View symmetry: a half-turn parallel scan traces each orbit once.

On a square grid centred on the rotation axis, a uniform scan over pi
maps views onto each other — the x-mirror (view ``j`` to ``M - j``)
and, for even ``M``, the quarter turn (``j + M/2``) and the diagonal
(``M/2 - j``) — each keeping the channel index.  ``trace_view`` traces
a view's orbit source and pixel-maps it.  For even ``M`` the half turn
joins them (the ray group's 8 slots): channel ``N-1-c`` of a view is
channel ``c``'s trace with pixel ``p`` moved to ``P-1-p``, so only the
first half of a source's channels is traced.  The contract: a derived
view or ray is, pair for pair, what a direct trace of it gives
(lengths to rounding); a geometry that declares no symmetry traces
every view itself; the expansion of the traced rows is the build that
traces every ray, bit for bit; and the build is the same bytes however
it is fanned out.
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


@given(geometry=half_turn_scans())
@settings(max_examples=60, deadline=None)
def test_a_derived_view_is_its_direct_trace(geometry):
    m = geometry.num_angles
    orbits = geometry.view_orbits()
    # view M/2 traces itself where its rays run along grid lines
    along_lines = (geometry.grid.n - geometry.num_channels) % 2
    assert len(orbits) == ((m + 1) // 2 if m % 2 else m // 4 + 1 + along_lines)
    for view in range(m):
        source, pixel_map = geometry.view_source(view)
        assert source == min(next(o for o in orbits if view in o))
        assert (pixel_map is None) == (source == view)
        got_keys, got = _pairs(trace_view(geometry, view), geometry.grid.num_pixels)
        want_keys, want = _pairs(trace_angle(geometry, view), geometry.grid.num_pixels)
        assert np.array_equal(got_keys, want_keys), (view, source)
        np.testing.assert_allclose(got, want, rtol=1e-6)


@pytest.mark.parametrize("m", [36, 180, 192, 256, 17])
def test_traced_view_counts(m):
    """Stored rays: a source view's first 4 of 8 channels for even ``M``
    (all 8 for odd ``M``, which has no 8-slot group)."""
    views = {36: 10, 180: 46, 192: 49, 256: 65, 17: 9}[m]
    geometry = ParallelBeamGeometry(m, 8)
    assert len(geometry.view_orbits()) == views
    group = geometry.ray_group()
    assert len(group.stored_rays()) == views * (8 if m % 2 else 4)
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
    channel = np.arange(geometry.num_rays) % n
    turned = group.slot >= 4
    assert (group.source[turned] % n == n - 1 - channel[turned]).all()
    if m % 2:
        assert not turned.any()
        return
    sources = np.array([v for v in range(m) if geometry.view_source(v)[1] is None])
    assert np.isin(geometry.ray_index(sources, (n - 1) // 2), stored).all()
    if (geometry.grid.n - n) % 2:
        for view in {0, m // 2}:
            assert np.isin(geometry.ray_index(view, np.arange(n)), stored).all()


class TracedEveryRay(ParallelBeamGeometry):
    """The same scan without a ray group: every channel of every view
    traced (a mapped view's trace is its source's)."""

    ray_group = ScanGeometry.ray_group


@pytest.mark.parametrize(
    "workload, m, n",
    [("slice256", 256, 256), ("stack16/service8", 180, 128), ("cluster4", 192, 192)],
)
def test_the_expanded_a_is_the_build_that_traces_every_ray(workload, m, n):
    """The bench geometries: ``Q`` expanded through the 8 slots is the
    ordered ``A`` of a build that traces every ray, bit for bit."""
    op, _ = preprocess(ParallelBeamGeometry(m, n))
    assert op.plan is not op.stored  # an orbit plan
    want = build_projection_matrix(
        TracedEveryRay(m, n), row_rank=op.sino_ordering.rank, col_rank=op.tomo_ordering.rank
    )
    got = op.matrix
    for ours, theirs in ((got.displ, want.indptr), (got.ind, want.indices), (got.val, want.data)):
        assert np.array_equal(ours, theirs)
    assert got.val.dtype == want.data.dtype


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
    """Every view is its own source, traced by the direct tracer of its
    kind, and the fingerprint document carries no ``view_symmetry``."""
    assert geometry.view_orbits() == [[v] for v in range(geometry.num_angles)]
    assert "view_symmetry" not in geometry.fingerprint_fields()
    for view in range(geometry.num_angles):
        assert geometry.view_source(view) == (view, None)
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
    made = {spec: make_backend(*parse_workers(spec)) for spec in ("2", "process:2")}
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
