"""Siddon ray tracing on a 2D pixel grid (paper ref [15]).

Computes, for each measurement ray, the indices of the pixels it
intersects and the exact intersection lengths.  Those (index, length)
pairs are the nonzeros of the forward-projection matrix ``A``:
CompXCT recomputes them on the fly each iteration, MemXCT memoizes
them once (paper Sections 2.3/2.4).

Two implementations are provided:

* :func:`trace_ray` — the textbook per-ray Siddon algorithm, used as a
  reference in tests;
* :func:`trace_angle` — a vectorized variant that traces all detector
  channels of one projection angle at once; all rays of an angle share
  a direction, so their grid-plane crossing parameters form dense 2D
  arrays that numpy sorts in one call.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Grid2D, ParallelBeamGeometry

__all__ = ["trace_ray", "trace_angle", "trace_rays", "RaySegments"]

# Segments shorter than this fraction of a pixel are discarded: they are
# artifacts of a ray grazing a grid corner, where x- and y-plane
# crossings coincide.
_MIN_SEGMENT = 1e-9


class RaySegments:
    """Pixel intersections of a batch of rays.

    Attributes
    ----------
    ray_index:
        Flat sinogram index of each segment's ray.
    pixel_index:
        Row-major flat tomogram index of each segment's pixel.
    length:
        Physical intersection length of each segment.
    """

    __slots__ = ("ray_index", "pixel_index", "length")

    def __init__(self, ray_index: np.ndarray, pixel_index: np.ndarray, length: np.ndarray):
        self.ray_index = np.asarray(ray_index, dtype=np.int64)
        self.pixel_index = np.asarray(pixel_index, dtype=np.int64)
        self.length = np.asarray(length, dtype=np.float64)
        if not (self.ray_index.shape == self.pixel_index.shape == self.length.shape):
            raise ValueError("segment arrays must have identical shapes")

    def __len__(self) -> int:
        return self.ray_index.shape[0]


def _entry_exit(
    ox: np.ndarray, oy: np.ndarray, dx: float, dy: float, half: float
) -> tuple[np.ndarray, np.ndarray]:
    """Slab-method parametric entry/exit of rays with the grid square.

    Returns ``(t_min, t_max)`` arrays; rays that miss the grid get
    ``t_min >= t_max``.
    """
    big = 4.0 * half / max(abs(dx), abs(dy), 1e-300) + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(dx) > 0:
            tx0 = (-half - ox) / dx
            tx1 = (half - ox) / dx
            txmin = np.minimum(tx0, tx1)
            txmax = np.maximum(tx0, tx1)
        else:
            inside = np.abs(ox) <= half
            txmin = np.where(inside, -big, big)
            txmax = np.where(inside, big, -big)
        if abs(dy) > 0:
            ty0 = (-half - oy) / dy
            ty1 = (half - oy) / dy
            tymin = np.minimum(ty0, ty1)
            tymax = np.maximum(ty0, ty1)
        else:
            inside = np.abs(oy) <= half
            tymin = np.where(inside, -big, big)
            tymax = np.where(inside, big, -big)
    return np.maximum(txmin, tymin), np.minimum(txmax, tymax)


def trace_angle(
    geometry: ParallelBeamGeometry, angle_index: int, channels: int | None = None
) -> RaySegments:
    """Trace the first ``channels`` detector channels (default all ``N``)
    of one projection angle.

    Returns the concatenated pixel segments of those rays, ordered by
    channel then by position along the ray.
    """
    grid = geometry.grid
    n = grid.n
    half = grid.half_extent
    d = geometry.ray_directions()[angle_index]
    dx, dy = float(d[0]), float(d[1])
    origins = geometry.ray_origins(angle_index)[:channels]
    ox = origins[:, 0]
    oy = origins[:, 1]
    nchan = len(origins)

    t_min, t_max = _entry_exit(ox, oy, dx, dy, half)
    hits = t_min < t_max - _MIN_SEGMENT
    # Crossing parameters with all x-planes and y-planes, per ray.
    planes = grid.x_planes()
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(dx) > _MIN_SEGMENT:
            tx = (planes[None, :] - ox[:, None]) / dx
        else:
            tx = np.broadcast_to(t_min[:, None], (nchan, n + 1)).copy()
        if abs(dy) > _MIN_SEGMENT:
            ty = (planes[None, :] - oy[:, None]) / dy
        else:
            ty = np.broadcast_to(t_min[:, None], (nchan, n + 1)).copy()
    t_all = np.concatenate([tx, ty], axis=1)
    # Clamp out-of-grid crossings onto the entry parameter so they
    # collapse into zero-length segments after sorting.
    np.clip(t_all, t_min[:, None], t_max[:, None], out=t_all)
    t_all.sort(axis=1)

    seg_len = np.diff(t_all, axis=1)  # |direction| == 1, so dt == length
    # Only segments that count reach the midpoint and pixel arithmetic.
    keep = (seg_len > _MIN_SEGMENT) & hits[:, None]
    chan = np.repeat(np.arange(nchan), np.count_nonzero(keep, axis=1))
    t_mid, seg_len = 0.5 * (t_all[:, :-1][keep] + t_all[:, 1:][keep]), seg_len[keep]
    inv = 1.0 / grid.pixel_size
    ix = np.floor((ox[chan] + t_mid * dx + half) * inv).astype(np.int64)
    iy = np.floor((oy[chan] + t_mid * dy + half) * inv).astype(np.int64)
    valid = (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)

    ray_index = geometry.ray_index(angle_index, chan[valid])
    pixel_index = grid.pixel_index(ix[valid], iy[valid])
    return RaySegments(ray_index, pixel_index, seg_len[valid])


def trace_rays(
    grid: Grid2D,
    origins: np.ndarray,
    directions: np.ndarray,
    ray_ids: np.ndarray,
) -> RaySegments:
    """Trace a batch of rays with *individual* directions.

    The generic variant behind fan-beam support: unlike
    :func:`trace_angle` the rays need not share a direction, so the
    crossing parameters are computed with per-ray divisions.
    Directions must be unit vectors (segment lengths equal parameter
    differences).

    Parameters
    ----------
    grid:
        Pixel grid.
    origins, directions:
        Arrays of shape ``(K, 2)``.
    ray_ids:
        Flat sinogram indices of the rays, shape ``(K,)``.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    ray_ids = np.asarray(ray_ids, dtype=np.int64)
    if origins.shape != directions.shape or origins.ndim != 2 or origins.shape[1] != 2:
        raise ValueError("origins and directions must both have shape (K, 2)")
    if ray_ids.shape[0] != origins.shape[0]:
        raise ValueError("ray_ids must have one entry per ray")
    n = grid.n
    half = grid.half_extent
    ox, oy = origins[:, 0], origins[:, 1]
    dx, dy = directions[:, 0], directions[:, 1]

    # Per-ray slab entry/exit.
    big = 8.0 * half + np.abs(ox) + np.abs(oy) + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tx0 = np.where(np.abs(dx) > _MIN_SEGMENT, (-half - ox) / dx, -big)
        tx1 = np.where(np.abs(dx) > _MIN_SEGMENT, (half - ox) / dx, big)
        ty0 = np.where(np.abs(dy) > _MIN_SEGMENT, (-half - oy) / dy, -big)
        ty1 = np.where(np.abs(dy) > _MIN_SEGMENT, (half - oy) / dy, big)
    degenerate_x = (np.abs(dx) <= _MIN_SEGMENT) & (np.abs(ox) > half)
    degenerate_y = (np.abs(dy) <= _MIN_SEGMENT) & (np.abs(oy) > half)
    t_min = np.maximum(np.minimum(tx0, tx1), np.minimum(ty0, ty1))
    t_max = np.minimum(np.maximum(tx0, tx1), np.maximum(ty0, ty1))
    hits = (t_min < t_max - _MIN_SEGMENT) & ~degenerate_x & ~degenerate_y

    planes = grid.x_planes()
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(
            (np.abs(dx) > _MIN_SEGMENT)[:, None],
            (planes[None, :] - ox[:, None]) / dx[:, None],
            t_min[:, None],
        )
        ty = np.where(
            (np.abs(dy) > _MIN_SEGMENT)[:, None],
            (planes[None, :] - oy[:, None]) / dy[:, None],
            t_min[:, None],
        )
    t_all = np.concatenate([tx, ty], axis=1)
    np.clip(t_all, t_min[:, None], t_max[:, None], out=t_all)
    t_all.sort(axis=1)

    seg_len = np.diff(t_all, axis=1)
    keep = (seg_len > _MIN_SEGMENT) & hits[:, None]
    ray = np.repeat(np.arange(len(keep)), np.count_nonzero(keep, axis=1))
    t_mid, seg_len = 0.5 * (t_all[:, :-1][keep] + t_all[:, 1:][keep]), seg_len[keep]
    inv = 1.0 / grid.pixel_size
    ix = np.floor((ox[ray] + t_mid * dx[ray] + half) * inv).astype(np.int64)
    iy = np.floor((oy[ray] + t_mid * dy[ray] + half) * inv).astype(np.int64)
    valid = (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
    return RaySegments(ray_ids[ray[valid]], grid.pixel_index(ix[valid], iy[valid]), seg_len[valid])


def trace_ray(geometry: ParallelBeamGeometry, angle_index: int, channel_index: int) -> RaySegments:
    """Reference per-ray Siddon trace (slow; used to validate
    :func:`trace_angle` in the test suite)."""
    grid = geometry.grid
    n = grid.n
    half = grid.half_extent
    ray = geometry.ray(angle_index, channel_index)
    ox, oy = ray.origin
    dx, dy = ray.direction

    t_min, t_max = _entry_exit(np.array([ox]), np.array([oy]), dx, dy, half)
    t_min, t_max = float(t_min[0]), float(t_max[0])
    if t_min >= t_max - _MIN_SEGMENT:
        empty = np.empty(0, dtype=np.int64)
        return RaySegments(empty, empty.copy(), np.empty(0))

    ts = [t_min, t_max]
    planes = grid.x_planes()
    if abs(dx) > _MIN_SEGMENT:
        ts.extend(((planes - ox) / dx).tolist())
    if abs(dy) > _MIN_SEGMENT:
        ts.extend(((planes - oy) / dy).tolist())
    t = np.unique(np.clip(np.asarray(ts), t_min, t_max))

    seg_len = np.diff(t)
    t_mid = 0.5 * (t[:-1] + t[1:])
    inv = 1.0 / grid.pixel_size
    ix = np.floor((ox + t_mid * dx + half) * inv).astype(np.int64)
    iy = np.floor((oy + t_mid * dy + half) * inv).astype(np.int64)
    valid = (seg_len > _MIN_SEGMENT) & (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)

    ray_flat = np.full(int(valid.sum()), geometry.ray_index(angle_index, channel_index))
    return RaySegments(ray_flat, grid.pixel_index(ix[valid], iy[valid]), seg_len[valid])
