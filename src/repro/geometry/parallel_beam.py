"""Parallel-beam scan geometry.

A parallel-beam XCT scan measures line integrals of the attenuation
field along parallel rays.  A sinogram has ``M`` rows (projection
angles theta) and ``N`` columns (detector channels).  Channel ``k`` of
projection ``j`` corresponds to the ray

    p(t) = o_k + t * d_j

where ``d_j = (-sin(theta_j), cos(theta_j))`` is the ray direction and
``o_k`` lies on the detector axis ``(cos(theta_j), sin(theta_j))`` at a
signed offset ``s_k`` from the rotation axis.  Detector channels span
the full tomogram width, matching the raster-scan geometry of the
paper's datasets (Table 3: sinogram ``M x N`` pairs with an ``N x N``
tomogram).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import Grid2D, RayGroup, ScanGeometry

__all__ = ["ParallelBeamGeometry", "Ray"]

#: Pixel maps of view slots 1-3 (see :meth:`ParallelBeamGeometry.ray_group`).
_VIEW_MAPS = ("diagonal", "quarter", "mirror")


@lru_cache(maxsize=4)
def _pixel_maps(n: int) -> dict[str, np.ndarray]:
    """Flat pixel index maps of an ``n x n`` grid, ``(ix, iy)`` to the
    x-mirror ``(n-1-ix, iy)``, quarter turn ``(n-1-iy, ix)`` and
    diagonal ``(iy, ix)``."""
    iy, ix = np.divmod(np.arange(n * n, dtype=np.int32), np.int32(n))
    maps = {"mirror": iy * n + n - 1 - ix, "quarter": ix * n + n - 1 - iy, "diagonal": ix * n + iy}
    for pixel_map in maps.values():  # shared by every caller
        pixel_map.flags.writeable = False
    return maps


@dataclass(frozen=True)
class Ray:
    """A single measurement ray: origin point and unit direction."""

    origin: tuple[float, float]
    direction: tuple[float, float]
    angle_index: int
    channel_index: int


@dataclass(frozen=True)
class ParallelBeamGeometry(ScanGeometry):
    """Parallel-beam geometry for an ``M x N`` sinogram on an ``N x N`` grid.

    Parameters
    ----------
    num_angles:
        Number of projection angles ``M``, spread uniformly over
        ``[0, angle_range)``.
    num_channels:
        Number of detector channels ``N`` per projection.
    grid:
        Tomogram pixel grid.  Defaults to an ``N x N`` unit-pixel grid.
    angle_range:
        Angular coverage in radians; pi (half turn) is the standard
        parallel-beam scan since opposite rays are redundant.
    """

    num_angles: int
    num_channels: int
    grid: Grid2D = field(default=None)  # type: ignore[assignment]
    angle_range: float = np.pi

    def __post_init__(self) -> None:
        if self.num_angles <= 0 or self.num_channels <= 0:
            raise ValueError(
                f"geometry must be non-empty, got {self.num_angles} x {self.num_channels}"
            )
        if self.grid is None:
            object.__setattr__(self, "grid", Grid2D(self.num_channels))

    def angles(self) -> np.ndarray:
        """Projection angles in radians, shape ``(M,)``."""
        return np.arange(self.num_angles) * (self.angle_range / self.num_angles)

    def channel_offsets(self) -> np.ndarray:
        """Signed physical detector offsets ``s_k``, shape ``(N,)``.

        Channels are centred on the rotation axis and spaced one pixel
        apart, covering the tomogram width exactly.
        """
        n = self.num_channels
        return (np.arange(n) - n / 2.0 + 0.5) * self.grid.pixel_size

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions per angle, shape ``(M, 2)``."""
        theta = self.angles()
        return np.stack([-np.sin(theta), np.cos(theta)], axis=1)

    def detector_axes(self) -> np.ndarray:
        """Unit detector-axis directions per angle, shape ``(M, 2)``."""
        theta = self.angles()
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)

    def ray_origins(self, angle_index: int) -> np.ndarray:
        """Physical origins of all channels of one projection, shape ``(N, 2)``.

        Origins sit on the detector axis through the rotation centre;
        since rays are infinite lines, any point on the ray serves.
        """
        axis = self.detector_axes()[angle_index]
        s = self.channel_offsets()
        return s[:, None] * axis[None, :]

    def ray(self, angle_index: int, channel_index: int) -> Ray:
        """Construct the :class:`Ray` for one sinogram entry."""
        if not 0 <= angle_index < self.num_angles:
            raise IndexError(f"angle index {angle_index} out of range")
        if not 0 <= channel_index < self.num_channels:
            raise IndexError(f"channel index {channel_index} out of range")
        o = self.ray_origins(angle_index)[channel_index]
        d = self.ray_directions()[angle_index]
        return Ray(
            origin=(float(o[0]), float(o[1])),
            direction=(float(d[0]), float(d[1])),
            angle_index=angle_index,
            channel_index=channel_index,
        )

    def _view_slot(self, angle_index: int) -> tuple[int, int]:
        """``(source, slot)`` of a view: slot 0 keeps the pixels, slots
        1-3 move them by :data:`_VIEW_MAPS`."""
        j = int(angle_index)
        if float(self.angle_range) != np.pi:
            return j, 0
        m = self.num_angles
        if m % 2:
            return (j, 0) if 2 * j <= m else (m - j, 3)
        h = m // 2
        source = min(j % h, h - j % h)
        if j == source or (j == h and self._along_grid_lines()):
            return j, 0
        if j <= h:
            return source, 1
        return source, 2 if j == h + source else 3

    def _along_grid_lines(self) -> bool:
        """Whether the rays of views 0 and ``M/2`` run along grid lines
        (``n - N`` odd), where a trace splits them by rounding."""
        return bool((self.grid.n - self.num_channels) % 2)

    @lru_cache(maxsize=4)  # a geometry is a small frozen (hashable) key
    def ray_group(self) -> RayGroup | None:
        """Over exactly pi, the x-mirror takes view ``j`` to ``M - j``
        and, for even ``M``, the quarter turn to ``j + M/2`` and the
        diagonal to ``M/2 - j``, each keeping the channel (a view's
        source is the smallest view of its orbit), and the half turn
        takes channel ``c`` to ``N-1-c`` of the same view, with pixel
        ``p`` moved to ``P-1-p``.  That makes 8 slots (the square's
        dihedral group): ``M/4 + 1`` source views store their first
        ``ceil(N/2)`` channels.  Odd ``M`` has the mirror alone: ``(M +
        1)/2`` source views store every channel.  Where the rays of
        views 0 and ``M/2`` run along grid lines (``n - N`` odd), which
        a direct trace splits by rounding, view ``M/2`` is a source too
        and both store every channel.
        """
        if float(self.angle_range) != np.pi:
            return None
        m, n, pixels = self.num_angles, self.num_channels, self.grid.num_pixels
        maps = _pixel_maps(self.grid.n)
        rows = [np.arange(pixels, dtype=np.int32)] + [maps[name] for name in _VIEW_MAPS]
        views, slots = np.array([self._view_slot(j) for j in range(m)]).T
        channels = np.arange(n)
        source = views[:, None] * n + channels
        slot = np.repeat(slots, n).reshape(m, n)
        if m % 2 == 0:
            rows += [pixels - 1 - row for row in rows]
            turned = channels >= (n + 1) // 2
            if self._along_grid_lines():
                turned = turned & ((views % (m // 2)) != 0)[:, None]
            source = np.where(turned, views[:, None] * n + n - 1 - channels, source)
            slot = slot + 4 * turned
        group = RayGroup(np.stack(rows), source.ravel(), slot.ravel().astype(np.int64))
        for array in (group.maps, group.source, group.slot):  # shared by every caller
            array.flags.writeable = False
        return group

    def fingerprint_fields(self) -> dict:
        """Geometry section of the plan fingerprint (see repro.cache).

        No ``kind`` entry: the document parallel-beam keys have always
        hashed, plus ``view_symmetry`` where :meth:`ray_group` maps
        rays (a mapped ray may differ from its direct trace by an ulp).
        """
        fields = {
            "num_angles": int(self.num_angles),
            "num_channels": int(self.num_channels),
            "angle_range": float(self.angle_range).hex(),
            "grid_n": int(self.grid.n),
            "pixel_size": float(self.grid.pixel_size).hex(),
        }
        if float(self.angle_range) == np.pi:
            fields["view_symmetry"] = "half-turn"
        return fields

    @classmethod
    def from_archive(cls, data) -> "ParallelBeamGeometry":
        """Rebuild from the (common) keys :meth:`archive_fields` wrote."""
        return cls(
            int(data["num_angles"]),
            int(data["num_channels"]),
            grid=Grid2D(int(data["grid_n"]), float(data["pixel_size"])),
            angle_range=float(data["angle_range"]),
        )
