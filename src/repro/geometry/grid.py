"""Pixel grid describing the tomogram (reconstruction) domain.

MemXCT reconstructs a square ``N x N`` tomogram from a sinogram with
``M`` projection angles and ``N`` detector channels.  The grid maps
integer pixel coordinates to physical coordinates used by the ray
tracer.  Physical units are chosen so that one pixel has unit side
length; the grid is centred on the origin, which coincides with the
rotation axis of the scan.

:class:`ScanGeometry` is the seam every scan geometry shares: the
array shapes and ordering rectangles the rest of the package reads
instead of asking a geometry what kind it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid2D", "RayGroup", "ScanGeometry"]


@dataclass(frozen=True)
class Grid2D:
    """A square 2D pixel grid centred on the rotation axis.

    Parameters
    ----------
    n:
        Number of pixels along each side.  The grid covers the physical
        square ``[-n/2, n/2] x [-n/2, n/2]``.
    pixel_size:
        Physical side length of one pixel (default 1.0).  Intersection
        lengths returned by the ray tracer scale linearly with it.
    """

    n: int
    pixel_size: float = 1.0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"grid size must be positive, got {self.n}")
        if self.pixel_size <= 0:
            raise ValueError(f"pixel size must be positive, got {self.pixel_size}")

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(rows, cols)`` of the tomogram."""
        return (self.n, self.n)

    @property
    def num_pixels(self) -> int:
        """Total pixel count ``n * n``."""
        return self.n * self.n

    @property
    def extent(self) -> float:
        """Physical side length of the grid."""
        return self.n * self.pixel_size

    @property
    def half_extent(self) -> float:
        """Physical distance from centre to an edge."""
        return 0.5 * self.extent

    def x_planes(self) -> np.ndarray:
        """Physical x coordinates of the ``n + 1`` vertical grid lines."""
        return (np.arange(self.n + 1) - self.n / 2.0) * self.pixel_size

    def y_planes(self) -> np.ndarray:
        """Physical y coordinates of the ``n + 1`` horizontal grid lines."""
        return self.x_planes()

    def pixel_index(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Row-major flat index of pixel column ``ix``, row ``iy``.

        ``iy`` indexes rows from the bottom of the physical domain so
        that ``tomogram.reshape(n, n)[iy, ix]`` addresses the pixel whose
        lower-left corner is at ``(x_planes()[ix], y_planes()[iy])``.
        """
        return np.asarray(iy) * self.n + np.asarray(ix)

    def contains(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Boolean mask of pixel coordinates inside the grid."""
        ix = np.asarray(ix)
        iy = np.asarray(iy)
        return (ix >= 0) & (ix < self.n) & (iy >= 0) & (iy < self.n)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical ``(x, y)`` centre coordinates of all pixels.

        Returns two arrays of shape ``(n, n)`` in row-major pixel order
        (row index = y, column index = x).
        """
        c = (np.arange(self.n) - self.n / 2.0 + 0.5) * self.pixel_size
        x, y = np.meshgrid(c, c, indexing="xy")
        return x, y


@dataclass(frozen=True)
class RayGroup:
    """The ray symmetry of a scan: which rays are traced, and how every
    other ray is one of them moved across the grid.

    Ray ``r`` (row-major) is ray ``source[r]``'s trace with pixel ``p``
    moved to ``maps[slot[r], p]``.  Slot 0 is the identity, and a traced
    ray is its own source in slot 0.  A view's traced rays are its first
    channels.
    """

    maps: np.ndarray  # (slots, pixels) row-major pixel maps; row 0 the identity
    source: np.ndarray  # (rays,) int64
    slot: np.ndarray  # (rays,) int64

    def stored_rays(self) -> np.ndarray:
        """The traced rays, ascending (row-major)."""
        return np.flatnonzero(self.source == np.arange(len(self.source)))


class ScanGeometry:
    """What a scan geometry provides to tracing, preprocessing and storage.

    A geometry is a frozen dataclass with ``num_angles``,
    ``num_channels`` (rays per view) and a ``grid``; on top of those it
    states five facts under the same names for every kind (see
    ``docs/architecture.md``):

    * the array shapes :attr:`sinogram_shape` / :attr:`volume_shape`;
    * the two ordering rectangles :attr:`tomo_layout_shape` /
      :attr:`sino_layout_shape` — the space-filling orderings are
      bijections over flat indices, so a domain that is not literally
      2D only has to name an equivalent rectangle;
    * :meth:`ray_group` — its symmetry: which traced ray, pixel-mapped,
      each ray is;
    * ``fingerprint_fields()`` — its section of the plan fingerprint;
    * ``archive_fields()`` / ``from_archive(data)`` — the operator
      archive keys it writes and rebuilds itself from.

    The defaults below are the planar (2D) answers, no symmetry and the
    archive keys every kind shares; the rest is written out by each class.
    """

    @property
    def num_rays(self) -> int:
        """Total ray count ``M * num_channels``."""
        return self.num_angles * self.num_channels

    @property
    def sinogram_shape(self) -> tuple[int, ...]:
        """Measurement array shape, ``(M, N)`` for a planar scan."""
        return (self.num_angles, self.num_channels)

    @property
    def volume_shape(self) -> tuple[int, ...]:
        """Reconstruction array shape (the grid's)."""
        return self.grid.shape

    @property
    def tomo_layout_shape(self) -> tuple[int, int]:
        """Rectangle the tomogram-domain ordering is built over."""
        return self.volume_shape

    @property
    def sino_layout_shape(self) -> tuple[int, int]:
        """Rectangle the sinogram-domain ordering is built over."""
        return self.sinogram_shape

    def ray_index(self, angle_index: np.ndarray, channel_index: np.ndarray) -> np.ndarray:
        """Row-major flat measurement index of ``(angle, channel)`` pairs."""
        return np.asarray(angle_index) * self.num_channels + np.asarray(channel_index)

    def ray_group(self) -> RayGroup | None:
        """The :class:`RayGroup` of the scan; ``None`` (the default)
        when every ray is traced itself."""
        return None

    def archive_fields(self) -> dict:
        """Operator-archive keys of this geometry (see repro.io).

        These five are written by every kind; a kind with more state
        adds ``geometry_kind`` and its own keys (an archive without
        ``geometry_kind`` is parallel-beam).
        """
        return {
            "num_angles": self.num_angles,
            "num_channels": self.num_channels,
            "angle_range": self.angle_range,
            "pixel_size": self.grid.pixel_size,
            "grid_n": self.grid.n,
        }
