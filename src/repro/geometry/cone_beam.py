"""Cone-beam scan geometry on a 3D voxel grid (extension beyond the paper).

MemXCT evaluates parallel-beam synchrotron slices, but Section 3's
memoization argument is geometry-agnostic: anything that yields rays
can be traced once into the same CSR/buffered/ELL structures.  The
cone-beam circular orbit — a point source and a flat 2D detector
rotating around the z axis — is the standard lab-/clinical-CT 3D
geometry (cf. TIGRE, arXiv 1905.03748; Petascale XCT, arXiv
2009.07226) and exercises the whole pipeline in 3D: every detector
pixel of every view is one ray through a :class:`Grid3D` voxel volume,
and the resulting matrix drops into the unchanged orderings,
transpose, kernel layouts, solvers, and distributed substrate.

The 2D machinery only ever needs a *layout rectangle* per domain (see
:class:`~repro.geometry.ScanGeometry`), so the 3D domains name theirs:
the volume as ``(nz * n, n)`` (slices stacked vertically) and the
projection stack as ``(num_angles * det_rows, det_cols)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import ScanGeometry

__all__ = ["Grid3D", "ConeBeamGeometry"]


@dataclass(frozen=True)
class Grid3D:
    """An ``n x n x nz`` voxel grid centred on the rotation axis.

    Parameters
    ----------
    n:
        Voxels along each transaxial side (x and y).  The grid covers
        ``[-n/2, n/2]^2`` in the rotation plane.
    nz:
        Voxels along the rotation axis z, covering ``[-nz/2, nz/2]``.
    voxel_size:
        Physical side length of one (cubic) voxel.
    """

    n: int
    nz: int
    voxel_size: float = 1.0

    def __post_init__(self) -> None:
        if self.n <= 0 or self.nz <= 0:
            raise ValueError(f"grid size must be positive, got {self.n} x {self.nz}")
        if self.voxel_size <= 0:
            raise ValueError(f"voxel size must be positive, got {self.voxel_size}")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape ``(nz, n, n)`` of the volume (z, y, x)."""
        return (self.nz, self.n, self.n)

    @property
    def num_voxels(self) -> int:
        return self.n * self.n * self.nz

    @property
    def num_pixels(self) -> int:
        """Alias of :attr:`num_voxels` (duck-types as a 2D grid)."""
        return self.num_voxels

    @property
    def pixel_size(self) -> float:
        """Alias of :attr:`voxel_size` (duck-types as a 2D grid)."""
        return self.voxel_size

    @property
    def extent(self) -> float:
        """Physical transaxial side length."""
        return self.n * self.voxel_size

    @property
    def half_extent(self) -> float:
        return 0.5 * self.extent

    @property
    def extent_z(self) -> float:
        """Physical axial height."""
        return self.nz * self.voxel_size

    @property
    def half_extent_z(self) -> float:
        return 0.5 * self.extent_z

    def x_planes(self) -> np.ndarray:
        """Physical x coordinates of the ``n + 1`` yz grid planes."""
        return (np.arange(self.n + 1) - self.n / 2.0) * self.voxel_size

    def y_planes(self) -> np.ndarray:
        return self.x_planes()

    def z_planes(self) -> np.ndarray:
        """Physical z coordinates of the ``nz + 1`` xy grid planes."""
        return (np.arange(self.nz + 1) - self.nz / 2.0) * self.voxel_size

    def voxel_index(
        self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
    ) -> np.ndarray:
        """Row-major flat index of voxel ``(ix, iy, iz)``.

        Matches ``volume.reshape(nz, n, n)[iz, iy, ix]`` with the same
        bottom-up axis conventions as :meth:`Grid2D.pixel_index` within
        each slice.
        """
        return (np.asarray(iz) * self.n + np.asarray(iy)) * self.n + np.asarray(ix)

    def contains(self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
        ix, iy, iz = np.asarray(ix), np.asarray(iy), np.asarray(iz)
        return (
            (ix >= 0) & (ix < self.n)
            & (iy >= 0) & (iy < self.n)
            & (iz >= 0) & (iz < self.nz)
        )


@dataclass(frozen=True)
class ConeBeamGeometry(ScanGeometry):
    """Circular-orbit cone-beam geometry with a flat 2D detector.

    The source orbits at radius ``source_distance`` in the ``z = 0``
    plane; the detector (``det_rows x det_cols`` pixels) sits opposite
    at radius ``detector_distance``, perpendicular to the central ray,
    with its row axis parallel to z.  Projection data is a
    ``(num_angles, det_rows, det_cols)`` stack; each detector pixel of
    each view is one ray from the source point through the pixel
    centre.

    Parameters
    ----------
    num_angles:
        Source positions ``M`` over ``[0, angle_range)`` (cone data
        needs the full turn by default; opposite rays are not
        redundant).
    det_rows, det_cols:
        Detector pixels along z (rows) and transaxially (columns).
    source_distance:
        Rotation axis to source, in voxel units; must clear the grid's
        transaxial diagonal.
    detector_distance:
        Rotation axis to detector plane (defaults to
        ``source_distance``).
    det_spacing:
        Detector pixel pitch; defaults to ``magnification *
        voxel_size`` so the panel covers the magnified volume exactly
        when ``det_cols = n`` / ``det_rows = nz`` (mirroring the
        parallel-beam "channels span the tomogram" convention).
    grid:
        Voxel grid (defaults to ``Grid3D(det_cols, det_rows)``).
    angle_range:
        Angular coverage in radians (default full turn).
    """

    num_angles: int
    det_rows: int
    det_cols: int
    source_distance: float
    detector_distance: float | None = None
    det_spacing: float | None = None
    grid: Grid3D = field(default=None)  # type: ignore[assignment]
    angle_range: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        if self.num_angles <= 0 or self.det_rows <= 0 or self.det_cols <= 0:
            raise ValueError(
                f"geometry must be non-empty, got {self.num_angles} x "
                f"{self.det_rows} x {self.det_cols}"
            )
        if self.grid is None:
            object.__setattr__(self, "grid", Grid3D(self.det_cols, self.det_rows))
        min_distance = self.grid.half_extent * np.sqrt(2.0)
        if self.source_distance <= min_distance:
            raise ValueError(
                f"source distance {self.source_distance} must clear the grid "
                f"(> {min_distance:.2f})"
            )
        if self.detector_distance is None:
            object.__setattr__(self, "detector_distance", float(self.source_distance))
        if self.detector_distance < 0:
            raise ValueError(
                f"detector distance must be >= 0, got {self.detector_distance}"
            )
        if self.det_spacing is None:
            object.__setattr__(
                self, "det_spacing", self.magnification * self.grid.voxel_size
            )
        if self.det_spacing <= 0:
            raise ValueError(f"detector spacing must be > 0, got {self.det_spacing}")
        if not 0 < self.angle_range <= 2.0 * np.pi + 1e-12:
            raise ValueError(
                f"angle range must be in (0, 2*pi], got {self.angle_range}"
            )

    # -- sizes and layouts ------------------------------------------------

    @property
    def magnification(self) -> float:
        """Geometric magnification ``(R_src + R_det) / R_src``."""
        det = (
            self.source_distance
            if self.detector_distance is None
            else self.detector_distance
        )
        return (self.source_distance + det) / self.source_distance

    @property
    def num_channels(self) -> int:
        """Rays per projection (one per detector pixel)."""
        return self.det_rows * self.det_cols

    @property
    def sinogram_shape(self) -> tuple[int, int, int]:
        """Projection-stack shape ``(M, det_rows, det_cols)``."""
        return (self.num_angles, self.det_rows, self.det_cols)

    @property
    def projection_shape(self) -> tuple[int, int, int]:
        return self.sinogram_shape

    @property
    def tomo_layout_shape(self) -> tuple[int, int]:
        """Layout rectangle the domain orderings see for the volume."""
        return (self.grid.nz * self.grid.n, self.grid.n)

    @property
    def sino_layout_shape(self) -> tuple[int, int]:
        """Layout rectangle for the projection stack."""
        return (self.num_angles * self.det_rows, self.det_cols)

    # -- rays -------------------------------------------------------------

    def angles(self) -> np.ndarray:
        return np.arange(self.num_angles) * (self.angle_range / self.num_angles)

    def row_offsets(self) -> np.ndarray:
        """Signed physical z offsets of detector rows, shape ``(det_rows,)``."""
        r = self.det_rows
        return (np.arange(r) - r / 2.0 + 0.5) * self.det_spacing

    def col_offsets(self) -> np.ndarray:
        """Signed transaxial offsets of detector columns, shape ``(det_cols,)``."""
        c = self.det_cols
        return (np.arange(c) - c / 2.0 + 0.5) * self.det_spacing

    def source_position(self, angle_index: int) -> np.ndarray:
        theta = self.angles()[angle_index]
        return self.source_distance * np.array([np.cos(theta), np.sin(theta), 0.0])

    def detector_pixels(self, angle_index: int) -> np.ndarray:
        """Physical centres of all detector pixels of one view.

        Shape ``(det_rows * det_cols, 3)``, row-major over (row, col).
        """
        theta = self.angles()[angle_index]
        s_hat = np.array([np.cos(theta), np.sin(theta), 0.0])
        u_hat = np.array([-np.sin(theta), np.cos(theta), 0.0])
        center = -self.detector_distance * s_hat
        u = self.col_offsets()
        v = self.row_offsets()
        # (rows, cols, 3), flattened row-major to match ray_index.
        pix = (
            center[None, None, :]
            + u[None, :, None] * u_hat[None, None, :]
            + v[:, None, None] * np.array([0.0, 0.0, 1.0])[None, None, :]
        )
        return pix.reshape(-1, 3)

    def ray_bundle(self, angle_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(origins, unit directions) of all rays of one view, ``(K, 3)`` each."""
        source = self.source_position(angle_index)
        pixels = self.detector_pixels(angle_index)
        directions = pixels - source[None, :]
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        origins = np.broadcast_to(source, directions.shape)
        return origins, directions

    # -- plan-cache and archive identity ------------------------------------

    def fingerprint_fields(self) -> dict:
        """Geometry section of the plan fingerprint (see repro.cache)."""
        return {
            "kind": "cone",
            "num_angles": int(self.num_angles),
            "det_rows": int(self.det_rows),
            "det_cols": int(self.det_cols),
            "source_distance": float(self.source_distance).hex(),
            "detector_distance": float(self.detector_distance).hex(),
            "det_spacing": float(self.det_spacing).hex(),
            "angle_range": float(self.angle_range).hex(),
            "grid_n": int(self.grid.n),
            "grid_nz": int(self.grid.nz),
            "voxel_size": float(self.grid.voxel_size).hex(),
        }

    def archive_fields(self) -> dict:
        """Operator-archive keys of this geometry (see repro.io)."""
        return {
            **super().archive_fields(),
            "geometry_kind": "cone",
            "det_rows": self.det_rows,
            "det_cols": self.det_cols,
            "source_distance": self.source_distance,
            "detector_distance": self.detector_distance,
            "det_spacing": self.det_spacing,
            "grid_nz": self.grid.nz,
        }

    @classmethod
    def from_archive(cls, data) -> "ConeBeamGeometry":
        """Rebuild from the keys :meth:`archive_fields` wrote."""
        return cls(
            int(data["num_angles"]),
            int(data["det_rows"]),
            int(data["det_cols"]),
            source_distance=float(data["source_distance"]),
            detector_distance=float(data["detector_distance"]),
            det_spacing=float(data["det_spacing"]),
            grid=Grid3D(
                int(data["grid_n"]), int(data["grid_nz"]), float(data["pixel_size"])
            ),
            angle_range=float(data["angle_range"]),
        )
