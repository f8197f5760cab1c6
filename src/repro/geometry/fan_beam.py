"""Fan-beam scan geometry (extension beyond the paper).

The paper evaluates parallel-beam synchrotron data, but the
memory-centric machinery is geometry-agnostic: anything that yields
rays can be memoized into the same CSR/buffered structures.  Fan-beam
(a point source opposite a detector arc, both rotating) is the common
lab-CT geometry and provides a stress test for that claim — its rays
are not parallel, so a view cannot share a direction and is traced by
the generic per-ray tracer (:func:`repro.trace.trace_view`).  Everything
around that call is shared: the chunked, worker-parallel builder, the
plan cache and the operator archive treat a fan scan like any other
:class:`~repro.geometry.ScanGeometry`.

As the source distance grows, fan-beam rays become parallel; the test
suite checks convergence to the parallel-beam matrix in that limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid2D, ScanGeometry

__all__ = ["FanBeamGeometry"]


@dataclass(frozen=True)
class FanBeamGeometry(ScanGeometry):
    """Equiangular fan-beam geometry over a full rotation.

    Parameters
    ----------
    num_angles:
        Source positions ``M``, uniform over ``[0, 2*pi)`` (fan data
        needs the full turn; opposite rays are not redundant).
    num_channels:
        Detector channels ``N``.
    source_distance:
        Distance from the rotation axis to the x-ray source, in pixel
        units; must clear the grid (> half diagonal).
    fan_angle:
        Full opening angle of the fan in radians; by default sized so
        the fan covers the reconstruction circle exactly.
    grid:
        Tomogram grid (defaults to ``N x N``).
    """

    num_angles: int
    num_channels: int
    source_distance: float
    fan_angle: float | None = None
    grid: Grid2D = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_angles <= 0 or self.num_channels <= 0:
            raise ValueError(
                f"geometry must be non-empty, got {self.num_angles} x {self.num_channels}"
            )
        if self.grid is None:
            object.__setattr__(self, "grid", Grid2D(self.num_channels))
        min_distance = self.grid.half_extent * np.sqrt(2.0)
        if self.source_distance <= min_distance:
            raise ValueError(
                f"source distance {self.source_distance} must clear the grid "
                f"(> {min_distance:.2f})"
            )
        if self.fan_angle is None:
            # Cover the inscribed reconstruction circle.
            object.__setattr__(
                self,
                "fan_angle",
                2.0 * np.arcsin(min(self.grid.half_extent / self.source_distance, 0.999)),
            )
        if not 0 < self.fan_angle < np.pi:
            raise ValueError(f"fan angle must be in (0, pi), got {self.fan_angle}")

    @property
    def angle_range(self) -> float:
        """Angular coverage: always the full turn (see ``num_angles``)."""
        return 2.0 * np.pi

    def angles(self) -> np.ndarray:
        """Source rotation angles over the full turn."""
        return np.arange(self.num_angles) * (self.angle_range / self.num_angles)

    def channel_angles(self) -> np.ndarray:
        """Within-fan ray angles (equiangular channels), shape ``(N,)``."""
        n = self.num_channels
        return (np.arange(n) - n / 2.0 + 0.5) * (self.fan_angle / n)

    def source_position(self, angle_index: int) -> np.ndarray:
        """Physical source location for one rotation angle."""
        theta = self.angles()[angle_index]
        return self.source_distance * np.array([np.cos(theta), np.sin(theta)])

    def ray_directions(self, angle_index: int) -> np.ndarray:
        """Unit directions of all channels of one fan, shape ``(N, 2)``.

        The central ray points from the source through the rotation
        axis; channels spread by their within-fan angle.
        """
        theta = self.angles()[angle_index]
        gamma = self.channel_angles()
        # Central direction is -source direction; rotate by gamma.
        ray_angle = theta + np.pi + gamma
        return np.stack([np.cos(ray_angle), np.sin(ray_angle)], axis=1)

    def ray_bundle(self, angle_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(origins, unit directions) of all rays of one fan, ``(N, 2)`` each."""
        directions = self.ray_directions(angle_index)
        origins = np.broadcast_to(self.source_position(angle_index), directions.shape)
        return origins, directions

    def fingerprint_fields(self) -> dict:
        """Geometry section of the plan fingerprint (see repro.cache)."""
        return {
            "kind": "fan",
            "num_angles": int(self.num_angles),
            "num_channels": int(self.num_channels),
            "source_distance": float(self.source_distance).hex(),
            "fan_angle": float(self.fan_angle).hex(),
            "grid_n": int(self.grid.n),
            "pixel_size": float(self.grid.pixel_size).hex(),
        }

    def archive_fields(self) -> dict:
        """Operator-archive keys of this geometry (see repro.io)."""
        return {
            **super().archive_fields(),
            "geometry_kind": "fan",
            "source_distance": self.source_distance,
            "fan_angle": self.fan_angle,
        }

    @classmethod
    def from_archive(cls, data) -> "FanBeamGeometry":
        """Rebuild from the keys :meth:`archive_fields` wrote."""
        return cls(
            int(data["num_angles"]),
            int(data["num_channels"]),
            source_distance=float(data["source_distance"]),
            fan_angle=float(data["fan_angle"]),
            grid=Grid2D(int(data["grid_n"]), float(data["pixel_size"])),
        )
