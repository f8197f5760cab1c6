"""Scan geometry: pixel/voxel grids, parallel-, fan- and cone-beam layouts."""

from .cone_beam import ConeBeamGeometry, Grid3D
from .fan_beam import FanBeamGeometry
from .grid import Grid2D, RayGroup, ScanGeometry
from .parallel_beam import ParallelBeamGeometry, Ray

__all__ = [
    "ConeBeamGeometry",
    "FanBeamGeometry",
    "Grid2D",
    "Grid3D",
    "ParallelBeamGeometry",
    "Ray",
    "RayGroup",
    "ScanGeometry",
]
