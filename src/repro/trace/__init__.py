"""Ray tracing substrate: Siddon tracing and projection-matrix assembly."""

from .matrix_builder import (
    build_projection_matrix,
    projection_matrix_stats,
    trace_view,
    trace_view_range,
)
from .siddon import RaySegments, trace_angle, trace_ray, trace_rays
from .siddon3d import trace_rays_3d

__all__ = [
    "build_projection_matrix",
    "projection_matrix_stats",
    "RaySegments",
    "trace_angle",
    "trace_ray",
    "trace_rays",
    "trace_rays_3d",
    "trace_view",
    "trace_view_range",
]
