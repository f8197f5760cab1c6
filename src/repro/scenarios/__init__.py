"""Beamline workload scenarios over the memoized pipeline.

Degraded-scan reconstructions (sparse-view, limited-angle) paired with
the explicit regularizers of :mod:`repro.solvers.regularized`, and the
tomocupy-style ``try-center`` rotation-axis sweep run as one
batched-RHS solve.  See ``docs/scenarios.md``.
"""

from .degraded import (
    ScenarioResult,
    limited_angle_geometry,
    limited_angle_sinogram,
    reconstruct_scenario,
    sparse_view_geometry,
    sparse_view_sinogram,
)
from .try_center import (
    TryCenterResult,
    center_slab,
    nominal_center,
    reconstruction_entropy,
    shift_sinogram,
    try_center,
)

__all__ = [
    "ScenarioResult",
    "TryCenterResult",
    "center_slab",
    "limited_angle_geometry",
    "limited_angle_sinogram",
    "nominal_center",
    "reconstruct_scenario",
    "reconstruction_entropy",
    "shift_sinogram",
    "sparse_view_geometry",
    "sparse_view_sinogram",
    "try_center",
]
