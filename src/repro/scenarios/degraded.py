"""Degraded-scan scenarios: sparse-view and limited-angle CT.

Real beamline practice often measures fewer projections than the
paper's full scans — either uniformly subsampled in angle (sparse
view: faster scans, lower dose) or cut off in angular range (limited
angle: physical occlusion).  Both are *exact row subsets* of the full
system: the degraded geometry's rays coincide bitwise with a subset of
the full geometry's rays, so the same memoized pipeline applies — only
the geometry (and the matching sinogram rows) shrink.

The subset constructions work for any geometry whose dataclass carries
``num_angles`` and ``angle_range`` with uniformly spaced views
(parallel-beam and cone-beam alike):

* **sparse view** — keep every ``k``-th projection.  The subsampled
  geometry keeps the full ``angle_range``; its view ``j`` lands on the
  original view ``j * k`` exactly when ``k`` divides ``num_angles``
  (required, so the subset claim is exact rather than approximate).
* **limited angle** — keep the first ``M' = floor(M * fraction)``
  projections.  The truncated geometry's range shrinks to
  ``M' * angle_range / M`` so its uniform spacing reproduces the
  original prefix angles exactly.

These scenarios are where explicit regularization (Section 3.5.2's
plug-and-play claim) earns its keep: with missing data the normal
equations are badly conditioned and :func:`repro.solvers.tv_cgls` /
:func:`repro.solvers.regularized_cgls` noticeably beat plain CG.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..core import OperatorConfig, preprocess
from ..core.reconstructor import run_solver
from ..obs import SCENARIO_RUNS, SCENARIO_VIEWS_DROPPED, add_count, span
from ..solvers import SolveResult, solver_row

__all__ = [
    "ScenarioResult",
    "sparse_view_geometry",
    "sparse_view_sinogram",
    "limited_angle_geometry",
    "limited_angle_sinogram",
    "reconstruct_scenario",
]


def _subset_geometry(geometry, num_angles: int, angle_range: float):
    """Rebuild ``geometry`` with a different view count/range.

    ``dataclasses.replace`` keeps every other field (grid, detector
    layout, distances) untouched, so this works for any frozen geometry
    dataclass exposing ``num_angles`` and ``angle_range``.
    """
    return dataclasses.replace(
        geometry, num_angles=num_angles, angle_range=angle_range
    )


def sparse_view_geometry(geometry, keep_every: int):
    """Geometry with every ``keep_every``-th projection of ``geometry``.

    Requires ``keep_every`` to divide ``num_angles`` so the subsampled
    views coincide *exactly* with original views (angle ``j`` of the
    subset equals angle ``j * keep_every`` of the full scan).
    """
    if keep_every < 1:
        raise ValueError(f"keep_every must be >= 1, got {keep_every}")
    if geometry.num_angles % keep_every != 0:
        raise ValueError(
            f"keep_every={keep_every} does not divide num_angles="
            f"{geometry.num_angles}; the subset would not be an exact "
            "row subset of the full scan"
        )
    return _subset_geometry(
        geometry, geometry.num_angles // keep_every, float(geometry.angle_range)
    )


def sparse_view_sinogram(sinogram: np.ndarray, keep_every: int) -> np.ndarray:
    """Rows of a full sinogram matching :func:`sparse_view_geometry`.

    Works for parallel-beam ``(M, N)`` sinograms and cone-beam
    ``(M, rows, cols)`` projection stacks alike — the leading axis is
    always the view axis.
    """
    if keep_every < 1:
        raise ValueError(f"keep_every must be >= 1, got {keep_every}")
    return np.ascontiguousarray(sinogram[::keep_every])


def limited_angle_geometry(geometry, fraction: float):
    """Geometry with the first ``floor(M * fraction)`` projections.

    The angular range shrinks proportionally
    (``M' * angle_range / M``), so the truncated geometry's uniformly
    spaced views reproduce the original prefix angles exactly.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    kept = int(np.floor(geometry.num_angles * fraction))
    if kept < 1:
        raise ValueError(
            f"fraction={fraction} keeps zero of {geometry.num_angles} views"
        )
    new_range = kept * float(geometry.angle_range) / geometry.num_angles
    return _subset_geometry(geometry, kept, new_range)


def limited_angle_sinogram(sinogram: np.ndarray, fraction: float) -> np.ndarray:
    """Rows of a full sinogram matching :func:`limited_angle_geometry`."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    kept = int(np.floor(sinogram.shape[0] * fraction))
    if kept < 1:
        raise ValueError(
            f"fraction={fraction} keeps zero of {sinogram.shape[0]} views"
        )
    return np.ascontiguousarray(sinogram[:kept])


@dataclass
class ScenarioResult:
    """A degraded-scan reconstruction and its provenance."""

    kind: str
    geometry: object
    operator: object
    solve: SolveResult
    image: np.ndarray
    views_kept: int
    views_dropped: int
    extra: dict[str, float] = field(default_factory=dict)


def reconstruct_scenario(
    geometry,
    sinogram: np.ndarray,
    kind: str,
    keep_every: int = 4,
    fraction: float = 0.5,
    solver: str = "tv",
    strength: float = 0.05,
    num_iterations: int = 30,
    config: OperatorConfig | None = None,
    cache=None,
    **solver_kwargs,
) -> ScenarioResult:
    """Degrade a full scan and reconstruct it with a regularized solve.

    Parameters
    ----------
    geometry, sinogram:
        The *full* scan: its geometry and measured sinogram (view-major
        array, ``(M, N)`` or ``(M, rows, cols)``).
    kind:
        ``"sparse-view"`` (keeps every ``keep_every``-th view) or
        ``"limited-angle"`` (keeps the first ``fraction`` of views).
    solver:
        A row of :data:`repro.solvers.SOLVER_TABLE`, solved as
        :func:`repro.core.reconstruct` does: ``"cg"`` (unregularized
        baseline), ``"tikhonov"``, ``"gradient"`` (smoothness Tikhonov),
        ``"tv"`` (IRLS total variation, the default) or any other row.
    strength, num_iterations, **solver_kwargs:
        Forwarded to the selected solver (``strength`` to prior rows only).
    config, cache:
        Forwarded to :func:`repro.core.preprocess` for the degraded
        geometry's operator (plan caching works as usual: the degraded
        geometry fingerprints like any other).
    """
    row = solver_row(solver, strength=strength)
    if row.prior is not None:
        solver_kwargs["strength"] = strength
    if kind == "sparse-view":
        sub_geometry = sparse_view_geometry(geometry, keep_every)
        sub_sinogram = sparse_view_sinogram(sinogram, keep_every)
    elif kind == "limited-angle":
        sub_geometry = limited_angle_geometry(geometry, fraction)
        sub_sinogram = limited_angle_sinogram(sinogram, fraction)
    else:
        raise ValueError(
            f"unknown scenario kind {kind!r}; expected 'sparse-view' or "
            "'limited-angle'"
        )

    dropped = geometry.num_angles - sub_geometry.num_angles
    add_count(SCENARIO_RUNS, 1)
    add_count(SCENARIO_VIEWS_DROPPED, dropped)
    with span("scenario", kind=kind, solver=solver, views=sub_geometry.num_angles):
        operator, _ = preprocess(sub_geometry, config=config, cache=cache)
        y = operator.sinogram_to_ordered(sub_sinogram)
        result = run_solver(row, operator, y, num_iterations, **solver_kwargs)
        image = operator.ordered_to_image(result.x)
    return ScenarioResult(
        kind=kind,
        geometry=sub_geometry,
        operator=operator,
        solve=result,
        image=image,
        views_kept=sub_geometry.num_angles,
        views_dropped=dropped,
    )
