"""Automatic rotation-center finding.

A parallel-beam scan over ``[0, pi)`` determines the rotation axis up
to calibration: if the axis projects to detector position
``(N - 1) / 2 + delta``, every reconstruction from the raw sinogram is
smeared by the uncorrected offset ``delta``.  Two estimators:

* ``"com"`` (default) — fit the per-angle attenuation centroid to the
  sinusoid ``c + a cos(theta) + b sin(theta)``.  The centroid of a
  parallel projection is the projection of the object's centroid, which
  traces that exact sinusoid around the rotation axis; the fitted
  offset ``c`` *is* the axis position.  A linear least-squares problem
  over all angles — sub-pixel accurate and noise-robust.
* ``"correlation"`` — cross-correlate the first projection with the
  mirrored opposite projection.  At ``theta + pi`` a parallel
  projection is the mirror of the one at ``theta`` about the axis, so
  the correlation peak sits at lag ``2 delta``; a parabolic fit through
  the peak's neighbours refines to sub-pixel.  Uses only two
  projections — cheap, and independent of the centroid model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["find_center_shift", "CENTER_METHODS"]

CENTER_METHODS = ("com", "correlation")


def _center_of_mass_shift(sinogram: np.ndarray, angles: np.ndarray) -> float:
    weights = np.asarray(sinogram, dtype=np.float64)
    # Row-wise centroids; rows with no attenuation carry no information
    # and are dropped from the fit.  Rows with non-finite samples or a
    # vanishing total are equally uninformative (a near-zero total
    # amplifies noise into an arbitrary centroid), so they are skipped
    # with the same mask rather than poisoning the least-squares fit.
    finite_rows = np.isfinite(weights).all(axis=1)
    totals = np.where(finite_rows, weights.sum(axis=1, where=np.isfinite(weights)), 0.0)
    scale = float(np.abs(weights[finite_rows]).max()) if finite_rows.any() else 0.0
    threshold = max(scale * weights.shape[1] * 1e-12, 0.0)
    valid = finite_rows & (totals > threshold)
    if valid.sum() < 3:
        raise ValueError(
            "sinogram has fewer than 3 usable projections (non-empty, "
            "finite, with positive total attenuation); cannot fit the "
            "centroid sinusoid"
        )
    channels = np.arange(weights.shape[1], dtype=np.float64)
    centroids = (weights[valid] * channels).sum(axis=1) / totals[valid]
    ok = np.isfinite(centroids)
    if ok.sum() < 3:
        raise ValueError(
            "fewer than 3 projections yield a finite centroid; "
            "cannot fit the centroid sinusoid"
        )
    centroids = centroids[ok]
    th = angles[valid][ok]
    design = np.column_stack([np.ones(th.shape[0]), np.cos(th), np.sin(th)])
    coeffs, *_ = np.linalg.lstsq(design, centroids, rcond=None)
    return float(coeffs[0]) - (weights.shape[1] - 1) / 2.0


def _correlation_shift(sinogram: np.ndarray) -> float:
    # The first projection against the flipped last one (nearly 180
    # degrees away).  Mirroring about the axis at (N-1)/2 + delta maps
    # channel i to 2 delta + (N-1) - i, so the correlation lag equals
    # 2 delta.
    if sinogram.shape[0] < 2:
        raise ValueError("need a 2D sinogram with at least two projections")
    n = sinogram.shape[1]
    if n < 3:
        raise ValueError(
            f"need at least 3 detector channels to localize the axis, got {n}"
        )
    if not np.isfinite(sinogram[0]).all() or not np.isfinite(sinogram[-1]).all():
        raise ValueError(
            "sinogram contains non-finite values in the reference "
            "projections; clean the data before estimating the center"
        )
    p0 = sinogram[0] - sinogram[0].mean()
    p180 = sinogram[-1][::-1] - sinogram[-1].mean()
    # A flat (zero-variance) projection correlates identically at every
    # lag — argmax would return the arbitrary first maximum and the
    # "estimate" would be garbage.  Fail loudly instead.
    if float(p0 @ p0) == 0.0 or float(p180 @ p180) == 0.0:
        raise ValueError(
            "reference projections have zero variance (blank detector "
            "rows); the correlation peak is undefined"
        )
    correlation = np.correlate(p0, p180, mode="full")  # lags -(n-1)..(n-1)
    peak = int(np.argmax(correlation))
    # Parabolic sub-sample refinement around the peak.
    offset = 0.0
    if 0 < peak < correlation.shape[0] - 1:
        y0, y1, y2 = correlation[peak - 1 : peak + 2]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0:
            offset = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return (peak + offset - (n - 1)) / 2.0


def find_center_shift(
    sinogram: np.ndarray,
    angles: np.ndarray | None = None,
    method: str = "com",
) -> float:
    """Estimate the rotation-axis offset (in channels) of one sinogram.

    Parameters
    ----------
    sinogram:
        ``(num_angles, num_channels)`` line integrals (already
        log-transformed — both estimators assume attenuation, where
        empty channels are ~0).
    angles:
        Projection angles in radians; defaults to a uniform ``[0, pi)``
        raster matching :class:`repro.geometry.ParallelBeamGeometry`.
        Only the ``"com"`` method uses them.
    method:
        ``"com"`` or ``"correlation"`` (see module docstring).

    Returns
    -------
    ``delta`` such that the axis projects to ``(N - 1) / 2 + delta``.
    """
    sinogram = np.asarray(sinogram, dtype=np.float64)
    if sinogram.ndim != 2:
        raise ValueError(f"expected a 2D sinogram, got shape {sinogram.shape}")
    if method not in CENTER_METHODS:
        raise ValueError(
            f"unknown center method {method!r}; expected one of {CENTER_METHODS}"
        )
    if method == "correlation":
        return _correlation_shift(sinogram)
    if angles is None:
        angles = np.arange(sinogram.shape[0]) * (np.pi / sinogram.shape[0])
    else:
        angles = np.asarray(angles, dtype=np.float64)
        if angles.shape[0] != sinogram.shape[0]:
            raise ValueError(
                f"{angles.shape[0]} angles for {sinogram.shape[0]} projections"
            )
    return _center_of_mass_shift(sinogram, angles)
