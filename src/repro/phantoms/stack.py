"""Stacked 3D phantom data for the streaming pipeline.

Real beamline reconstructions (the paper's RDS/ADS datasets) are 3D:
thousands of sinogram slices share one acquisition geometry.  This
module produces everything the pipeline's conditioning stages need to
be exercised end-to-end on synthetic data:

* a per-slice-varying Shepp–Logan stack (so neighbouring slices are
  similar but not identical, like a real specimen),
* synthetic dark/flat calibration frames,
* injectable acquisition artifacts — per-channel detector gain errors
  (the cause of ring artifacts) and a rotation-center shift —
* and a raw photon-count simulator tying it all together.

Nothing here imports :mod:`repro.core`; sinogram projection is supplied
by the caller (see :func:`repro.pipeline.demo_stack`), keeping the
phantom layer geometry-free.
"""

from __future__ import annotations

import numpy as np

from .shepp_logan import shepp_logan

__all__ = [
    "stacked_shepp_logan",
    "synthetic_darks_flats",
    "ring_gains",
    "inject_rings",
    "inject_center_shift",
    "simulate_counts",
]


def stacked_shepp_logan(
    n: int,
    num_slices: int,
    scale_amplitude: float = 0.15,
    rotation_degrees: float = 8.0,
) -> np.ndarray:
    """A ``(num_slices, n, n)`` stack of per-slice-varying phantoms.

    Slice ``k`` shrinks the phantom towards the stack ends (an
    axially-varying specimen cross-section) and rotates it linearly by
    up to ``rotation_degrees`` — enough variation that a bug collapsing
    all slices onto one reconstruction is caught by any per-slice
    comparison, while neighbouring slices remain visually similar.
    """
    if num_slices <= 0:
        raise ValueError(f"num_slices must be positive, got {num_slices}")
    base = shepp_logan(n)
    c = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    x, y = np.meshgrid(c, c, indexing="xy")
    stack = np.empty((num_slices, n, n), dtype=np.float64)
    for k in range(num_slices):
        t = k / (num_slices - 1) if num_slices > 1 else 0.5
        # Largest at the stack centre, scale_amplitude smaller at ends.
        scale = 1.0 - scale_amplitude * abs(2.0 * t - 1.0)
        angle = np.deg2rad(rotation_degrees * (2.0 * t - 1.0))
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        # Sample the base phantom at the inverse-transformed coordinates
        # (nearest neighbour keeps the piecewise-constant ellipse look).
        xs = (x * cos_a + y * sin_a) / scale
        ys = (-x * sin_a + y * cos_a) / scale
        ix = np.clip(((xs + 1.0) * 0.5 * n).astype(np.int64), 0, n - 1)
        iy = np.clip(((ys + 1.0) * 0.5 * n).astype(np.int64), 0, n - 1)
        img = base[iy, ix]
        img[xs * xs + ys * ys > 1.0] = 0.0
        stack[k] = img
    return stack


def synthetic_darks_flats(
    num_slices: int,
    num_channels: int,
    num_frames: int = 8,
    dark_level: float = 80.0,
    flat_level: float = 4000.0,
    gain_spread: float = 0.04,
    noise: float = 0.01,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Dark and flat calibration frames, ``(num_frames, num_slices, N)`` each.

    The flats carry a smooth beam-profile bow plus fixed per-channel
    gain structure (spread ``gain_spread``); both frame sets carry
    per-frame read noise so averaging over frames actually matters.
    """
    rng = np.random.default_rng(seed)
    channel = np.linspace(-1.0, 1.0, num_channels)
    profile = 1.0 - 0.25 * channel**2  # beam brighter in the middle
    gains = 1.0 + rng.normal(scale=gain_spread, size=num_channels)
    flat_mean = flat_level * profile * gains
    shape = (num_frames, num_slices, num_channels)
    darks = dark_level + rng.normal(scale=noise * dark_level, size=shape)
    flats = flat_mean + rng.normal(scale=noise * flat_level, size=shape)
    return darks, flats


def ring_gains(
    num_channels: int,
    num_bad: int = 5,
    amplitude: float = 0.08,
    seed: int = 0,
) -> np.ndarray:
    """Per-channel multiplicative gain errors that cause ring artifacts.

    ``num_bad`` channels get a gain offset up to ``amplitude``; the
    rest stay at exactly 1.  Uncorrected, a constant per-channel gain
    error becomes a vertical stripe in the sinogram and a ring in the
    reconstruction.
    """
    rng = np.random.default_rng(seed)
    gains = np.ones(num_channels, dtype=np.float64)
    bad = rng.choice(num_channels, size=min(num_bad, num_channels), replace=False)
    gains[bad] += rng.uniform(-amplitude, amplitude, size=bad.shape[0])
    return gains


def inject_rings(counts: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Apply per-channel gain errors to a ``(..., N)`` count array."""
    counts = np.asarray(counts, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    if counts.shape[-1] != gains.shape[0]:
        raise ValueError(
            f"counts have {counts.shape[-1]} channels, gains have {gains.shape[0]}"
        )
    return counts * gains


def inject_center_shift(sinograms: np.ndarray, shift: float) -> np.ndarray:
    """Shift every projection by ``shift`` channels (linear interpolation).

    Emulates a mis-calibrated rotation axis: the true center sits at
    ``(N - 1) / 2 + shift`` in the shifted data.  Out-of-range samples
    clamp to the edge value (air channels at a realistic detector edge).
    """
    sinograms = np.asarray(sinograms, dtype=np.float64)
    n = sinograms.shape[-1]
    pos = np.arange(n, dtype=np.float64) - shift
    lo = np.clip(np.floor(pos).astype(np.int64), 0, n - 1)
    hi = np.clip(lo + 1, 0, n - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    return sinograms[..., lo] * (1.0 - frac) + sinograms[..., hi] * frac


def simulate_counts(
    sinograms: np.ndarray,
    darks: np.ndarray,
    flats: np.ndarray,
    attenuation_scale: float | None = None,
    gains: np.ndarray | None = None,
    poisson: bool = True,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Turn clean line integrals into raw detector counts.

    ``counts = dark + (flat - dark) * gains * exp(-scale * sinogram)``
    with optional Poisson statistics — the inverse of what the
    dark/flat-normalize and negative-log stages compute, so a pipeline
    run over the output should recover ``scale * sinogram``.

    Parameters
    ----------
    sinograms:
        Clean line integrals, ``(slices, angles, N)``.
    darks, flats:
        Calibration frames from :func:`synthetic_darks_flats`.
    attenuation_scale:
        Optical-depth scale; auto-chosen for ~2 max optical depths when
        omitted (mirroring :func:`repro.phantoms.beer_law_sinogram`).
    gains:
        Optional per-channel gain errors (ring injection) applied to
        the transmitted intensity but **not** to the calibration
        frames — exactly the mismatch that creates rings.

    Returns
    -------
    ``(raw_stack, attenuation_scale)`` where ``raw_stack`` has shape
    ``(slices, angles, N)``.
    """
    sinograms = np.asarray(sinograms, dtype=np.float64)
    max_val = float(sinograms.max()) if sinograms.size else 0.0
    if attenuation_scale is None:
        attenuation_scale = 2.0 / max_val if max_val > 0 else 1.0
    dark_bar = np.asarray(darks, dtype=np.float64).mean(axis=0)  # (slices, N)
    flat_bar = np.asarray(flats, dtype=np.float64).mean(axis=0)
    transmission = np.exp(-attenuation_scale * sinograms)
    if gains is not None:
        transmission = inject_rings(transmission, gains)
    # Broadcast (slices, N) calibration over the angle axis.
    expected = dark_bar[:, None, :] + (flat_bar - dark_bar)[:, None, :] * transmission
    if poisson:
        rng = np.random.default_rng(seed)
        counts = rng.poisson(np.maximum(expected, 0.0)).astype(np.float64)
    else:
        counts = expected
    return counts, float(attenuation_scale)

