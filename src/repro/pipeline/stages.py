"""Sinogram conditioning stages.

Raw beamline data is photon counts, not line integrals; between the
detector and the solver sits a conditioning chain (dark/flat-field
normalization, negative log, ring suppression, rotation-center
correction).  Each step here is an independently testable
:class:`Stage` operating on a ``(slices, angles, channels)`` chunk; the
base class wraps every application in an obs span and accumulates
per-stage wall time into the shared :class:`StageContext`, which is how
``result.extra["stage_times"]`` ends up reporting conditioning cost
next to solve cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..obs import span
from ..persist import raw_buffer
from ..phantoms.stack import inject_center_shift
from .center import CENTER_METHODS, find_center_shift

__all__ = [
    "Stage",
    "StageContext",
    "DarkFlatNormalize",
    "NegativeLog",
    "RingSuppression",
    "CenterCorrection",
    "default_stages",
]


@dataclass
class StageContext:
    """Shared state threaded through one pipeline run.

    ``stage_times`` accumulates wall seconds per stage name across all
    chunks.  ``info`` carries cross-chunk stage state — notably the
    rotation-center estimate, which is computed once and reused so that
    every chunk (and any resumed run) applies the identical correction.
    """

    angles: np.ndarray | None = None
    stage_times: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


class Stage:
    """One conditioning step over a ``(slices, angles, channels)`` chunk."""

    #: Stage name used for spans, stage_times keys, and CLI reporting.
    name = "stage"

    def apply(self, chunk: np.ndarray, ctx: StageContext) -> np.ndarray:
        raise NotImplementedError

    def signature(self) -> str:
        """Stable digest of this stage's configuration.

        Folded into the stack-checkpoint fingerprint: two runs whose
        conditioning chains differ in any parameter — a ring window, a
        center method, the calibration frames themselves — must refuse
        to share a checkpoint.  Array-valued parameters contribute a
        content hash; everything else its ``repr``.
        """
        parts = []
        for key in sorted(vars(self)):
            value = vars(self)[key]
            if isinstance(value, np.ndarray):
                digest = hashlib.sha256()
                digest.update(str(value.shape).encode())
                digest.update(str(value.dtype).encode())
                digest.update(raw_buffer(value))
                parts.append(f"{key}=ndarray:{digest.hexdigest()[:16]}")
            else:
                parts.append(f"{key}={value!r}")
        return f"{self.name}({', '.join(parts)})"

    def __call__(self, chunk: np.ndarray, ctx: StageContext) -> np.ndarray:
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 3:
            raise ValueError(
                f"stage {self.name!r} expects a (slices, angles, channels) "
                f"chunk, got shape {chunk.shape}"
            )
        with span("pipeline.stage", stage=self.name, slices=chunk.shape[0]) as sp:
            out = self.apply(chunk, ctx)
        ctx.stage_times[self.name] = ctx.stage_times.get(self.name, 0.0) + sp.duration
        return out


class DarkFlatNormalize(Stage):
    """Dark/flat-field normalization: counts -> transmission in (0, 1].

    ``t = (raw - dark) / (flat - dark)`` with the calibration frames
    averaged over their frame axis.  Accepts calibration shaped
    ``(channels,)`` (one fixed profile), ``(frames, channels)``
    (repeated exposures of one profile — frame-averaged), or
    ``(frames, slices, channels)`` (per-slice profiles, frame-averaged
    then sliced per chunk via the context's ``slice_offset``).  The
    transmission is clipped to ``[min_transmission, inf)`` so the
    downstream log never sees a non-positive value from a noisy or
    dead detector reading.
    """

    name = "dark_flat"

    def __init__(self, darks, flats, min_transmission: float = 1e-6):
        if min_transmission <= 0:
            raise ValueError(
                f"min_transmission must be positive, got {min_transmission}"
            )
        self.darks = np.asarray(darks, dtype=np.float64)
        self.flats = np.asarray(flats, dtype=np.float64)
        self.min_transmission = float(min_transmission)

    @staticmethod
    def _calibration(frames: np.ndarray) -> np.ndarray:
        # Reduce (frames, N) or (frames, slices, N) to the frame mean.
        if frames.ndim == 1:
            return frames
        if frames.ndim in (2, 3):
            return frames.mean(axis=0)
        raise ValueError(
            f"calibration must be (N,), (frames, N) or (frames, slices, N); "
            f"got shape {tuple(frames.shape)}"
        )

    def _aligned(self, cal: np.ndarray, chunk: np.ndarray, ctx: StageContext):
        if cal.ndim == 1:
            return cal[None, None, :]
        # Per-slice calibration: pick this chunk's rows.
        offset = int(ctx.info.get("slice_offset", 0))
        rows = cal[offset : offset + chunk.shape[0]]
        if rows.shape[0] != chunk.shape[0]:
            raise ValueError(
                f"per-slice calibration has {cal.shape[0]} slices; chunk at "
                f"offset {offset} needs {chunk.shape[0]}"
            )
        return rows[:, None, :]

    def apply(self, chunk: np.ndarray, ctx: StageContext) -> np.ndarray:
        dark = self._aligned(self._calibration(self.darks), chunk, ctx)
        flat = self._aligned(self._calibration(self.flats), chunk, ctx)
        denom = flat - dark
        if (denom <= 0).any():
            raise ValueError("flat-field must exceed dark-field on every channel")
        transmission = (chunk - dark) / denom
        return np.clip(transmission, self.min_transmission, None)


class NegativeLog(Stage):
    """Beer–Lambert inversion: transmission -> line integrals."""

    name = "neg_log"

    def apply(self, chunk: np.ndarray, ctx: StageContext) -> np.ndarray:
        if (chunk <= 0).any():
            raise ValueError(
                "negative-log stage needs strictly positive transmission; "
                "run dark/flat normalization (with clipping) first"
            )
        return -np.log(chunk)


def _median_smooth(profile: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window median of a 1D profile with edge replication."""
    half = window // 2
    padded = np.pad(profile, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return np.median(windows, axis=1)


class RingSuppression(Stage):
    """Additive stripe (ring) suppression, wavelet-free.

    A constant per-channel gain error survives the log as an additive
    per-channel offset — a vertical stripe in the sinogram, a ring in
    the reconstruction.  Per slice: take the mean over angles (the
    stripe profile plus smooth object structure), median-smooth it to
    keep only the smooth part, and subtract the difference.  A median
    window of a few channels removes single-channel stripes while
    leaving genuine broad structure untouched.
    """

    name = "ring_suppress"

    def __init__(self, window: int = 5):
        if window < 3 or window % 2 == 0:
            raise ValueError(f"window must be an odd integer >= 3, got {window}")
        self.window = int(window)

    def apply(self, chunk: np.ndarray, ctx: StageContext) -> np.ndarray:
        out = chunk.copy()
        for k in range(chunk.shape[0]):
            profile = chunk[k].mean(axis=0)
            stripe = profile - _median_smooth(profile, self.window)
            out[k] -= stripe[None, :]
        return out


class CenterCorrection(Stage):
    """Estimate and undo a rotation-axis offset.

    The offset is estimated once — on the middle slice of the first
    chunk seen — and cached in ``ctx.info["center_shift"]`` so every
    subsequent chunk applies the *same* correction (the axis does not
    move between slices, and chunk-dependent estimates would make the
    result depend on chunking).  Pass ``shift`` to skip estimation and
    apply a known offset.
    """

    name = "center"

    def __init__(self, method: str = "com", shift: float | None = None):
        if method not in CENTER_METHODS:
            raise ValueError(
                f"unknown center method {method!r}; expected one of {CENTER_METHODS}"
            )
        self.method = method
        self.shift = shift

    def apply(self, chunk: np.ndarray, ctx: StageContext) -> np.ndarray:
        shift = ctx.info.get("center_shift")
        if shift is None:
            if self.shift is not None:
                shift = float(self.shift)
            else:
                mid = chunk.shape[0] // 2
                shift = find_center_shift(chunk[mid], ctx.angles, self.method)
            ctx.info["center_shift"] = float(shift)
        if shift == 0.0:
            return chunk
        out = np.empty_like(chunk)
        for k in range(chunk.shape[0]):
            # Undoing an axis offset is injecting the opposite one.
            out[k] = inject_center_shift(chunk[k], -shift)
        return out


def default_stages(
    darks=None,
    flats=None,
    ring_window: int | None = 5,
    center_method: str | None = "com",
    center_shift: float | None = None,
) -> list[Stage]:
    """The standard conditioning chain for raw count data.

    Dark/flat normalization and the negative log are included only when
    calibration frames are supplied (pass ``darks=None`` for data that
    is already line integrals).  ``ring_window=None`` or
    ``center_method=None`` drop the respective stage.
    """
    stages: list[Stage] = []
    if darks is not None or flats is not None:
        if darks is None or flats is None:
            raise ValueError("dark/flat normalization needs both darks and flats")
        stages.append(DarkFlatNormalize(darks, flats))
        stages.append(NegativeLog())
    if ring_window is not None:
        stages.append(RingSuppression(ring_window))
    if center_method is not None or center_shift is not None:
        stages.append(
            CenterCorrection(method=center_method or "com", shift=center_shift)
        )
    return stages
