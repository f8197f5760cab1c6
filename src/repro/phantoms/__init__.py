"""Test phantoms and the Beer-law measurement model."""

from .shepp_logan import shepp_logan
from .stack import (
    inject_center_shift,
    inject_rings,
    ring_gains,
    simulate_counts,
    stacked_shepp_logan,
    synthetic_darks_flats,
)
from .synthetic import beer_law_sinogram, brain_phantom, shale_phantom
from .volume import ellipsoid_volume, shepp_logan_3d

__all__ = [
    "shepp_logan",
    "ellipsoid_volume",
    "shepp_logan_3d",
    "beer_law_sinogram",
    "brain_phantom",
    "shale_phantom",
    "stacked_shepp_logan",
    "synthetic_darks_flats",
    "ring_gains",
    "inject_rings",
    "inject_center_shift",
    "simulate_counts",
]
