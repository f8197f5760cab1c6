"""Quickstart: reconstruct a Shepp-Logan phantom in a few lines.

Run:  python examples/quickstart.py

Demonstrates the minimal MemXCT workflow: build a scan geometry,
preprocess (memoize) once, synthesize a noisy sinogram through the
Beer-law measurement model, and reconstruct with 30 CG iterations —
the paper's recommended configuration.
"""

import numpy as np

from repro import preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import beer_law_sinogram, shepp_logan
from repro.utils import ascii_preview, format_seconds, psnr, save_pgm


def main() -> None:
    # A 180-angle scan of a 128x128 image (laptop-friendly).
    geometry = ParallelBeamGeometry(num_angles=180, num_channels=128)

    # Preprocessing = the memory-centric step: trace every ray once,
    # order both domains with the two-level pseudo-Hilbert curve.  On
    # this half-turn scan (even angle count) the plan keeps only the
    # traced rows of each 8-ray symmetry orbit and runs over them (a
    # scan without that symmetry keeps the full matrix); no plan holds
    # Listing 3's staged layout, which repro.sparse.build_buffered
    # builds for a caller that hands it to MemXCTOperator.
    operator, report = preprocess(geometry)
    print(f"preprocessing: {format_seconds(report.total_seconds)} "
          f"(tracing {format_seconds(report.tracing_seconds)}), "
          f"matrix nnz = {operator.nnz:,}")

    # Simulate a measurement: forward-project the phantom and apply
    # Poisson (Beer-law) noise at a moderate dose.
    truth = shepp_logan(128)
    clean = operator.project_image(truth)
    sinogram = beer_law_sinogram(clean, incident_photons=1e5, seed=0)

    # Reconstruct. The operator is reused, so this is the per-slice
    # cost a beamline user would see.
    result = reconstruct(sinogram, geometry, solver="cg", iterations=30,
                         operator=operator)
    print(f"30 CG iterations: {format_seconds(result.solve_seconds)} "
          f"({format_seconds(result.per_iteration_seconds)}/iteration)")
    print(f"reconstruction PSNR vs phantom: {psnr(result.image, truth):.1f} dB")

    print("\nreconstruction preview:")
    print(ascii_preview(result.image, width=56, vmin=0, vmax=float(truth.max())))

    out = "quickstart_result.npz"
    np.savez(out, reconstruction=result.image, phantom=truth, sinogram=sinogram)
    save_pgm("quickstart_result.pgm", result.image)
    print(f"saved arrays to {out} and image to quickstart_result.pgm")


if __name__ == "__main__":
    main()
