"""3D volume pipeline: preprocess once, reconstruct every slice.

Run:  python examples/volume_pipeline.py

The workflow behind paper Table 5's "All Slices" column: the mouse
brain has 11293 slices sharing one scan geometry, so preprocessing is
paid once and its cost vanishes into the per-slice loop.  This example
preprocesses, persists the operator (as a second process would load
it), reconstructs a small stack of slices, and reports the
amortization curve.
"""

import numpy as np

from repro import get_dataset, preprocess
from repro.io import load_operator, save_operator
from repro.pipeline import reconstruct_stack
from repro.utils import format_seconds, psnr, render_table

NUM_SLICES = 6


def main() -> None:
    spec = get_dataset("RDS1").scaled(0.0625)  # 94 x 128 shale slices
    geometry = spec.geometry()

    operator, report = preprocess(geometry)
    print(f"preprocessing once: {format_seconds(report.total_seconds)} "
          f"(tracing {format_seconds(report.tracing_seconds)})")

    save_operator("volume_operator.npz", operator)
    operator = load_operator("volume_operator.npz")
    print("operator persisted and reloaded (the beamline hand-off)")

    # Each 'slice' is the same sample with independent noise; a real 3D
    # scan varies the content slice to slice but not the geometry.
    sinograms = np.stack(
        [spec.sinogram(operator, incident_photons=1e5, seed=s)[0]
         for s in range(NUM_SLICES)]
    )
    # One multi-RHS solve over the stack: each slice's image is the one
    # its own single-slice solve gives, the loop Table 5 extrapolates.
    result = reconstruct_stack(sinograms, geometry, operator=operator,
                               iterations=20)

    truth = spec.phantom(seed=0)
    rows = []
    for k in range(NUM_SLICES):
        rows.append([k, f"{psnr(result.volume[k], spec.phantom(seed=k)):.2f} dB"])
    print(render_table(["slice", "PSNR"], rows, title=f"{NUM_SLICES}-slice stack"))

    seconds_per_slice = result.solve_seconds / NUM_SLICES
    share = report.total_seconds / (report.total_seconds + result.solve_seconds)
    print(f"\nper-slice reconstruction: {format_seconds(seconds_per_slice)}")
    print(f"preprocessing share of total time: {share:.1%} "
          f"(tends to 0 as slices grow; the brain has 11293)")

    full_day = report.total_seconds + 11293 * seconds_per_slice
    print(f"extrapolated all-slices time at this size: {format_seconds(full_day)}")


if __name__ == "__main__":
    main()
