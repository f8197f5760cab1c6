"""Distributed reconstruction with the simulated-MPI substrate.

Run:  python examples/distributed_scaling.py

Shows the A = R C A_p machinery end to end: decompose both domains
over P simulated ranks, reconstruct (equal to the serial run up to the
float32 wire's rounding), inspect the sparse communication matrix of
Fig. 7, compare its growth on contiguous tiles (a plan of A) and on the
orbit-closed ranks an orbit plan runs, and print the modeled
strong-scaling curve of Fig. 11(c).
"""

import numpy as np

from repro import get_dataset, preprocess, reconstruct
from repro.dist import (
    DistributedOperator,
    decompose_both,
    strong_scaling_series,
)
from repro.machine import get_machine
from repro.utils import psnr, render_table


def main() -> None:
    spec = get_dataset("ADS2").scaled(0.25)
    geometry = spec.geometry()
    operator, _ = preprocess(geometry, min_tiles=64)
    sinogram, truth = spec.sinogram(operator, incident_photons=1e5, seed=0)

    # --- distributed == serial -----------------------------------------
    serial = reconstruct(sinogram, geometry, iterations=20, operator=operator)
    dist = reconstruct(sinogram, geometry, iterations=20, operator=operator,
                       num_ranks=8)
    diff = np.abs(serial.image - dist.image).max()
    print(f"serial PSNR {psnr(serial.image, truth):.2f} dB; "
          f"8-rank PSNR {psnr(dist.image, truth):.2f} dB; "
          f"max pixel difference {diff:.2e} (float32 reduction order)")

    # --- communication structure ----------------------------------------
    print("\ncommunication volume vs rank count (real decompositions):")
    plan, rows = operator.plan, []
    prev = None
    for ranks in (4, 16, 64):
        # Contiguous tiles over the expanded A, and the orbit plan's
        # orbit-closed ranks (its own columns of Q per rank).
        td, sd = decompose_both(operator.tomo_ordering, operator.sino_ordering, ranks)
        tiles = DistributedOperator(operator.matrix, td, sd).communication_matrix().sum()
        td, sd = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, ranks, plan.gather
        )
        op = DistributedOperator(plan, td, sd)
        volume = op.communication_matrix().sum()
        growth = f"{volume / prev:.2f}x" if prev else "-"
        rows.append([ranks, f"{tiles / 1024:.0f} KB", f"{volume / 1024:.0f} KB",
                     f"{volume / tiles:.2f}x", f"{op.interaction_counts().mean():.1f}",
                     growth])
        prev = volume
    print(render_table(
        ["ranks", "tiles", "orbit ranks", "orbit / tiles", "avg partners",
         "growth per 4x ranks"], rows))
    print("(the paper's law for tiles: quadrupling P doubles the total footprint)")

    # --- modeled strong scaling (Fig. 11c) -------------------------------
    print("\nmodeled RDS2 strong scaling on Theta (30 CG iterations):")
    points = strong_scaling_series(4501, 11283, get_machine("theta"),
                                   [128, 512, 2048, 4096])
    rows = [[p.num_nodes, f"{p.total_seconds:.2f} s", f"{p.ap_seconds:.2f} s",
             f"{p.comm_seconds:.3f} s", f"{p.reduction_seconds:.3f} s"]
            for p in points]
    print(render_table(["nodes", "total", "A_p", "C", "R"], rows))


if __name__ == "__main__":
    main()
