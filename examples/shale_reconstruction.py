"""Shale-rock (RDS1-style) reconstruction study: CG vs SIRT, L-curve.

Run:  python examples/shale_reconstruction.py

Reproduces the paper's Fig. 8 workflow on a scaled shale phantom:
run CG and SIRT side by side, trace their L-curves, find the CG
overfitting corner, and compare image quality at the paper's operating
points (30 CG iterations vs 45 SIRT iterations).  Also sweeps the
x-ray dose to show where iterative reconstruction pays off.
"""

import numpy as np

from repro import get_dataset, preprocess
from repro.solvers import cgls, lcurve_corner, sirt
from repro.utils import psnr, render_table


def main() -> None:
    spec = get_dataset("RDS1").scaled(0.0625)  # 94 x 128 shale scan
    geometry = spec.geometry()
    operator, _ = preprocess(geometry)
    print(f"dataset {spec.name}: sinogram {geometry.sinogram_shape}, "
          f"nnz {operator.nnz:,}")

    sinogram, truth = spec.sinogram(operator, incident_photons=3e3, seed=0)
    y = operator.sinogram_to_ordered(sinogram)

    # --- convergence study (Fig. 8a) ---------------------------------
    res_cg = cgls(operator, y, num_iterations=100)
    res_sirt = sirt(operator, y, num_iterations=100)
    r_cg, s_cg = res_cg.lcurve()
    corner = lcurve_corner(r_cg, s_cg)
    print(f"\nCG L-curve corner at iteration {corner} "
          "(the paper stops at ~30 on full RDS1)")

    rows = []
    for it in (1, 5, 15, 30, 60, 100):
        rows.append([it, f"{r_cg[it]:.4g}", f"{res_sirt.residual_norms[it]:.4g}"])
    print(render_table(["iteration", "CG residual", "SIRT residual"], rows))

    # --- image quality at the paper's operating points (Fig. 8b-d) ---
    img_cg = operator.ordered_to_image(cgls(operator, y, num_iterations=30).x)
    img_sirt = operator.ordered_to_image(sirt(operator, y, num_iterations=45).x)
    print(f"\n30 CG iterations : PSNR {psnr(img_cg, truth):.2f} dB")
    print(f"45 SIRT iterations: PSNR {psnr(img_sirt, truth):.2f} dB")

    # --- dose sweep ----------------------------------------------------
    print("\ndose sweep (CG, 30 iterations):")
    rows = []
    for photons in (3e2, 3e3, 3e4, 3e5):
        noisy, _ = spec.sinogram(operator, incident_photons=photons, seed=1)
        res = cgls(operator, operator.sinogram_to_ordered(noisy), num_iterations=30)
        rows.append([f"{photons:g}", f"{psnr(operator.ordered_to_image(res.x), truth):.2f} dB"])
    print(render_table(["incident photons", "PSNR"], rows))

    np.savez("shale_result.npz", cg=img_cg, sirt=img_sirt, phantom=truth)
    print("\nsaved images to shale_result.npz")


if __name__ == "__main__":
    main()
