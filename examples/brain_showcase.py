"""Mouse-brain showcase (paper Fig. 1), scaled to this machine.

Run:  python examples/brain_showcase.py

Reconstructs a brain-like phantom with multi-scale structure (skull,
tissue, vessels), then zooms progressively into the vessel detail the
way Fig. 1 zooms into brain arteries — saving each zoom level.  Ends
by modelling the full 11293^2 run on 4096 KNL nodes against the
paper's ~10-second headline.
"""

import numpy as np

from repro import preprocess, reconstruct
from repro.dist import model_solution_time
from repro.geometry import ParallelBeamGeometry
from repro.machine import get_machine
from repro.phantoms import beer_law_sinogram, brain_phantom
from repro.utils import format_bytes, format_seconds, psnr, save_pgm

SIZE = 256
ANGLES = 360


def main() -> None:
    geometry = ParallelBeamGeometry(ANGLES, SIZE)
    operator, report = preprocess(geometry)
    print(f"preprocessing {format_seconds(report.total_seconds)}; "
          f"matrix nnz {operator.nnz:,}")

    truth = brain_phantom(SIZE, seed=0)
    sinogram = beer_law_sinogram(operator.project_image(truth),
                                 incident_photons=1e5, seed=0)
    result = reconstruct(sinogram, geometry, solver="cg", iterations=30,
                         operator=operator)
    print(f"30 CG iterations in {format_seconds(result.solve_seconds)}, "
          f"PSNR {psnr(result.image, truth):.1f} dB")

    # Progressive zooms, as in Fig. 1: full slice -> quarter -> vessels.
    zooms = {}
    img = result.image
    for level, frac in enumerate((1.0, 0.5, 0.25)):
        k = int(SIZE * frac)
        lo = (SIZE - k) // 2
        zooms[f"zoom{level}"] = img[lo : lo + k, lo : lo + k]
        detail = zooms[f"zoom{level}"].std()
        print(f"zoom level {level}: {k}x{k} crop, detail (std) {detail:.3f}")

    np.savez("brain_showcase.npz", phantom=truth, reconstruction=img, **zooms)
    for name, crop in zooms.items():
        save_pgm(f"brain_{name}.pgm", crop)
    print("saved zooms to brain_showcase.npz and brain_zoom*.pgm")

    # Full-size projection: the paper's headline run.
    point = model_solution_time(4501, 11283, get_machine("theta"), 4096)
    footprint = 2 * 1.18 * 4501 * 11283**2 * 8
    print(f"\nfull-size model (4501x11283 on 4096 KNL nodes): "
          f"{format_seconds(point.total_seconds)} for 30 CG iterations "
          f"(paper: ~10 s), footprint {format_bytes(footprint)} "
          "(paper: 10.2 TiB)")


if __name__ == "__main__":
    main()
