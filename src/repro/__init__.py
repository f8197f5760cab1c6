"""repro — a full Python reproduction of MemXCT (SC '19).

MemXCT: Memory-Centric X-ray CT Reconstruction with Massive
Parallelization, Hidayetoglu et al., SC '19
(https://doi.org/10.1145/3295500.3356220).

Public API highlights:

* :func:`repro.core.reconstruct` — sinogram in, tomogram out;
* :func:`repro.core.preprocess` — the memoizing three-step pipeline;
* :class:`repro.core.MemXCTOperator` / :class:`repro.core.CompXCTOperator`
  — memory-centric vs compute-centric projection operators;
* :mod:`repro.ordering` — two-level pseudo-Hilbert ordering;
* :mod:`repro.sparse` — CSR/ELL kernels, scan transposition,
  multi-stage input buffering;
* :mod:`repro.dist` — simulated-MPI distributed operator (A = R C A_p);
* :mod:`repro.machine` / :mod:`repro.cachesim` — device models and the
  cache simulator behind the performance studies.
"""

from . import cache, cachesim, cli, core, dataio, dist, geometry, io, machine, obs, ordering, persist, phantoms, pipeline, precision, resilience, scenarios, service, solvers, sparse, trace, utils
from .core import (
    CompXCTOperator,
    DatasetSpec,
    MemXCTOperator,
    OperatorConfig,
    ReconstructionResult,
    get_dataset,
    preprocess,
    reconstruct,
)

__version__ = "1.0.0"

__all__ = [
    "cache",
    "cachesim",
    "cli",
    "core",
    "dataio",
    "dist",
    "geometry",
    "io",
    "machine",
    "ordering",
    "phantoms",
    "pipeline",
    "precision",
    "scenarios",
    "service",
    "solvers",
    "sparse",
    "trace",
    "utils",
    "CompXCTOperator",
    "DatasetSpec",
    "MemXCTOperator",
    "OperatorConfig",
    "ReconstructionResult",
    "get_dataset",
    "preprocess",
    "reconstruct",
    "__version__",
]
