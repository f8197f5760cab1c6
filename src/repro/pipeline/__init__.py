"""repro.pipeline — streaming multi-slice reconstruction.

The staged pipeline that turns a raw 3D acquisition into a
reconstructed volume with one memoized operator:

* **Conditioning stages** (:mod:`repro.pipeline.stages`) — dark/flat
  normalization, negative log, additive ring suppression, automatic
  rotation-center correction; each an independently testable
  :class:`Stage` timed through the obs layer.
* **Center finding** (:mod:`repro.pipeline.center`) — sub-pixel
  rotation-axis estimation by centroid-sinusoid fit or opposite-
  projection cross-correlation.
* **Streaming executor** (:mod:`repro.pipeline.executor`) —
  memory-budgeted chunking, batched multi-RHS solves
  (:mod:`repro.solvers.driver`), warm operator reuse via the plan
  cache, and per-chunk checkpoint/resume.

See ``docs/pipeline.md`` for the full guide.
"""

from .center import CENTER_METHODS, find_center_shift
from .demo import DemoStack, demo_stack
from .executor import (
    StackResult,
    chunk_slices_for_budget,
    reconstruct_stack,
)
from .stages import (
    CenterCorrection,
    DarkFlatNormalize,
    NegativeLog,
    RingSuppression,
    Stage,
    StageContext,
    default_stages,
)

__all__ = [
    "CENTER_METHODS",
    "find_center_shift",
    "DemoStack",
    "demo_stack",
    "StackResult",
    "chunk_slices_for_budget",
    "reconstruct_stack",
    "Stage",
    "StageContext",
    "DarkFlatNormalize",
    "NegativeLog",
    "RingSuppression",
    "CenterCorrection",
    "default_stages",
]
