"""repro.obs — zero-dependency observability (spans, counters, export).

The instrumentation substrate behind every performance claim the
reproduction makes.  Three pieces:

* **Spans** (:class:`span` / :func:`traced`) — named, timed, nested
  regions.  The three preprocessing stages, every SpMV kernel call, and
  every solver iteration are spans.
* **Counters** (:func:`add_count` + canonical names in
  :mod:`repro.obs.counters`) — typed accumulators for the paper's key
  quantities: SpMV FLOPs, regular/irregular bytes, buffer stages,
  simulated communication volume.
* **Capture/export** (:func:`capture`, :class:`Capture`) — scoped
  collection so tests and benchmarks assert on exactly what ran, plus
  Chrome-trace (``chrome://tracing`` / Perfetto) JSON export.

Everything is off by default.  With no capture active, instrumentation
points cost one attribute check — the kernels run at uninstrumented
speed (enforced by an overhead test).

    from repro import obs

    with obs.capture() as cap:
        operator, report = preprocess(geometry)
        result = cgls(operator, y)
    cap.total(obs.SPMV_FLOPS)          # work executed
    cap.find_spans("solver.iteration")  # one per CG iteration
    cap.write_chrome_trace("trace.json")

See ``docs/observability.md`` for the full guide.
"""

from . import counters
from .counters import *  # noqa: F401,F403  (the canonical counter names, Counter, unit_of)
from .export import chrome_trace, write_chrome_trace
from .registry import REGISTRY, Capture, Registry, add_count, capture
from .spans import SpanRecord, emit_span, span, traced

__all__ = [
    *counters.__all__,
    "chrome_trace",
    "write_chrome_trace",
    "REGISTRY",
    "Capture",
    "Registry",
    "add_count",
    "capture",
    "SpanRecord",
    "emit_span",
    "span",
    "traced",
]
