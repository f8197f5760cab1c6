"""repro.service — crash-safe reconstruction-as-a-service.

The paper amortizes preprocessing across the slices of one stack;
this package amortizes it across *clients*.  A journaled job engine
(:mod:`~repro.service.engine`) accepts sinogram solves behind bounded
admission control, coalesces compatible requests into single
multi-RHS dispatches, enforces per-job deadlines inside the solver
loop, retries transient failures with bounded backoff, and survives
``kill -9`` without losing an acknowledged job — every durability
primitive shared with the rest of the stack via :mod:`repro.persist`.

A stdlib HTTP front end (:mod:`~repro.service.server`, ``repro
serve``) and client (:mod:`~repro.service.client`, ``repro submit``)
wrap the engine; :mod:`~repro.service.faults` injects seeded service
faults for the chaos battery.  See ``docs/service.md``.
"""

from .engine import (
    DroppedSubmissionError,
    Job,
    JobFailedError,
    JobSpec,
    QueueFullError,
    RateLimitedError,
    ReconService,
    ResultNotReadyError,
    ServiceConfig,
    ServiceError,
    UnknownJobError,
)
from .faults import ServiceFaultConfig, ServiceFaultInjector, parse_service_fault_spec
from .journal import JobJournal, JournalEntry
from .server import ServiceServer, serve
from .client import ServiceClient, ServiceUnavailableError

__all__ = [
    "ReconService",
    "ServiceConfig",
    "JobSpec",
    "Job",
    "ServiceError",
    "QueueFullError",
    "RateLimitedError",
    "DroppedSubmissionError",
    "UnknownJobError",
    "ResultNotReadyError",
    "JobFailedError",
    "JobJournal",
    "JournalEntry",
    "ServiceFaultConfig",
    "ServiceFaultInjector",
    "parse_service_fault_spec",
    "ServiceServer",
    "serve",
    "ServiceClient",
    "ServiceUnavailableError",
]
