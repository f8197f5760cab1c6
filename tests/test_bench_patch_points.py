"""Every name the traced benchmark patches still exists where it looks.

``bench/tracing.py`` wraps each ``(owner, name)`` it is given by reading
``vars(owner)[name]``, so a patch point that moves, is renamed or is no
longer imported into the module the bench patches raises ``KeyError``
in the middle of a traced run.  This file lists those points and fails
first.
"""

from importlib import import_module

import pytest

from bench import layers
from repro.dist import DistributedOperator, SimComm
from repro.pipeline import Stage
from repro.service import JobJournal, ReconService

engine = import_module("repro.service.engine")
executor = import_module("repro.pipeline.executor")
reconstructor = import_module("repro.core.reconstructor")

WORKLOAD_TARGETS = {
    "service8": [
        (ReconService, "submit"),
        (ReconService, "wait"),
        (ReconService, "result"),
        (engine, "cgls"),
        (engine, "cgls_batch"),
        (JobJournal, "save_input"),
        (JobJournal, "load_input"),
        (JobJournal, "save_result"),
        (JobJournal, "load_result"),
        (JobJournal, "_append"),
    ],
    "stack16": [
        (Stage, "__call__"),
        (executor, "cgls_batch"),
    ],
    "cluster4": [
        (reconstructor, "decompose_both"),
        (reconstructor, "cgls"),
        (DistributedOperator, "__init__"),
        (DistributedOperator, "forward"),
        (DistributedOperator, "adjoint"),
        (SimComm, "alltoallv"),
    ],
}


def _missing(targets):
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in targets
        if name not in vars(owner)
    ]


def test_setup_and_operator_targets_resolve():
    targets = [(owner, name) for owner, name, _ in layers.setup_targets()]
    targets += [(owner, name) for owner, name, _ in layers.operator_targets()]
    assert _missing(targets) == []


@pytest.mark.parametrize("workload", WORKLOAD_TARGETS)
def test_workload_targets_resolve(workload):
    assert _missing(WORKLOAD_TARGETS[workload]) == []
