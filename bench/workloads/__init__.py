"""The four benchmark workloads; each module has ``measure`` and ``trace``."""

from . import cluster4, service8, slice256, stack16

WORKLOADS = {
    "slice256": slice256,
    "stack16": stack16,
    "cluster4": cluster4,
    "service8": service8,
}
