"""POSIX shared-memory export of numpy arrays for the process backend.

The process backend must hand workers the operator's matrix arrays
(hundreds of MB at paper scale) and the per-call input vector without
pickling them into every task.  Both travel through
:class:`multiprocessing.shared_memory.SharedMemory`:

* the **parent** packs a named set of arrays into one segment
  (:class:`SharedArrays`) and ships only the segment name plus a tiny
  manifest ``{name: (shape, dtype, offset)}``;
* **workers** attach the segment and rebuild zero-copy views
  (:func:`attach_arrays`).

Per-call vectors go through one :class:`SharedScratch` segment the
parent keeps across dispatches (creating, attaching and unlinking a
segment per call cost more than a 256x256 SpMV); workers hold one
attachment to it (:func:`attach_scratch`).

Lifecycle discipline (this exact split is what keeps the resource
tracker quiet): only the parent ever *creates* and *unlinks* segments;
workers only *attach*.  Attachments to the operator arrays are cached
in a per-process registry so the backing mmap outlives the numpy views.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedArrays",
    "SharedScratch",
    "Manifest",
    "attach_arrays",
    "attach_scratch",
    "detach_all",
]

_ALIGN = 64

#: ``{array name: (shape tuple, dtype string, byte offset)}``.
Manifest = dict


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class SharedArrays:
    """A named set of numpy arrays packed into one shared segment.

    >>> shared = SharedArrays({"x": x})
    >>> task = (shared.name, shared.manifest)   # picklable, tiny
    ...
    >>> shared.dispose()                        # close + unlink
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        manifest: Manifest = {}
        offset = 0
        packed: list[tuple[int, np.ndarray]] = []
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            manifest[name] = (array.shape, array.dtype.str, offset)
            packed.append((offset, array))
            offset += array.nbytes
        self.manifest = manifest
        self.nbytes = offset
        # SharedMemory refuses size 0; a one-byte segment still lets
        # zero-size arrays round-trip through their (shape, dtype).
        self.shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for start, array in packed:
            if array.nbytes:
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=self.shm.buf, offset=start
                )
                view[...] = array
                del view
        self._disposed = False

    @property
    def name(self) -> str:
        return self.shm.name

    def dispose(self) -> None:
        """Close and unlink the segment (parent side; idempotent)."""
        if self._disposed:
            return
        self._disposed = True
        self.shm.close()
        self.shm.unlink()


class SharedScratch:
    """One raw segment the parent reuses across dispatches.

    ``reserve(nbytes)`` returns a segment of at least ``nbytes``; it is
    replaced (under a new name) only when a call needs more than any
    call before it.
    """

    def __init__(self):
        self.shm: shared_memory.SharedMemory | None = None

    def reserve(self, nbytes: int) -> shared_memory.SharedMemory:
        if self.shm is None or self.shm.size < nbytes:
            self.dispose()
            self.shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        return self.shm

    def dispose(self) -> None:
        """Close and unlink the segment (parent side; idempotent)."""
        segment, self.shm = self.shm, None
        if segment is not None:
            segment.close()
            segment.unlink()


# Worker-side cache of attached segments.  The SharedMemory object must
# stay referenced for as long as any numpy view into it exists, so
# attachments live here until detach_all().
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def attach_arrays(name: str, manifest: Manifest) -> dict[str, np.ndarray]:
    """Attach a segment and rebuild zero-copy views of its arrays.

    The attachment is cached per process; repeated calls with the same
    segment name reuse it.  Views stay valid until :func:`detach_all`.
    """
    segment = _ATTACHED.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = segment
    views: dict[str, np.ndarray] = {}
    for key, (shape, dtype, offset) in manifest.items():
        views[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
    return views


_SCRATCH: list[shared_memory.SharedMemory] = []


def attach_scratch(name: str) -> shared_memory.SharedMemory:
    """This process's attachment to the parent's scratch segment.

    One at a time: a new name means the parent outgrew and unlinked the
    old segment, so the old attachment is closed.
    """
    if not _SCRATCH or _SCRATCH[0].name != name:
        while _SCRATCH:
            _SCRATCH.pop().close()
        _SCRATCH.append(shared_memory.SharedMemory(name=name))
    return _SCRATCH[0]


def detach_all() -> None:
    """Close every cached attachment (worker shutdown hygiene)."""
    while _ATTACHED:
        _, segment = _ATTACHED.popitem()
        segment.close()
    while _SCRATCH:
        _SCRATCH.pop().close()
