"""Chunk sources: where raw ``(slices, angles, channels)`` stacks come from.

``reconstruct_stack`` historically required the whole raw stack as one
in-memory array, which caps stack depth at RAM.  A :class:`ChunkSource`
inverts that: the executor asks for ``[start, stop)`` slice ranges and
the source materializes only those, so arbitrarily tall stacks stream
through a bounded working set.  Three implementations:

* :class:`ArraySource` — wraps an in-memory array (the legacy path;
  zero-copy views per chunk).
* :class:`NpzShardSource` — a directory of ``shard-*.npz`` files, each
  holding a contiguous run of slices (the layout
  :func:`save_stack` writes).  Only the shards overlapping a request
  are loaded.
* :class:`Hdf5Source` — an HDF5 file in the tomobank exchange layout
  (``/exchange/data`` shaped ``(angles, slices, channels)`` with
  optional ``data_dark``/``data_white`` calibration) or a plain
  ``(slices, angles, channels)`` dataset.  Needs the optional ``h5py``
  dependency; constructing one without it raises a clear error instead
  of an ImportError deep inside a run.

Every source carries an optional ``darks``/``flats`` pair (calibration
is small — frames, not slices-times-angles — so it stays in memory) and
a :meth:`ChunkSource.fingerprint` that the executor folds into the
checkpoint hash so resuming against a different dataset is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np

from ..persist import atomic_savez, atomic_write_text, raw_buffer

try:  # pragma: no cover - exercised via the monkeypatched tests
    import h5py  # type: ignore
except ImportError:  # pragma: no cover
    h5py = None

__all__ = [
    "MissingDependencyError",
    "ChunkSource",
    "ArraySource",
    "NpzShardSource",
    "Hdf5Source",
    "open_source",
    "save_stack",
    "SHARD_PATTERN",
]

#: Shard file naming scheme: ``shard-<start>-<stop>.npz`` (slice range).
SHARD_PATTERN = re.compile(r"^shard-(\d+)-(\d+)\.npz$")

#: Tomobank exchange-group dataset names.
_TOMOBANK_DATA = "exchange/data"
_TOMOBANK_DARK = "exchange/data_dark"
_TOMOBANK_FLAT = "exchange/data_white"


class MissingDependencyError(RuntimeError):
    """An optional dependency required by a data format is not installed."""


def _require_h5py():
    if h5py is None:
        raise MissingDependencyError(
            "reading/writing HDF5 stacks requires the optional 'h5py' "
            "dependency (pip install h5py); use an .npz stack or a "
            "shard directory instead"
        )
    return h5py


def _hash_array(h, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(raw_buffer(arr))


class ChunkSource:
    """Pull-based supplier of ``(slices, angles, channels)`` chunks.

    Subclasses set ``shape`` (the full logical stack shape) and
    implement :meth:`read`.  ``darks``/``flats`` are optional
    calibration arrays in any layout :class:`~repro.pipeline.stages.
    DarkFlatNormalize` accepts.  Sources are context managers; closing
    is idempotent.
    """

    shape: tuple[int, int, int]
    darks: np.ndarray | None = None
    flats: np.ndarray | None = None

    @property
    def num_slices(self) -> int:
        return self.shape[0]

    @property
    def nbytes_per_slice(self) -> int:
        """Bytes one float64 slice occupies once materialized."""
        return 8 * self.shape[1] * self.shape[2]

    def read(self, start: int, stop: int) -> np.ndarray:
        """Materialize slices ``[start, stop)`` as a float64 array."""
        raise NotImplementedError

    def fingerprint(self) -> bytes:
        """Digest identifying this dataset's content for checkpoints.

        In-memory sources hash the full content; on-disk sources hash
        the cheap stable identity of the files (names, shapes, dtypes,
        sizes) so the fingerprint never forces a full read of an
        out-of-core stack.
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start < stop <= self.num_slices):
            raise ValueError(
                f"chunk range [{start}, {stop}) outside stack of "
                f"{self.num_slices} slices"
            )


class ArraySource(ChunkSource):
    """The legacy in-memory path: chunks are views into one array."""

    def __init__(self, stack, darks=None, flats=None):
        stack = np.asarray(stack)
        if stack.ndim != 3:
            raise ValueError(
                f"raw stack must be (slices, angles, channels), got shape "
                f"{stack.shape}"
            )
        self._stack = stack
        self.shape = tuple(stack.shape)
        self.darks = None if darks is None else np.asarray(darks)
        self.flats = None if flats is None else np.asarray(flats)

    def read(self, start: int, stop: int) -> np.ndarray:
        self._check_range(start, stop)
        return self._stack[start:stop]

    def fingerprint(self) -> bytes:
        h = hashlib.sha256()
        _hash_array(h, self._stack)
        return h.digest()


class NpzShardSource(ChunkSource):
    """A directory of ``shard-<start>-<stop>.npz`` files.

    Each shard holds a contiguous run of slices under the ``stack``
    key; together the shards must tile ``[0, num_slices)`` exactly.
    Optional ``darks.npz`` / ``flats.npz`` siblings carry calibration.
    The layout is what :func:`save_stack` writes.
    """

    def __init__(self, directory):
        self.root = Path(directory)
        if not self.root.is_dir():
            raise FileNotFoundError(f"no shard directory at {self.root}")
        self._shards: list[tuple[int, int, Path]] = []
        for path in sorted(self.root.iterdir()):
            m = SHARD_PATTERN.match(path.name)
            if m:
                self._shards.append((int(m.group(1)), int(m.group(2)), path))
        if not self._shards:
            raise FileNotFoundError(f"no shard-*.npz files in {self.root}")
        self._shards.sort()
        expected = 0
        for start, stop, path in self._shards:
            if start != expected or stop <= start:
                raise ValueError(
                    f"shard {path.name} breaks the contiguous tiling at "
                    f"slice {expected}"
                )
            expected = stop
        with np.load(self._shards[0][2]) as data:
            first = data["stack"]
            self.shape = (expected, first.shape[1], first.shape[2])
        self.darks = self._load_optional("darks")
        self.flats = self._load_optional("flats")

    def _load_optional(self, name: str) -> np.ndarray | None:
        path = self.root / f"{name}.npz"
        if not path.exists():
            return None
        with np.load(path) as data:
            return np.asarray(data[name], dtype=np.float64)

    def read(self, start: int, stop: int) -> np.ndarray:
        self._check_range(start, stop)
        out = np.empty((stop - start, self.shape[1], self.shape[2]), dtype=np.float64)
        for s0, s1, path in self._shards:
            lo, hi = max(start, s0), min(stop, s1)
            if lo >= hi:
                continue
            with np.load(path) as data:
                shard = data["stack"]
                if shard.shape[1:] != self.shape[1:]:
                    raise ValueError(
                        f"shard {path.name} has slice shape {shard.shape[1:]}, "
                        f"expected {self.shape[1:]}"
                    )
                out[lo - start : hi - start] = shard[lo - s0 : hi - s0]
        return out

    def fingerprint(self) -> bytes:
        h = hashlib.sha256()
        h.update(str(self.shape).encode())
        for s0, s1, path in self._shards:
            h.update(f"{path.name}:{s0}:{s1}:{path.stat().st_size}".encode())
        for cal in (self.darks, self.flats):
            if cal is not None:
                _hash_array(h, cal)
        return h.digest()


class Hdf5Source(ChunkSource):
    """An HDF5 stack, tomobank exchange layout or plain slice-major.

    ``layout="tomobank"`` (default for files containing
    ``/exchange/data``) reads the dataset as ``(angles, slices,
    channels)`` — projection-major, the order beamlines write — and
    transposes each chunk to slice-major; ``exchange/data_dark`` and
    ``exchange/data_white`` become ``darks``/``flats`` in the
    ``(frames, slices, channels)`` layout the dark/flat stage accepts.
    ``layout="stack"`` reads ``dataset`` directly as ``(slices, angles,
    channels)``.
    """

    def __init__(self, path, dataset: str | None = None, layout: str | None = None):
        _require_h5py()
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"no HDF5 stack at {self.path}")
        self._file = h5py.File(self.path, "r")
        try:
            if dataset is None:
                dataset = _TOMOBANK_DATA if _TOMOBANK_DATA in self._file else "stack"
            if dataset not in self._file:
                raise KeyError(
                    f"{self.path} has no dataset {dataset!r}; expected a "
                    f"tomobank-layout file ({_TOMOBANK_DATA}) or a 'stack' array"
                )
            self._data = self._file[dataset]
            if self._data.ndim != 3:
                raise ValueError(
                    f"dataset {dataset!r} must be 3-D, got shape {self._data.shape}"
                )
            if layout is None:
                layout = "tomobank" if dataset == _TOMOBANK_DATA else "stack"
            if layout not in ("tomobank", "stack"):
                raise ValueError(
                    f"unknown HDF5 layout {layout!r}; expected 'tomobank' or 'stack'"
                )
            self.layout = layout
            self.dataset = dataset
            if layout == "tomobank":
                angles, slices, channels = self._data.shape
            else:
                slices, angles, channels = self._data.shape
            self.shape = (slices, angles, channels)
            self.darks = self._calibration(_TOMOBANK_DARK)
            self.flats = self._calibration(_TOMOBANK_FLAT)
        except Exception:
            self._file.close()
            raise

    def _calibration(self, key: str) -> np.ndarray | None:
        if key not in self._file:
            return None
        # (frames, slices, channels) in the file; keep frames first.
        return np.asarray(self._file[key], dtype=np.float64)

    def read(self, start: int, stop: int) -> np.ndarray:
        self._check_range(start, stop)
        if self.layout == "tomobank":
            chunk = np.asarray(self._data[:, start:stop, :], dtype=np.float64)
            return np.ascontiguousarray(chunk.transpose(1, 0, 2))
        return np.asarray(self._data[start:stop], dtype=np.float64)

    def fingerprint(self) -> bytes:
        h = hashlib.sha256()
        h.update(f"{self.dataset}:{self.layout}:{self.shape}".encode())
        h.update(str(self._data.dtype).encode())
        h.update(str(self.path.stat().st_size).encode())
        for cal in (self.darks, self.flats):
            if cal is not None:
                _hash_array(h, cal)
        return h.digest()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def open_source(obj, darks=None, flats=None) -> ChunkSource:
    """Resolve anything ``reconstruct_stack`` accepts into a source.

    Arrays wrap in an :class:`ArraySource`; directories open as
    :class:`NpzShardSource`; ``.h5``/``.hdf5`` paths as
    :class:`Hdf5Source`; a ``.npz`` path loads its ``stack`` (plus
    optional ``darks``/``flats``) eagerly — the legacy CLI format.
    Explicit ``darks``/``flats`` override whatever the source carries.
    """
    if isinstance(obj, ChunkSource):
        source = obj
    elif isinstance(obj, (str, Path)):
        path = Path(obj)
        if path.is_dir():
            source = NpzShardSource(path)
        elif path.suffix in (".h5", ".hdf5"):
            source = Hdf5Source(path)
        elif path.suffix == ".npz":
            with np.load(path) as data:
                source = ArraySource(
                    data["stack"],
                    darks=data["darks"] if "darks" in data else None,
                    flats=data["flats"] if "flats" in data else None,
                )
        else:
            raise ValueError(
                f"cannot infer a stack format from {path}: expected a shard "
                "directory, an .npz file, or an .h5/.hdf5 file"
            )
    else:
        source = ArraySource(obj)
    if darks is not None:
        source.darks = np.asarray(darks)
    if flats is not None:
        source.flats = np.asarray(flats)
    return source


def save_stack(
    destination,
    stack,
    darks=None,
    flats=None,
    *,
    shard_slices: int | None = None,
    compress: bool = False,
) -> Path:
    """Write a stack in a format :func:`open_source` can ingest.

    ``.npz`` destinations get the legacy single archive; ``.h5`` /
    ``.hdf5`` the tomobank exchange layout (needs ``h5py``); anything
    else is treated as a shard directory, split into
    ``shard-<start>-<stop>.npz`` runs of ``shard_slices`` slices
    (default: 4).  All formats go through the crash-safe atomic
    writers in :mod:`repro.persist`.
    """
    destination = Path(destination)
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(
            f"stack must be (slices, angles, channels), got shape {stack.shape}"
        )
    if destination.suffix == ".npz":
        payload = {"stack": stack}
        if darks is not None:
            payload["darks"] = np.asarray(darks, dtype=np.float64)
        if flats is not None:
            payload["flats"] = np.asarray(flats, dtype=np.float64)
        destination.parent.mkdir(parents=True, exist_ok=True)
        atomic_savez(destination, payload, compress=compress)
        return destination
    if destination.suffix in (".h5", ".hdf5"):
        _require_h5py()
        destination.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename for the same crash-safety as atomic_savez.
        tmp = destination.with_name(f"{destination.name}.tmp-{os.getpid()}")
        try:
            with h5py.File(tmp, "w") as fh:
                fh.create_dataset(
                    _TOMOBANK_DATA, data=np.ascontiguousarray(stack.transpose(1, 0, 2))
                )
                if darks is not None:
                    fh.create_dataset(_TOMOBANK_DARK, data=np.asarray(darks, np.float64))
                if flats is not None:
                    fh.create_dataset(_TOMOBANK_FLAT, data=np.asarray(flats, np.float64))
            tmp.replace(destination)
        finally:
            tmp.unlink(missing_ok=True)
        return destination

    shard_slices = 4 if shard_slices is None else int(shard_slices)
    if shard_slices < 1:
        raise ValueError(f"shard_slices must be >= 1, got {shard_slices}")
    destination.mkdir(parents=True, exist_ok=True)
    num_slices = stack.shape[0]
    for start in range(0, num_slices, shard_slices):
        stop = min(start + shard_slices, num_slices)
        atomic_savez(
            destination / f"shard-{start:06d}-{stop:06d}.npz",
            {"stack": stack[start:stop]},
            compress=compress,
        )
    if darks is not None:
        atomic_savez(
            destination / "darks.npz",
            {"darks": np.asarray(darks, dtype=np.float64)},
            compress=compress,
        )
    if flats is not None:
        atomic_savez(
            destination / "flats.npz",
            {"flats": np.asarray(flats, dtype=np.float64)},
            compress=compress,
        )
    meta = {
        "format": "repro-stack-shards",
        "shape": list(stack.shape),
        "shard_slices": shard_slices,
    }
    atomic_write_text(destination / "stack.json", json.dumps(meta, indent=2) + "\n")
    return destination
