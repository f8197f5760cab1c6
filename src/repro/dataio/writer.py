"""Chunk sinks: where reconstructed slabs go.

The counterpart of :mod:`repro.dataio.reader`: the executor hands a
sink ``(start, stop, slab)`` triples as chunks finish solving, and the
sink persists them so the full ``(slices, n, n)`` volume never has to
sit in memory.  Three on-disk formats plus the in-memory default:

* :class:`VolumeSink` — accumulate into one array (the default sink of
  ``reconstruct_stack``, returned as ``StackResult.volume``).
* :class:`NpzShardSink` — one ``slab-<start>-<stop>.npz`` per chunk,
  written atomically, finalized by an atomically-renamed
  ``volume.json`` manifest.  A crash mid-run leaves only complete
  shards, which is exactly what checkpoint resume needs.
* :class:`RawVolumeSink` — slabs written at their byte offsets into a
  single ``<name>.partial`` file, finalized by fsync + rename to the
  final name plus a JSON sidecar with shape/dtype.  Supports
  out-of-order and resumed writes.
* :class:`TiffStackSink` — same crash-safe staged-write discipline,
  finalized into a multi-page ``.tif`` volume (needs the optional
  ``tifffile`` dependency; constructing one without it raises the
  same clear :class:`~repro.dataio.reader.MissingDependencyError`
  the HDF5 source uses, at construction, not mid-run).

:func:`make_sink` maps a destination path to a sink; :func:`load_volume`
reads any finalized output (npz / shard dir / raw / tiff) back into an
array for verification.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from ..persist import atomic_savez, atomic_write_text
from .reader import MissingDependencyError

try:  # pragma: no cover - exercised via the monkeypatched tests
    import tifffile  # type: ignore
except ImportError:  # pragma: no cover
    tifffile = None

__all__ = [
    "ChunkSink",
    "VolumeSink",
    "NpzShardSink",
    "RawVolumeSink",
    "TiffStackSink",
    "make_sink",
    "load_volume",
    "SLAB_PATTERN",
]


def _require_tifffile():
    if tifffile is None:
        raise MissingDependencyError(
            "writing/reading .tif volumes requires the optional 'tifffile' "
            "dependency (pip install tifffile); use a .raw file or a "
            "shard directory instead"
        )
    return tifffile

#: Output shard naming scheme: ``slab-<start>-<stop>.npz`` (slice range).
SLAB_PATTERN = re.compile(r"^slab-(\d+)-(\d+)\.npz$")

_MANIFEST = "volume.json"


class ChunkSink:
    """Receiver of reconstructed ``(stop - start, n, n)`` slabs.

    ``write`` may be called out of slice order (the conveyor's writer
    thread preserves order, but resumed runs revisit only the missing
    ranges).  ``finalize`` publishes the completed volume and returns
    where it landed (a path, or ``None`` for in-memory sinks).
    """

    def __init__(self, num_slices: int, n: int):
        if num_slices < 1 or n < 1:
            raise ValueError(
                f"sink needs positive dimensions, got ({num_slices}, {n})"
            )
        self.num_slices = int(num_slices)
        self.n = int(n)

    def _check(self, start: int, stop: int, slab: np.ndarray) -> np.ndarray:
        slab = np.asarray(slab, dtype=np.float64)
        if not (0 <= start < stop <= self.num_slices):
            raise ValueError(
                f"slab range [{start}, {stop}) outside volume of "
                f"{self.num_slices} slices"
            )
        if slab.shape != (stop - start, self.n, self.n):
            raise ValueError(
                f"slab for [{start}, {stop}) must be "
                f"({stop - start}, {self.n}, {self.n}), got {slab.shape}"
            )
        return slab

    def write(self, start: int, stop: int, slab: np.ndarray) -> None:
        raise NotImplementedError

    def finalize(self) -> Path | None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class VolumeSink(ChunkSink):
    """Accumulate slabs into one in-memory float64 volume."""

    def __init__(self, num_slices: int, n: int):
        super().__init__(num_slices, n)
        self.volume = np.zeros((num_slices, n, n), dtype=np.float64)

    def write(self, start: int, stop: int, slab: np.ndarray) -> None:
        self.volume[start:stop] = self._check(start, stop, slab)

    def finalize(self) -> None:
        return None


class NpzShardSink(ChunkSink):
    """One atomic ``slab-*.npz`` per chunk plus a finalize manifest.

    ``resume=True`` (the default) keeps shards already present —
    they are the completed chunks a checkpointed run will skip;
    ``resume=False`` clears stale shards first so a fresh run never
    mixes outputs from two configurations.
    """

    def __init__(self, directory, num_slices: int, n: int, *, resume: bool = True,
                 compress: bool = False):
        super().__init__(num_slices, n)
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compress = bool(compress)
        if not resume:
            for path in self.root.iterdir():
                if SLAB_PATTERN.match(path.name) or path.name == _MANIFEST:
                    path.unlink()
        # Finalizing again after a resume must see the earlier shards.
        (self.root / _MANIFEST).unlink(missing_ok=True)

    def write(self, start: int, stop: int, slab: np.ndarray) -> None:
        slab = self._check(start, stop, slab)
        atomic_savez(
            self.root / f"slab-{start:06d}-{stop:06d}.npz",
            {"volume": slab},
            compress=self.compress,
        )

    def _shards(self) -> list[tuple[int, int, Path]]:
        shards = []
        for path in self.root.iterdir():
            m = SLAB_PATTERN.match(path.name)
            if m:
                shards.append((int(m.group(1)), int(m.group(2)), path))
        shards.sort()
        return shards

    def finalize(self) -> Path:
        shards = self._shards()
        covered = np.zeros(self.num_slices, dtype=bool)
        for s0, s1, _ in shards:
            covered[s0:s1] = True
        if not covered.all():
            missing = int((~covered).sum())
            raise ValueError(
                f"cannot finalize {self.root}: {missing} slices have no slab"
            )
        manifest = {
            "format": "repro-volume-shards",
            "shape": [self.num_slices, self.n, self.n],
            "dtype": "float64",
            "shards": [p.name for _, _, p in shards],
        }
        # Manifest last, durably: its presence marks a complete volume.
        atomic_write_text(self.root / _MANIFEST, json.dumps(manifest, indent=2) + "\n")
        return self.root


class RawVolumeSink(ChunkSink):
    """Slabs written at byte offsets into one flat float64 file.

    Writes land in ``<name>.partial`` (stable across resumed runs);
    ``finalize`` fsyncs and renames to the final path and drops a JSON
    sidecar with the shape, so a crash never leaves a truncated file
    under the published name.
    """

    def __init__(self, path, num_slices: int, n: int, *, resume: bool = True):
        super().__init__(num_slices, n)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._partial = self.path.with_name(self.path.name + ".partial")
        self._nbytes = 8 * num_slices * n * n
        mode = "r+b" if resume and self._partial.exists() else "w+b"
        self._fh = open(self._partial, mode)
        self._fh.truncate(self._nbytes)

    def write(self, start: int, stop: int, slab: np.ndarray) -> None:
        slab = self._check(start, stop, slab)
        self._fh.seek(8 * start * self.n * self.n)
        self._fh.write(np.ascontiguousarray(slab).tobytes())

    def finalize(self) -> Path:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        self._partial.replace(self.path)
        meta = {
            "format": "repro-volume-raw",
            "shape": [self.num_slices, self.n, self.n],
            "dtype": "float64",
            "order": "C",
        }
        atomic_write_text(
            self.path.with_suffix(self.path.suffix + ".json"),
            json.dumps(meta, indent=2) + "\n",
        )
        return self.path

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TiffStackSink(RawVolumeSink):
    """Stage slabs in a flat ``.partial`` file; finalize as multi-page TIFF.

    The staged file has :class:`RawVolumeSink` semantics (offset
    writes, resume-friendly, fsync before publication), so chunk
    writes stay O(slab) regardless of TIFF page structure;
    ``finalize`` reads the completed volume back once, writes the TIFF
    next to the destination, and atomically renames it into place.
    The ``.partial`` stage is only removed after the rename, so a
    crash inside ``finalize`` still resumes cleanly.
    """

    def __init__(self, path, num_slices: int, n: int, *, resume: bool = True,
                 compress: bool = False):
        _require_tifffile()
        super().__init__(path, num_slices, n, resume=resume)
        self.compress = bool(compress)

    def finalize(self) -> Path:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        volume = np.fromfile(self._partial, dtype=np.float64).reshape(
            (self.num_slices, self.n, self.n)
        )
        tmp = self.path.with_name(f"{self.path.name}.tmp-{os.getpid()}")
        tifffile.imwrite(
            tmp,
            volume,
            photometric="minisblack",
            compression="zlib" if self.compress else None,
            bigtiff=volume.nbytes > 2**31,
        )
        tmp.replace(self.path)
        self._partial.unlink(missing_ok=True)
        return self.path


def make_sink(destination, num_slices: int, n: int, *, resume: bool = True,
              compress: bool = False) -> ChunkSink:
    """Map an output destination to a sink.

    ``.raw`` → :class:`RawVolumeSink`; ``.tif``/``.tiff`` →
    :class:`TiffStackSink` (optional ``tifffile``); anything without
    an ``.npz`` suffix → :class:`NpzShardSink` directory.  (``.npz``
    outputs stay on the in-memory path — one archive cannot be written
    incrementally — so callers handle them with ``sink=None``.)
    ``compress=True`` writes deflated shard archives (or a
    zlib-compressed TIFF) — a trade of write CPU for disk/network
    bytes the flat ``.raw`` format cannot make, so asking for it on a
    ``.raw`` destination raises.
    """
    destination = Path(destination)
    if destination.suffix in (".tif", ".tiff"):
        return TiffStackSink(destination, num_slices, n, resume=resume,
                             compress=compress)
    if destination.suffix == ".raw":
        if compress:
            raise ValueError(
                "a .raw volume is flat offset-addressed bytes and cannot "
                "be compressed; use a shard-directory destination"
            )
        return RawVolumeSink(destination, num_slices, n, resume=resume)
    if destination.suffix == ".npz":
        raise ValueError(
            "an .npz volume cannot be streamed chunk-by-chunk; pass "
            "sink=None (in-memory) for .npz outputs, or use a directory "
            "or .raw destination"
        )
    return NpzShardSink(destination, num_slices, n, resume=resume,
                        compress=compress)


def load_volume(source) -> np.ndarray:
    """Read any finalized volume output back into a float64 array.

    Accepts the ``.npz`` the CLI writes on the in-memory path, a
    finalized shard directory, a finalized ``.raw`` file with its JSON
    sidecar, or a multi-page ``.tif`` volume (optional ``tifffile``).
    """
    path = Path(source)
    if path.is_dir():
        manifest_path = path / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{path} has no {_MANIFEST}; the volume was never finalized"
            )
        manifest = json.loads(manifest_path.read_text())
        volume = np.zeros(tuple(manifest["shape"]), dtype=np.float64)
        for name in manifest["shards"]:
            m = SLAB_PATTERN.match(name)
            if m is None:
                raise ValueError(f"manifest lists non-slab entry {name!r}")
            with np.load(path / name) as data:
                volume[int(m.group(1)) : int(m.group(2))] = data["volume"]
        return volume
    if path.suffix == ".npz":
        with np.load(path) as data:
            return np.asarray(data["volume"], dtype=np.float64)
    if path.suffix == ".raw":
        sidecar = path.with_suffix(path.suffix + ".json")
        meta = json.loads(sidecar.read_text())
        volume = np.fromfile(path, dtype=np.float64)
        return volume.reshape(tuple(meta["shape"]))
    if path.suffix in (".tif", ".tiff"):
        volume = np.asarray(_require_tifffile().imread(path), dtype=np.float64)
        if volume.ndim == 2:  # a single-slice volume folds to one page
            volume = volume[np.newaxis]
        return volume
    raise ValueError(f"cannot infer a volume format from {path}")
