"""Crash-safe archive primitives shared by every on-disk format.

Three robustness properties, factored out of :mod:`repro.io` so the
operator format, the plan cache, solver checkpoints, and the service
job journal all go through the *same* hardened path:

* **Atomic writes** — payloads (npz archives and the JSON sidecars
  next to them alike) are written to a temporary file in the
  destination directory, fsynced, and renamed into place.  A crashed
  or killed writer leaves at most a stray ``*.tmp-<pid>`` file, never
  a truncated file under the final name; a writer that fails removes
  its temporary file.
* **Content checksums** — :func:`payload_checksum` computes a CRC-32
  over every payload array (name + raw bytes, name-sorted) so loaders
  can detect silent bit corruption instead of returning corrupt
  physics.  :func:`atomic_savez_checked` embeds the checksum;
  :func:`load_checked_npz` refuses an archive that fails it.
* **Durable append** — :class:`RecordLog` is a CRC-framed append-only
  log (length + CRC-32 header per record, fsync per append) whose
  replay tolerates exactly the failure ``kill -9`` produces: a torn
  final record is dropped, anything before it is intact or the replay
  raises.
* **Zero copies where possible** — checksumming uses a raw memoryview
  of each array rather than serializing it twice.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = [
    "raw_buffer",
    "payload_checksum",
    "atomic_savez",
    "atomic_write_text",
    "atomic_savez_checked",
    "load_checked_npz",
    "CorruptArchiveError",
    "RecordLog",
    "RecordLogError",
]


def raw_buffer(value) -> bytes | memoryview:
    """C-order raw bytes of an array, without copying when possible."""
    arr = np.ascontiguousarray(np.asarray(value))
    try:
        return memoryview(arr).cast("B")
    except (TypeError, NotImplementedError):  # e.g. unicode dtypes
        return arr.tobytes()


def payload_checksum(payload: dict) -> int:
    """CRC-32 over every payload array (name + raw bytes), name-sorted.

    The ``checksum`` key itself is excluded so the stored checksum can
    live inside the payload it protects.
    """
    crc = 0
    for name in sorted(payload):
        if name == "checksum":
            continue
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(raw_buffer(payload[name]), crc)
    return crc & 0xFFFFFFFF


def _atomic_write(path: Path, mode: str, write) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, fsync, rename."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, mode) as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_savez(path: Path, payload: dict, compress: bool) -> None:
    """Write ``payload`` as an npz archive via temp file + rename."""
    writer = np.savez_compressed if compress else np.savez
    _atomic_write(path, "wb", lambda fh: writer(fh, **payload))


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + fsync + rename."""
    _atomic_write(Path(path), "w", lambda fh: fh.write(text))


class CorruptArchiveError(ValueError):
    """A checked npz archive is unreadable or fails its checksum."""


def atomic_savez_checked(path: Path, payload: dict, compress: bool = False) -> None:
    """:func:`atomic_savez` with the content checksum embedded.

    The written archive carries a ``checksum`` entry covering every
    other payload array; :func:`load_checked_npz` verifies it.
    """
    payload = dict(payload)
    payload["checksum"] = np.uint32(payload_checksum(payload))
    atomic_savez(Path(path), payload, compress=compress)


def load_checked_npz(path) -> dict:
    """Load a checked npz archive, verifying its embedded checksum.

    Returns the payload dict (``checksum`` entry removed).  Raises
    :class:`CorruptArchiveError` on an unreadable archive, a missing
    checksum, or a mismatch — silent bit rot never reaches the caller.
    """
    from zipfile import BadZipFile

    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            payload = {name: data[name] for name in data.files}
    except (OSError, ValueError, KeyError, BadZipFile) as exc:
        raise CorruptArchiveError(f"unreadable archive {path}: {exc}") from exc
    if "checksum" not in payload:
        raise CorruptArchiveError(f"archive {path} carries no checksum")
    stored = int(payload.pop("checksum"))
    actual = payload_checksum(payload)
    if actual != stored:
        raise CorruptArchiveError(
            f"archive {path}: checksum mismatch (stored {stored:#010x}, "
            f"computed {actual:#010x}) — corrupt or truncated"
        )
    return payload


class RecordLogError(ValueError):
    """A record log is corrupt beyond the tolerated torn tail."""


#: Per-record frame header: little-endian (payload length, CRC-32).
_FRAME_HEADER = struct.Struct("<II")


class RecordLog:
    """Append-only CRC-framed byte-record log with durable appends.

    Each record is framed as ``<length:u32><crc32:u32><payload>``.
    :meth:`append` writes the frame and fsyncs before returning, so a
    record handed back to the caller is on disk — the property the job
    server's "acknowledge only after journaling" discipline rests on.

    :meth:`replay` yields payloads in append order.  A torn *final*
    frame (short header, short payload, or CRC mismatch at the tail) is
    the expected residue of a ``kill -9`` mid-append and is silently
    dropped; a bad frame *followed by more data* means real corruption
    and raises :class:`RecordLogError` instead of guessing.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None

    # -- writing ---------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, payload: bytes) -> None:
        """Durably append one record (flush + fsync before returning)."""
        payload = bytes(payload)
        fh = self._handle()
        fh.write(_FRAME_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- replay ----------------------------------------------------------

    def replay(self) -> list[bytes]:
        """All intact records in append order (empty for a missing log)."""
        if not self.path.exists():
            return []
        blob = self.path.read_bytes()
        records: list[bytes] = []
        offset = 0
        total = len(blob)
        while offset < total:
            frame_start = offset
            if offset + _FRAME_HEADER.size > total:
                break  # torn tail: header itself never finished landing
            length, crc = _FRAME_HEADER.unpack_from(blob, offset)
            offset += _FRAME_HEADER.size
            if offset + length > total:
                break  # torn tail: payload cut short by the crash
            payload = blob[offset : offset + length]
            offset += length
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                if offset < total:
                    raise RecordLogError(
                        f"record log {self.path}: CRC mismatch at byte "
                        f"{frame_start} with further data beyond it"
                    )
                break  # torn tail: the crashed append never completed
            records.append(payload)
        return records
