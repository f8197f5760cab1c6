"""Crash-safe archive primitives shared by every on-disk format.

Robustness properties, factored out of :mod:`repro.io` so the operator
format, the plan cache, solver checkpoints, and the service job journal
all go through the *same* hardened path — one writer
(:class:`NpzWriter`, of which :func:`atomic_savez` is the add-only use)
and one parser (:func:`read_npz`) of an archive:

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
  of each array rather than serializing it twice, and an uncompressed
  archive is written with every member's array data on a 64-byte
  boundary of the file (a pad field in the member's zip local header;
  the file stays a plain ``.npz`` that ``np.load`` opens), so
  ``read_npz(path, mapped=True)`` can hand out read-only views of one
  shared file map instead of private copies.  The payload CRC is then
  computed over the mapped pages: a warm operator load is one map and
  one CRC pass.  Nothing may write or truncate a finished archive in
  place while views of it are alive — writers here only ever rename a
  finished file over it, which leaves the mapped inode untouched.
* **Written once** — the writer can also *reserve* a member: lay down
  its headers, allocate its data region on disk (``posix_fallocate``,
  so a full disk is an ``OSError`` there and never a fault later) and
  hand out a writable shared-map view of it for the producer to fill
  where it lies; sealing reads each filled byte once (its CRC feeds the
  zip CRC and the payload checksum, :func:`crc32_combine`), syncs and
  renames.  The sealed file is byte for byte what adding the same
  arrays writes.
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import os
import struct
import threading
import weakref
import zipfile
import zlib
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

__all__ = [
    "raw_buffer",
    "payload_checksum",
    "crc32_combine",
    "NpzWriter",
    "atomic_savez",
    "atomic_write_text",
    "atomic_savez_checked",
    "read_npz",
    "verify_checksum",
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


def payload_checksum(payload: dict, known: dict | None = None) -> int:
    """CRC-32 over every payload array (name + raw bytes), name-sorted.

    The ``checksum`` key itself is excluded so the stored checksum can
    live inside the payload it protects.  ``known`` maps member names
    to the CRC-32 of their raw bytes, spliced in instead of re-read.
    """
    known = known or {}
    crc = 0
    for name in sorted(payload):
        if name == "checksum":
            continue
        crc = zlib.crc32(name.encode("utf-8"), crc)
        data = raw_buffer(payload[name])
        crc = crc32_combine(crc, known[name], len(data)) if name in known else zlib.crc32(data, crc)
    return crc & 0xFFFFFFFF


def _multmodp(a: int, b: int) -> int:
    """``a * b`` modulo zlib's CRC-32 polynomial, bits reflected; ``a`` nonzero."""
    m, p = 1 << 31, 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ 0xEDB88320 if b & 1 else b >> 1


_X2N = [1 << 30]  # x**(2**k) modulo the polynomial, k = 0..31
for _ in range(31):
    _X2N.append(_multmodp(_X2N[-1], _X2N[-1]))


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of ``a + b`` from ``crc32(a)``, ``crc32(b)`` and ``len(b)``:
    zlib's ``crc32_combine`` (``crc1`` times ``x**(8 * len2)``, plus ``crc2``)."""
    op, k = 1 << 31, 3
    while len2:
        if len2 & 1:
            op = _multmodp(_X2N[k & 31], op)
        len2, k = len2 >> 1, k + 1
    return _multmodp(op, crc1 & 0xFFFFFFFF) ^ (crc2 & 0xFFFFFFFF)


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


#: Array data of every stored member start on a multiple of this many
#: bytes in the file (npy pads its own header to the same 64).
ALIGNMENT = 64

#: Zip extra-field id of the padding that aligns a member (the id
#: Android's ``zipalign`` pads with); readers skip unknown fields.
_PAD_FIELD_ID = 0xD935

#: Every member carries the same stamp (the zip epoch), not the wall
#: clock: two writes of one payload are the same bytes.
_MEMBER_DATE = (1980, 1, 1, 0, 0, 0)

#: Zip local file header: signature, 22 bytes of fields the central
#: directory repeats, file-name length, extra-field length.
_LOCAL_HEADER = struct.Struct("<4s22xHH")

#: The zip64 extra field of a local header: id, length, two sizes.
_ZIP64_FIELD = struct.Struct("<HHQQ")


class NpzWriter:
    """The one writer of a stored (uncompressed) ``.npz``.

    Members land in a ``*.tmp-<pid>`` sibling of ``path`` in call order,
    each one's array data on an :data:`ALIGNMENT` boundary, and
    :meth:`seal` renames the finished file into place.  A member is
    either *added* — copied in through ``write()`` — or *reserved* and
    then filled where it lies, through a shared map of the file: the
    sealed bytes are the same either way.  Leaving the ``with`` block
    without sealing removes the temporary file.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        # One name per writing thread: a second writer of ``path`` in
        # this process must never truncate a file the first has mapped.
        self._tmp = self.path.with_name(
            f"{self.path.name}.{threading.get_ident():x}.tmp-{os.getpid()}"
        )
        self._fh = open(self._tmp, "w+b")
        self._zip = zipfile.ZipFile(self._fh, "w", zipfile.ZIP_STORED)
        #: Every member so far, by name, as stored — what
        #: :func:`payload_checksum` covers.
        self.payload: dict = {}
        self._reserved: list = []  # (name, ZipInfo, npy header, view, its map)
        self._crcs: dict | None = None

    def __enter__(self) -> "NpzWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the file; an unsealed archive is removed."""
        if not self._fh.closed:
            with contextlib.suppress(OSError):  # it is being discarded
                self._zip.close()
            self._fh.close()
        self._tmp.unlink(missing_ok=True)

    def _member(self, name: str) -> zipfile.ZipInfo:
        info = zipfile.ZipInfo(name + ".npy", _MEMBER_DATE)
        info.external_attr = 0o600 << 16
        # The npy header is a multiple of ALIGNMENT long, so the array
        # data are aligned when the local header — fixed part, name, the
        # zip64 sizes every member carries, our pad — ends aligned.
        header = _LOCAL_HEADER.size + len(info.filename.encode()) + _ZIP64_FIELD.size
        pad = -(self._zip.start_dir + header) % ALIGNMENT
        if pad:
            if pad < 4:  # a field is at least its own id and length
                pad += ALIGNMENT
            info.extra = struct.pack("<HH", _PAD_FIELD_ID, pad - 4) + bytes(pad - 4)
        return info

    def add(self, name: str, value) -> None:
        """Append ``value`` as member ``name``, by copy."""
        value = np.asanyarray(value)
        with self._zip.open(self._member(name), "w", force_zip64=True) as member:
            npy_format.write_array(member, value, allow_pickle=False)
        self.payload[name] = value

    def reserve(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Lay member ``name`` down unfilled; a writable view of its data.

        The headers are written, the data region is allocated on disk
        *before* the view exists (a full disk is an ``OSError`` here,
        never a fault at some later store through the view), and the
        view is that region of the file, mapped shared: what the caller
        writes into it is the member.  Its CRC is taken at :meth:`seal`.
        """
        dtype, shape = np.dtype(dtype), tuple(int(n) for n in shape)
        nbytes = dtype.itemsize * math.prod(shape)
        if not nbytes:  # nothing to fill, nothing to map
            self.add(name, np.empty(shape, dtype))
            return self.payload[name]
        info = self._member(name)
        buffer = io.BytesIO()
        npy_format.write_array_header_1_0(
            buffer,
            {"descr": npy_format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape},
        )
        header = buffer.getvalue()
        info.header_offset = self._zip.start_dir
        info.file_size = info.compress_size = len(header) + nbytes
        info.CRC = 0  # patched at seal
        self._fh.seek(info.header_offset)
        self._fh.write(info.FileHeader(zip64=True))
        self._fh.write(header)
        data = self._fh.tell()
        os.posix_fallocate(self._fh.fileno(), data, nbytes)
        # A map per member: each starts on a page boundary of its own,
        # and (as for a loaded archive) is its view's only base.
        page = data - data % mmap.ALLOCATIONGRANULARITY
        mapped = mmap.mmap(self._fh.fileno(), data + nbytes - page, offset=page)
        view = np.frombuffer(mapped, dtype, math.prod(shape), data - page).reshape(shape)
        self._zip.start_dir = data + nbytes
        self._zip.filelist.append(info)
        self._zip.NameToInfo[info.filename] = info
        self._reserved.append((name, info, header, view, mapped))
        self.payload[name] = view
        return view

    def data_crcs(self) -> dict:
        """CRC-32 of each reserved member's data, by name: read once from
        the mapped pages (fill the views first), reused by :meth:`seal`."""
        if self._crcs is None:
            self._crcs = {name: zlib.crc32(raw_buffer(v)) for name, _, _, v, _ in self._reserved}
        return self._crcs

    def seal(self) -> Path:
        """Finish the archive and rename it into place.

        A reserved member's zip CRC is its header's combined with its
        :meth:`data_crcs` entry; the pages are synced, then dropped from
        this process's page tables — a view that outlives the writer
        stays valid and re-faults from the page cache, but no longer
        counts the file's pages a second time beside a map of the
        sealed file.
        """
        for name, info, header, view, mapped in self._reserved:
            info.CRC = crc32_combine(zlib.crc32(header), self.data_crcs()[name], view.nbytes)
            self._fh.seek(info.header_offset)
            self._fh.write(info.FileHeader(zip64=True))
            mapped.flush()
            mapped.madvise(mmap.MADV_DONTNEED)
        self._zip.close()  # the central directory, at start_dir
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        os.replace(self._tmp, self.path)
        return self.path


def atomic_savez(path: Path, payload: dict, compress: bool) -> None:
    """Write ``payload`` as an npz archive via temp file + rename."""
    if compress:
        _atomic_write(path, "wb", lambda fh: np.savez_compressed(fh, **payload))
    else:
        with NpzWriter(path) as npz:
            for name, value in payload.items():
                npz.add(name, value)
            npz.seal()


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


#: The live read-only map of each archive this process holds views of,
#: keyed by ``(st_dev, st_ino, st_size)`` — not mtime, which the plan
#: cache's recency bump rewrites.  Weak: the file is unmapped when the
#: last view of it dies.  Each separate map of one file counts its pages
#: in RSS again, so every load of one archive shares one.
_LIVE_MAPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _file_map(fh) -> mmap.mmap:
    stat = os.fstat(fh.fileno())
    key = (stat.st_dev, stat.st_ino, stat.st_size)
    mapped = _LIVE_MAPS.get(key)
    if mapped is None:
        # Two threads racing here map the file twice; both maps are
        # good and the later one stays registered.
        mapped = _LIVE_MAPS[key] = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return mapped


def _member_view(fh, info: zipfile.ZipInfo, mapped: mmap.mmap) -> np.ndarray | None:
    """Read-only view of a stored member's array data in the file map.

    ``None`` when the data cannot be used where they lie (misaligned
    for their dtype — every archive written before members were
    aligned — Fortran-ordered, byte-swapped, or an npy version without
    a public header reader): the caller reads a private copy instead.
    """
    signature, name_size, extra_size = _LOCAL_HEADER.unpack_from(mapped, info.header_offset)
    if signature != b"PK\x03\x04":
        raise ValueError(f"member {info.filename}: bad local header")
    start = info.header_offset + _LOCAL_HEADER.size + name_size + extra_size
    fh.seek(start)
    version = npy_format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = npy_format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran, dtype = npy_format.read_array_header_2_0(fh)
    else:
        return None
    data = fh.tell()
    if (
        fortran
        or dtype.hasobject
        or not dtype.isnative
        or dtype.itemsize == 0
        or data % dtype.alignment
    ):
        return None
    count = math.prod(shape)
    stop = start + info.file_size
    if stop > len(mapped) or data + dtype.itemsize * count != stop:
        raise ValueError(f"member {info.filename}: npy header disagrees with its size")
    # One frombuffer per member, not slices of one whole-file array: a
    # member must be its own base, or scipy's csr_matrix takes "a small
    # view of a much larger array" as its cue to copy it.
    return np.frombuffer(mapped, dtype, count, data).reshape(shape)


def read_npz(path, mapped: bool = False) -> dict:
    """Every array of the npz archive at ``path``, by member name.

    Private copies by default, each read through ``zipfile``'s own
    per-member CRC.  With ``mapped``, members of an archive that
    carries a ``checksum`` entry come back as *read-only views* of one
    shared map of the file wherever they can (stored, aligned, C-order
    — see :func:`_member_view`; deflated members and the rest are
    copies as above): nothing has read their bytes yet, so the caller
    must run :func:`verify_checksum` before trusting them.

    Raises ``FileNotFoundError`` for a missing file and
    :class:`CorruptArchiveError` for anything else unreadable.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            members = zf.infolist()
            mapped = mapped and any(m.filename == "checksum.npy" for m in members)
            file_map = _file_map(fh) if mapped else None
            payload = {}
            for info in members:
                array = None
                if file_map is not None and info.compress_type == zipfile.ZIP_STORED:
                    array = _member_view(fh, info, file_map)
                if array is None:
                    with zf.open(info) as member:
                        array = npy_format.read_array(member, allow_pickle=False)
                payload[info.filename.removesuffix(".npy")] = array
            return payload
    except FileNotFoundError:
        raise
    except (
        OSError, ValueError, KeyError, EOFError, struct.error, zlib.error,
        zipfile.BadZipFile,
    ) as exc:
        raise CorruptArchiveError(f"unreadable archive {path}: {exc}") from exc


def verify_checksum(payload: dict, path) -> dict:
    """``payload`` minus its ``checksum`` entry, once the CRC matched.

    Raises :class:`CorruptArchiveError` on a missing checksum or a
    mismatch — silent bit rot never reaches the caller.
    """
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


def load_checked_npz(path) -> dict:
    """Load a checked npz archive, verifying its embedded checksum.

    Returns the payload dict (``checksum`` entry removed) as private,
    writable arrays.  Raises :class:`CorruptArchiveError` on a missing
    or unreadable archive, a missing checksum, or a mismatch.
    """
    try:
        return verify_checksum(read_npz(path), path)
    except FileNotFoundError as exc:
        raise CorruptArchiveError(f"unreadable archive {path}: {exc}") from exc


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
