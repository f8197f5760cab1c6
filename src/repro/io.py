"""Saving and loading preprocessed operators.

Preprocessing is the expensive step (paper Table 4/5); persisting its
product lets a beamline workflow preprocess once per scan geometry and
reconstruct thousands of slices across separate processes.

Format **v6** stores every preprocessing product a kernel runs on in
one ``.npz``: the geometry, both orderings, the ordered matrix, and the
buffered / ELL kernel layouts — so a load skips every preprocessing
stage, not just tracing.  ``A^T`` is not stored: the csr adjoint runs
over the plan itself, and the operator derives the scan transpose on
demand.  Every plan on a scan with an 8-slot ray group, whatever its
kernel, stores only the traced rows ``Q`` under the matrix's names and
no layout: every kernel runs the orbit SpMM over it.  The group's
gather indices are derived from the geometry and the orderings at load
(:class:`repro.sparse.OrbitMatrix`).  Only a plan of ``A`` carries a
buffered or ELL layout pair.  Format v5 files (``Q`` plus the layouts
of ``A`` for a buffered or ELL plan of such a scan), v4 files (``Q``
for a csr plan of such a scan, ``A`` for every other plan), v3 files
(the full ``A`` whatever the geometry), v2 files (which also held
``A^T`` under ``t_`` members, checked and then ignored) and v1 files
(matrix only; layouts rebuilt on load) are still readable, each as it
was written, and run the layouts they hold.

Writes are crash-safe: the archive is written to a temporary file in
the destination directory, fsynced, and atomically renamed into place,
so a crashed or killed writer can never leave a half-written operator
under the final name.  Every v2+ file embeds a CRC-32 checksum over all
payload arrays which is verified on load; a flipped bit surfaces as
:class:`OperatorIntegrityError` instead of silently corrupt physics.

A load opens and parses the file once.  An uncompressed v2+ file (what
the plan cache stores) is *mapped*, not copied: the operator's arrays
are read-only views of one shared map of the file
(:func:`repro.persist.read_npz`), and the checksum is computed over
those pages before :func:`load_operator` returns — on every load.
Compressed files, files written before members were aligned, and v1
files load as private copies with identical contents.

The member order of the archive is decided in this module alone.
:func:`save_operator` writes a finished operator by copy;
:class:`OperatorArchive` is the same archive assembled *in place* for
the plan cache — the matrix's index and value streams are reserved in
the file and filled by the row gather that computes them — and seals
to the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import MemXCTOperator, OperatorConfig
from .geometry import (
    ConeBeamGeometry,
    FanBeamGeometry,
    ParallelBeamGeometry,
    ScanGeometry,
)
from .ordering import DomainOrdering
from .persist import (
    NpzWriter,
    atomic_savez_checked,
    payload_checksum,
    read_npz,
    verify_checksum,
)
from .sparse import (
    BufferedMatrix,
    CSRMatrix,
    ELLPartitioned,
    OrbitMatrix,
    build_buffered,
    build_ell,
    orbit_group,
    scan_transpose,
)

__all__ = [
    "save_operator",
    "load_operator",
    "OperatorArchive",
    "FORMAT_VERSION",
    "OperatorFormatError",
    "OperatorIntegrityError",
]

FORMAT_VERSION = 6

#: Versions this loader understands.
_READABLE_VERSIONS = (1, 2, 3, 4, 5, 6)


class OperatorFormatError(ValueError):
    """The file is a valid archive but not a format we can interpret."""


class OperatorIntegrityError(ValueError):
    """The file is unreadable, truncated, or fails its checksum."""


# The checksum / atomic-write primitives live in repro.persist so the
# operator format, the plan cache, and solver checkpoints share one
# hardened path.

#: Archive-key prefix, layout class and direction (is it a layout of
#: the transpose?) of each optional kernel layout, by operator
#: attribute.  A layout's own keys (and how it is rebuilt from them)
#: are its class's ``to_arrays``/``from_arrays``; the ordered matrix is
#: stored the same way under "" (a v2 file's "t_" members held ``A^T``).
_LAYOUTS = {
    "buffered_forward": ("bf_", BufferedMatrix, False),
    "buffered_adjoint": ("ba_", BufferedMatrix, True),
    "ell_forward": ("ef_", ELLPartitioned, False),
    "ell_adjoint": ("ea_", ELLPartitioned, True),
}


#: Geometry class by the archive's ``geometry_kind``.  Which keys a
#: geometry writes and how it is rebuilt from them are the class's own
#: ``archive_fields`` / ``from_archive``; an archive without the key is
#: parallel-beam (the only kind there was when v2 was defined).
_GEOMETRIES = {
    "parallel": ParallelBeamGeometry,
    "fan": FanBeamGeometry,
    "cone": ConeBeamGeometry,
}


def _with_prefix(prefix: str, arrays: dict) -> dict:
    return {prefix + name: array for name, array in arrays.items()}


def _without_prefix(prefix: str, data: dict) -> dict:
    """The entries of ``data`` under ``prefix``, keyed by bare name."""
    return {
        name[len(prefix):]: array
        for name, array in data.items()
        if name.startswith(prefix)
    }


# -- save -------------------------------------------------------------------
#
# The member order of an archive is decided here and nowhere else:
# ``_leading_members``, the ordered matrix, ``_trailing_members``,
# ``checksum``.


def _leading_members(
    geometry: ScanGeometry, tomo_ordering: DomainOrdering, sino_ordering: DomainOrdering
) -> dict:
    """What precedes the matrix: known before a single view is traced."""
    return {
        "format_version": FORMAT_VERSION,
        # The geometry keys every kind writes; a kind's own keys follow
        # the config.  Those are optional keys — a parallel-beam file
        # has none and stays byte-compatible with every earlier reader,
        # so a new geometry needs no format bump.
        **ScanGeometry.archive_fields(geometry),
        "tomo_name": tomo_ordering.name,
        "tomo_perm": tomo_ordering.perm,
        "sino_name": sino_ordering.name,
        "sino_perm": sino_ordering.perm,
    }


def _trailing_members(operator: MemXCTOperator) -> dict:
    """What follows the matrix: config, geometry's own keys, layouts."""
    common = ScanGeometry.archive_fields(operator.geometry)
    payload: dict = {
        "kernel": operator.config.kernel,
        "partition_size": operator.config.partition_size,
        "buffer_bytes": operator.config.buffer_bytes,
        # Empty string encodes "no explicit dtype" (npz has no None);
        # files written before the dtype path simply lack the key.
        "dtype": operator.config.dtype or "",
        **{
            name: value
            for name, value in operator.geometry.archive_fields().items()
            if name not in common
        },
    }
    for attr, (prefix, _, _) in _LAYOUTS.items():
        layout = getattr(operator, attr)
        if layout is not None:
            payload.update(_with_prefix(prefix, layout.to_arrays()))
    return payload


def _stored_path(path: str | Path) -> Path:
    """``path`` with ``.npz`` appended when missing (``np.savez``'s rule)."""
    path = Path(path)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def save_operator(
    path: str | Path, operator: MemXCTOperator, compress: bool = True
) -> Path:
    """Serialize a preprocessed operator to ``path`` (.npz), atomically.

    ``compress=False`` trades ~2x file size for much faster writes and
    loads (no zlib on the multi-hundred-MB streams) — what the plan
    cache uses, since its entries exist purely to be loaded fast.

    Returns the path actually written (``.npz`` appended when missing,
    matching ``np.savez`` conventions).
    """
    path = _stored_path(path)
    payload = {
        **_leading_members(
            operator.geometry, operator.tomo_ordering, operator.sino_ordering
        ),
        **operator.stored.to_arrays(),
        **_trailing_members(operator),
    }
    atomic_savez_checked(path, payload, compress)
    return path


class OperatorArchive:
    """An uncompressed archive assembled in place, for the plan cache.

    Members, order and bytes are those of ``save_operator(path,
    operator, compress=False)``, but the index and value streams of the
    ordered matrix — all of a default plan that grows with ``nnz`` —
    are *reserved* (:meth:`repro.persist.NpzWriter.reserve`) and handed
    to the tracer's compiled row gather: each nonzero is written once,
    into the page of the file it will be loaded from.  Everything
    else is added by copy.  Unsealed, :meth:`close` leaves nothing
    behind.
    """

    def __init__(
        self,
        path: str | Path,
        geometry: ScanGeometry,
        tomo_ordering: DomainOrdering,
        sino_ordering: DomainOrdering,
        value_dtype: str,
    ) -> None:
        self._npz = NpzWriter(_stored_path(path))
        self._num_rows = geometry.num_rays
        self._value_dtype = value_dtype
        self._reserved: list = []
        try:
            for name, value in _leading_members(
                geometry, tomo_ordering, sino_ordering
            ).items():
                self._npz.add(name, value)
        except BaseException:
            self.close()
            raise

    def reserve_matrix(
        self, nnz: int, num_rows: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lay down the stored matrix with ``nnz`` nonzeros — ``A``, or
        ``Q``'s ``num_rows`` rows; the archive's writable ``(ind, val)``
        for the builder to fill."""
        rows = self._num_rows if num_rows is None else num_rows
        self._reserved = [
            self._npz.reserve(name, shape, dtype)
            for name, shape, dtype in (
                ("displ", (rows + 1,), np.int64),
                ("ind", (nnz,), np.int32),
                ("val", (nnz,), self._value_dtype),
            )
        ]
        return tuple(self._reserved[1:])

    def seal(self, operator: MemXCTOperator) -> Path:
        """Finish the archive around ``operator`` and rename it into place.

        The operator's stored matrix must be the reserved streams — a
        ``ValueError`` otherwise.  The payload checksum splices in the
        CRCs the seal takes of the reserved members, so each of their
        bytes is read once.
        """
        matrix = operator.stored
        if not self._reserved or any(
            (ours.ctypes.data, ours.shape) != (theirs.ctypes.data, theirs.shape)
            for ours, theirs in zip(self._reserved[1:], (matrix.ind, matrix.val))
        ):
            raise ValueError("the operator's matrix is not what this archive reserved")
        with self._npz as npz:
            self._reserved[0][:] = matrix.displ
            for name, value in _trailing_members(operator).items():
                npz.add(name, value)
            npz.add("checksum", np.uint32(payload_checksum(npz.payload, npz.data_crcs())))
            return npz.seal()

    def close(self) -> None:
        self._npz.close()


# -- load -------------------------------------------------------------------


def _ordering_from_arrays(name: str, rows: int, cols: int, perm: np.ndarray) -> DomainOrdering:
    rank = np.empty_like(perm)
    rank[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return DomainOrdering(str(name), rows, cols, perm.astype(np.int64), rank)


def _operator_from_arrays(data: dict, version: int) -> MemXCTOperator:
    kind = str(data["geometry_kind"][()]) if "geometry_kind" in data else "parallel"
    if kind not in _GEOMETRIES:
        raise OperatorFormatError(f"unsupported geometry kind {kind!r}")
    geometry = _GEOMETRIES[kind].from_archive(data)
    tomo = _ordering_from_arrays(
        data["tomo_name"][()], *geometry.tomo_layout_shape, data["tomo_perm"]
    )
    sino = _ordering_from_arrays(
        data["sino_name"][()], *geometry.sino_layout_shape, data["sino_perm"]
    )
    saved_dtype = str(data["dtype"][()]) if "dtype" in data else ""
    # evolve, not the constructor: an archive's precision is the one it
    # was saved with, whatever REPRO_DTYPE says in this process.
    config = OperatorConfig(
        kernel=str(data["kernel"][()]),
        partition_size=int(data["partition_size"]),
        buffer_bytes=int(data["buffer_bytes"]),
    ).evolve(dtype=saved_dtype or None)
    psize = config.partition_size
    # Every v5+ plan of an orbit group is ``Q``, a v4 one only on csr;
    # earlier versions hold ``A``.
    stores_q = version >= 5 or (version == 4 and config.kernel == "csr")
    group = orbit_group(geometry) if stores_q else None
    rows = geometry.num_rays if group is None else len(group.stored_rays())
    matrix = CSRMatrix.from_arrays(data, rows, geometry.grid.num_pixels, psize)
    if group is not None:
        matrix = OrbitMatrix.from_group(matrix, group, tomo.rank, sino.perm)

    layouts = dict.fromkeys(_LAYOUTS)
    if version >= 2:
        # A v2 file's "t_" members passed the checksum and stay unread.
        for attr, (prefix, layout_class, transposed) in _LAYOUTS.items():
            arrays = _without_prefix(prefix, data)
            if arrays:
                num_rows, num_cols = matrix.shape[::-1] if transposed else matrix.shape
                layouts[attr] = layout_class.from_arrays(
                    arrays, num_rows, num_cols, psize
                )
    elif config.kernel != "csr":
        # v1 stored the matrix only: rebuild the kernel's layouts.
        transpose = scan_transpose(matrix)
        if config.kernel == "buffered":
            layouts["buffered_forward"] = build_buffered(
                matrix, psize, config.buffer_bytes
            )
            layouts["buffered_adjoint"] = build_buffered(
                transpose, psize, config.buffer_bytes
            )
        elif config.kernel == "ell":
            layouts["ell_forward"] = build_ell(matrix, psize)
            layouts["ell_adjoint"] = build_ell(transpose, psize)

    return MemXCTOperator(
        geometry=geometry,
        tomo_ordering=tomo,
        sino_ordering=sino,
        matrix=matrix,
        transpose=None,
        config=config,
        **layouts,
    )


def load_operator(path: str | Path) -> MemXCTOperator:
    """Load an operator saved by :func:`save_operator`.

    v2+ files restore the kernel layouts directly (no preprocessing
    stage re-runs); v1 files rebuild them deterministically from the
    stored matrix.

    Raises
    ------
    FileNotFoundError
        ``path`` does not exist.
    OperatorFormatError
        The file has an unsupported format version.
    OperatorIntegrityError
        The file is not a readable operator archive (corrupt,
        truncated, wrong file type) or fails its embedded checksum.
    """
    path = Path(path)
    try:
        # One parse: the version is read from the same arrays the
        # operator is built from.  An unknown version is a format error
        # whatever its checksum says, and v1 files carry no checksum
        # (``read_npz`` hands out views only of archives that do).
        data = read_npz(path, mapped=True)
        version = int(data["format_version"])
        if version not in _READABLE_VERSIONS:
            raise OperatorFormatError(
                f"unsupported operator file version {version} "
                f"(expected one of {_READABLE_VERSIONS})"
            )
        if version >= 2:
            data = verify_checksum(data, path)
        return _operator_from_arrays(data, version)
    except (FileNotFoundError, OperatorFormatError, OperatorIntegrityError):
        raise
    except Exception as exc:
        raise OperatorIntegrityError(
            f"{path} is not a readable operator file: {exc}"
        ) from exc
