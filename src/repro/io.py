"""Saving and loading preprocessed operators.

Preprocessing is the expensive step (paper Table 4/5); persisting its
product lets a beamline workflow preprocess once per scan geometry and
reconstruct thousands of slices across separate processes.

Format **v7** stores every preprocessing product in one ``.npz``: the
geometry, both orderings, the traced matrix, its partition size and
its dtype — so a load skips every preprocessing stage, not just
tracing.  The traced matrix is ``A``, or on a scan with an 8-slot ray
group only its traced rows ``Q`` under the same names; which one is
decided by the geometry alone (:func:`repro.sparse.orbit_group`), and
the group's gather indices are derived from the geometry and the
orderings at load (:class:`repro.sparse.OrbitMatrix`).  ``A^T`` is not
stored: the csr adjoint runs over the plan itself, and the operator
derives the scan transpose on demand.  No kernel layout is stored
either.  Only v7 loads: an older file raises
:class:`OperatorFormatError`, and ``preprocess`` rebuilds it.

Writes are crash-safe: the archive is written to a temporary file in
the destination directory, fsynced, and atomically renamed into place,
so a crashed or killed writer can never leave a half-written operator
under the final name.  Every file embeds a CRC-32 checksum over all
payload arrays which is verified on load; a flipped bit surfaces as
:class:`OperatorIntegrityError` instead of silently corrupt physics.

A load opens and parses the file once.  An uncompressed file (what
the plan cache stores) is *mapped*, not copied: the operator's arrays
are read-only views of one shared map of the file
(:func:`repro.persist.read_npz`), and the checksum is computed over
those pages before :func:`load_operator` returns — on every load.
Compressed files load as private copies with identical contents.

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
from .sparse import CSRMatrix, OrbitMatrix, orbit_group

__all__ = [
    "save_operator",
    "load_operator",
    "OperatorArchive",
    "FORMAT_VERSION",
    "OperatorFormatError",
    "OperatorIntegrityError",
]

FORMAT_VERSION = 7


class OperatorFormatError(ValueError):
    """The file is a valid archive but not a format we can interpret."""


class OperatorIntegrityError(ValueError):
    """The file is unreadable, truncated, or fails its checksum."""


# The checksum / atomic-write primitives live in repro.persist so the
# operator format, the plan cache, and solver checkpoints share one
# hardened path.

#: Geometry class by the archive's ``geometry_kind``.  Which keys a
#: geometry writes and how it is rebuilt from them are the class's own
#: ``archive_fields`` / ``from_archive``; an archive without the key is
#: parallel-beam.
_GEOMETRIES = {
    "parallel": ParallelBeamGeometry,
    "fan": FanBeamGeometry,
    "cone": ConeBeamGeometry,
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
    """What follows the matrix: the plan's config, the geometry's own keys."""
    common = ScanGeometry.archive_fields(operator.geometry)
    return {
        "partition_size": operator.config.partition_size,
        # Empty string encodes "no explicit dtype" (npz has no None).
        "dtype": operator.config.dtype or "",
        **{
            name: value
            for name, value in operator.geometry.archive_fields().items()
            if name not in common
        },
    }


def _plan_matrix(operator: MemXCTOperator) -> CSRMatrix:
    """The matrix ``operator``'s archive stores, or ``ValueError``.

    A load reads ``Q`` or ``A`` as the geometry's ray group decides
    (:func:`repro.sparse.orbit_group`), so an operator holding the other
    form (``A`` on an 8-slot scan, as a caller handing layouts in builds
    it) would write a file no load accepts.
    """
    orbit = orbit_group(operator.geometry) is not None
    if isinstance(operator.plan, OrbitMatrix) != orbit:
        held, stored = ("A", "Q") if orbit else ("Q", "A")
        raise ValueError(
            f"the operator holds {held}, but a plan of this scan stores {stored}:"
            " save the operator preprocess built"
        )
    return operator.stored


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
    matching ``np.savez`` conventions).  An operator whose plan is not
    the form its geometry's plans take (``Q`` on a scan with an 8-slot
    ray group, ``A`` elsewhere) raises ``ValueError`` and writes nothing.
    """
    matrix = _plan_matrix(operator)
    path = _stored_path(path)
    payload = {
        **_leading_members(
            operator.geometry, operator.tomo_ordering, operator.sino_ordering
        ),
        **matrix.to_arrays(),
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
        matrix = _plan_matrix(operator)
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


def _operator_from_arrays(data: dict) -> MemXCTOperator:
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
    # evolve, not the constructor: an archive's precision is the one it
    # was saved with, whatever REPRO_DTYPE says in this process.
    config = OperatorConfig(partition_size=int(data["partition_size"])).evolve(
        dtype=str(data["dtype"][()]) or None
    )
    group = orbit_group(geometry)
    rows = geometry.num_rays if group is None else len(group.stored_rays())
    matrix = CSRMatrix.from_arrays(
        data, rows, geometry.grid.num_pixels, config.partition_size
    )
    if group is not None:
        matrix = OrbitMatrix.from_group(matrix, group, tomo.rank, sino.perm)
    return MemXCTOperator(
        geometry=geometry,
        tomo_ordering=tomo,
        sino_ordering=sino,
        matrix=matrix,
        transpose=None,
        config=config,
    )


def load_operator(path: str | Path) -> MemXCTOperator:
    """Load an operator saved by :func:`save_operator`; no preprocessing
    stage re-runs.

    Raises
    ------
    FileNotFoundError
        ``path`` does not exist.
    OperatorFormatError
        The file is not format v7 (re-run ``preprocess`` to rebuild it).
    OperatorIntegrityError
        The file is not a readable operator archive (corrupt,
        truncated, wrong file type) or fails its embedded checksum.
    """
    path = Path(path)
    try:
        # One parse: the version is read from the same arrays the
        # operator is built from.  An unknown version is a format error
        # whatever its checksum says.
        data = read_npz(path, mapped=True)
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise OperatorFormatError(
                f"{path} is operator format version {version}; only version "
                f"{FORMAT_VERSION} loads (re-run preprocess to rebuild it)"
            )
        return _operator_from_arrays(verify_checksum(data, path))
    except (FileNotFoundError, OperatorFormatError, OperatorIntegrityError):
        raise
    except Exception as exc:
        raise OperatorIntegrityError(
            f"{path} is not a readable operator file: {exc}"
        ) from exc
