"""The compiled row loops of :class:`~repro.sparse.CSRMatrix`.

``rowloops.c`` holds two loops, each for float32 and float64: a row
gather (``y[r, :] = Σ val·x[ind, :]``, scipy's ``csr_matvecs``) and an
8-column row scatter (``x[ind, :] += val·y[r, :]`` over rows in
ascending order, scipy's ``csc_matvecs`` over the same arrays).  Each
sums every output element in scipy's order, with no fused multiply-add,
so both are scipy's loops bit for bit.

The source is compiled on first use with the system C compiler
(``cc``) into ``$XDG_CACHE_HOME/repro/kernels/`` (``~/.cache`` when the
variable is unset), beside ``repro/plans``, under a name hashed from the
source, the flags and ``cc --version``.  A build writes a temporary file
and renames it into place, so builds racing in two processes each leave
one whole object.  The object is opened with :mod:`ctypes`, whose calls
release the GIL.  Without a compiler, or when the build or the load
fails, :func:`library` warns once (:class:`NativeLoopsWarning`) and
returns ``None``; every caller then runs scipy's loops, which give the
same bits.  A C compiler is optional.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

__all__ = ["NativeLoopsWarning", "gather", "kernel_dir", "library", "scatter8"]

#: The C source of both loops.
SOURCE = Path(__file__).with_name("rowloops.c")
#: The compiler, found on ``PATH``.
COMPILER = "cc"
#: Never ``-ffast-math`` or ``-march=native``: both let the compiler
#: contract or reorder the sums, and the loops must add as scipy's do.
FLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-shared", "-fPIC")

_SUFFIX = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_lock = threading.Lock()
_resolved = False
_library = None


class NativeLoopsWarning(RuntimeWarning):
    """The compiled row loops could not be built or loaded: scipy runs."""


def kernel_dir() -> Path:
    """Where compiled objects are kept: ``repro/kernels`` in the XDG cache."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    return (Path(xdg) if xdg else Path.home() / ".cache") / "repro" / "kernels"


def library() -> ctypes.CDLL | None:
    """The loaded loops, built at the first call of the process; ``None``
    (warned once) when they cannot be built or loaded."""
    global _resolved, _library
    if not _resolved:
        with _lock:
            if not _resolved:
                _library = _load()
                _resolved = True
    return _library


def gather(matrix, x: np.ndarray) -> np.ndarray | None:
    """``A @ x`` for an ``(n, S)`` slab by the compiled row gather, or
    ``None`` when the loops are unavailable or ``x`` is not in the
    values' dtype (scipy would then promote).

    ``matrix`` is a :class:`~repro.sparse.CSRMatrix`; its column indices
    are trusted to lie in ``[0, n)``, as scipy's loops trust them.
    """
    lib = library()
    if lib is None or x.dtype != matrix.val.dtype:
        return None
    if x.ndim != 2 or x.shape[0] != matrix.num_cols:
        raise ValueError(f"expected a ({matrix.num_cols}, S) slab, got shape {x.shape}")
    displ, ind, val, x = map(np.ascontiguousarray, (matrix.displ, matrix.ind, matrix.val, x))
    y = np.empty((matrix.num_rows, x.shape[1]), val.dtype)
    getattr(lib, "gather_" + _SUFFIX[val.dtype])(
        matrix.num_rows, x.shape[1], displ.ctypes.data, ind.ctypes.data,
        val.ctypes.data, x.ctypes.data, y.ctypes.data,
    )
    return y


def scatter8(matrix, y: np.ndarray) -> np.ndarray | None:
    """``A^T @ y`` for an ``(m, 8)`` slab by the compiled row scatter, or
    ``None`` as for :func:`gather`."""
    lib = library()
    if lib is None or y.dtype != matrix.val.dtype:
        return None
    if y.shape != (matrix.num_rows, 8):
        raise ValueError(f"expected a ({matrix.num_rows}, 8) slab, got shape {y.shape}")
    displ, ind, val, y = map(np.ascontiguousarray, (matrix.displ, matrix.ind, matrix.val, y))
    x = np.zeros((matrix.num_cols, 8), val.dtype)
    getattr(lib, "scatter8_" + _SUFFIX[val.dtype])(
        matrix.num_rows, displ.ctypes.data, ind.ctypes.data, val.ctypes.data,
        y.ctypes.data, x.ctypes.data,
    )
    return x


def _load() -> ctypes.CDLL | None:
    try:
        version = subprocess.run(
            [COMPILER, "--version"], capture_output=True, check=True, timeout=60
        ).stdout
        key = hashlib.sha256(
            b"\0".join([SOURCE.read_bytes(), " ".join(FLAGS).encode(), version])
        ).hexdigest()[:16]
        path = kernel_dir() / f"rowloops-{key}.so"
        if not path.exists():
            _compile(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        warnings.warn(
            f"the compiled row loops are unavailable ({exc}{': ' + stderr if stderr else ''});"
            " scipy's loops run instead, with the same results",
            NativeLoopsWarning,
            stacklevel=4,
        )
        return None
    # (rows[, width], displ, ind, val, input, output): sizes, then pointers.
    for suffix in _SUFFIX.values():
        for name, sizes in (("gather_", 2), ("scatter8_", 1)):
            function = getattr(lib, name + suffix)
            function.argtypes = [ctypes.c_int64] * sizes + [ctypes.c_void_p] * 5
            function.restype = None
    return lib


def _compile(path: Path) -> None:
    """Build the object into a temporary file and rename it to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [COMPILER, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True,
            check=True,
            timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
