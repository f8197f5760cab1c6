"""Compute-precision policy for the reconstruction pipeline.

The repo's historical numerics are *mixed*: sparse matrix values are
stored ``float32`` (the paper's choice — halves the regular stream),
operator kernels compute in ``float32``, and the iterative solvers keep
their state (``x``, residuals, search directions) in ``float64``.  That
default is untouched — ``OperatorConfig(dtype=None)`` reproduces it
bit-for-bit.

``dtype="float32"`` opts into an end-to-end single-precision path:
solver state drops to ``float32`` too, halving vector traffic on a
bandwidth-bound SpMV (paper Section 5's roofline).  ``dtype="float64"``
is the full double-precision reference path — matrix values are stored
``float64`` as well — used by the tolerance-contract tests and the
``bench_kernels`` fp32-speedup comparison (see ``docs/precision.md``).

Only :func:`parse_dtype` raises; everything downstream trusts the
normalized ``None | "float32" | "float64"`` spelling.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "DTYPE_CHOICES",
    "ENV_DTYPE",
    "ambient_dtype",
    "parse_dtype",
    "compute_dtype",
    "solver_dtype",
]

#: Environment variable consulted when a config leaves ``dtype=None``,
#: mirroring ``REPRO_WORKERS``: it lets CI re-run unmodified suites on
#: the fp32 path without touching any call site.
ENV_DTYPE = "REPRO_DTYPE"

#: Normalized spellings accepted everywhere downstream of parse_dtype.
DTYPE_CHOICES = ("float32", "float64")

_ALIASES = {
    "float32": "float32",
    "fp32": "float32",
    "single": "float32",
    "f32": "float32",
    "float64": "float64",
    "fp64": "float64",
    "double": "float64",
    "f64": "float64",
}


def parse_dtype(spec: object) -> str | None:
    """Normalize a compute-dtype spec to ``None``/``"float32"``/``"float64"``.

    Accepts ``None`` (legacy mixed precision), the canonical strings,
    common aliases (``fp32``, ``single``, ``f64``, ...) case-insensitively,
    and numpy dtypes/scalar types.  Anything else raises ``ValueError``
    with the accepted spellings — malformed specs must never silently
    fall back to a default precision.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in _ALIASES:
            return _ALIASES[key]
        raise ValueError(
            f"invalid dtype spec {spec!r}: expected one of "
            f"{sorted(set(_ALIASES))} (or None for the default mixed "
            "precision)"
        )
    try:
        resolved = np.dtype(spec)
    except TypeError:
        resolved = None
    if resolved == np.float32:
        return "float32"
    if resolved == np.float64:
        return "float64"
    raise ValueError(
        f"invalid dtype spec {spec!r}: expected 'float32', 'float64', an "
        "alias (fp32/fp64/single/double), a matching numpy dtype, or None"
    )


def ambient_dtype() -> str | None:
    """Compute dtype from ``REPRO_DTYPE``, or ``None`` when unset/empty."""
    spec = os.environ.get(ENV_DTYPE, "").strip()
    return parse_dtype(spec) if spec else None


def compute_dtype(dtype: str | None) -> np.dtype:
    """Kernel (SpMV) dtype for a normalized spec: fp64 only when asked."""
    return np.dtype(np.float64 if dtype == "float64" else np.float32)


def solver_dtype(op: object) -> np.dtype:
    """Working dtype for solver state given a projection operator.

    Operators advertise an optional ``solve_dtype`` attribute;
    operators that predate the dtype path (or ad-hoc test doubles) get
    the historical ``float64`` state.
    """
    return np.dtype(getattr(op, "solve_dtype", None) or np.float64)
