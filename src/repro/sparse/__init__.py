"""Sparse kernels: CSR/ELL storage, scan transposition, row partitions,
and the multi-stage input-buffered SpMV (paper Sections 3.1, 3.3, 3.5.1).
CSR slabs run the compiled row loops of :mod:`repro.sparse.native`."""

from .buffering import (
    BYTES_PER_INPUT_ELEMENT,
    BufferedMatrix,
    build_buffered,
    validate_buffer_bytes,
)
from .csr import CSRMatrix, csr_row_sums
from .ell import ELLPartitioned, build_ell
from .orbit import OrbitMatrix, orbit_group
from .partition import (
    RowPartitions,
    partition_data_reuse,
    partition_input_footprints,
    partition_rows,
)
from .transpose import randomized_transpose, scan_transpose

__all__ = [
    "BYTES_PER_INPUT_ELEMENT",
    "BufferedMatrix",
    "build_buffered",
    "validate_buffer_bytes",
    "CSRMatrix",
    "csr_row_sums",
    "ELLPartitioned",
    "build_ell",
    "OrbitMatrix",
    "orbit_group",
    "RowPartitions",
    "partition_data_reuse",
    "partition_input_footprints",
    "partition_rows",
    "randomized_transpose",
    "scan_transpose",
]
