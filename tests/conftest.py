"""Shared fixtures: small geometries and traced matrices.

Session-scoped because tracing is the expensive step; tests must not
mutate fixture objects (CSRMatrix methods are non-mutating by design).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MemXCTOperator, OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix, build_buffered, build_ell
from repro.trace import build_projection_matrix


def with_layouts(operator, kernel: str | None = None):
    """``operator`` with the paper layout pair of ``kernel`` handed in.

    No plan holds a layout, so a test of the buffered or ELL kernel
    builds its pair here, from ``operator.matrix`` / ``operator.transpose``
    and the config's sizes, as ``bench/kernels.py`` does (an orbit
    plan's pair is built over its expanded ``A``).  ``kernel`` defaults
    to the operator's own; a csr operator comes back as it is.
    """
    config = operator.config.evolve(kernel=kernel or operator.config.kernel)
    if config.kernel == "csr":
        return operator
    matrix, transpose = operator.matrix, operator.transpose
    size = config.partition_size
    if config.kernel == "buffered":
        layouts = {
            "buffered_forward": build_buffered(matrix, size, config.buffer_bytes),
            "buffered_adjoint": build_buffered(transpose, size, config.buffer_bytes),
        }
    else:
        layouts = {
            "ell_forward": build_ell(matrix, size),
            "ell_adjoint": build_ell(transpose, size),
        }
    return MemXCTOperator(
        operator.geometry,
        operator.tomo_ordering,
        operator.sino_ordering,
        matrix,
        transpose,
        config,
        **layouts,
    )


@pytest.fixture(autouse=True)
def _isolated_plan_cache(tmp_path, monkeypatch):
    """Point the default plan cache at a per-test temp dir.

    CLI commands default to ``--cache auto``; without this, tests would
    read and write the developer's real ``~/.cache/repro/plans``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plan-cache"))


@pytest.fixture(scope="session")
def small_geometry() -> ParallelBeamGeometry:
    """A 36x24 sinogram on a 24x24 grid — fast to trace."""
    return ParallelBeamGeometry(36, 24)


@pytest.fixture(scope="session")
def small_matrix(small_geometry) -> CSRMatrix:
    """Row-major traced matrix of the small geometry."""
    return CSRMatrix.from_scipy(build_projection_matrix(small_geometry))


@pytest.fixture(scope="session")
def medium_geometry() -> ParallelBeamGeometry:
    """A 60x48 sinogram on a 48x48 grid."""
    return ParallelBeamGeometry(60, 48)


@pytest.fixture(scope="session")
def medium_matrix(medium_geometry) -> CSRMatrix:
    return CSRMatrix.from_scipy(build_projection_matrix(medium_geometry))


@pytest.fixture(scope="session")
def ordered_medium(medium_geometry, medium_matrix):
    """(matrix, tomo_ordering, sino_ordering) in pseudo-Hilbert order."""
    n = medium_geometry.grid.n
    tomo = make_ordering("pseudo-hilbert", n, n, min_tiles=16)
    sino = make_ordering(
        "pseudo-hilbert",
        medium_geometry.num_angles,
        medium_geometry.num_channels,
        min_tiles=16,
    )
    matrix = medium_matrix.permute(sino.perm, tomo.rank).sort_rows_by_index()
    return matrix, tomo, sino


@pytest.fixture(scope="session")
def small_operator(small_geometry):
    """Preprocessed buffered operator on the small geometry."""
    op, _ = preprocess(
        small_geometry,
        config=OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=4096),
    )
    return op


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
