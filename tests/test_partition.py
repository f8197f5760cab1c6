"""Tests for row partitioning and partition footprint statistics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ordering import make_ordering
from repro.sparse import (
    CSRMatrix,
    RowPartitions,
    partition_data_reuse,
    partition_input_footprints,
)


class TestRowPartitions:
    def test_bounds_cover_rows_exactly(self):
        p = RowPartitions(num_rows=23, partition_size=5)
        assert p.num_partitions == 5
        spans = [p.bounds(i) for i in range(5)]
        assert spans[0] == (0, 5)
        assert spans[-1] == (20, 23)
        total = sum(b - a for a, b in spans)
        assert total == 23

    def test_all_bounds(self):
        p = RowPartitions(10, 4)
        bounds = p.all_bounds()
        np.testing.assert_array_equal(bounds, [[0, 4], [4, 8], [8, 10]])

    def test_exact_division(self):
        p = RowPartitions(16, 4)
        assert p.num_partitions == 4
        assert p.bounds(3) == (12, 16)

    def test_zero_rows(self):
        assert RowPartitions(0, 4).num_partitions == 0

    def test_an_empty_range_past_a_short_last_partition(self):
        """``[P, P)`` after a partial last partition is the empty range at
        the end, and its slice is a matrix of no rows."""
        p = RowPartitions(10, 4)
        assert p.row_range(3, 3) == (10, 10)
        matrix = CSRMatrix.from_scipy(sp.random(10, 6, density=0.5, random_state=0))
        assert matrix.partition_slice(3, 3, 4).shape == (0, 6)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            RowPartitions(10, 4).bounds(3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RowPartitions(10, 0)
        with pytest.raises(ValueError):
            RowPartitions(-1, 4)


class TestFootprints:
    def test_footprints_are_distinct_sorted(self):
        rng = np.random.default_rng(0)
        S = sp.random(24, 30, density=0.3, random_state=rng, format="csr", dtype=np.float32)
        A = CSRMatrix.from_scipy(S)
        parts = RowPartitions(24, 8)
        fps = partition_input_footprints(A, parts)
        assert len(fps) == 3
        for fp in fps:
            assert np.all(np.diff(fp) > 0)

    def test_footprint_matches_manual(self):
        dense = np.zeros((4, 6), dtype=np.float32)
        dense[0, [1, 3]] = 1.0
        dense[1, [1, 5]] = 1.0
        dense[2, [0]] = 1.0
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        fps = partition_input_footprints(A, RowPartitions(4, 2))
        np.testing.assert_array_equal(fps[0], [1, 3, 5])
        np.testing.assert_array_equal(fps[1], [0])

    def test_data_reuse_definition(self):
        dense = np.zeros((2, 4), dtype=np.float32)
        dense[0, [0, 1]] = 1.0
        dense[1, [0, 1]] = 1.0  # 4 nnz over 2 distinct inputs -> reuse 2
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        reuse = partition_data_reuse(A, RowPartitions(2, 2))
        np.testing.assert_allclose(reuse, [2.0])

    def test_hilbert_partitions_have_higher_reuse(self, medium_matrix, medium_geometry):
        """Connected (Hilbert) partitions gather overlapping inputs —
        the Fig. 6(a) data-reuse argument."""
        n = medium_geometry.grid.n
        tomo = make_ordering("pseudo-hilbert", n, n, min_tiles=16)
        sino_h = make_ordering(
            "pseudo-hilbert", medium_geometry.num_angles, n, min_tiles=16
        )
        ordered = medium_matrix.permute(sino_h.perm, tomo.rank)
        parts = RowPartitions(ordered.num_rows, 64)
        reuse_hilbert = partition_data_reuse(ordered, parts).mean()
        reuse_rowmajor = partition_data_reuse(medium_matrix, parts).mean()
        assert reuse_hilbert > reuse_rowmajor
