"""Tests for multi-stage input buffering (paper Listing 3)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import listing3_spmv
from repro.sparse import BufferedMatrix, CSRMatrix, RowPartitions, build_buffered


def _random_sorted(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    S = sp.random(rows, cols, density=density, random_state=rng, format="csr", dtype=np.float32)
    return CSRMatrix.from_scipy(S).sort_rows_by_index()


class TestCorrectness:
    @pytest.mark.parametrize("partition_size", [1, 8, 32])
    @pytest.mark.parametrize("buffer_bytes", [64, 512, 1 << 18])
    def test_both_kernels_match_csr(self, partition_size, buffer_bytes):
        A = _random_sorted(70, 90, 0.1, 0)
        B = build_buffered(A, partition_size, buffer_bytes)
        x = np.random.default_rng(1).random(90).astype(np.float32)
        ref = A.spmv(x)
        np.testing.assert_allclose(listing3_spmv(B, x), ref, atol=1e-4)
        np.testing.assert_allclose(B.spmv(x), ref, atol=1e-4)

    def test_on_traced_matrix(self, ordered_medium):
        matrix, _, _ = ordered_medium
        B = build_buffered(matrix, partition_size=64, buffer_bytes=1024)
        x = np.random.default_rng(2).random(matrix.num_cols).astype(np.float32)
        np.testing.assert_allclose(
            B.spmv(x), matrix.spmv(x), rtol=1e-4, atol=1e-4
        )

    @given(
        seed=st.integers(0, 300),
        partition_size=st.sampled_from([1, 3, 8, 17]),
        buffer_elements=st.sampled_from([1, 4, 16, 256]),
    )
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, seed, partition_size, buffer_elements):
        A = _random_sorted(25, 35, 0.2, seed)
        B = build_buffered(A, partition_size, buffer_elements * 4)
        x = np.random.default_rng(seed + 1).standard_normal(35).astype(np.float32)
        np.testing.assert_allclose(B.spmv(x), A.spmv(x), atol=1e-3)

    def test_empty_matrix(self):
        A = CSRMatrix.from_scipy(sp.csr_matrix((6, 8), dtype=np.float32))
        B = build_buffered(A, 4, 1024)
        np.testing.assert_array_equal(
            B.spmv(np.ones(8, dtype=np.float32)), np.zeros(6)
        )


class TestStructure:
    def test_stage_sizes_respect_capacity(self):
        A = _random_sorted(60, 200, 0.15, 3)
        B = build_buffered(A, 16, buffer_bytes=64)  # 16 elements per buffer
        stage_sizes = np.diff(B.stagedispl)
        assert stage_sizes.max() <= 16
        assert (stage_sizes > 0).all()

    def test_local_indices_fit_buffer(self):
        A = _random_sorted(60, 200, 0.15, 4)
        B = build_buffered(A, 16, buffer_bytes=64)
        assert B.ind.dtype == np.uint16
        assert B.ind.max() < 16

    def test_stages_per_partition_is_ceil_of_footprint(self):
        A = _random_sorted(40, 100, 0.25, 5)
        capacity = 8
        B = build_buffered(A, 10, buffer_bytes=capacity * 4)
        from repro.sparse import RowPartitions, partition_input_footprints

        fps = partition_input_footprints(A, RowPartitions(40, 10))
        expected = [max(1, -(-len(fp) // capacity)) for fp in fps]
        np.testing.assert_array_equal(B.stages_per_partition(), expected)

    def test_map_is_sorted_within_stage(self):
        """Stages follow domain order, preserving Hilbert locality."""
        A = _random_sorted(30, 80, 0.3, 6)
        B = build_buffered(A, 8, buffer_bytes=32)
        for s in range(B.num_stages):
            chunk = B.map[B.stagedispl[s] : B.stagedispl[s + 1]]
            assert np.all(np.diff(chunk) > 0)

    def test_map_covers_each_partition_footprint_once(self):
        A = _random_sorted(30, 50, 0.3, 7)
        B = build_buffered(A, 10, buffer_bytes=16)
        for part in range(B.partitions.num_partitions):
            s0, s1 = B.partdispl[part], B.partdispl[part + 1]
            stage_union = B.map[B.stagedispl[s0] : B.stagedispl[s1]]
            r0, r1 = B.partitions.bounds(part)
            cols = np.unique(A.ind[A.displ[r0] : A.displ[r1]])
            np.testing.assert_array_equal(np.sort(stage_union), cols)

    def test_nnz_preserved(self):
        A = _random_sorted(30, 50, 0.3, 8)
        B = build_buffered(A, 8, 128)
        assert B.nnz == A.nnz
        assert B.shape == A.shape

    def test_regular_bytes_per_fma(self):
        A = _random_sorted(10, 10, 0.5, 9)
        B = build_buffered(A, 4, 128)
        assert B.regular_bytes_per_fma() == 6.0  # 4 B value + 2 B uint16
        assert B.map_bytes() == 4 * B.map.shape[0]

    def test_buffer_bytes_property(self):
        A = _random_sorted(10, 10, 0.5, 10)
        B = build_buffered(A, 4, 8192)
        assert B.buffer_bytes == 8192
        assert B.buffer_elements == 2048


def _reference_build(matrix, partition_size, buffer_bytes):
    """The straightforward builder: ``np.unique`` per partition and a
    lexsort by (stage, row, position).  ``build_buffered`` must lay out
    the very same arrays."""
    buffer_elements = buffer_bytes // 4
    parts = RowPartitions(matrix.num_rows, partition_size)
    partdispl = np.zeros(parts.num_partitions + 1, dtype=np.int64)
    sizes, maps, counts, inds, vals = [], [], [], [], []
    for part in range(parts.num_partitions):
        row0, row1 = parts.bounds(part)
        lo, hi = matrix.displ[row0], matrix.displ[row1]
        cols = matrix.ind[lo:hi]
        rows = np.repeat(
            np.arange(row1 - row0, dtype=np.int64), np.diff(matrix.displ[row0 : row1 + 1])
        )
        distinct, inverse = np.unique(cols, return_inverse=True)
        num_stages = max(1, -(-distinct.shape[0] // buffer_elements))
        stage = inverse // buffer_elements
        order = np.lexsort((np.arange(cols.shape[0]), rows, stage))
        inds.append((inverse % buffer_elements).astype(np.uint16)[order])
        vals.append(matrix.val[lo:hi][order])
        slot = stage[order] * partition_size + rows[order]
        counts.append(np.bincount(slot, minlength=num_stages * partition_size))
        for s in range(num_stages):
            chunk = distinct[s * buffer_elements : (s + 1) * buffer_elements]
            maps.append(chunk.astype(np.int32))
            sizes.append(chunk.shape[0])
        partdispl[part + 1] = partdispl[part] + num_stages
    stagedispl = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    displ = np.concatenate([[0], np.cumsum(np.concatenate(counts), dtype=np.int64)])
    return {
        "buffer_elements": np.asarray(buffer_elements, dtype=np.int64),
        "partdispl": partdispl,
        "stagedispl": stagedispl,
        "map": np.concatenate(maps),
        "displ": displ,
        "ind": np.concatenate(inds),
        "val": np.concatenate(vals),
    }


def _assert_same_layout(built, reference):
    arrays = built.to_arrays()
    assert arrays.keys() == reference.keys()
    for name, expected in reference.items():
        assert arrays[name].dtype == expected.dtype, name
        np.testing.assert_array_equal(arrays[name], expected, err_msg=name)


class TestBuilderMatchesReference:
    """The O(nnz) builder writes the reference builder's plan bytes."""

    @pytest.fixture(scope="class", params=[None, "float32", "float64"])
    def operator(self, request):
        from repro.core import OperatorConfig, preprocess
        from repro.geometry import ParallelBeamGeometry

        config = OperatorConfig(kernel="csr", dtype=request.param)
        op, _ = preprocess(ParallelBeamGeometry(60, 48), config=config, cache=None)
        return op

    @pytest.mark.parametrize("buffer_bytes", [4 * 1024, 32 * 1024, 256 * 1024])
    @pytest.mark.parametrize("direction", ["matrix", "transpose"])
    def test_traced_operator(self, operator, direction, buffer_bytes):
        matrix = getattr(operator, direction)
        built = build_buffered(matrix, 128, buffer_bytes)
        _assert_same_layout(built, _reference_build(matrix, 128, buffer_bytes))

    def test_wide_stage_keys(self):
        """Over 2^16 (stage, row) slots in one partition: the grouping
        key no longer fits 16 bits and sorts as int64."""
        A = _random_sorted(64, 3000, 0.5, 14)
        built = build_buffered(A, 32, 4)
        assert built.stages_per_partition().max() * 32 > 1 << 16
        _assert_same_layout(built, _reference_build(A, 32, 4))

    def test_empty_partitions(self):
        A = CSRMatrix.from_scipy(sp.csr_matrix(
            (np.ones(4, dtype=np.float32), ([0, 0, 1, 1], [5, 2, 2, 7])), shape=(12, 8)
        ))
        _assert_same_layout(build_buffered(A, 4, 8), _reference_build(A, 4, 8))


class TestLimits:
    def test_16bit_addressing_limit_enforced(self):
        """Paper 3.3.5: 16-bit addressing caps buffers at 256 KB."""
        A = _random_sorted(10, 10, 0.5, 11)
        build_buffered(A, 4, 256 * 1024)  # exactly the limit: OK
        with pytest.raises(ValueError):
            build_buffered(A, 4, 256 * 1024 + 4)

    def test_tiny_buffer_rejected(self):
        A = _random_sorted(10, 10, 0.5, 12)
        with pytest.raises(ValueError):
            build_buffered(A, 4, 2)

    def test_wrong_input_length_rejected(self):
        A = _random_sorted(10, 12, 0.5, 13)
        B = build_buffered(A, 4, 64)
        with pytest.raises(ValueError):
            listing3_spmv(B, np.ones(10, dtype=np.float32))
        with pytest.raises(ValueError):
            B.spmv(np.ones(10, dtype=np.float32))
