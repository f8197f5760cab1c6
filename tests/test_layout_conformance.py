"""What every kernel layout promises, written once.

Each layout class of ``repro.sparse`` (CSR, multi-stage buffered,
partition-padded ELL) offers one production kernel ``spmv`` over a
vector or a slab, one ``partition_slice``, and one ``to_arrays`` /
``from_arrays`` pair that the operator archive, the shared-memory
export and pickling all go through.  This file states that contract
over the product layout x precision x input rank.

The operators are built with the *ambient* worker spec, so running the
file under ``REPRO_WORKERS=2`` (threads) or ``process:2`` (shared
memory, i.e. ``from_arrays(to_arrays())`` inside each worker) checks
the parallel path against the serial kernel, bit for bit.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import obs
from repro.cachesim import listing3_spmv
from repro.core import KERNELS, OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.parallel import partition_ranges

PARTITION_SIZE = 32
DTYPES = {"mixed": None, "float32": "float32", "float64": "float64"}
SHAPES = {"vector": (), "slab1": (1,), "slab4": (4,)}
SPMV_COUNTERS = (
    obs.SPMV_CALLS,
    obs.SPMV_FLOPS,
    obs.SPMV_REGULAR_BYTES,
    obs.SPMV_IRREGULAR_BYTES,
    obs.BUFFER_STAGES,
    obs.DTYPE_FP32_SPMV,
    obs.DTYPE_FP64_SPMV,
)


@pytest.fixture(scope="module")
def operators():
    geometry = ParallelBeamGeometry(36, 24)
    return {
        (kernel, dtype): preprocess(
            geometry,
            config=OperatorConfig(
                kernel=kernel,
                partition_size=PARTITION_SIZE,
                buffer_bytes=1024,  # several stages per partition
                dtype=DTYPES[dtype],
            ),
        )[0]
        for kernel in KERNELS
        for dtype in DTYPES
    }


def _layouts(op):
    return {
        "csr": (op.matrix, op.transpose),
        "buffered": (op.buffered_forward, op.buffered_adjoint),
        "ell": (op.ell_forward, op.ell_adjoint),
    }[op.config.kernel]


def _forward_layout(op):
    return _layouts(op)[0]


def _input(op, shape):
    rng = np.random.default_rng(5)
    return rng.standard_normal((op.num_pixels,) + shape).astype(op.compute_dtype)


def _assert_same_field(a, b, name):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    elif isinstance(a, list):
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            _assert_same_field(x, y, name)
    else:
        assert a == b, name


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelConformance:
    def test_spmv(self, operators, kernel, dtype, shape):
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        x = _input(op, SHAPES[shape])
        y = layout.spmv(x)

        # Right answer, right shape, right dtype.
        dense = op.matrix.to_scipy().toarray().astype(np.float64)
        ref = dense @ x.astype(np.float64)
        assert y.shape == ref.shape
        assert y.dtype == np.result_type(x.dtype, np.float32)
        tol = 1e-10 if x.dtype == np.float64 else 1e-4
        assert np.abs(y - ref).max() <= tol * np.abs(ref).max()

        # A vector is the one-column slab: column j of a slab result is
        # the vector call on column j, bit for bit.
        for j in range(x.shape[1] if x.ndim == 2 else 0):
            assert np.array_equal(y[:, j], layout.spmv(x[:, j]))

        # The literal Listing-3 loop nest computes the same numbers.
        if kernel == "buffered":
            columns = x[:, None] if x.ndim == 1 else x
            literal = np.stack(
                [listing3_spmv(layout, columns[:, j]) for j in range(columns.shape[1])],
                axis=1,
            )
            assert np.array_equal(literal.reshape(y.shape), y)

        # Partition-range slices tile the output, bit for bit.
        num_partitions = -(-layout.num_rows // PARTITION_SIZE)
        for workers in (2, 3, num_partitions):
            pieces = [
                layout.partition_slice(p0, p1, PARTITION_SIZE).spmv(x)
                for p0, p1 in partition_ranges(num_partitions, workers)
            ]
            assert np.array_equal(np.concatenate(pieces), y)

        # The operator runs exactly this kernel, whichever worker
        # backend is ambient, under both protocol names.
        assert np.array_equal(op.forward(x), y)
        assert np.array_equal(op.forward_batch(x), y)

    def test_bad_input_rejected(self, operators, kernel, dtype, shape):
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        short = np.zeros((op.num_pixels - 1,) + SHAPES[shape], dtype=op.compute_dtype)
        with pytest.raises(ValueError, match="rows"):
            layout.spmv(short)
        with pytest.raises(ValueError, match="slab"):
            layout.spmv(np.zeros((op.num_pixels, 2, 2), dtype=op.compute_dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", KERNELS)
class TestArrayForm:
    def test_round_trip_is_the_layout(self, operators, kernel, dtype):
        """``from_arrays(to_arrays())`` is the layout, field by field —
        value dtype included — and is made of views, not copies."""
        op = operators[(kernel, dtype)]
        for layout in _layouts(op):
            arrays = layout.to_arrays()
            rebuilt = type(layout).from_arrays(
                arrays, layout.num_rows, layout.num_cols, PARTITION_SIZE
            )
            for field in dataclasses.fields(layout):
                _assert_same_field(
                    getattr(layout, field.name), getattr(rebuilt, field.name), field.name
                )
            values = rebuilt.val_slabs[0] if kernel == "ell" else rebuilt.val
            assert values.dtype == op.matrix.val.dtype
            assert np.shares_memory(values, arrays["val"])

    def test_pickle_is_the_array_form(self, operators, kernel, dtype):
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        x = _input(op, ())
        clone = pickle.loads(pickle.dumps(layout))
        assert np.array_equal(clone.spmv(x), layout.spmv(x))

    def test_accounting_is_rank_and_backend_blind(self, operators, kernel, dtype):
        """A vector call, a one-column slab and (under ``REPRO_WORKERS``)
        a parallel run account identically; ``S`` columns count ``S`` times
        except for the regular stream, charged once."""
        op = operators[(kernel, dtype)]
        x = _input(op, ())

        def totals(call, arg):
            with obs.capture() as cap:
                call(arg)
            (span,) = cap.find_spans("spmv.forward")
            return {c: cap.total(c) for c in SPMV_COUNTERS}, span.attrs

        vector, vector_attrs = totals(op.forward, x)
        one, one_attrs = totals(op.forward_batch, x[:, None])
        with op.serial_scope():
            serial, _ = totals(op.forward, x)
        assert vector == one == serial
        assert vector_attrs == {"kernel": kernel}
        assert one_attrs == {"kernel": kernel, "batch": 1}
        four, _ = totals(op.forward, np.stack([x] * 4, axis=1))
        for counter in SPMV_COUNTERS:
            once = counter in (obs.SPMV_REGULAR_BYTES, obs.BUFFER_STAGES)
            assert four[counter] == vector[counter] * (1 if once else 4)
