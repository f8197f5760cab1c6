"""Tests for operator persistence (save/load roundtrip)."""

import errno
import gc
import hashlib
import os
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib import format as npy_format

from repro import persist
from repro.cache import PlanCache
from repro.core import MemXCTOperator, OperatorConfig, preprocess
from repro.geometry import ConeBeamGeometry, FanBeamGeometry, ParallelBeamGeometry
from repro.io import (
    FORMAT_VERSION,
    OperatorFormatError,
    OperatorIntegrityError,
    load_operator,
    save_operator,
)
from .conftest import with_layouts

KERNELS = ("csr", "buffered", "ell")
PRECISIONS = (None, "float32", "float64")
LAYOUTS = ("buffered_forward", "buffered_adjoint", "ell_forward", "ell_adjoint")


def member_spans(path) -> dict[str, tuple[int, int]]:
    """``name -> (npy header offset, array data offset)`` of every
    member, parsed from the zip and npy headers alone — independent of
    the parser under test."""
    spans = {}
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        for info in zf.infolist():
            fh.seek(info.header_offset + 26)
            name_size, extra_size = np.frombuffer(fh.read(4), "<u2")
            start = info.header_offset + 30 + int(name_size) + int(extra_size)
            fh.seek(start)
            assert npy_format.read_magic(fh) == (1, 0)
            npy_format.read_array_header_1_0(fh)
            spans[info.filename.removesuffix(".npy")] = (start, fh.tell())
    return spans


def operator_arrays(operator) -> dict[str, np.ndarray]:
    """Every array of nnz or row length a loaded operator runs on: the
    plan's, as no operator loaded or preprocessed holds a layout."""
    assert all(getattr(operator, attr) is None for attr in LAYOUTS)
    return {name: array for name, array in operator.stored.to_arrays().items() if array.size > 1}


def plan_config(operator) -> tuple:
    """What an archive keeps of a config: the kernel and the buffer
    size change no plan, so a load gets the defaults for them."""
    return operator.config.partition_size, operator.config.dtype


def assert_equal_operators(loaded, operator) -> None:
    assert loaded.geometry == operator.geometry
    assert plan_config(loaded) == plan_config(operator)
    ours, theirs = operator_arrays(loaded), operator_arrays(operator)
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert ours[name].dtype == theirs[name].dtype, name
        assert np.array_equal(ours[name], theirs[name]), name


def small_operator_of(kernel, dtype=None, angles=30):
    """A 30-view scan has an 8-slot ray group, so the plan is ``Q``;
    29 views (odd ``M``) have none, so it is ``A``.  No kernel builds a
    layout on either."""
    op, _ = preprocess(
        ParallelBeamGeometry(angles, 20),
        config=OperatorConfig(
            kernel=kernel, partition_size=32, buffer_bytes=2048, dtype=dtype
        ),
    )
    return op


def _saved(tmp_path_factory, angles):
    op = small_operator_of("buffered", angles=angles)
    path = tmp_path_factory.mktemp("ops") / "op.npz"
    save_operator(path, op)
    return op.geometry, op, path


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A buffered plan of an 8-slot scan: ``Q`` alone."""
    return _saved(tmp_path_factory, 30)


@pytest.fixture(scope="module")
def saved_of_a(tmp_path_factory):
    """A buffered plan of a scan without a group: ``A``."""
    return _saved(tmp_path_factory, 29)


class TestRoundtrip:
    def test_geometry_restored(self, saved):
        _, op, path = saved
        loaded = load_operator(path)
        assert loaded.geometry.sinogram_shape == op.geometry.sinogram_shape
        assert loaded.geometry.grid.n == op.geometry.grid.n
        assert loaded.geometry.angle_range == op.geometry.angle_range

    def test_matrix_identical(self, saved):
        _, op, path = saved
        loaded = load_operator(path)
        np.testing.assert_array_equal(loaded.matrix.displ, op.matrix.displ)
        np.testing.assert_array_equal(loaded.matrix.ind, op.matrix.ind)
        np.testing.assert_array_equal(loaded.matrix.val, op.matrix.val)

    def test_kernels_behave_identically(self, saved, rng):
        _, op, path = saved
        loaded = load_operator(path)
        x = rng.random(op.num_pixels).astype(np.float32)
        y = rng.random(op.num_rays).astype(np.float32)
        np.testing.assert_allclose(loaded.forward(x), op.forward(x), rtol=1e-6)
        np.testing.assert_allclose(loaded.adjoint(y), op.adjoint(y), rtol=1e-6)

    def test_orderings_restored(self, saved):
        _, op, path = saved
        loaded = load_operator(path)
        assert loaded.tomo_ordering.name == op.tomo_ordering.name
        np.testing.assert_array_equal(loaded.tomo_ordering.perm, op.tomo_ordering.perm)
        np.testing.assert_array_equal(loaded.sino_ordering.rank, op.sino_ordering.rank)

    def test_config_restored(self, saved, saved_of_a):
        """A buffered config's plan comes back with its partition size
        and precision; the archive keeps no kernel or buffer size, so
        the loaded config has the defaults for them.  The plan of an
        8-slot scan is ``Q`` and runs the orbit kernel, the other ``A``;
        neither holds a layout."""
        for (_, op, path), of_a in ((saved, False), (saved_of_a, True)):
            loaded = load_operator(path)
            assert loaded.config == OperatorConfig(partition_size=32).evolve(
                dtype=op.config.dtype
            )
            assert loaded.buffered_forward is None
            assert loaded._orbit != of_a

    def test_reconstruction_through_loaded_operator(self, saved, rng):
        g, op, path = saved
        from repro.core import reconstruct

        loaded = load_operator(path)
        sino = rng.random(g.sinogram_shape)
        a = reconstruct(sino, g, iterations=5, operator=op)
        b = reconstruct(sino, g, iterations=5, operator=loaded)
        np.testing.assert_allclose(a.image, b.image, rtol=1e-5, atol=1e-7)

    def test_csr_kernel_config(self, tmp_path):
        g = ParallelBeamGeometry(10, 8)
        op, _ = preprocess(g, config=OperatorConfig(kernel="csr"))
        path = tmp_path / "csr.npz"
        save_operator(path, op)
        loaded = load_operator(path)
        assert loaded.config.kernel == "csr"
        assert loaded.buffered_forward is None

    @pytest.mark.parametrize("angles", [9, 10])
    @pytest.mark.parametrize(
        "config",
        [
            OperatorConfig(),
            OperatorConfig(kernel="csr"),
            OperatorConfig(kernel="buffered"),
            OperatorConfig(kernel="ell"),
        ],
    )
    def test_archive_holds_the_plan_and_no_layout(self, tmp_path, config, angles):
        """The traced matrix (``A`` on 9 views, ``Q`` on 10) and never
        its transpose (the csr adjoint runs over the plan), whatever the
        kernel: no staged or padded layout, and neither the kernel nor
        the buffer size."""
        op, report = preprocess(ParallelBeamGeometry(angles, 8), config, cache=tmp_path)
        archive = save_operator(tmp_path / "op.npz", op)
        for path in (archive, PlanCache(tmp_path).plan_path(report.cache_key)):
            names = [n.removesuffix(".npy") for n in zipfile.ZipFile(path).namelist()]
            assert {"displ", "ind", "val"} <= set(names)
            assert not [n for n in names if n.startswith("t_")]
            assert not [n for n in names if n[:3] in ("bf_", "ba_", "ef_", "ea_")]
            assert not {"kernel", "buffer_bytes"} & set(names)

    def test_version_check(self, saved, tmp_path):
        _, op, path = saved
        import numpy as np

        with np.load(path) as data:
            arrays = dict(data)
        arrays["format_version"] = np.int64(99)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ValueError):
            load_operator(bad)

    @pytest.mark.parametrize("angles", [29, 30])
    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_all_kernels_bit_identical(self, tmp_path, rng, kernel, angles):
        """The archive is the plan the operator ran on, so the loaded
        operator must produce *bit-identical* results, not just close.
        No kernel's archive holds a layout."""
        op = small_operator_of(kernel, angles=angles)
        loaded = load_operator(save_operator(tmp_path / f"{kernel}.npz", op))
        assert all(getattr(loaded, attr) is None for attr in LAYOUTS)
        np.testing.assert_array_equal(loaded.transpose.displ, op.transpose.displ)
        np.testing.assert_array_equal(loaded.transpose.ind, op.transpose.ind)
        np.testing.assert_array_equal(loaded.transpose.val, op.transpose.val)
        x = rng.random(op.num_pixels).astype(np.float32)
        y = rng.random(op.num_rays).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), op.forward(x))
        np.testing.assert_array_equal(loaded.adjoint(y), op.adjoint(y))

    def test_uncompressed_roundtrip(self, saved, tmp_path, rng):
        _, op, path = saved
        fast = save_operator(tmp_path / "fast.npz", op, compress=False)
        assert fast.stat().st_size >= path.stat().st_size  # no zlib
        loaded = load_operator(fast)
        x = rng.random(op.num_pixels).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), op.forward(x))

    @pytest.mark.parametrize("ambient", ["float32", "float64"])
    @pytest.mark.parametrize("saved_dtype", [None, "float32", "float64"])
    def test_precision_is_the_archive_s_not_the_environment_s(
        self, tmp_path, monkeypatch, saved_dtype, ambient
    ):
        """An archive loads with the precision it was saved with under
        any ambient REPRO_DTYPE (a default, mixed-precision archive used
        to come back relabelled with the environment's dtype)."""
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        op, _ = preprocess(
            ParallelBeamGeometry(10, 8),
            config=OperatorConfig(kernel="csr", dtype=saved_dtype),
        )
        path = save_operator(tmp_path / "op.npz", op)
        monkeypatch.setenv("REPRO_DTYPE", ambient)
        loaded = load_operator(path)
        loaded.set_workers("serial")  # rebuilding the config keeps it too
        assert loaded.config.dtype == saved_dtype
        assert loaded.compute_dtype == op.compute_dtype
        assert loaded.solve_dtype == op.solve_dtype
        assert loaded.matrix.val.dtype == op.matrix.val.dtype == op.compute_dtype

    def test_npz_suffix_appended(self, saved, tmp_path):
        _, op, _ = saved
        written = save_operator(tmp_path / "bare", op)
        assert written.name == "bare.npz"
        assert written.exists()

    def test_no_temp_files_left_behind(self, saved, tmp_path):
        _, op, _ = saved
        save_operator(tmp_path / "clean.npz", op)
        assert [p.name for p in tmp_path.glob("*.tmp-*")] == []


WRITER_GEOMETRIES = {
    "orbit": ParallelBeamGeometry(24, 16),
    "odd-M": ParallelBeamGeometry(23, 16),
    "full-turn": ParallelBeamGeometry(24, 16, angle_range=2 * np.pi),
    "fan": FanBeamGeometry(16, 12, source_distance=40.0),
    "cone": ConeBeamGeometry(8, 4, 6, source_distance=30.0),
}


class TestWriterRefusesAPlanOfTheWrongForm:
    """A load reads ``Q`` or ``A`` as ``orbit_group(geometry)`` decides,
    so the writer refuses an operator holding the other form rather than
    write a file no load accepts, and writes nothing."""

    def test_an_operator_over_a_on_an_8_slot_scan(self, tmp_path):
        op, _ = preprocess(WRITER_GEOMETRIES["orbit"], OperatorConfig(workers="serial"))
        over_a = with_layouts(op, "buffered")
        assert over_a.plan is over_a.matrix
        cache = PlanCache(tmp_path / "plans")
        for write in (
            lambda: save_operator(tmp_path / "op.npz", over_a),
            lambda: cache.store("k" * 64, over_a),
        ):
            with pytest.raises(ValueError, match="holds A, but a plan of this scan stores Q"):
                write()
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == []

    def test_an_operator_over_q_on_a_scan_without_a_group(self, tmp_path):
        op, _ = preprocess(WRITER_GEOMETRIES["orbit"], OperatorConfig(workers="serial"))
        full_turn = MemXCTOperator(
            WRITER_GEOMETRIES["full-turn"], op.tomo_ordering, op.sino_ordering,
            op.plan, None, op.config,
        )
        with pytest.raises(ValueError, match="holds Q, but a plan of this scan stores A"):
            save_operator(tmp_path / "op.npz", full_turn)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", PRECISIONS)
    @pytest.mark.parametrize("kind", WRITER_GEOMETRIES)
    def test_every_preprocess_operator_round_trips_byte_for_byte(self, tmp_path, kind, dtype):
        """Cold (in-place archive), warm and uncached operators all save,
        and a loaded operator saves the same bytes again."""
        geometry = WRITER_GEOMETRIES[kind]
        config = OperatorConfig(dtype=dtype, workers="serial")
        cache = tmp_path / "plans"
        paths = []
        for i, op in enumerate(
            [preprocess(geometry, config)[0]]
            + [preprocess(geometry, config, cache=cache)[0] for _ in range(2)]
        ):
            paths.append(save_operator(tmp_path / f"{i}.npz", op, compress=False))
            again = save_operator(tmp_path / f"{i}-again.npz", load_operator(paths[-1]), compress=False)
            assert again.read_bytes() == paths[-1].read_bytes()
        assert len({p.read_bytes() for p in paths}) == 1


class TestIntegrity:
    """Corrupt, truncated, or stale files fail with typed errors."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_operator(tmp_path / "nope.npz")

    def test_version_mismatch_is_format_error(self, saved, tmp_path):
        _, _, path = saved
        with np.load(path) as data:
            arrays = dict(data)
        arrays["format_version"] = np.int64(FORMAT_VERSION + 40)
        bad = tmp_path / "future.npz"
        np.savez(bad, **arrays)
        with pytest.raises(OperatorFormatError, match=f"version {FORMAT_VERSION + 40};"):
            load_operator(bad)

    def test_flipped_bytes_fail_checksum(self, saved, tmp_path):
        _, op, _ = saved
        path = save_operator(tmp_path / "rot.npz", op, compress=False)
        blob = bytearray(path.read_bytes())
        mid = len(blob) // 2
        blob[mid] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(OperatorIntegrityError):
            load_operator(path)

    def test_truncated_file(self, saved, tmp_path):
        _, _, path = saved
        cut = tmp_path / "cut.npz"
        cut.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(OperatorIntegrityError, match="not a readable"):
            load_operator(cut)

    def test_wrong_file_type(self, tmp_path):
        impostor = tmp_path / "impostor.npz"
        impostor.write_text("just some text")
        with pytest.raises(OperatorIntegrityError):
            load_operator(impostor)

    def test_tampered_array_detected(self, saved, tmp_path):
        """Valid archive, valid version, silently modified values."""
        _, _, path = saved
        with np.load(path) as data:
            arrays = dict(data)
        arrays["val"] = arrays["val"].copy()
        arrays["val"][0] += 1.0
        tampered = tmp_path / "tampered.npz"
        np.savez(tampered, **arrays)
        with pytest.raises(OperatorIntegrityError, match="checksum mismatch"):
            load_operator(tampered)


def _kernel_results(op, rng) -> list[np.ndarray]:
    x, y = rng.random(op.num_pixels), rng.random(op.num_rays)
    xs, ys = rng.random((op.num_pixels, 3)), rng.random((op.num_rays, 3))
    return [op.forward(x), op.adjoint(y), op.forward_batch(xs), op.adjoint_batch(ys)]


def _assert_same_results(ours, theirs, seed=3):
    for a, b in zip(
        _kernel_results(ours, np.random.default_rng(seed)),
        _kernel_results(theirs, np.random.default_rng(seed)),
    ):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestEveryKernelIsTheCsrPlan:
    """A buffered or ELL config's plan is the csr plan: ``Q`` on a scan
    with an 8-slot ray group, ``A`` on 23x32 (odd ``M``), no layout, and
    the csr kernel's results — cold or warm — with neither ``A`` (of a
    ``Q`` plan) nor ``A^T`` kept from the build.  The paper layout pair
    handed in over a mapped entry runs as the pair over the plan built
    in memory."""

    @pytest.mark.parametrize("dtype", PRECISIONS)
    @pytest.mark.parametrize("kernel", ("buffered", "ell"))
    @pytest.mark.parametrize("shape", [(24, 32), (36, 24), (24, 31), (23, 32)])
    def test_cold_and_warm_plans_are_the_csr_plan(self, tmp_path, shape, kernel, dtype):
        from repro.sparse import OrbitMatrix, orbit_group

        geometry = ParallelBeamGeometry(*shape)
        group = orbit_group(geometry)
        # Serial whatever REPRO_WORKERS says: the parallel engine of a
        # plan of A partitions the adjoint over a derived A^T.
        config = OperatorConfig(
            kernel=kernel, partition_size=32, buffer_bytes=2048, dtype=dtype,
            workers="serial",
        )
        uncached, _ = preprocess(geometry, config=config)
        cold, cold_report = preprocess(geometry, config=config, cache=tmp_path)
        warm, warm_report = preprocess(geometry, config=config, cache=tmp_path)
        csr, _ = preprocess(geometry, config=config.evolve(kernel="csr"))
        assert not cold_report.cache_hit and warm_report.cache_hit
        for op in (uncached, cold, warm):
            assert (type(op.plan) is OrbitMatrix) == (group is not None)
            rows = geometry.num_rays if group is None else len(group.stored_rays())
            assert op.stored.num_rows == rows
            for name in ("displ", "ind", "val"):
                ours, theirs = getattr(op.stored, name), getattr(csr.stored, name)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
            assert [attr for attr in LAYOUTS if getattr(op, attr) is not None] == []
            _assert_same_results(op, csr)
            # ``A`` is held only as the plan itself; ``A^T`` not at all.
            assert op._matrix is (None if group else op.plan) and op._transpose is None
        _assert_same_results(with_layouts(warm), with_layouts(uncached))

    @pytest.mark.parametrize("dtype", PRECISIONS)
    def test_every_kernel_of_a_scan_shares_the_plan_s_sums(self, dtype):
        ops = [small_operator_of(kernel, dtype) for kernel in KERNELS]
        for sums in ("row_sums", "col_sums"):
            want = getattr(ops[0], sums)()
            for op in ops[1:]:
                got = getattr(op, sums)()
                assert got.dtype == want.dtype and np.array_equal(got, want), sums


def _saved_as(version, monkeypatch, path, op):
    """``op`` saved as a writer of format ``version`` would label it."""
    from repro import io

    with monkeypatch.context() as patch:
        patch.setattr(io, "FORMAT_VERSION", version)
        path = save_operator(path, op, compress=False)
    with np.load(path) as data:
        assert int(data["format_version"]) == version
    return path


class TestOlderArchives:
    """Only format v7 loads: an older file is refused by its version,
    before any of its members is read, and the plan cache rebuilds it."""

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_an_older_file_names_its_version(self, tmp_path, monkeypatch, version):
        path = _saved_as(version, monkeypatch, tmp_path / "old.npz", small_operator_of("csr"))
        with pytest.raises(OperatorFormatError, match=f"version {version};.*preprocess"):
            load_operator(path)

    def test_an_older_cache_entry_is_rebuilt(self, tmp_path, monkeypatch):
        from repro.cache import CacheIntegrityWarning

        geometry, config = ParallelBeamGeometry(30, 20), OperatorConfig(partition_size=32)
        cache = PlanCache(tmp_path / "plans")
        op, report = preprocess(geometry, config=config, cache=cache)
        _saved_as(6, monkeypatch, cache.plan_path(report.cache_key), op)
        with pytest.warns(CacheIntegrityWarning, match="version 6"):
            rebuilt, again = preprocess(geometry, config=config, cache=cache)
        assert not again.cache_hit and again.cache_key == report.cache_key
        with np.load(cache.plan_path(report.cache_key)) as data:
            assert int(data["format_version"]) == FORMAT_VERSION
        assert_equal_operators(rebuilt, op)

    @pytest.mark.parametrize("older", [5, 6])
    def test_the_current_key_is_not_an_older_one(self, monkeypatch, older):
        """An older entry is never looked up where a v7 one is expected."""
        from repro.cache import fingerprint

        geometry = ParallelBeamGeometry(30, 20)
        current = fingerprint.plan_fingerprint(geometry)
        monkeypatch.setattr(fingerprint, "FORMAT_VERSION", older)
        assert fingerprint.plan_fingerprint(geometry) != current


class TestAlignedArchive:
    """An uncompressed checked archive is a plain npz whose array data
    all start on 64-byte boundaries of the file, written with a fixed
    member stamp — nothing else about it differs from ``np.savez``."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_every_member_is_aligned_and_np_load_reads_it(self, tmp_path, kernel):
        op = small_operator_of(kernel)
        path = save_operator(tmp_path / "op.npz", op, compress=False)
        spans = member_spans(path)
        assert spans and all(data % 64 == 0 for _, data in spans.values()), spans
        ours = persist.load_checked_npz(path)
        with np.load(path) as plain:
            assert [n for n in plain.files if n != "checksum"] == list(ours)
            for name in ours:
                assert plain[name].dtype == ours[name].dtype
                assert np.array_equal(plain[name], ours[name])

    @pytest.mark.parametrize("dtype", PRECISIONS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_members_are_np_savez_s(self, tmp_path, kernel, dtype):
        """Names, order, sizes, per-member CRCs and the payload checksum
        are those of the ``np.savez`` archive this writer replaced; the
        file is longer by the pad fields alone (the plan keys are pinned
        in ``test_cache.py::test_every_kernel_and_buffer_size_is_one_pinned_key``)."""
        op = small_operator_of(kernel, dtype)
        path = save_operator(tmp_path / "op.npz", op, compress=False)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(tmp_path / "savez.npz", **arrays)
        ours, savez = (
            zipfile.ZipFile(p).infolist() for p in (path, tmp_path / "savez.npz")
        )
        assert [(m.filename, m.file_size, m.CRC, m.compress_type) for m in ours] == [
            (m.filename, m.file_size, m.CRC, m.compress_type) for m in savez
        ]
        checksum = arrays.pop("checksum")
        assert int(checksum) == persist.payload_checksum(arrays)
        pads = sum(len(m.extra) for m in ours)
        assert 0 < pads < 68 * len(ours)
        grown = path.stat().st_size - (tmp_path / "savez.npz").stat().st_size
        assert grown == 2 * pads  # local header + central directory

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_two_saves_are_the_same_bytes(self, tmp_path, kernel):
        op = small_operator_of(kernel)
        first = save_operator(tmp_path / "a.npz", op, compress=False)
        second = save_operator(tmp_path / "b.npz", op, compress=False)
        stamps = {m.date_time for m in zipfile.ZipFile(first).infolist()}
        assert stamps == {(1980, 1, 1, 0, 0, 0)}  # not the wall clock
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (first, second)]
        assert digests[0] == digests[1]

    def test_small_payloads_round_trip_as_private_copies(self, tmp_path):
        """Checkpoints and journal payloads are mutated after load."""
        payload = {
            "image": np.arange(12.0).reshape(3, 4),
            "empty": np.zeros((0, 3), np.float32),
            "scalar": np.int64(7),
            "text": "cg",
            "flags": np.array([True, False]),
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        }
        persist.atomic_savez_checked(tmp_path / "p.npz", payload)
        loaded = persist.load_checked_npz(tmp_path / "p.npz")
        assert list(loaded) == list(payload)
        for name, value in payload.items():
            assert np.array_equal(loaded[name], value), name
            assert loaded[name].dtype == np.asarray(value).dtype
        loaded["image"][0, 0] = -1.0  # writable
        assert len(persist._LIVE_MAPS) == 0


class TestReserveFillSeal:
    """A member reserved and filled through its view is, once sealed,
    the member the same array would have been added as."""

    PAYLOAD = {
        "format_version": np.int64(2),
        "name": np.asarray("pseudo-hilbert"),
        "displ": np.arange(0, 700, 7, dtype=np.int64),
        "ind": np.arange(693, dtype=np.int32)[::-1].copy(),
        "val": np.linspace(0.0, 1.0, 693, dtype=np.float32),
        "grid": np.arange(24.0).reshape(4, 6),
        "none": np.zeros((0,), np.float32),
        "kernel": np.asarray("csr"),
    }
    RESERVED = ("displ", "ind", "val", "grid", "none")

    def _assemble(self, path, fill=True, known=False):
        views = {}
        with persist.NpzWriter(path) as npz:
            for name, value in self.PAYLOAD.items():
                if name in self.RESERVED:
                    views[name] = npz.reserve(name, value.shape, value.dtype)
                    if fill:
                        views[name][...] = value
                else:
                    npz.add(name, value)
            crcs = npz.data_crcs() if known else None
            npz.add("checksum", np.uint32(persist.payload_checksum(npz.payload, crcs)))
            npz.seal()
        return views

    def test_sealed_file_is_the_added_file_byte_for_byte(self, tmp_path):
        persist.atomic_savez_checked(tmp_path / "added.npz", self.PAYLOAD)
        views = self._assemble(tmp_path / "reserved.npz")
        assert (tmp_path / "reserved.npz").read_bytes() == (tmp_path / "added.npz").read_bytes()
        assert [p.name for p in tmp_path.iterdir() if "tmp-" in p.name] == []
        loaded = persist.load_checked_npz(tmp_path / "reserved.npz")
        for name, value in self.PAYLOAD.items():
            assert np.array_equal(loaded[name], value), name
        # A view that outlives the seal still reads the member.
        for name, view in views.items():
            assert view.flags.writeable and view.flags.aligned
            assert view.ctypes.data % persist.ALIGNMENT == 0 or view.size == 0
            assert np.array_equal(view, self.PAYLOAD[name]), name

    def test_known_crcs_give_the_same_file_and_read_each_reserved_byte_once(
        self, tmp_path, monkeypatch
    ):
        """Sealing with the reserved members' data CRCs spliced into
        both the zip CRCs and the payload checksum writes the same file,
        and zlib sees each reserved byte once, not twice."""
        hashed = {}
        real = persist.zlib.crc32
        for name, known in (("twice", False), ("once", True)):
            hashed[name] = 0

            def counted(data, *crc, name=name):
                hashed[name] += len(data)
                return real(data, *crc)

            with monkeypatch.context() as patch:
                patch.setattr(persist.zlib, "crc32", counted)
                self._assemble(tmp_path / f"{name}.npz", known=known)
        assert (tmp_path / "once.npz").read_bytes() == (tmp_path / "twice.npz").read_bytes()
        reserved = sum(self.PAYLOAD[name].nbytes for name in self.RESERVED)
        assert hashed["twice"] - hashed["once"] == reserved

    @given(data=st.binary(max_size=300), cut=st.integers(0, 300), crc=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_crc32_combine_is_the_crc_of_the_concatenation(self, data, cut, crc):
        head, tail = data[: min(cut, len(data))], data[min(cut, len(data)) :]
        assert persist.crc32_combine(
            zlib.crc32(head, crc), zlib.crc32(tail), len(tail)
        ) == zlib.crc32(data, crc)

    @pytest.mark.parametrize("size", [0, 1, 4096, 3 << 20])
    def test_crc32_combine_on_long_tails(self, size):
        tail = np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes()
        assert persist.crc32_combine(zlib.crc32(b"head"), zlib.crc32(tail), size) == zlib.crc32(
            b"head" + tail
        )

    def test_an_unfilled_reservation_is_zeros_with_a_matching_crc(self, tmp_path):
        self._assemble(tmp_path / "zeros.npz", fill=False)
        with np.load(tmp_path / "zeros.npz") as plain:  # zipfile checks each member's CRC
            assert not plain["ind"].any() and plain["ind"].shape == (693,)

    def test_unsealed_writer_leaves_nothing_and_touches_nothing(self, tmp_path):
        path = tmp_path / "kept.npz"
        persist.atomic_savez_checked(path, {"a": np.arange(3)})
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="midway"):
            with persist.NpzWriter(path) as npz:
                npz.add("a", np.arange(5))
                npz.reserve("b", (1000,), np.float32)[:10] = 1.0
                raise RuntimeError("midway")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.npz"]

    def test_a_full_disk_is_an_oserror_before_any_view_exists(self, tmp_path, monkeypatch):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", full)
        with pytest.raises(OSError) as caught:
            with persist.NpzWriter(tmp_path / "never.npz") as npz:
                npz.add("a", np.arange(5))
                npz.reserve("b", (1000,), np.float32)
        assert caught.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []


class TestMappedLoad:
    """``load_operator`` hands out read-only views of one shared map of
    an aligned archive, after the payload CRC matched over them."""

    @pytest.fixture()
    def path(self, tmp_path):
        """A buffered config's plan of ``A`` (29 views)."""
        return save_operator(
            tmp_path / "op.npz", small_operator_of("buffered", angles=29), compress=False
        )

    @pytest.mark.parametrize("dtype", PRECISIONS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_views_are_read_only_aligned_and_equal(self, tmp_path, kernel, dtype):
        op = small_operator_of(kernel, dtype)
        loaded = load_operator(save_operator(tmp_path / "op.npz", op, compress=False))
        assert_equal_operators(loaded, op)
        for name, array in operator_arrays(loaded).items():
            assert not array.flags.writeable, name
            assert array.flags.aligned, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        x = np.linspace(0.0, 1.0, op.num_pixels)
        y = np.linspace(0.0, 1.0, op.num_rays)
        assert np.array_equal(loaded.forward(x), op.forward(x))
        assert np.array_equal(loaded.adjoint(y), op.adjoint(y))

    def test_loads_of_one_file_share_pages_and_files_do_not(self, path, tmp_path):
        first, second = load_operator(path), load_operator(path)
        other = load_operator(
            save_operator(tmp_path / "other.npz", first, compress=False)
        )
        assert len(persist._LIVE_MAPS) == 2
        for name, array in operator_arrays(first).items():
            assert np.shares_memory(array, operator_arrays(second)[name]), name
            assert not np.shares_memory(array, operator_arrays(other)[name]), name

    def test_kernels_run_on_the_mapped_pages(self, path):
        """scipy copies "a small view of a much larger array": every
        member is its own base, so the compiled view is the map."""
        loaded = load_operator(path)
        loaded.stored.spmv(np.ones(loaded.num_pixels, np.float32))
        assert np.shares_memory(loaded.stored._view.data, loaded.stored.val)
        assert np.shares_memory(loaded.stored._view.indices, loaded.stored.ind)

    def test_last_operator_dropped_unmaps_the_file(self, path):
        first, second = load_operator(path), load_operator(path)
        val = first.stored.val
        del first, second
        gc.collect()
        assert len(persist._LIVE_MAPS) == 1  # one array is enough to hold it
        del val
        gc.collect()
        assert len(persist._LIVE_MAPS) == 0

    def test_flip_in_place_is_refused_while_the_entry_is_mapped(self, path):
        """The CRC runs on every load, over the shared pages."""
        alive = load_operator(path)
        _, data = member_spans(path)["val"]
        with open(path, "r+b") as fh:
            fh.seek(data + 5)
            byte = fh.read(1)
            fh.seek(data + 5)
            fh.write(bytes([byte[0] ^ 0x10]))
        with pytest.raises(OperatorIntegrityError, match="checksum mismatch"):
            load_operator(path)
        assert alive.stored.val.size  # the older operator sees the same pages

    def test_pickle_is_a_private_equal_copy(self, path):
        import pickle

        loaded = load_operator(path)
        clone = pickle.loads(pickle.dumps(loaded))
        assert_equal_operators(clone, loaded)
        assert all(a.flags.writeable for a in operator_arrays(clone).values())

    def test_archives_that_cannot_be_mapped_load_as_equal_copies(self, path, tmp_path):
        """The ``np.savez`` layout (misaligned members) and a compressed
        file."""
        op = load_operator(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(tmp_path / "savez.npz", **arrays)
        assert any(d % 8 for _, d in member_spans(tmp_path / "savez.npz").values())
        save_operator(tmp_path / "deflated.npz", op, compress=True)
        for name in ("savez.npz", "deflated.npz"):
            loaded = load_operator(tmp_path / name)
            assert_equal_operators(loaded, op)
            big = [a for a in operator_arrays(loaded).values() if a.itemsize == 8]
            assert big and all(a.flags.writeable for a in big), name
        del loaded, big
        gc.collect()
        assert len(persist._LIVE_MAPS) == 1  # ``op`` alone


class TestErrorTaxonomy:
    """Whatever is wrong with the bytes is ``CorruptArchiveError`` from
    the parser and ``OperatorIntegrityError`` from ``load_operator``; a
    missing file and an unknown version keep their own types."""

    @pytest.fixture()
    def blob(self, tmp_path) -> bytes:
        path = save_operator(
            tmp_path / "good.npz", small_operator_of("csr"), compress=False
        )
        self.spans = member_spans(path)
        return path.read_bytes()

    def _refused(self, tmp_path, content: bytes) -> None:
        bad = tmp_path / "bad.npz"
        bad.write_bytes(content)
        for mapped in (False, True):
            with pytest.raises(persist.CorruptArchiveError):
                persist.verify_checksum(persist.read_npz(bad, mapped=mapped), bad)
        with pytest.raises(OperatorIntegrityError):
            load_operator(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            persist.read_npz(tmp_path / "nope.npz", mapped=True)
        with pytest.raises(persist.CorruptArchiveError):
            persist.load_checked_npz(tmp_path / "nope.npz")

    def test_zero_length_file(self, tmp_path):
        self._refused(tmp_path, b"")

    @pytest.mark.parametrize("keep", [0.1, 0.5, 0.9])
    def test_truncated_file(self, tmp_path, blob, keep):
        self._refused(tmp_path, blob[: int(len(blob) * keep)])

    def test_bad_local_header(self, tmp_path, blob):
        start, _ = self.spans["val"]
        header = blob.rindex(b"PK\x03\x04", 0, start)
        self._refused(tmp_path, blob[:header] + b"XX" + blob[header + 2 :])

    def test_short_npy_header(self, tmp_path, blob):
        """The header length field promises more than the member holds."""
        start, _ = self.spans["ind"]
        self._refused(tmp_path, blob[: start + 8] + b"\xff\xff" + blob[start + 10 :])

    def test_npy_header_disagreeing_with_the_member_size(self, tmp_path, blob):
        start, data = self.spans["val"]
        header = blob[start:data]
        shape = header[header.index(b"'shape': (") + 10 :]
        digit = start + len(header) - len(shape)
        grown = bytes([blob[digit] + 1 if blob[digit] < ord("9") else ord("1")])
        self._refused(tmp_path, blob[:digit] + grown + blob[digit + 1 :])

    def test_byte_swapped_header_is_caught_by_the_member_crc(self, tmp_path, blob):
        """``<f4`` -> ``>f4`` keeps every size: such a member is not
        viewed but read through zipfile, whose CRC covers the header."""
        start, data = self.spans["val"]
        mark = blob.index(b"'<f4'", start, data) + 1
        self._refused(tmp_path, blob[:mark] + b">" + blob[mark + 1 :])

    def test_unknown_version_is_a_format_error_whatever_the_checksum(
        self, tmp_path, blob
    ):
        (tmp_path / "good.npz").write_bytes(blob)
        with np.load(tmp_path / "good.npz") as data:
            arrays = {name: data[name] for name in data.files}
        arrays["format_version"] = np.int64(FORMAT_VERSION + 1)
        for checksum in (arrays["checksum"], None):  # stale, then absent
            if checksum is None:
                del arrays["checksum"]
            persist.atomic_savez(tmp_path / "future.npz", arrays, compress=False)
            with pytest.raises(OperatorFormatError, match=f"version {FORMAT_VERSION + 1};"):
                load_operator(tmp_path / "future.npz")
