"""Tests for operator persistence (save/load roundtrip)."""

import numpy as np
import pytest

from repro.cache import PlanCache
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.io import (
    FORMAT_VERSION,
    OperatorFormatError,
    OperatorIntegrityError,
    load_operator,
    save_operator,
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    g = ParallelBeamGeometry(30, 20)
    op, _ = preprocess(
        g, config=OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=2048)
    )
    path = tmp_path_factory.mktemp("ops") / "op.npz"
    save_operator(path, op)
    return g, op, path


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

    def test_config_restored(self, saved):
        _, op, path = saved
        loaded = load_operator(path)
        assert loaded.config == op.config
        assert loaded.buffered_forward is not None

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

    @pytest.mark.parametrize(
        "config, layout_prefixes",
        [
            (OperatorConfig(), set()),
            (OperatorConfig(kernel="csr"), set()),
            (OperatorConfig(kernel="buffered"), {"bf_", "ba_"}),
            (OperatorConfig(kernel="ell"), {"ef_", "ea_"}),
        ],
    )
    def test_archive_holds_the_pair_and_the_named_layout(
        self, tmp_path, config, layout_prefixes
    ):
        """One form per direction: the ordered CSR pair always, a
        staged or padded layout only for the kernel that runs on it —
        none at all for the default config."""
        import zipfile

        op, report = preprocess(ParallelBeamGeometry(10, 8), config, cache=tmp_path)
        archive = save_operator(tmp_path / "op.npz", op)
        for path in (archive, PlanCache(tmp_path).plan_path(report.cache_key)):
            names = [n.removesuffix(".npy") for n in zipfile.ZipFile(path).namelist()]
            assert {"displ", "ind", "val", "t_displ", "t_ind", "t_val"} <= set(names)
            found = {n[:3] for n in names if n[:3] in ("bf_", "ba_", "ef_", "ea_")}
            assert found == layout_prefixes

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

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_all_kernels_bit_identical(self, tmp_path, rng, kernel):
        """v2 persists the kernel layouts themselves, so the loaded
        operator must produce *bit-identical* results, not just close."""
        g = ParallelBeamGeometry(30, 20)
        op, _ = preprocess(
            g,
            config=OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=2048),
        )
        loaded = load_operator(save_operator(tmp_path / f"{kernel}.npz", op))
        np.testing.assert_array_equal(loaded.transpose.displ, op.transpose.displ)
        np.testing.assert_array_equal(loaded.transpose.ind, op.transpose.ind)
        np.testing.assert_array_equal(loaded.transpose.val, op.transpose.val)
        x = rng.random(op.num_pixels).astype(np.float32)
        y = rng.random(op.num_rays).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), op.forward(x))
        np.testing.assert_array_equal(loaded.adjoint(y), op.adjoint(y))
        if kernel == "buffered":
            np.testing.assert_array_equal(
                loaded.buffered_forward.map, op.buffered_forward.map
            )
            np.testing.assert_array_equal(
                loaded.buffered_adjoint.ind, op.buffered_adjoint.ind
            )
        if kernel == "ell":
            assert len(loaded.ell_forward.ind_slabs) == len(op.ell_forward.ind_slabs)

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
        with pytest.raises(OperatorFormatError, match="unsupported"):
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


class TestV1BackCompat:
    def test_v1_archive_rebuilds_layouts(self, saved, tmp_path, rng):
        """A v1 file (matrix only, no checksum) still loads — the
        transpose and kernel layouts are rebuilt deterministically."""
        _, op, path = saved
        with np.load(path) as data:
            arrays = dict(data)
        v2_only = [
            name
            for name in arrays
            if name == "checksum"
            or name.startswith(("t_", "bf_", "ba_", "ef_", "ea_"))
        ]
        for name in v2_only:
            del arrays[name]
        arrays["format_version"] = np.int64(1)
        old = tmp_path / "v1.npz"
        np.savez(old, **arrays)

        loaded = load_operator(old)
        np.testing.assert_array_equal(loaded.transpose.displ, op.transpose.displ)
        np.testing.assert_array_equal(loaded.transpose.val, op.transpose.val)
        assert loaded.buffered_forward is not None
        x = rng.random(op.num_pixels).astype(np.float32)
        y = rng.random(op.num_rays).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), op.forward(x))
        np.testing.assert_array_equal(loaded.adjoint(y), op.adjoint(y))
