"""The persistent operator-plan cache: fingerprints, the store,
``preprocess()`` integration, graceful degradation, and eviction."""

import errno
import gc
import json
import os
import warnings

import numpy as np
import pytest

from repro import obs, persist
from repro.cache import (
    CacheIntegrityWarning,
    PlanCache,
    default_cache_dir,
    fingerprint_inputs,
    plan_fingerprint,
)
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.io import FORMAT_VERSION, load_operator, save_operator

from .test_geometry_conformance import GEOMETRIES
from .test_io import KERNELS, PRECISIONS


@pytest.fixture()
def cache(tmp_path) -> PlanCache:
    return PlanCache(tmp_path / "plans")


class TestFingerprint:
    def test_stable_across_calls_and_instances(self, small_geometry):
        a = plan_fingerprint(small_geometry)
        b = plan_fingerprint(ParallelBeamGeometry(36, 24))
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_sensitive_to_every_input(self, small_geometry):
        base = plan_fingerprint(small_geometry)
        variants = [
            plan_fingerprint(ParallelBeamGeometry(37, 24)),
            plan_fingerprint(ParallelBeamGeometry(36, 32)),
            plan_fingerprint(small_geometry, ordering="row-major"),
            plan_fingerprint(small_geometry, min_tiles=4),
            plan_fingerprint(small_geometry, tile_size=8),
            plan_fingerprint(
                small_geometry,
                config=OperatorConfig(partition_size=64),
            ),
            plan_fingerprint(small_geometry, config=OperatorConfig(dtype="float64")),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_default_is_the_named_csr_plan(self, small_geometry):
        assert OperatorConfig().kernel == "csr"
        assert plan_fingerprint(small_geometry) == plan_fingerprint(
            small_geometry, config=OperatorConfig(kernel="csr")
        )

    def test_every_kernel_and_buffer_size_is_one_pinned_key(self, monkeypatch):
        """No plan holds a layout, so neither the kernel nor the buffer
        size is a key input: every config differing only in them hashes
        one key, pinned (format v7, 64x48 parallel beam)."""
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        geometry = ParallelBeamGeometry(64, 48)
        assert {
            plan_fingerprint(geometry, OperatorConfig(kernel=kernel, buffer_bytes=size))
            for kernel in KERNELS
            for size in (1024, 32 * 1024, 256 * 1024)
        } == {"50fcc99638bac72e083dc168fb43617f54183f5419fa753a8fddff2e4c98352f"}

    def test_float_inputs_hashed_exactly(self, small_geometry):
        """One-ulp geometry changes must map to a different plan."""
        base = plan_fingerprint(small_geometry)
        nudged = ParallelBeamGeometry(
            36, 24, angle_range=np.nextafter(small_geometry.angle_range, 4.0)
        )
        assert plan_fingerprint(nudged) != base

    def test_inputs_doc_pins_format_version(self, small_geometry):
        doc = fingerprint_inputs(small_geometry)
        assert doc["format_version"] == FORMAT_VERSION
        # The doc must be canonical-JSON-safe (what the hash consumes).
        json.dumps(doc, sort_keys=True)


class TestResolve:
    @pytest.mark.parametrize(
        "spec", [None, False, "off", "none", "", "disabled", "0", "OFF"]
    )
    def test_disabled_specs(self, spec):
        assert PlanCache.resolve(spec) is None

    @pytest.mark.parametrize("spec", [True, "auto"])
    def test_auto_uses_default_dir(self, spec):
        resolved = PlanCache.resolve(spec)
        assert resolved is not None
        assert resolved.root == default_cache_dir()

    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_explicit_path_and_instance(self, tmp_path, cache):
        from pathlib import Path

        assert PlanCache.resolve(str(tmp_path)).root == Path(tmp_path)
        assert PlanCache.resolve(Path(tmp_path)).root == Path(tmp_path)
        assert PlanCache.resolve(cache) is cache

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError, match="cache spec"):
            PlanCache.resolve(3.14)

    def test_max_bytes_env_and_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert PlanCache(tmp_path).max_bytes == 12345
        with pytest.raises(ValueError, match="max_bytes"):
            PlanCache(tmp_path, max_bytes=0)


class TestStoreLoad:
    def test_miss_returns_none_and_counts(self, cache):
        with obs.capture() as cap:
            assert cache.load("0" * 64) is None
        assert cap.total(obs.CACHE_MISSES) == 1
        assert cap.total(obs.CACHE_HITS) == 0

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_roundtrip_bit_identical_per_kernel(
        self, cache, small_geometry, kernel, rng
    ):
        config = OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=4096)
        op, _ = preprocess(small_geometry, config=config)
        key = plan_fingerprint(small_geometry, config)
        cache.store(key, op)
        loaded = cache.load(key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.matrix.displ, op.matrix.displ)
        np.testing.assert_array_equal(loaded.matrix.ind, op.matrix.ind)
        np.testing.assert_array_equal(loaded.matrix.val, op.matrix.val)
        x = rng.random(op.num_pixels).astype(np.float32)
        y = rng.random(op.num_rays).astype(np.float32)
        # Bit-identical, not just close: the cached plan must execute
        # the same kernel over the same arrays.
        np.testing.assert_array_equal(loaded.forward(x), op.forward(x))
        np.testing.assert_array_equal(loaded.adjoint(y), op.adjoint(y))

    def test_meta_sidecar_written(self, cache, small_operator, small_geometry):
        key = "a" * 64
        cache.store(key, small_operator, extra_meta={"ordering": "pseudo-hilbert"})
        entry = cache.entry(key)
        assert entry is not None
        assert entry.meta["key"] == key
        assert entry.meta["nnz"] == small_operator.matrix.nnz
        assert entry.meta["geometry"]["num_angles"] == small_geometry.num_angles
        assert entry.meta["ordering"] == "pseudo-hilbert"
        assert entry.nbytes == entry.path.stat().st_size

    def test_entry_prefix_match_and_maintenance(self, cache, small_operator):
        cache.store("b" * 64, small_operator)
        cache.store("c" * 64, small_operator)
        assert cache.entry("b" * 8).key == "b" * 64
        assert cache.entry("zz") is None
        assert cache.total_bytes() == sum(e.nbytes for e in cache.entries())
        assert cache.discard("b" * 64) is True
        assert cache.discard("b" * 64) is False  # already gone
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_hit_observability(self, cache, small_operator):
        key = "d" * 64
        cache.store(key, small_operator)
        with obs.capture() as cap:
            assert cache.load(key) is not None
        assert cap.total(obs.CACHE_HITS) == 1
        assert cap.total(obs.CACHE_MISSES) == 0
        assert cap.total(obs.CACHE_BYTES_READ) == cache.entry(key).nbytes
        assert cap.span_names().count("cache.load") == 1
        (sp,) = cap.find_spans("cache.load")
        assert sp.attrs["key"] == key


class TestMappedEntries:
    """A hit is read-only views of one shared map of the entry; the
    entry's file may go away under a live operator, never change."""

    @pytest.mark.parametrize("angles", [35, 36])
    def test_loads_share_an_entry_s_pages_and_entries_do_not(self, cache, angles):
        """The plan is all an entry maps: ``A`` without an 8-slot group
        (35 views), ``Q`` on an 8-slot scan (36), whatever the kernel."""
        operator, _ = preprocess(
            ParallelBeamGeometry(angles, 24),
            config=OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=4096),
        )
        cache.store("a" * 64, operator)
        cache.store("b" * 64, operator)
        first, second, other = (cache.load(k * 64) for k in "aab")
        assert len(persist._LIVE_MAPS) == 2
        assert first.buffered_adjoint is None and first._orbit == (angles % 2 == 0)
        held = [
            (first.stored.val, second.stored.val, other.stored.val),
            (first.stored.ind, second.stored.ind, other.stored.ind),
        ]
        for mine, same, others in held:
            assert not mine.flags.writeable and mine.flags.aligned
            assert np.shares_memory(mine, same)
            assert not np.shares_memory(mine, others)
        del first, second, other, mine, same, others, held
        gc.collect()
        assert len(persist._LIVE_MAPS) == 0  # the last operator unmaps

    def test_entry_discarded_between_load_and_recency_bump_is_still_a_hit(
        self, cache, small_operator, monkeypatch, rng
    ):
        """Engines share a cache directory: another process may evict
        the entry right after this one read it."""
        from repro.cache import store

        key = "c" * 64
        cache.store(key, small_operator)

        real_load = store.load_operator

        def load_then_lose_the_race(path):
            operator = real_load(path)
            assert cache.discard(key)
            return operator

        monkeypatch.setattr(store, "load_operator", load_then_lose_the_race)
        with obs.capture() as cap:
            loaded = cache.load(key)
        assert cap.total(obs.CACHE_HITS) == 1 and cap.total(obs.CACHE_MISSES) == 0
        assert cap.total(obs.CACHE_BYTES_READ) > 0
        assert cache.entries() == []
        x = rng.random(small_operator.num_pixels).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), small_operator.forward(x))

    def test_discard_and_evict_leave_live_operators_usable(
        self, tmp_path, small_operator, rng
    ):
        cache = PlanCache(tmp_path / "plans", max_bytes=1)
        cache.store("a" * 64, small_operator)
        held = cache.load("a" * 64)
        cache.store("b" * 64, small_operator)  # over the cap: evicts "a"
        assert [e.key[0] for e in cache.entries()] == ["b"]
        also_held = cache.load("b" * 64)
        assert cache.discard("b" * 64)
        y = rng.random(small_operator.num_rays).astype(np.float32)
        for operator in (held, also_held):
            np.testing.assert_array_equal(
                operator.adjoint(y), small_operator.adjoint(y)
            )
        # A rename over a mapped entry (what a re-store does) is a new
        # inode: the old operator keeps its pages, the next load maps anew.
        cache.store("a" * 64, small_operator)
        fresh = cache.load("a" * 64)
        assert not np.shares_memory(fresh.matrix.val, held.matrix.val)


class TestPreprocessIntegration:
    def test_cache_none_stores_nothing(self, tmp_path, small_geometry):
        _, report = preprocess(small_geometry, cache=None)
        assert report.cache_hit is False
        assert report.cache_key is None
        assert not (tmp_path / "plans").exists()

    def test_miss_then_hit_bit_identical(self, tmp_path, small_geometry, rng):
        cachedir = tmp_path / "plans"
        cold_op, cold = preprocess(small_geometry, cache=cachedir)
        assert cold.cache_hit is False
        assert cold.cache_key is not None
        assert cold.total_seconds > 0
        assert PlanCache(cachedir).entry(cold.cache_key) is not None

        warm_op, warm = preprocess(small_geometry, cache=cachedir)
        assert warm.cache_hit is True
        assert warm.cache_key == cold.cache_key
        assert warm.total_seconds == 0.0  # no stage ran
        x = rng.random(cold_op.num_pixels).astype(np.float32)
        np.testing.assert_array_equal(warm_op.forward(x), cold_op.forward(x))
        assert warm_op.config == cold_op.config

    def test_hit_skips_all_stage_spans(self, tmp_path, small_geometry):
        cachedir = tmp_path / "plans"
        preprocess(small_geometry, cache=cachedir)
        with obs.capture() as cap:
            _, report = preprocess(small_geometry, cache=cachedir)
        assert report.cache_hit is True
        assert cap.find_spans("cache.load")
        for stage in (
            "preprocess",
            "preprocess.ordering",
            "preprocess.tracing",
            "preprocess.transpose",
        ):
            assert cap.find_spans(stage) == [], stage

    def test_auto_spec_reaches_env_directory(self, tmp_path, monkeypatch, small_geometry):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
        _, report = preprocess(small_geometry, cache="auto")
        assert PlanCache.resolve("auto").entry(report.cache_key) is not None

    @pytest.mark.parametrize("angles", [35, 36])
    def test_distinct_configs_do_not_collide(self, tmp_path, angles, rng):
        """A config that changes the plan (its partition size) is another
        key; one that only names another kernel is the same entry, on a
        plan of ``A`` (35 views) or of ``Q`` (36)."""
        geometry = ParallelBeamGeometry(angles, 24)
        cachedir = tmp_path / "plans"
        csr = OperatorConfig(kernel="csr")
        ell = OperatorConfig(kernel="ell", partition_size=32)
        preprocess(geometry, config=csr, cache=cachedir)
        op, report = preprocess(geometry, config=ell, cache=cachedir)
        assert report.cache_hit is False  # different plan, different key
        assert op.config.kernel == "ell"
        buffered = ell.evolve(kernel="buffered")
        op2, report2 = preprocess(geometry, config=buffered, cache=cachedir)
        assert report2.cache_hit is True and report2.cache_key == report.cache_key
        assert op2.config == buffered and op2.buffered_forward is None
        assert len(PlanCache(cachedir).entries()) == 2

    def test_a_leftover_tuning_directory_is_inert(self, tmp_path, small_geometry, capsys):
        """Older versions kept ``<cache>/tuning/<key>.json`` records
        beside the plans; the cache globs ``*.npz``, so such a directory
        changes no lookup, listing, eviction or clear."""
        from repro.cli import main

        cachedir = tmp_path / "plans"
        _, cold = preprocess(small_geometry, cache=cachedir)
        tuning = cachedir / "tuning"
        tuning.mkdir()
        (tuning / f"{'0' * 64}.json").write_text('{"kernel": "buffered"}')

        _, warm = preprocess(small_geometry, cache=cachedir)
        assert warm.cache_hit is True and warm.cache_key == cold.cache_key
        cache = PlanCache(cachedir)
        assert [e.key for e in cache.entries()] == [cold.cache_key]
        assert main(["cache", "list", "--cache", str(cachedir)]) == 0
        assert cold.cache_key[:12] in capsys.readouterr().out
        assert cache.evict(max_bytes=0) == []  # the newest entry is kept
        assert cache.clear() == 1 and cache.entries() == []
        assert (tuning / f"{'0' * 64}.json").exists()


def _cold(geometry, cachedir, **config):
    operator, report = preprocess(geometry, config=OperatorConfig(**config), cache=cachedir)
    assert report.cache_hit is False
    return operator, PlanCache(cachedir).plan_path(report.cache_key)


def _temp_files(cachedir):
    return sorted(p.name for p in cachedir.glob("*tmp-*"))


class TestAssembledInPlace:
    """With a cache the cold build writes the ordered matrix straight
    into the entry's archive and returns the entry, loaded."""

    @pytest.mark.parametrize("workers", [None, "thread:2"])
    @pytest.mark.parametrize("dtype", PRECISIONS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("kind", list(GEOMETRIES))
    def test_sealed_entry_is_the_copied_archive_byte_for_byte(
        self, tmp_path, kind, kernel, dtype, workers
    ):
        """Three writers, one file: the entry sealed in place, the
        loaded entry saved again, and an uncached build saved by copy."""
        config = dict(kernel=kernel, partition_size=32, buffer_bytes=2048, dtype=dtype)
        cold, entry = _cold(GEOMETRIES[kind], tmp_path / "plans", workers=workers, **config)
        uncached, _ = preprocess(GEOMETRIES[kind], config=OperatorConfig(**config))
        again = save_operator(tmp_path / "again.npz", load_operator(entry), compress=False)
        copied = save_operator(tmp_path / "copied.npz", uncached, compress=False)
        assert entry.read_bytes() == again.read_bytes() == copied.read_bytes()
        assert _temp_files(tmp_path / "plans") == []
        assert cold.config.workers == workers

    def test_cold_operator_is_the_entry_mapped_and_counts_as_no_hit(
        self, tmp_path, small_geometry
    ):
        with obs.capture() as cap:
            cold, report = preprocess(small_geometry, cache=tmp_path / "plans")
        assert report.cache_hit is False
        assert cap.total(obs.CACHE_HITS) == 0 and cap.total(obs.CACHE_MISSES) == 1
        assert cap.total(obs.CACHE_BYTES_READ) == 0
        assert cap.total(obs.CACHE_BYTES_WRITTEN) > 0
        assert cap.span_names().count("cache.store") == 1
        assert cap.find_spans("cache.load") == []
        # the entry holds Q alone: neither A nor its transpose is built
        assert cold._transpose is None and cold._matrix is None
        for array in (cold.stored.ind, cold.stored.val):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert len(persist._LIVE_MAPS) == 1
        warm, report = preprocess(small_geometry, cache=tmp_path / "plans")
        assert report.cache_hit is True
        assert len(persist._LIVE_MAPS) == 1  # one map of the entry, shared
        assert np.shares_memory(warm.stored.val, cold.stored.val)
        assert warm.config == cold.config

    def test_a_summed_duplicate_is_assembled_in_place(
        self, tmp_path, small_geometry, monkeypatch
    ):
        """Repeats are summed per view before the reservation, so the
        reservation is exact: nothing is written by copy, and the entry
        is the file an uncached build + store writes.  View 0's repeat
        changes one value of the stored ``Q`` — ray ``(0, 0)``'s — and
        so one value in each ray of ``A`` that copies it: channels 0 and
        ``N-1`` of views 0 and M/2."""
        from repro import io
        from repro.trace import matrix_builder

        from .test_matrix_builder import repeat_first_segment

        plain, _ = preprocess(small_geometry)
        monkeypatch.setattr(matrix_builder, "trace_view", repeat_first_segment)
        copies = []
        real_save = io.save_operator
        monkeypatch.setattr(
            io, "save_operator", lambda *a, **k: copies.append(a[0]) or real_save(*a, **k)
        )
        cold, entry = _cold(small_geometry, tmp_path / "plans")
        assert copies == []
        assert _temp_files(tmp_path / "plans") == []
        uncached, _ = preprocess(small_geometry)
        assert uncached.nnz == cold.nnz == plain.nnz == plain.matrix.nnz
        group, n = small_geometry.ray_group(), small_geometry.num_channels
        assert np.unique(np.flatnonzero(group.source < n) // n).tolist() == [0, 18]
        assert np.count_nonzero(cold.stored.val != plain.stored.val) == 1
        assert np.count_nonzero(cold.matrix.val != plain.matrix.val) == 4
        copied = real_save(tmp_path / "copied.npz", uncached, compress=False)
        assert entry.read_bytes() == copied.read_bytes()

    def test_sealing_a_pair_the_archive_did_not_reserve_raises(
        self, tmp_path, small_geometry
    ):
        """A matrix built elsewhere, or no reservation at all."""
        from repro.io import OperatorArchive

        op, _ = preprocess(small_geometry)
        for reserve in (True, False):
            archive = OperatorArchive(
                tmp_path / "x.npz", small_geometry, op.tomo_ordering, op.sino_ordering, "float32"
            )
            try:
                if reserve:
                    archive.reserve_matrix(op.matrix.nnz)
                with pytest.raises(ValueError, match="reserved"):
                    archive.seal(op)
            finally:
                archive.close()
            assert list(tmp_path.iterdir()) == []

    def test_a_full_disk_raises_leaves_nothing_and_a_retry_succeeds(
        self, tmp_path, small_geometry, monkeypatch
    ):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        cachedir = tmp_path / "plans"
        with monkeypatch.context() as patch:
            patch.setattr(os, "posix_fallocate", full)
            with pytest.raises(OSError) as caught:
                preprocess(small_geometry, cache=cachedir)
        assert caught.value.errno == errno.ENOSPC
        assert list(cachedir.iterdir()) == []
        _, entry = _cold(small_geometry, cachedir)
        assert entry.exists() and _temp_files(cachedir) == []

    def test_a_fill_that_raises_midway_leaves_nothing_and_a_retry_succeeds(
        self, tmp_path, small_geometry, monkeypatch
    ):
        import sys

        stages = sys.modules["repro.core.preprocess"]  # the name is also the function

        def broken(geometry, out=None, **kwargs):
            _, val = out(1000)
            val[:500] = 1.0  # half of val written
            raise RuntimeError("sort interrupted")

        cachedir = tmp_path / "plans"
        with monkeypatch.context() as patch:
            patch.setattr(stages, "build_projection_matrix", broken)
            with pytest.raises(RuntimeError, match="sort interrupted"):
                preprocess(small_geometry, cache=cachedir)
        assert list(cachedir.iterdir()) == []
        cold, entry = _cold(small_geometry, cachedir)
        assert entry.exists() and _temp_files(cachedir) == []
        assert PlanCache(cachedir).load(entry.stem) is not None


class TestGracefulDegradation:
    def _prime(self, cachedir, geometry):
        _, report = preprocess(geometry, cache=cachedir)
        return PlanCache(cachedir), report.cache_key

    def test_corrupt_entry_warns_retraces_and_heals(
        self, tmp_path, small_geometry, rng
    ):
        cache, key = self._prime(tmp_path / "plans", small_geometry)
        path = cache.plan_path(key)
        blob = bytearray(path.read_bytes())
        mid = len(blob) // 2
        blob[mid : mid + 64] = b"\xff" * 64  # silent bit rot
        path.write_bytes(bytes(blob))

        with pytest.warns(CacheIntegrityWarning, match="re-tracing"):
            op, report = preprocess(small_geometry, cache=cache)
        assert report.cache_hit is False  # degraded to a full re-trace
        x = rng.random(op.num_pixels).astype(np.float32)
        assert np.isfinite(op.forward(x)).all()
        # The bad entry was replaced: the next run is a clean hit.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, again = preprocess(small_geometry, cache=cache)
        assert again.cache_hit is True

    def test_truncated_entry_is_a_miss(self, tmp_path, small_geometry):
        cache, key = self._prime(tmp_path / "plans", small_geometry)
        path = cache.plan_path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.warns(CacheIntegrityWarning):
            assert cache.load(key) is None
        assert not path.exists()  # discarded, not left to fail again

    def test_garbage_entry_is_a_miss(self, tmp_path, small_geometry):
        cache, key = self._prime(tmp_path / "plans", small_geometry)
        cache.plan_path(key).write_bytes(b"not an archive at all")
        with pytest.warns(CacheIntegrityWarning):
            _, report = preprocess(small_geometry, cache=cache)
        assert report.cache_hit is False

    def test_version_stale_entry_is_a_miss(self, tmp_path, small_geometry):
        cache, key = self._prime(tmp_path / "plans", small_geometry)
        path = cache.plan_path(key)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["format_version"] = np.int64(99)
        np.savez(path, **arrays)
        with pytest.warns(CacheIntegrityWarning, match="unusable"):
            assert cache.load(key) is None

    def test_degradation_counts_as_miss(self, tmp_path, small_geometry):
        cache, key = self._prime(tmp_path / "plans", small_geometry)
        cache.plan_path(key).write_bytes(b"junk")
        with obs.capture() as cap, pytest.warns(CacheIntegrityWarning):
            cache.load(key)
        assert cap.total(obs.CACHE_MISSES) == 1
        assert cap.total(obs.CACHE_HITS) == 0


class TestEviction:
    def test_lru_eviction_under_size_cap(self, tmp_path, small_geometry):
        op, _ = preprocess(small_geometry, config=OperatorConfig(kernel="csr"))
        probe = PlanCache(tmp_path / "probe")
        probe.store("0" * 64, op)
        entry_bytes = probe.total_bytes()

        cache = PlanCache(tmp_path / "plans", max_bytes=int(entry_bytes * 2.5))
        with obs.capture() as cap:
            cache.store("a" * 64, op)
            cache.store("b" * 64, op)
            cache.load("a" * 64)  # recency bump: "b" is now the LRU entry
            cache.store("c" * 64, op)  # over cap -> evict "b"
        assert sorted(e.key[0] for e in cache.entries()) == ["a", "c"]
        assert cap.total(obs.CACHE_EVICTIONS) == 1

    def test_evict_removes_dead_writers_temp_files_never_a_live_one_s(
        self, tmp_path, small_operator
    ):
        import subprocess
        import sys

        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        cache = PlanCache(tmp_path / "plans")
        cache.store("a" * 64, small_operator)
        dead = cache.root / f"{'b' * 64}.npz.7f00.tmp-{gone.pid}"
        dead_sidecar = cache.root / f"{'b' * 64}.json.tmp-{gone.pid}"
        live = cache.root / f"{'c' * 64}.npz.7f00.tmp-{os.getpid()}"
        unrelated = cache.root / "notes.tmp-file"
        for path in (dead, dead_sidecar, live, unrelated):
            path.write_bytes(b"partial")
        assert cache.evict() == []
        assert not dead.exists() and not dead_sidecar.exists()
        assert live.exists() and unrelated.exists()
        assert [e.key for e in cache.entries()] == ["a" * 64]

    def test_most_recent_entry_survives_even_oversized(
        self, tmp_path, small_operator
    ):
        cache = PlanCache(tmp_path / "plans", max_bytes=1)
        cache.store("a" * 64, small_operator)
        assert [e.key for e in cache.entries()] == ["a" * 64]
        cache.store("b" * 64, small_operator)
        assert [e.key for e in cache.entries()] == ["b" * 64]
