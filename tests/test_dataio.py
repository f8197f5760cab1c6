"""Out-of-core stack I/O: sources, sinks, and the overlapped conveyor.

The contract under test is the paper's memory-centric one extended to
disk: a stack streamed chunk-by-chunk through any source/sink pair must
produce the *bit-identical* volume the legacy all-in-memory path does,
while the conveyor's bounded queues keep the working set bounded no
matter how tall the stack is.
"""

from __future__ import annotations

import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from repro import obs
from repro.core import preprocess
from repro.dataio import (
    ArraySource,
    ChunkSink,
    ChunkSource,
    Conveyor,
    ConveyorProgress,
    Hdf5Source,
    MissingDependencyError,
    NpzShardSink,
    NpzShardSource,
    RawVolumeSink,
    TiffStackSink,
    VolumeSink,
    load_volume,
    make_sink,
    open_source,
    save_stack,
)
from repro.geometry import ParallelBeamGeometry
from repro.pipeline import reconstruct_stack
from repro.resilience import RetryPolicy

import repro.dataio.reader as reader_module
import repro.dataio.writer as writer_module

HAVE_H5PY = reader_module.h5py is not None
needs_h5py = pytest.mark.skipif(not HAVE_H5PY, reason="h5py not installed")
HAVE_TIFFFILE = writer_module.tifffile is not None
needs_tifffile = pytest.mark.skipif(
    not HAVE_TIFFFILE, reason="tifffile not installed"
)


class _FakeTifffile:
    """Stand-in for the optional dependency: npy bytes behind the API.

    Lets the sink's staged-write/atomic-rename machinery run in
    environments without tifffile; the real-format roundtrip is the
    separate ``needs_tifffile`` test.
    """

    @staticmethod
    def imwrite(path, data, **_kwargs):
        with open(path, "wb") as fh:
            np.save(fh, np.asarray(data))

    @staticmethod
    def imread(path):
        return np.load(path)


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(7)
    return rng.uniform(0.1, 1.0, size=(6, 24, 16))


@pytest.fixture(scope="module")
def calibration():
    rng = np.random.default_rng(8)
    darks = rng.uniform(4.0, 6.0, size=(3, 6, 16))
    flats = rng.uniform(900.0, 1100.0, size=(3, 6, 16))
    return darks, flats


class TestArraySource:
    def test_reads_views(self, stack):
        src = ArraySource(stack)
        assert src.shape == (6, 24, 16)
        assert src.num_slices == 6
        npt.assert_array_equal(src.read(1, 4), stack[1:4])

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError, match="slices, angles, channels"):
            ArraySource(np.zeros((4, 4)))

    def test_rejects_bad_range(self, stack):
        src = ArraySource(stack)
        with pytest.raises(ValueError, match="outside stack"):
            src.read(4, 9)
        with pytest.raises(ValueError, match="outside stack"):
            src.read(3, 3)

    def test_fingerprint_tracks_content(self, stack):
        a = ArraySource(stack).fingerprint()
        changed = stack.copy()
        changed[2, 3, 4] += 1e-9
        assert a == ArraySource(stack.copy()).fingerprint()
        assert a != ArraySource(changed).fingerprint()

    def test_nbytes_per_slice(self, stack):
        assert ArraySource(stack).nbytes_per_slice == 8 * 24 * 16


class TestNpzShards:
    def test_save_and_reload_roundtrip(self, tmp_path, stack, calibration):
        darks, flats = calibration
        root = save_stack(tmp_path / "shards", stack, darks, flats, shard_slices=2)
        with NpzShardSource(root) as src:
            assert src.shape == stack.shape
            npt.assert_array_equal(src.read(0, 6), stack)
            # A request crossing shard boundaries stitches correctly.
            npt.assert_array_equal(src.read(1, 5), stack[1:5])
            npt.assert_array_equal(src.darks, darks)
            npt.assert_array_equal(src.flats, flats)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="shard directory"):
            NpzShardSource(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="shard-"):
            NpzShardSource(tmp_path / "empty")

    def test_gap_in_tiling_rejected(self, tmp_path, stack):
        root = save_stack(tmp_path / "shards", stack, shard_slices=2)
        (root / "shard-000002-000004.npz").unlink()
        with pytest.raises(ValueError, match="contiguous tiling"):
            NpzShardSource(root)

    def test_fingerprint_tracks_shards(self, tmp_path, stack):
        a = NpzShardSource(save_stack(tmp_path / "a", stack, shard_slices=2))
        b = NpzShardSource(save_stack(tmp_path / "b", stack, shard_slices=3))
        c = NpzShardSource(save_stack(tmp_path / "c", stack, shard_slices=2))
        # Different shard tiling is a different on-disk identity...
        assert a.fingerprint() != b.fingerprint()
        # ...but the same layout with the same content matches.
        assert a.fingerprint() == c.fingerprint()


class TestHdf5:
    @needs_h5py
    def test_tomobank_roundtrip(self, tmp_path, stack, calibration):
        darks, flats = calibration
        path = save_stack(tmp_path / "scan.h5", stack, darks, flats)
        with Hdf5Source(path) as src:
            assert src.layout == "tomobank"
            assert src.shape == stack.shape
            npt.assert_array_equal(src.read(0, 6), stack)
            npt.assert_array_equal(src.read(2, 5), stack[2:5])
            npt.assert_array_equal(src.darks, darks)
            npt.assert_array_equal(src.flats, flats)

    def test_clear_error_without_h5py(self, tmp_path, stack, monkeypatch):
        monkeypatch.setattr(reader_module, "h5py", None)
        with pytest.raises(MissingDependencyError, match="h5py"):
            Hdf5Source(tmp_path / "scan.h5")
        with pytest.raises(MissingDependencyError, match="h5py"):
            save_stack(tmp_path / "scan.h5", stack)

    def test_pipeline_degrades_without_h5py(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reader_module, "h5py", None)
        path = tmp_path / "scan.h5"
        path.write_bytes(b"")
        with pytest.raises(MissingDependencyError, match="h5py"):
            reconstruct_stack(str(path))


class TestOpenSource:
    def test_resolves_array(self, stack):
        assert isinstance(open_source(stack), ArraySource)

    def test_passthrough(self, stack):
        src = ArraySource(stack)
        assert open_source(src) is src

    def test_resolves_npz(self, tmp_path, stack, calibration):
        darks, flats = calibration
        path = save_stack(tmp_path / "stack.npz", stack, darks, flats)
        src = open_source(str(path))
        npt.assert_array_equal(src.read(0, 6), stack)
        npt.assert_array_equal(src.darks, darks)

    def test_resolves_directory(self, tmp_path, stack):
        root = save_stack(tmp_path / "shards", stack)
        assert isinstance(open_source(root), NpzShardSource)

    def test_explicit_calibration_overrides(self, tmp_path, stack, calibration):
        darks, flats = calibration
        path = save_stack(tmp_path / "stack.npz", stack, darks, flats)
        src = open_source(path, darks=darks + 1.0)
        npt.assert_array_equal(src.darks, darks + 1.0)
        npt.assert_array_equal(src.flats, flats)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            open_source(tmp_path / "stack.tiff")


class TestSinks:
    def _slabs(self, n=4):
        rng = np.random.default_rng(5)
        return rng.normal(size=(6, n, n))

    def test_volume_sink_accumulates(self):
        volume = self._slabs()
        sink = VolumeSink(6, 4)
        sink.write(0, 3, volume[0:3])
        sink.write(3, 6, volume[3:6])
        assert sink.finalize() is None
        npt.assert_array_equal(sink.volume, volume)

    def test_npz_shard_sink_roundtrip(self, tmp_path):
        volume = self._slabs()
        sink = NpzShardSink(tmp_path / "out", 6, 4)
        sink.write(3, 6, volume[3:6])  # out of order is fine
        sink.write(0, 3, volume[0:3])
        root = sink.finalize()
        npt.assert_array_equal(load_volume(root), volume)

    def test_npz_shard_sink_refuses_partial_finalize(self, tmp_path):
        sink = NpzShardSink(tmp_path / "out", 6, 4)
        sink.write(0, 3, self._slabs()[0:3])
        with pytest.raises(ValueError, match="no slab"):
            sink.finalize()
        with pytest.raises(FileNotFoundError, match="never finalized"):
            load_volume(tmp_path / "out")

    def test_npz_shard_sink_fresh_run_clears_stale(self, tmp_path):
        volume = self._slabs()
        first = NpzShardSink(tmp_path / "out", 6, 4)
        first.write(0, 3, volume[0:3] + 9.0)
        NpzShardSink(tmp_path / "out", 6, 4, resume=False)
        assert not list((tmp_path / "out").glob("slab-*.npz"))

    def test_npz_shard_sink_resume_keeps_slabs(self, tmp_path):
        volume = self._slabs()
        first = NpzShardSink(tmp_path / "out", 6, 4)
        first.write(0, 3, volume[0:3])
        second = NpzShardSink(tmp_path / "out", 6, 4, resume=True)
        second.write(3, 6, volume[3:6])
        npt.assert_array_equal(load_volume(second.finalize()), volume)

    def test_raw_sink_roundtrip(self, tmp_path):
        volume = self._slabs()
        sink = RawVolumeSink(tmp_path / "vol.raw", 6, 4)
        sink.write(3, 6, volume[3:6])
        sink.write(0, 3, volume[0:3])
        path = sink.finalize()
        assert path == tmp_path / "vol.raw"
        npt.assert_array_equal(load_volume(path), volume)

    def test_raw_sink_resume_reopens_partial(self, tmp_path):
        volume = self._slabs()
        first = RawVolumeSink(tmp_path / "vol.raw", 6, 4)
        first.write(0, 3, volume[0:3])
        first.close()
        second = RawVolumeSink(tmp_path / "vol.raw", 6, 4, resume=True)
        second.write(3, 6, volume[3:6])
        npt.assert_array_equal(load_volume(second.finalize()), volume)

    def test_sink_validates_slabs(self, tmp_path):
        sink = NpzShardSink(tmp_path / "out", 6, 4)
        with pytest.raises(ValueError, match="outside volume"):
            sink.write(4, 8, np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="must be"):
            sink.write(0, 2, np.zeros((2, 5, 5)))

    def test_make_sink_mapping(self, tmp_path):
        assert isinstance(make_sink(tmp_path / "v.raw", 6, 4), RawVolumeSink)
        assert isinstance(make_sink(tmp_path / "dir", 6, 4), NpzShardSink)
        with pytest.raises(ValueError, match="npz"):
            make_sink(tmp_path / "v.npz", 6, 4)

    def test_tiff_sink_clear_error_without_tifffile(self, tmp_path, monkeypatch):
        monkeypatch.setattr(writer_module, "tifffile", None)
        with pytest.raises(MissingDependencyError, match="tifffile"):
            TiffStackSink(tmp_path / "vol.tif", 6, 4)
        with pytest.raises(MissingDependencyError, match="tifffile"):
            make_sink(tmp_path / "vol.tif", 6, 4)
        with pytest.raises(MissingDependencyError, match="tifffile"):
            load_volume(tmp_path / "vol.tif")

    def test_tiff_sink_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(writer_module, "tifffile", _FakeTifffile)
        volume = self._slabs()
        sink = make_sink(tmp_path / "vol.tif", 6, 4)
        assert isinstance(sink, TiffStackSink)
        sink.write(3, 6, volume[3:6])  # out of order is fine
        sink.write(0, 3, volume[0:3])
        path = sink.finalize()
        assert path == tmp_path / "vol.tif"
        assert not (tmp_path / "vol.tif.partial").exists()  # stage cleaned
        npt.assert_array_equal(load_volume(path), volume)

    def test_tiff_sink_resume_reopens_partial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(writer_module, "tifffile", _FakeTifffile)
        volume = self._slabs()
        first = TiffStackSink(tmp_path / "vol.tif", 6, 4)
        first.write(0, 3, volume[0:3])
        first.close()
        second = TiffStackSink(tmp_path / "vol.tif", 6, 4, resume=True)
        second.write(3, 6, volume[3:6])
        npt.assert_array_equal(load_volume(second.finalize()), volume)

    @needs_tifffile
    def test_tiff_sink_real_format_roundtrip(self, tmp_path):
        volume = self._slabs()
        sink = TiffStackSink(tmp_path / "vol.tif", 6, 4)
        sink.write(0, 3, volume[0:3])
        sink.write(3, 6, volume[3:6])
        path = sink.finalize()
        npt.assert_array_equal(load_volume(path), volume)
        # The published file really is a TIFF, not our staging format.
        assert path.read_bytes()[:2] in (b"II", b"MM")


class TestDurableMetadata:
    """Manifests and sidecars are written like the data: temp file, fsync,
    rename — and no temp file survives a finalize."""

    @pytest.fixture()
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def _volume(self):
        return np.random.default_rng(2).normal(size=(6, 4, 4))

    def test_shard_manifest(self, tmp_path, fsyncs):
        sink = NpzShardSink(tmp_path / "out", 6, 4)
        sink.write(0, 6, self._volume())
        before = len(fsyncs)
        sink.finalize()
        assert len(fsyncs) == before + 1  # volume.json
        assert not list((tmp_path / "out").glob("*.tmp-*"))
        npt.assert_array_equal(load_volume(tmp_path / "out"), self._volume())

    def test_raw_sidecar(self, tmp_path, fsyncs):
        sink = RawVolumeSink(tmp_path / "vol.raw", 6, 4)
        sink.write(0, 6, self._volume())
        before = len(fsyncs)
        sink.finalize()
        assert len(fsyncs) == before + 2  # the volume, then its .json sidecar
        assert not list(tmp_path.glob("*.tmp-*"))
        npt.assert_array_equal(load_volume(tmp_path / "vol.raw"), self._volume())

    def test_save_stack_metadata(self, tmp_path, stack, fsyncs):
        root = save_stack(tmp_path / "shards", stack, shard_slices=2)
        assert len(fsyncs) == 3 + 1  # three shards, then stack.json
        assert (root / "stack.json").exists()
        assert not list(root.glob("*.tmp-*"))


class _CountingSource(ArraySource):
    """ArraySource that records how many chunks were read."""

    def __init__(self, stack, delay=0.0):
        super().__init__(stack)
        self.reads = 0
        self.delay = delay

    def read(self, start, stop):
        self.reads += 1
        if self.delay:
            time.sleep(self.delay)
        return super().read(start, stop)


class _FailingSource(ArraySource):
    def __init__(self, stack, fail_at):
        super().__init__(stack)
        self.fail_at = fail_at

    def read(self, start, stop):
        if start >= self.fail_at:
            raise OSError("disk on fire")
        return super().read(start, stop)


class _FailingSink(VolumeSink):
    def write(self, start, stop, slab):
        raise OSError("disk is full")


class TestConveyor:
    RANGES = [(0, 2), (2, 4), (4, 6)]

    @pytest.mark.parametrize("prefetch", [0, 1, 2])
    def test_chunks_match_source(self, stack, prefetch):
        sink = VolumeSink(6, 4)
        with Conveyor(ArraySource(stack), self.RANGES, sink, prefetch=prefetch) as cv:
            seen = list(cv.chunks())
        assert [(a, b) for a, b, _ in seen] == self.RANGES
        for a, b, chunk in seen:
            npt.assert_array_equal(chunk, stack[a:b])

    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_written_slabs_reach_sink(self, stack, prefetch):
        sink = VolumeSink(6, 4)
        rng = np.random.default_rng(0)
        volume = rng.normal(size=(6, 4, 4))
        confirmed = []
        with Conveyor(ArraySource(stack), self.RANGES, sink=sink, prefetch=prefetch) as cv:
            for a, b, _ in cv.chunks():
                cv.put(a, b, volume[a:b])
                confirmed.extend(cv.take_written())
            cv.finish()
            confirmed.extend(cv.take_written())
        npt.assert_array_equal(sink.volume, volume)
        assert sorted(confirmed) == self.RANGES

    def test_backpressure_bounds_readahead(self, stack):
        # A slow consumer must never see the reader run ahead of the
        # bounded queue: at most `prefetch` parked chunks plus the one
        # in the reader's hands plus the one just yielded.
        prefetch = 1
        src = _CountingSource(stack)
        ranges = [(k, k + 1) for k in range(6)]
        max_ahead = 0
        with Conveyor(src, ranges, VolumeSink(6, 4), prefetch=prefetch) as cv:
            for consumed, _ in enumerate(cv.chunks(), start=1):
                time.sleep(0.05)  # let the reader run as far as it can
                max_ahead = max(max_ahead, src.reads - consumed)
        assert max_ahead <= prefetch + 1

    def test_reader_error_surfaces_on_caller(self, stack):
        src = _FailingSource(stack, fail_at=4)
        with pytest.raises(OSError, match="disk on fire"):
            with Conveyor(src, self.RANGES, VolumeSink(6, 4), prefetch=2) as cv:
                for _ in cv.chunks():
                    pass

    def test_sync_reader_error_surfaces(self, stack):
        src = _FailingSource(stack, fail_at=4)
        with pytest.raises(OSError, match="disk on fire"):
            with Conveyor(src, self.RANGES, VolumeSink(6, 4), prefetch=0) as cv:
                for _ in cv.chunks():
                    pass

    def test_writer_error_surfaces_on_caller(self, stack):
        sink = _FailingSink(6, 4)
        slab = np.zeros((2, 4, 4))
        with pytest.raises(OSError, match="disk is full"):
            with Conveyor(ArraySource(stack), self.RANGES, sink=sink, prefetch=1) as cv:
                for a, b, _ in cv.chunks():
                    cv.put(a, b, slab)
                cv.finish()

    def test_requires_a_sink(self, stack):
        with pytest.raises(TypeError):
            Conveyor(ArraySource(stack), self.RANGES)

    def test_take_written_confirms_only_durable(self, stack):
        # Synchronous path: every put is durable immediately.
        sink = VolumeSink(6, 4)
        cv = Conveyor(ArraySource(stack), self.RANGES, sink=sink, prefetch=0)
        assert cv.take_written() == []
        cv.put(0, 2, np.zeros((2, 4, 4)))
        assert cv.take_written() == [(0, 2)]
        assert cv.take_written() == []
        cv.finish()


class TestStreamedPipeline:
    """End-to-end: every source/sink combination is bit-exact."""

    @pytest.fixture(scope="class")
    def geo(self):
        return ParallelBeamGeometry(24, 16)

    @pytest.fixture(scope="class")
    def op(self, geo):
        operator, _ = preprocess(geo)
        return operator

    @pytest.fixture(scope="class")
    def sinos(self, geo, op):
        rng = np.random.default_rng(11)
        images = rng.uniform(0.0, 1.0, size=(6, 16, 16))
        return np.stack([op.project_image(img) for img in images])

    @pytest.fixture(scope="class")
    def reference(self, sinos, geo, op):
        result = reconstruct_stack(
            sinos, geo, stages=[], iterations=4, chunk_slices=2, operator=op
        )
        return result.volume

    def _run(self, raw, geo, op, **kwargs):
        return reconstruct_stack(
            raw, geo, stages=[], iterations=4, chunk_slices=2, operator=op, **kwargs
        )

    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_array_source_streams_bit_exact(self, sinos, geo, op, reference, prefetch):
        result = self._run(ArraySource(sinos), geo, op, prefetch=prefetch)
        npt.assert_array_equal(result.volume, reference)

    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_shard_source_streams_bit_exact(
        self, tmp_path, sinos, geo, op, reference, prefetch
    ):
        root = save_stack(tmp_path / "shards", sinos, shard_slices=3)
        result = self._run(str(root), geo, op, prefetch=prefetch)
        npt.assert_array_equal(result.volume, reference)

    @needs_h5py
    def test_hdf5_source_streams_bit_exact(self, tmp_path, sinos, geo, op, reference):
        path = save_stack(tmp_path / "scan.h5", sinos)
        result = self._run(str(path), geo, op, prefetch=2)
        npt.assert_array_equal(result.volume, reference)

    @pytest.mark.parametrize("dest", ["shards", "vol.raw"])
    def test_sink_output_matches_in_memory(
        self, tmp_path, sinos, geo, op, reference, dest
    ):
        result = self._run(
            sinos, geo, op, sink=str(tmp_path / dest), prefetch=2
        )
        assert result.volume is None
        assert result.num_slices == 6
        npt.assert_array_equal(load_volume(result.extra["output_path"]), reference)

    def test_kill_and_resume_through_conveyor(
        self, tmp_path, sinos, geo, op, reference
    ):
        ck = tmp_path / "ck.npz"
        out = tmp_path / "out"
        first = self._run(
            sinos, geo, op, sink=str(out), prefetch=2,
            checkpoint=ck, max_chunks=1,
        )
        assert first.extra["stopped_early"]
        assert "output_path" not in first.extra
        second = self._run(
            sinos, geo, op, sink=str(out), prefetch=2,
            checkpoint=ck, resume=True,
        )
        assert second.extra["resumed_slices"] == 2
        npt.assert_array_equal(load_volume(second.extra["output_path"]), reference)

    def test_in_memory_checkpoint_replays_into_sink(
        self, tmp_path, sinos, geo, op, reference
    ):
        # Start in memory, finish streaming: the completed slices from
        # the checkpointed volume must land in the sink too.
        ck = tmp_path / "ck.npz"
        self._run(sinos, geo, op, checkpoint=ck, max_chunks=1)
        out = tmp_path / "out"
        result = self._run(
            sinos, geo, op, sink=str(out), checkpoint=ck, resume=True
        )
        npt.assert_array_equal(load_volume(result.extra["output_path"]), reference)

    def test_sink_checkpoint_refuses_in_memory_resume(
        self, tmp_path, sinos, geo, op
    ):
        from repro.resilience import CheckpointError

        ck = tmp_path / "ck.npz"
        self._run(sinos, geo, op, sink=str(tmp_path / "out"), checkpoint=ck, max_chunks=1)
        with pytest.raises(CheckpointError, match="same sink"):
            self._run(sinos, geo, op, checkpoint=ck, resume=True)

    def test_budget_run_never_materializes_stack(self, tmp_path, sinos, geo, op):
        """A stack 'larger than the budget' reconstructs out of core.

        The budget below affords only a couple of slices of working
        set — far less than the whole raw stack + volume — and the
        source proves the executor only ever asked for small ranges.
        """
        root = save_stack(tmp_path / "shards", sinos, shard_slices=1)

        spans = []

        class SpyingSource(NpzShardSource):
            def read(self, start, stop):
                spans.append(stop - start)
                return super().read(start, stop)

        per_slice = 8 * (5 * op.num_rays + 4 * op.num_pixels)
        result = reconstruct_stack(
            SpyingSource(root),
            geo,
            stages=[],
            iterations=4,
            operator=op,
            memory_budget_bytes=2 * per_slice,
            sink=str(tmp_path / "out"),
        )
        assert result.volume is None
        assert max(spans) <= 2
        assert load_volume(result.extra["output_path"]).shape == (6, 16, 16)


class TestCompressedShards:
    """Opt-in deflate for both shard directions (satellite of the
    service PR): bit-exact roundtrips, stable fingerprints, and a real
    size win on compressible data."""

    @pytest.fixture(scope="class")
    def compressible(self):
        # Piecewise-constant slices deflate well; random noise would not.
        base = np.arange(6 * 24 * 16, dtype=np.float64) // 512
        return base.reshape(6, 24, 16)

    def _tree_bytes(self, root):
        return sum(p.stat().st_size for p in root.rglob("*.npz"))

    def test_source_roundtrip_bit_exact(self, tmp_path, compressible, calibration):
        darks, flats = calibration
        root = save_stack(
            tmp_path / "z", compressible, darks, flats,
            shard_slices=2, compress=True,
        )
        with NpzShardSource(root) as src:
            npt.assert_array_equal(src.read(0, 6), compressible)
            npt.assert_array_equal(src.read(1, 5), compressible[1:5])
            npt.assert_array_equal(src.darks, darks)
            npt.assert_array_equal(src.flats, flats)

    def test_compression_shrinks_shards(self, tmp_path, compressible):
        plain = save_stack(tmp_path / "plain", compressible, shard_slices=2)
        packed = save_stack(
            tmp_path / "packed", compressible, shard_slices=2, compress=True
        )
        assert self._tree_bytes(packed) < self._tree_bytes(plain) // 2

    def test_fingerprint_stable_and_layout_sensitive(self, tmp_path, compressible):
        a = NpzShardSource(
            save_stack(tmp_path / "a", compressible, shard_slices=2, compress=True)
        )
        b = NpzShardSource(
            save_stack(tmp_path / "b", compressible, shard_slices=2, compress=True)
        )
        plain = NpzShardSource(
            save_stack(tmp_path / "c", compressible, shard_slices=2)
        )
        # Same content, same layout, same codec: identical identity.
        assert a.fingerprint() == b.fingerprint()
        # Compression changes the bytes on disk, hence the identity —
        # a resumed checkpoint must not mix codecs silently.
        assert a.fingerprint() != plain.fingerprint()

    def test_sink_roundtrip_and_shrink(self, tmp_path, compressible):
        plain = NpzShardSink(tmp_path / "plain", 6, 16)
        packed = NpzShardSink(tmp_path / "packed", 6, 16, compress=True)
        volume = (np.arange(6 * 16 * 16, dtype=np.float64) // 256).reshape(6, 16, 16)
        for sink in (plain, packed):
            sink.write(0, 3, volume[0:3])
            sink.write(3, 6, volume[3:6])
        npt.assert_array_equal(load_volume(packed.finalize()), volume)
        npt.assert_array_equal(
            load_volume(plain.finalize()), load_volume(tmp_path / "packed")
        )
        assert self._tree_bytes(tmp_path / "packed") < self._tree_bytes(
            tmp_path / "plain"
        )

    def test_make_sink_compress_mapping(self, tmp_path):
        sink = make_sink(tmp_path / "dir", 6, 4, compress=True)
        assert isinstance(sink, NpzShardSink) and sink.compress
        with pytest.raises(ValueError, match="cannot be compressed"):
            make_sink(tmp_path / "v.raw", 6, 4, compress=True)

    def test_pipeline_compress_flag_bit_exact(self, tmp_path, compressible):
        geo = ParallelBeamGeometry(24, 16)
        op, _ = preprocess(geo)
        sinos = np.stack([op.project_image(img[:16]) for img in
                          np.random.default_rng(3).uniform(0, 1, (6, 16, 16))])
        reference = reconstruct_stack(
            sinos, geo, stages=[], iterations=4, chunk_slices=2, operator=op,
            sink=str(tmp_path / "plain"),
        )
        packed = reconstruct_stack(
            sinos, geo, stages=[], iterations=4, chunk_slices=2, operator=op,
            sink=str(tmp_path / "packed"), compress=True,
        )
        npt.assert_array_equal(
            load_volume(packed.extra["output_path"]),
            load_volume(reference.extra["output_path"]),
        )
        op.close()


class _TransientSource(ArraySource):
    """Fails the first ``failures`` read attempts, then heals."""

    def __init__(self, stack, failures, exc=OSError("transient read hiccup")):
        super().__init__(stack)
        self.failures = failures
        self.exc = exc
        self.attempts = 0

    def read(self, start, stop):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise self.exc
        return super().read(start, stop)


class TestReadRetry:
    """Transient source failures heal through the shared RetryPolicy and
    are visible as ``dataio.read_retries`` — never silent."""

    RANGES = [(0, 2), (2, 4), (4, 6)]
    FAST = RetryPolicy(max_retries=3, backoff_base=0.0)

    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_transient_failures_heal(self, stack, prefetch):
        src = _TransientSource(stack, failures=2)
        with obs.capture() as cap:
            with Conveyor(src, self.RANGES, VolumeSink(6, 4), prefetch=prefetch,
                          read_retry=self.FAST) as cv:
                seen = {(a, b): chunk for a, b, chunk in cv.chunks()}
        for a, b in self.RANGES:
            npt.assert_array_equal(seen[(a, b)], stack[a:b])
        assert src.attempts == len(self.RANGES) + 2
        counters = {c.name: c.total for c in cap.counters.values()}
        assert counters["dataio.read_retries"] == 2

    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_budget_exhausted_surfaces_original_error(self, stack, prefetch):
        src = _TransientSource(stack, failures=99)
        with pytest.raises(OSError, match="transient read hiccup"):
            with Conveyor(src, self.RANGES, VolumeSink(6, 4), prefetch=prefetch,
                          read_retry=RetryPolicy(max_retries=1,
                                                 backoff_base=0.0)) as cv:
                for _ in cv.chunks():
                    pass

    def test_corrupt_archive_is_transient(self, stack):
        # A half-written shard reads as BadZipFile/ValueError — retried
        # like any other transient error (NFS may expose mid-rename states).
        from zipfile import BadZipFile

        src = _TransientSource(stack, failures=1, exc=BadZipFile("bad magic"))
        with Conveyor(src, self.RANGES, VolumeSink(6, 4), read_retry=self.FAST) as cv:
            assert len(list(cv.chunks())) == 3

    def test_programming_errors_not_retried(self, stack):
        src = _TransientSource(stack, failures=5, exc=TypeError("a bug"))
        with pytest.raises(TypeError):
            with Conveyor(src, self.RANGES, VolumeSink(6, 4), read_retry=self.FAST) as cv:
                list(cv.chunks())
        assert src.attempts == 1  # no retry budget spent on bugs

    def test_default_policy_attached(self, stack):
        with Conveyor(ArraySource(stack), self.RANGES, VolumeSink(6, 4)) as cv:
            assert isinstance(cv.read_retry, RetryPolicy)
            assert cv.read_retry.max_retries >= 1


class _ManualClock:
    def __init__(self, start=50.0):
        self.now = start

    def __call__(self):
        return self.now


class TestConveyorProgress:
    """ETA regression battery: zero-elapsed guard and resumed-run
    clamps (a resume used to divide pre-done slices by ~0 elapsed and
    could print a negative ETA)."""

    def _progress(self, total=100, initial_done=0):
        import io

        clock = _ManualClock()
        stream = io.StringIO()
        progress = ConveyorProgress(
            total, stream, initial_done=initial_done, clock=clock
        )
        return progress, clock, stream

    def test_zero_elapsed_shows_unknown_not_inf(self):
        progress, _clock, stream = self._progress()
        progress.update(10, (0, 0))  # clock has not advanced at all
        out = stream.getvalue()
        assert "0.0 slices/s" in out
        eta_text = out.split("eta")[1].split(")")[0]
        assert "?" in eta_text and "inf" not in out and "-" not in eta_text

    def test_steady_rate_eta(self):
        progress, clock, stream = self._progress()
        clock.now += 5.0
        progress.update(20, (1, 2))
        out = stream.getvalue()
        assert "20/100 slices" in out
        assert "4.0 slices/s" in out
        assert "eta  20.0s" in out

    def test_resume_excludes_pre_done_slices_from_rate(self):
        # 90 slices were done by a previous run; this run solved 2 in 1s.
        progress, clock, stream = self._progress(initial_done=90)
        clock.now += 1.0
        progress.update(92, (0, 0))
        out = stream.getvalue()
        assert "2.0 slices/s" in out  # NOT 92/s
        assert "eta   4.0s" in out

    def test_overshoot_never_negative(self):
        # done > total can transiently happen when a resumed manifest
        # overlaps a rerun range; the ETA must clamp at zero.
        progress, clock, stream = self._progress(total=10, initial_done=4)
        clock.now += 1.0
        progress.update(12, (0, 0))
        eta_text = stream.getvalue().split("eta")[1].split(")")[0]
        assert "-" not in eta_text
        assert "0.0s" in eta_text

    def test_quiet_until_first_update(self):
        progress, _clock, stream = self._progress()
        progress.done()
        assert stream.getvalue() == ""
        progress.update(1, (0, 0))
        progress.done()
        assert stream.getvalue().endswith("\n")
