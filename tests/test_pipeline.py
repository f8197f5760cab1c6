"""Tests for the streaming multi-slice pipeline.

Covers the conditioning stages individually (dark/flat, negative log,
ring suppression, center finding/correction), the stacked phantom
generators that feed them, and the streaming executor's contracts:
slab volumes equal to per-slice single solves bitwise, chunking
invariance, per-chunk checkpoint/resume bit-exactness, fingerprint
validation, and the one rule both front doors share for a prebuilt
operator: it is adopted as is.
"""

import inspect
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core import MemXCTOperator, OperatorConfig, preprocess, reconstruct
from repro.dataio import ArraySource, RawVolumeSink
from repro.precision import solver_dtype
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import (
    inject_center_shift,
    inject_rings,
    ring_gains,
    simulate_counts,
    stacked_shepp_logan,
    synthetic_darks_flats,
)
from repro.pipeline import (
    CenterCorrection,
    DarkFlatNormalize,
    NegativeLog,
    RingSuppression,
    Stage,
    StageContext,
    chunk_slices_for_budget,
    default_stages,
    demo_stack,
    find_center_shift,
    reconstruct_stack,
)
from repro.resilience import CheckpointError
from repro.solvers import cgls, mlem, sirt

SINGLE_SOLVERS = {"cg": cgls, "sirt": sirt, "mlem": mlem}


def _per_slice_solves(raw, geometry, operator, stages, solver, iterations,
                      tolerance=0.0, chunk_slices=None):
    """The slab path's reference: the same conditioning, chunk by chunk,
    then one single-slice solve per slice of each conditioned chunk."""
    solve = SINGLE_SOLVERS[solver]
    chunk_slices = chunk_slices or len(raw)
    ctx = StageContext(angles=geometry.angles())
    images, iterations_run = [], []
    for start in range(0, len(raw), chunk_slices):
        ctx.info["slice_offset"] = start
        chunk = raw[start : start + chunk_slices]
        for stage in stages:
            chunk = stage(chunk, ctx)
        for sinogram in chunk:
            y = operator.sinogram_to_ordered(sinogram).astype(solver_dtype(operator))
            if solver == "mlem":
                np.maximum(y, 0.0, out=y)
            res = solve(operator, y, num_iterations=iterations, tolerance=tolerance)
            images.append(operator.ordered_to_image(res.x))
            iterations_run.append(res.iterations)
    return np.stack(images), iterations_run


@pytest.fixture(scope="module")
def geo():
    return ParallelBeamGeometry(48, 32)


@pytest.fixture(scope="module")
def operator(geo):
    op, _ = preprocess(
        geo, config=OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=4096)
    )
    return op


@pytest.fixture(scope="module")
def clean_sinogram():
    from repro.core import get_dataset

    spec = get_dataset("ADS1").scaled(0.25)
    op, _ = preprocess(spec.geometry())
    return op.project_image(spec.phantom())


@pytest.fixture(scope="module")
def demo():
    return demo_stack(size=32, num_slices=6, num_angles=48, poisson=False)


class TestStackPhantoms:
    def test_stack_shape_and_variation(self):
        stack = stacked_shepp_logan(24, 5)
        assert stack.shape == (5, 24, 24)
        # Slices vary along the stack but share gross structure: the
        # shrunken end slice's support sits inside the middle slice's.
        assert not np.array_equal(stack[0], stack[4])
        end, mid = stack[0] != 0, stack[2] != 0
        assert (end & mid).sum() / end.sum() > 0.9

    def test_single_slice_stack(self):
        assert stacked_shepp_logan(16, 1).shape == (1, 16, 16)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="num_slices"):
            stacked_shepp_logan(16, 0)

    def test_darks_flats_shapes(self):
        darks, flats = synthetic_darks_flats(4, 20, num_frames=3)
        assert darks.shape == (3, 4, 20)
        assert flats.shape == (3, 4, 20)
        assert (flats.mean(axis=0) > darks.mean(axis=0)).all()

    def test_ring_gains_touch_only_bad_channels(self):
        gains = ring_gains(30, num_bad=4, seed=1)
        assert gains.shape == (30,)
        assert (gains != 1.0).sum() <= 4

    def test_inject_rings_validates_channels(self):
        with pytest.raises(ValueError, match="channels"):
            inject_rings(np.ones((2, 3, 10)), np.ones(9))

    def test_center_shift_roundtrip(self):
        rng = np.random.default_rng(0)
        sino = rng.random((3, 20, 40))
        shifted = inject_center_shift(sino, 2.0)
        back = inject_center_shift(shifted, -2.0)
        # Interior channels survive the round trip (edges clamp).
        assert np.allclose(back[..., 4:-4], sino[..., 4:-4], atol=1e-12)

    def test_simulate_counts_inverts_through_normalization(self):
        """dark/flat + neg-log over simulated counts recovers the
        scaled sinogram (noise-free)."""
        sino = np.abs(np.random.default_rng(1).random((2, 12, 16)))
        darks, flats = synthetic_darks_flats(2, 16, noise=0.0)
        raw, scale = simulate_counts(sino, darks, flats, poisson=False)
        ctx = StageContext()
        ctx.info["slice_offset"] = 0
        chunk = DarkFlatNormalize(darks, flats)(raw, ctx)
        recovered = NegativeLog()(chunk, ctx)
        assert np.allclose(recovered, scale * sino, atol=1e-10)


def _counts_to_line_integrals(sinogram, flat_level, dark_level=80.0, noise=0.0,
                              seed=0, dead_pixel=False):
    """One slice through the acquisition chain the pipeline runs:
    ``simulate_counts`` (Poisson), then dark/flat + negative log.
    Returns the recovered line integrals divided by the attenuation
    scale, i.e. in the units of ``sinogram``."""
    darks, flats = synthetic_darks_flats(
        1, sinogram.shape[-1], dark_level=dark_level, flat_level=flat_level,
        noise=noise, seed=seed,
    )
    raw, scale = simulate_counts(sinogram[None], darks, flats, seed=seed)
    if dead_pixel:
        raw[0, 0, 0] = 0.0
    ctx = StageContext()
    ctx.info["slice_offset"] = 0
    recovered = NegativeLog()(DarkFlatNormalize(darks, flats)(raw, ctx), ctx)
    return recovered[0] / scale


class TestCountsToLineIntegrals:
    """Photon statistics through ``phantoms.simulate_counts`` and the
    dark/flat + negative-log stages, the chain ``demo_stack`` and the
    stack workloads run (paper §2.1)."""

    def test_roundtrip_at_high_dose(self, clean_sinogram):
        sino = _counts_to_line_integrals(clean_sinogram, flat_level=1e7)
        assert np.abs(sino - clean_sinogram).mean() < 0.01 * clean_sinogram.mean()

    def test_noise_decreases_with_dose(self, clean_sinogram):
        def residual(photons):
            sino = _counts_to_line_integrals(clean_sinogram, flat_level=photons,
                                             dark_level=5.0, seed=1)
            return np.std(sino - clean_sinogram)

        assert residual(1e6) < 0.3 * residual(1e3)

    def test_dark_field_removed(self, clean_sinogram):
        """A large dark offset must not bias the recovered sinogram."""
        sino = _counts_to_line_integrals(clean_sinogram, flat_level=1e7,
                                         dark_level=500.0, seed=2)
        assert np.abs(sino - clean_sinogram).mean() < 0.02 * clean_sinogram.mean()

    def test_finite_on_dead_pixels(self, clean_sinogram):
        sino = _counts_to_line_integrals(clean_sinogram, flat_level=100.0,
                                         dark_level=5.0, seed=3, dead_pixel=True)
        assert np.isfinite(sino).all()

    def test_validation(self):
        darks, flats = synthetic_darks_flats(2, 8)
        with pytest.raises(ValueError, match="positive"):
            DarkFlatNormalize(darks, flats, min_transmission=0.0)
        with pytest.raises(ValueError, match="calibration"):
            DarkFlatNormalize(darks[None], flats[None])(
                np.ones((2, 4, 8)), StageContext()
            )
        with pytest.raises(ValueError, match="per-slice"):
            DarkFlatNormalize(darks, flats)(np.ones((3, 4, 8)), StageContext())


class TestCenterFinding:
    @pytest.mark.parametrize("true_shift", [-2.0, -0.75, 0.0, 1.25, 2.0])
    def test_com_recovers_shift(self, demo, true_shift):
        # Shifts stay a few channels inside the 32-channel detector;
        # larger ones clamp at the edge and bias any estimator.
        sino = inject_center_shift(demo.sinograms[2], true_shift)
        found = find_center_shift(sino, demo.geometry.angles(), method="com")
        assert abs(found - true_shift) <= 0.25

    @pytest.mark.parametrize("true_shift", [-2.0, 0.0, 1.5])
    def test_correlation_recovers_shift(self, demo, true_shift):
        sino = inject_center_shift(demo.sinograms[2], true_shift)
        found = find_center_shift(sino, method="correlation")
        assert abs(found - true_shift) <= 0.75

    def test_default_angles_match_geometry(self, demo):
        sino = demo.sinograms[0]
        assert find_center_shift(sino) == pytest.approx(
            find_center_shift(sino, demo.geometry.angles())
        )

    def test_rejects_unknown_method(self, demo):
        with pytest.raises(ValueError, match="method"):
            find_center_shift(demo.sinograms[0], method="fft")

    def test_rejects_empty_sinogram(self):
        with pytest.raises(ValueError, match="non-empty"):
            find_center_shift(np.zeros((10, 16)))

    def test_rejects_angle_mismatch(self, demo):
        with pytest.raises(ValueError, match="angles"):
            find_center_shift(demo.sinograms[0], np.zeros(3))


class TestCorrelationCenter:
    """The two-projection correlation estimator on a whole-channel shift
    of a centred scan (``np.roll``: exact, no interpolation)."""

    def test_centered_scan(self, clean_sinogram):
        found = find_center_shift(clean_sinogram, method="correlation")
        assert found == pytest.approx(0.0, abs=0.25)

    @pytest.mark.parametrize("shift", [-4, -1, 2, 5])
    def test_shifted_scan(self, clean_sinogram, shift):
        shifted = np.roll(clean_sinogram, shift, axis=1)
        found = find_center_shift(shifted, method="correlation")
        assert found == pytest.approx(shift, abs=0.3)

    def test_robust_to_noise(self, clean_sinogram):
        rng = np.random.default_rng(0)
        noisy = clean_sinogram + rng.normal(scale=0.05 * clean_sinogram.max(),
                                            size=clean_sinogram.shape)
        found = find_center_shift(noisy, method="correlation")
        assert found == pytest.approx(0.0, abs=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_center_shift(np.zeros(5), method="correlation")
        with pytest.raises(ValueError, match="two projections"):
            find_center_shift(np.zeros((1, 5)), method="correlation")


class TestStages:
    def test_dark_flat_rejects_inverted_calibration(self):
        stage = DarkFlatNormalize(darks=np.full(8, 100.0), flats=np.full(8, 50.0))
        with pytest.raises(ValueError, match="flat-field"):
            stage(np.ones((1, 4, 8)), StageContext())

    def test_neg_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            NegativeLog()(np.zeros((1, 2, 4)), StageContext())

    def test_stage_rejects_2d_input(self):
        with pytest.raises(ValueError, match="chunk"):
            NegativeLog()(np.ones((4, 8)), StageContext())

    def test_ring_suppression_removes_stripes(self, demo):
        clean = demo.sinograms[:1]
        stripe = np.zeros(clean.shape[-1])
        stripe[10] = 0.4
        striped = clean + stripe[None, None, :]
        out = RingSuppression(window=5)(striped, StageContext())
        # The stripe residual is mostly gone; clean columns untouched-ish.
        residual = np.abs(out - clean).mean()
        assert residual < 0.1 * 0.4

    def test_ring_suppression_window_validation(self):
        with pytest.raises(ValueError, match="odd"):
            RingSuppression(window=4)
        with pytest.raises(ValueError, match="odd"):
            RingSuppression(window=1)

    def test_center_correction_undoes_shift(self, demo):
        shifted = inject_center_shift(demo.sinograms, 2.0)
        ctx = StageContext(angles=demo.geometry.angles())
        out = CenterCorrection()(shifted, ctx)
        assert abs(ctx.info["center_shift"] - 2.0) <= 0.2
        interior = (slice(None), slice(None), slice(6, -6))
        assert np.abs(out[interior] - demo.sinograms[interior]).mean() < 0.05

    def test_center_correction_estimate_reused_across_chunks(self, demo):
        ctx = StageContext(angles=demo.geometry.angles())
        stage = CenterCorrection()
        stage(inject_center_shift(demo.sinograms[:2], 1.5), ctx)
        first = ctx.info["center_shift"]
        # Second chunk must reuse, not re-estimate (different slices
        # would give a slightly different value).
        stage(inject_center_shift(demo.sinograms[2:], 1.5), ctx)
        assert ctx.info["center_shift"] == first

    def test_explicit_shift_skips_estimation(self, demo):
        ctx = StageContext()
        CenterCorrection(shift=1.0)(demo.sinograms[:1], ctx)
        assert ctx.info["center_shift"] == 1.0

    def test_stage_times_accumulate(self, demo):
        ctx = StageContext()
        stage = NegativeLog()
        stage(np.full((1, 4, 8), 0.5), ctx)
        once = ctx.stage_times["neg_log"]
        stage(np.full((1, 4, 8), 0.5), ctx)
        assert ctx.stage_times["neg_log"] > once

    def test_default_stages_composition(self):
        darks, flats = synthetic_darks_flats(2, 16)
        names = [s.name for s in default_stages(darks, flats)]
        assert names == ["dark_flat", "neg_log", "ring_suppress", "center"]
        assert [s.name for s in default_stages()] == ["ring_suppress", "center"]
        assert default_stages(ring_window=None, center_method=None) == []
        with pytest.raises(ValueError, match="both"):
            default_stages(darks=darks)


class TestExecutor:
    def test_end_to_end_demo(self, demo):
        result = reconstruct_stack(
            demo.raw,
            demo.geometry,
            darks=demo.darks,
            flats=demo.flats,
            solver="cg",
            iterations=15,
            operator=demo.operator,
        )
        assert result.volume.shape == (6, 32, 32)
        truth = demo.attenuation_scale * demo.truth
        for k in range(6):
            corr = np.corrcoef(result.volume[k].ravel(), truth[k].ravel())[0, 1]
            assert corr > 0.9

    def test_batched_equals_looped(self, demo):
        stages = default_stages(demo.darks, demo.flats)
        batched = reconstruct_stack(
            demo.raw, demo.geometry, stages=stages, solver="cg", iterations=6,
            chunk_slices=2, operator=demo.operator,
        )
        looped, _ = _per_slice_solves(
            demo.raw, demo.geometry, demo.operator, stages, "cg", 6, chunk_slices=2
        )
        assert np.array_equal(batched.volume, looped)

    @pytest.mark.parametrize("solver", ["sirt", "mlem"])
    def test_batched_equals_looped_other_solvers(self, demo, solver):
        stages = default_stages(demo.darks, demo.flats)
        batched = reconstruct_stack(
            demo.raw, demo.geometry, stages=stages, solver=solver, iterations=4,
            operator=demo.operator,
        )
        looped, _ = _per_slice_solves(
            demo.raw, demo.geometry, demo.operator, stages, solver, 4
        )
        assert np.array_equal(batched.volume, looped)

    @pytest.mark.parametrize("solver", ["cg", "sirt", "mlem"])
    def test_batched_equals_looped_with_firing_tolerance(self, demo, solver):
        """``tolerance`` means the same thing in a slab and alone: every
        slice stops early, at the same iteration, with the same bits."""
        stages = default_stages(demo.darks, demo.flats)
        batched = reconstruct_stack(
            demo.raw, demo.geometry, stages=stages, solver=solver, iterations=40,
            tolerance=0.7, operator=demo.operator,
        )
        looped, iterations = _per_slice_solves(
            demo.raw, demo.geometry, demo.operator, stages, solver, 40, tolerance=0.7
        )
        assert batched.chunks[0]["iterations"] == iterations
        assert max(iterations) < 40  # the tolerance fired
        assert np.array_equal(batched.volume, looped)

    def test_one_solve_path(self):
        """The looped mode and its keyword are gone: every chunk is a slab."""
        assert "batch" not in inspect.signature(reconstruct_stack).parameters
        assert not hasattr(MemXCTOperator, "serial_scope")


    def test_chunking_invariance(self, demo):
        """Without cross-chunk stages, the volume must not depend on
        the chunk size (per-column solves are independent)."""
        kwargs = dict(
            stages=[],
            solver="cg",
            iterations=6,
            operator=demo.operator,
        )
        whole = reconstruct_stack(demo.sinograms, demo.geometry, **kwargs)
        chunked = reconstruct_stack(
            demo.sinograms, demo.geometry, chunk_slices=2, **kwargs
        )
        uneven = reconstruct_stack(
            demo.sinograms, demo.geometry, chunk_slices=4, **kwargs
        )
        assert np.array_equal(whole.volume, chunked.volume)
        assert np.array_equal(whole.volume, uneven.volume)

    def test_stage_times_in_extra(self, demo):
        result = reconstruct_stack(
            demo.raw,
            demo.geometry,
            darks=demo.darks,
            flats=demo.flats,
            iterations=2,
            operator=demo.operator,
        )
        times = result.extra["stage_times"]
        assert set(times) == {"dark_flat", "neg_log", "ring_suppress", "center", "solve"}
        assert all(v >= 0 for v in times.values())
        assert times["solve"] == result.solve_seconds

    def test_pipeline_counters(self, demo):
        with obs.capture() as cap:
            reconstruct_stack(
                demo.sinograms,
                demo.geometry,
                stages=[],
                iterations=2,
                chunk_slices=2,
                operator=demo.operator,
            )
        assert cap.total(obs.PIPELINE_SLICES) == 6
        assert cap.total(obs.PIPELINE_CHUNKS) == 3
        assert cap.find_spans("pipeline.run")
        assert len(cap.find_spans("pipeline.chunk")) == 3

    def test_head_and_tail_have_spans(self, demo, tmp_path):
        """What no solve overlaps — opening the source, starting the
        conveyor, draining the last write, finalizing the sink — is
        attributed in a trace, not left as a gap in ``pipeline.run``."""
        with obs.capture() as cap:
            reconstruct_stack(
                demo.sinograms, demo.geometry, stages=[], iterations=1,
                chunk_slices=2, operator=demo.operator, prefetch=1,
                sink=tmp_path / "volume",
            )
        for name in ("open", "start", "drain", "finalize"):
            assert len(cap.find_spans(f"pipeline.{name}")) == 1, name

    def test_memory_budget_chunking(self, demo, monkeypatch):
        # The budget below is the float64-state model: pin the unset
        # default rather than whatever REPRO_DTYPE the suite runs under.
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        op, _ = preprocess(demo.geometry)
        num_slices = demo.sinograms.shape[0]
        # Budget model: per-slice solver vectors + the raw chunk row,
        # plus the fixed in-memory output volume carved out up front.
        per_slice = 8 * (4 * op.num_rays + 4 * op.num_pixels) + 8 * op.num_rays
        volume = 8 * op.num_pixels * num_slices
        result = reconstruct_stack(
            demo.sinograms,
            demo.geometry,
            stages=[],
            iterations=1,
            memory_budget_bytes=volume + 3 * per_slice,
            operator=op,
        )
        assert len(result.chunks) == 2
        assert result.chunks[0]["stop"] - result.chunks[0]["start"] == 3

    def test_budget_floor_is_one_slice(self):
        assert chunk_slices_for_budget(1, 1000, 1000, 8) == 1
        assert chunk_slices_for_budget(10**12, 1000, 1000, 8) == 8
        with pytest.raises(ValueError, match="budget"):
            chunk_slices_for_budget(0, 1000, 1000, 8)

    def test_budget_is_dtype_aware(self):
        # fp32 solver vectors are half the size, so the same budget
        # fits at least as many (here: twice as many) slices.
        budget = 10 * 8 * (4 * 1000 + 4 * 1000)
        fp64 = chunk_slices_for_budget(
            budget, 1000, 1000, 1000, itemsize=8, volume_in_memory=False
        )
        fp32 = chunk_slices_for_budget(
            budget, 1000, 1000, 1000, itemsize=4, volume_in_memory=False
        )
        assert fp32 > fp64

    def test_budget_accounts_for_volume_and_prefetch(self):
        budget = 100 * 8 * (4 * 1000 + 4 * 1000)
        streamed = chunk_slices_for_budget(
            budget, 1000, 1000, 10**6, volume_in_memory=False
        )
        resident = chunk_slices_for_budget(
            budget, 1000, 1000, 10**6, volume_in_memory=True
        )
        # A million-slice in-memory volume eats the whole budget; the
        # streamed path still gets real chunks out of it.
        assert resident == 1
        assert streamed > 1
        # Each prefetched chunk parks another raw copy in the queue.
        eager = chunk_slices_for_budget(
            budget, 1000, 1000, 10**6, volume_in_memory=False, prefetch=4
        )
        assert eager < streamed

    def test_rejects_both_chunking_knobs(self, demo):
        with pytest.raises(ValueError, match="not both"):
            reconstruct_stack(
                demo.sinograms,
                demo.geometry,
                chunk_slices=2,
                memory_budget_bytes=1 << 20,
                operator=demo.operator,
            )

    def test_rejects_bad_inputs(self, demo):
        with pytest.raises(ValueError, match="slices, angles, channels"):
            reconstruct_stack(demo.sinograms[0], demo.geometry)
        with pytest.raises(ValueError, match="solver"):
            reconstruct_stack(demo.sinograms, demo.geometry, solver="fbp")
        with pytest.raises(ValueError, match="checkpoint"):
            reconstruct_stack(demo.sinograms, demo.geometry, resume=True)


class _ClosingSource(ArraySource):
    """ArraySource that counts ``close()`` calls."""

    def __init__(self, stack):
        super().__init__(stack)
        self.closes = 0

    def close(self):
        self.closes += 1
        super().close()


class _ClosingRawSink(RawVolumeSink):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.closes = 0

    def close(self):
        self.closes += 1
        super().close()


class _FailingStage(Stage):
    name = "failing"

    def apply(self, chunk, ctx):
        raise RuntimeError("stage failed")


class TestCleanup:
    """The source and the sink are closed on every exit path."""

    def test_success_closes_source(self, demo):
        source = _ClosingSource(demo.sinograms)
        reconstruct_stack(source, demo.geometry, stages=[], iterations=1,
                          operator=demo.operator)
        assert source.closes == 1

    def test_geometry_mismatch_closes_source(self, demo):
        source = _ClosingSource(demo.sinograms)
        with pytest.raises(ValueError, match="geometry expects"):
            reconstruct_stack(source, ParallelBeamGeometry(40, 32), operator=demo.operator)
        assert source.closes == 1

    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_failing_stage_closes_source_and_sink(self, demo, tmp_path, prefetch):
        source = _ClosingSource(demo.sinograms)
        sink = _ClosingRawSink(tmp_path / "vol.raw", 6, 32)
        with pytest.raises(RuntimeError, match="stage failed"):
            reconstruct_stack(
                source, demo.geometry, stages=[_FailingStage()], iterations=1,
                operator=demo.operator, sink=sink, prefetch=prefetch,
            )
        assert source.closes == 1 and sink.closes == 1
        assert sink._fh is None  # the .partial file handle is released
        assert not (tmp_path / "vol.raw").exists()

    def test_solver_error_closes_source(self, demo):
        source = _ClosingSource(demo.sinograms)
        with pytest.raises(TypeError):
            reconstruct_stack(source, demo.geometry, stages=[], iterations=1,
                              operator=demo.operator, no_such_solver_option=1)
        assert source.closes == 1


class TestCheckpointResume:
    def _run(self, demo, tmp_path, **kwargs):
        return reconstruct_stack(
            demo.sinograms,
            demo.geometry,
            stages=[],
            solver="cg",
            iterations=5,
            chunk_slices=2,
            operator=demo.operator,
            **kwargs,
        )

    def test_kill_and_resume_is_bit_exact(self, demo, tmp_path):
        path = tmp_path / "stack.npz"
        partial = self._run(demo, tmp_path, checkpoint=path, max_chunks=2)
        assert partial.extra["stopped_early"]
        assert partial.extra["remaining_slices"] == 2
        resumed = self._run(demo, tmp_path, checkpoint=path, resume=True)
        assert resumed.extra["resumed_slices"] == 4
        assert len(resumed.chunks) == 1  # only the remaining chunk ran
        full = self._run(demo, tmp_path)
        assert np.array_equal(resumed.volume, full.volume)

    def test_in_memory_resume_with_prefetch(self, demo, tmp_path):
        """With the writer thread on, a checkpoint marks done only what the
        sink confirmed, and the resumed volume is still bit-exact."""
        path = tmp_path / "stack.npz"
        partial = self._run(demo, tmp_path, checkpoint=path, max_chunks=2, prefetch=2)
        assert partial.extra["remaining_slices"] == 2
        resumed = self._run(demo, tmp_path, checkpoint=path, resume=True, prefetch=2)
        assert resumed.extra["resumed_slices"] == 4
        assert np.array_equal(resumed.volume, self._run(demo, tmp_path).volume)

    def test_resume_restores_center_estimate(self, tmp_path):
        """The center found before the kill is reused after resume —
        estimating on a different chunk would change the volume."""
        d = demo_stack(size=32, num_slices=4, num_angles=48, center_shift=1.2, poisson=False)
        path = tmp_path / "c.npz"
        kwargs = dict(
            darks=d.darks,
            flats=d.flats,
            solver="cg",
            iterations=4,
            chunk_slices=1,
            operator=d.operator,
        )
        self._noop = reconstruct_stack(
            d.raw, d.geometry, checkpoint=path, max_chunks=1, **kwargs
        )
        resumed = reconstruct_stack(
            d.raw, d.geometry, checkpoint=path, resume=True, **kwargs
        )
        full = reconstruct_stack(d.raw, d.geometry, **kwargs)
        assert resumed.extra["center_shift"] == full.extra["center_shift"]
        assert np.array_equal(resumed.volume, full.volume)

    def test_fingerprint_mismatch_rejected(self, demo, tmp_path):
        path = tmp_path / "fp.npz"
        self._run(demo, tmp_path, checkpoint=path, max_chunks=1)
        other = demo.sinograms + 1e-3
        with pytest.raises(CheckpointError, match="fingerprint"):
            reconstruct_stack(
                other,
                demo.geometry,
                stages=[],
                solver="cg",
                iterations=5,
                chunk_slices=2,
                operator=demo.operator,
                checkpoint=path,
                resume=True,
            )

    def test_solver_change_rejected(self, demo, tmp_path):
        path = tmp_path / "sv.npz"
        self._run(demo, tmp_path, checkpoint=path, max_chunks=1)
        with pytest.raises(CheckpointError, match="fingerprint"):
            reconstruct_stack(
                demo.sinograms,
                demo.geometry,
                stages=[],
                solver="sirt",
                iterations=5,
                chunk_slices=2,
                operator=demo.operator,
                checkpoint=path,
                resume=True,
            )

    def test_missing_checkpoint_rejected(self, demo, tmp_path):
        with pytest.raises(CheckpointError):
            self._run(demo, tmp_path, checkpoint=tmp_path / "absent.npz", resume=True)

    def test_tolerance_change_rejected(self, demo, tmp_path):
        # Tolerance changes the per-slice stopping point, hence the
        # volume; it must be bound into the fingerprint.
        path = tmp_path / "tol.npz"
        self._run(demo, tmp_path, checkpoint=path, max_chunks=1, tolerance=0.0)
        with pytest.raises(CheckpointError, match="fingerprint"):
            self._run(demo, tmp_path, checkpoint=path, resume=True, tolerance=1e-3)

    def test_iteration_change_rejected(self, demo, tmp_path):
        path = tmp_path / "it.npz"
        self._run(demo, tmp_path, checkpoint=path, max_chunks=1)
        with pytest.raises(CheckpointError, match="fingerprint"):
            reconstruct_stack(
                demo.sinograms,
                demo.geometry,
                stages=[],
                solver="cg",
                iterations=6,
                chunk_slices=2,
                operator=demo.operator,
                checkpoint=path,
                resume=True,
            )

    def test_stage_chain_change_rejected(self, demo, tmp_path):
        # The old fingerprint ignored conditioning entirely: a resume
        # with a different ring window (or any stage change) silently
        # blended two pipelines into one volume.
        path = tmp_path / "st.npz"
        kwargs = dict(
            solver="cg", iterations=5, chunk_slices=2, operator=demo.operator
        )
        reconstruct_stack(
            demo.sinograms,
            demo.geometry,
            stages=[RingSuppression(window=5)],
            checkpoint=path,
            max_chunks=1,
            **kwargs,
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            reconstruct_stack(
                demo.sinograms,
                demo.geometry,
                stages=[RingSuppression(window=7)],
                checkpoint=path,
                resume=True,
                **kwargs,
            )

    def test_solver_kwargs_change_rejected(self, demo, tmp_path):
        path = tmp_path / "kw.npz"
        kwargs = dict(
            stages=[], solver="sirt", iterations=5, chunk_slices=2,
            operator=demo.operator, checkpoint=path,
        )
        reconstruct_stack(demo.sinograms, demo.geometry, max_chunks=1, **kwargs)
        with pytest.raises(CheckpointError, match="fingerprint"):
            reconstruct_stack(
                demo.sinograms, demo.geometry, resume=True, relaxation=0.5, **kwargs
            )

    def test_calibration_change_rejected(self, tmp_path):
        d = demo_stack(size=32, num_slices=4, num_angles=48, poisson=False)
        path = tmp_path / "cal.npz"
        kwargs = dict(solver="cg", iterations=4, chunk_slices=2, operator=d.operator)
        reconstruct_stack(
            d.raw, d.geometry, darks=d.darks, flats=d.flats,
            checkpoint=path, max_chunks=1, **kwargs,
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            reconstruct_stack(
                d.raw, d.geometry, darks=d.darks * 1.01, flats=d.flats,
                checkpoint=path, resume=True, **kwargs,
            )

    def test_non_pipeline_checkpoint_rejected(self, demo, tmp_path):
        from repro.resilience import CheckpointManager, SolverCheckpoint

        path = tmp_path / "cg.npz"
        CheckpointManager(path).save(
            SolverCheckpoint(solver="cg", iteration=3, arrays={"x": np.zeros(4)})
        )
        with pytest.raises(CheckpointError, match="pipeline"):
            self._run(demo, tmp_path, checkpoint=path, resume=True)


class TestOperatorOverrides:
    """A prebuilt operator's precision is its own: the front door takes
    no second copy of it."""

    def test_dtype_mismatch_with_operator_raises(self, demo):
        with pytest.raises(TypeError, match="dtype"):
            reconstruct_stack(
                demo.sinograms,
                demo.geometry,
                stages=[],
                iterations=2,
                operator=demo.operator,
                dtype="float32",
            )

    def test_matching_dtype_with_operator_accepted(self, demo):
        op32, _ = preprocess(demo.geometry, config=OperatorConfig(dtype="float32"))
        kwargs = dict(stages=[], iterations=2, operator=op32)
        plain = reconstruct_stack(demo.sinograms, demo.geometry, **kwargs)
        matching = reconstruct_stack(
            demo.sinograms, demo.geometry,
            config=OperatorConfig(dtype="fp32"),  # alias of the operator's own
            **kwargs,
        )
        assert matching.volume.shape == demo.truth.shape
        assert np.array_equal(matching.volume, plain.volume)


class TestOneOperatorResolution:
    """``reconstruct`` and ``reconstruct_stack`` adopt a prebuilt operator
    by the same rule: as is, worker spec included."""

    @pytest.fixture()
    def mixed(self, demo, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        op, _ = preprocess(demo.geometry)
        yield op
        op.close()

    @staticmethod
    def _run(front_door, demo, operator, **kwargs):
        if front_door == "reconstruct":
            result = reconstruct(demo.sinograms[0], demo.geometry, iterations=1,
                                 operator=operator, **kwargs)
            return result.image, result.preprocess_report
        result = reconstruct_stack(demo.sinograms[:1], demo.geometry, stages=[],
                                   iterations=1, operator=operator, **kwargs)
        return result.volume[0], result.preprocess_report

    def test_reconstruct_dtype_mismatch_raises(self, demo, mixed):
        with pytest.raises(TypeError, match="dtype"):
            reconstruct(demo.sinograms[0], demo.geometry, iterations=1,
                        operator=mixed, dtype="float32")

    @pytest.mark.parametrize("front_door", ["reconstruct", "reconstruct_stack"])
    def test_workers_repoint_prebuilt_operator(self, demo, mixed, front_door):
        serial, _ = self._run(front_door, demo, mixed)
        mixed.set_workers("thread:2")
        threaded, _ = self._run(front_door, demo, mixed)
        assert mixed.config.workers == "thread:2"
        assert np.array_equal(threaded, serial)

    @pytest.mark.parametrize("front_door", ["reconstruct", "reconstruct_stack"])
    def test_prebuilt_operator_adopted_as_is(self, demo, mixed, front_door):
        """``config`` only describes an operator still to be built: with
        a prebuilt one it neither rebuilds nor warns."""
        ref, _ = self._run(front_door, demo, mixed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            image, report = self._run(
                front_door, demo, mixed,
                config=OperatorConfig(kernel="ell", dtype="float32"),
            )
        assert np.array_equal(image, ref)
        assert mixed.config.dtype is None and mixed.config.kernel == "csr"
        assert report.total_seconds == 0.0 and report.cache_key is None


class TestPipelineCLI:
    def test_demo_run(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "pipeline", "run", "--demo", "--slices", "4", "--size", "32",
                "--iterations", "4", "--cache", "off", "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4/4 slices" in out
        assert "Per-stage wall time" in out
        assert "solve" in out
        assert (tmp_path / "volume.npz").exists()
        volume = np.load(tmp_path / "volume.npz")["volume"]
        assert volume.shape == (4, 32, 32)

    def test_input_file_run(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        np.savez(tmp_path / "in.npz", stack=np.abs(rng.random((3, 32, 24))))
        code = main(
            [
                "pipeline", "run", "--input", str(tmp_path / "in.npz"),
                "--iterations", "3", "--cache", "off",
            ]
        )
        assert code == 0
        assert "3/3 slices" in capsys.readouterr().out

    def test_no_batch_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["pipeline", "run", "--demo", "--no-batch", "--cache", "off"])
        assert "--no-batch" in capsys.readouterr().err

    def test_missing_input_errors(self, capsys):
        from repro.cli import main

        assert main(["pipeline", "run", "--cache", "off"]) == 2
        assert "provide --input" in capsys.readouterr().err

    def test_make_demo_then_streamed_run(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.dataio import load_volume

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "pipeline", "make-demo", "--slices", "4", "--size", "32",
                "--shard-slices", "2", "--cache", "off", "-o", "stack",
            ]
        )
        assert code == 0
        assert "wrote demo stack" in capsys.readouterr().out
        code = main(
            [
                "pipeline", "run", "--input", "stack", "--iterations", "3",
                "--chunk-slices", "2", "--prefetch", "2", "--cache", "off",
                "-o", "out",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4/4 slices" in out
        assert "streamed volume finalized" in out
        assert load_volume(tmp_path / "out").shape == (4, 32, 32)
