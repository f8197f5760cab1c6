"""Tests for the extension features: FBP, Tikhonov CGLS, slice stacks."""

import numpy as np
import pytest

from repro.core import get_dataset, preprocess, reconstruct
from repro.pipeline import reconstruct_stack
from repro.solvers import TikhonovOperator, cgls, fbp, ramp_filter, regularized_cgls
from repro.utils import psnr


@pytest.fixture(scope="module")
def problem():
    spec = get_dataset("ADS1").scaled(0.25)  # 90 x 64
    g = spec.geometry()
    op, report = preprocess(g)
    clean = op.project_image(spec.phantom())
    noisy, truth = spec.sinogram(op, incident_photons=300, seed=0)  # low dose
    return g, op, report, clean, noisy, truth, spec


class TestRampFilter:
    @pytest.mark.parametrize("window", ["ramp", "shepp-logan", "hann"])
    def test_response_properties(self, window):
        r = ramp_filter(64, window)
        assert r.shape[0] >= 128
        assert abs(r[0]) < 0.01  # near-zero DC gain (band-limited ramp)
        assert r.min() >= -1e-9  # non-negative response

    def test_hann_attenuates_high_frequencies(self):
        ramp = ramp_filter(64, "ramp")
        hann = ramp_filter(64, "hann")
        nyquist = ramp.shape[0] // 2
        assert hann[nyquist] < 0.2 * ramp[nyquist]

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError):
            ramp_filter(64, "kaiser")


class TestFBP:
    def test_reconstructs_clean_data(self, problem):
        g, op, _, clean, _, truth, _ = problem
        img = fbp(op, clean, window="hann")
        assert img.shape == truth.shape
        assert psnr(img, truth) > 15.0

    def test_iterative_beats_fbp_at_low_dose(self, problem):
        """The paper's motivating claim: early-stopped iterative
        reconstruction beats FBP (under its best window) on noisy
        low-dose measurements."""
        g, op, _, _, noisy, truth, _ = problem
        best_fbp = max(
            psnr(fbp(op, noisy, window=w), truth) for w in ("ramp", "hann")
        )
        y = op.sinogram_to_ordered(noisy)
        img_cg = op.ordered_to_image(cgls(op, y, num_iterations=8).x)
        assert psnr(img_cg, truth) > best_fbp

    def test_non_2d_rejected(self, problem):
        _, op, _, _, _, _, _ = problem
        with pytest.raises(ValueError):
            fbp(op, np.zeros(10))


class TestTikhonov:
    def test_augmented_operator_shapes(self, problem):
        _, op, _, _, _, _, _ = problem
        aug = TikhonovOperator(op, 0.5)
        assert aug.num_rays == op.num_rays + op.num_pixels
        assert aug.num_pixels == op.num_pixels

    def test_adjoint_consistency(self, problem, rng):
        _, op, _, _, _, _, _ = problem
        aug = TikhonovOperator(op, 0.7)
        x = rng.random(aug.num_pixels)
        y = rng.random(aug.num_rays)
        lhs = float(aug.forward(x) @ y)
        rhs = float(x @ aug.adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_regularization_shrinks_solution(self, problem):
        _, op, _, _, noisy, _, _ = problem
        y = op.sinogram_to_ordered(noisy)
        free = cgls(op, y, num_iterations=40)
        ridge = regularized_cgls(op, y, strength=10.0, num_iterations=40)
        assert np.linalg.norm(ridge.x) < np.linalg.norm(free.x)

    def test_zero_strength_matches_cgls(self, problem):
        _, op, _, _, noisy, _, _ = problem
        y = op.sinogram_to_ordered(noisy)
        free = cgls(op, y, num_iterations=10)
        ridge = regularized_cgls(op, y, strength=0.0, num_iterations=10)
        np.testing.assert_allclose(ridge.x, free.x, rtol=1e-6, atol=1e-8)

    def test_regularization_helps_at_low_dose(self, problem):
        _, op, _, _, noisy, truth, _ = problem
        y = op.sinogram_to_ordered(noisy)
        free = cgls(op, y, num_iterations=60)
        ridge = regularized_cgls(op, y, strength=3.0, num_iterations=60)
        assert psnr(op.ordered_to_image(ridge.x), truth) >= psnr(
            op.ordered_to_image(free.x), truth
        )

    def test_negative_strength_rejected(self, problem):
        _, op, _, _, _, _, _ = problem
        with pytest.raises(ValueError):
            TikhonovOperator(op, -1.0)


class TestVolume:
    """One preprocessed operator reconstructs a stack, each slice
    bit-identical to its single-slice reconstruction."""

    def test_stack_reconstruction(self, problem, rng):
        g, op, report, _, _, _, spec = problem
        slices = []
        truths = []
        for seed in range(3):
            sino, truth = spec.sinogram(op, incident_photons=1e6, seed=seed)
            slices.append(sino)
            truths.append(truth)
        result = reconstruct_stack(
            np.stack(slices), g, operator=op, iterations=15
        )
        assert result.volume.shape == (3, g.grid.n, g.grid.n)
        assert result.num_slices == 3
        for k in range(3):
            assert psnr(result.volume[k], truths[k]) > 20.0
            # Each slice is exactly the single-slice reconstruction.
            single = reconstruct(slices[k], g, iterations=15, operator=op)
            assert np.array_equal(result.volume[k], single.image)

    def test_amortization_fraction(self, problem, rng):
        """Table 5's amortization rests on slices being independent of
        the stack they ride in: preprocessing is reused (never re-run)
        and a slice reconstructs identically alone or among others."""
        g, op, report, _, noisy, _, _ = problem
        one = reconstruct_stack(noisy[None], g, operator=op, iterations=3)
        many = reconstruct_stack(
            np.repeat(noisy[None], 5, axis=0), g, operator=op, iterations=3
        )
        assert one.operator is op and many.operator is op
        assert many.preprocess_report.total_seconds == 0.0  # nothing re-traced
        for k in range(5):
            assert np.array_equal(many.volume[k], one.volume[0])
        assert many.solve_seconds > 0

    def test_validation(self, problem):
        g, op, _, _, noisy, _, _ = problem
        with pytest.raises(ValueError):
            reconstruct_stack(noisy, g, operator=op)  # 2D, not 3D
        with pytest.raises(ValueError):
            reconstruct_stack(np.zeros((2, 3, 3)), g, operator=op)
