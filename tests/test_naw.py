"""Adaptive weighting kernels: score extraction, scheduling, shapes."""

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from nla import naw
from nla.naw import (ALONG_Y_EQ_NEG_X, ALONG_Y_EQ_X, WeightPolicy,
                     build_false_kernel, build_true_kernel,
                     covariance_schedule, epoch_kernels, gaussian_weight,
                     kernel_params, naw_weights, sigma_from_axis_ratio)
from nla.numkit import Rng, softmax
from nla.selfcheck import (brute_force_gaussian, check_kernel_oracle,
                           random_kernel_cases)
from nla.trainer import TrainConfig

POLICY = WeightPolicy(total_epochs=60)

# Constants frozen from 40-digit evaluations of the closed forms.
C_ISOTROPIC = 0.19894367886486917       # 1 / (2 pi 0.8)
C_TRUE_FULL = 0.24867959858108646       # 1 / (2 pi 0.64), off-diagonal -0.48
C_FALSE = 0.61340967650001327           # 1 / (2 pi sqrt(0.64 - (28/37)^2))
CS_FULL = 0.9999546000702375            # 1 - e^-10
CS_HALF = 0.9932620530009145            # 1 - e^-5


def one_row_weight(probs, label: int, epoch: int) -> float:
    """Adaptive weight of one sample: a one-row call of naw_weights."""
    return float(naw_weights([probs], [label], epoch_kernels(POLICY, epoch))[0])


def reference_weight(probs, label: int, epoch: int) -> float:
    """Per-sample reference: scores by deletion, branch by comparison."""
    p_gt = probs[label]
    p_nn = np.delete(probs, label).max()
    true_kernel, false_kernel = epoch_kernels(POLICY, epoch)
    kernel = true_kernel if p_gt >= p_nn else false_kernel
    return gaussian_weight([p_gt, p_nn], kernel)


class TestExtractScores:
    # Scores are read through the weight: (p_gt, p_nn) picks the point and
    # the branch whose density naw_weights returns.
    def test_direct_selection_true(self):
        assert one_row_weight([0.7, 0.2, 0.1], 0, 9) == pytest.approx(
            gaussian_weight([0.7, 0.2], build_true_kernel(POLICY, 9)), rel=1e-15)

    def test_direct_selection_false(self):
        assert one_row_weight([0.1, 0.6, 0.3], 0, 9) == pytest.approx(
            gaussian_weight([0.1, 0.6], build_false_kernel(POLICY)), rel=1e-15)

    def test_tie_counts_as_true(self):
        assert one_row_weight([0.5, 0.5, 0.0], 0, 9) == pytest.approx(
            gaussian_weight([0.5, 0.5], build_true_kernel(POLICY, 9)), rel=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            one_row_weight([0.5, 0.5], 2, 0)

    @pytest.mark.parametrize("label", [0.7, True, "1"])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ValueError, match="labels must have an integer dtype"):
            naw_weights([[0.7, 0.2, 0.1]], [label], epoch_kernels(POLICY, 9))

    # The nearest negative is the row maximum of p - onehot, which equals
    # the maximum over the other classes only for probabilities in [0, 1]
    # and K >= 2.
    @pytest.mark.parametrize("probs, match", [
        ([np.nan, 0.5, 0.5], r"must lie in \[0, 1\]"),
        ([1.5, 0.2, 0.1], r"must lie in \[0, 1\]"),
        ([0.7, -0.1, 0.4], r"must lie in \[0, 1\]"),
        ([1.0], "K >= 2"),
    ], ids=["nan", "above-one", "below-zero", "one-class"])
    def test_rows_outside_the_simplex_range_rejected(self, probs, match):
        with pytest.raises(ValueError, match=match):
            naw_weights([probs], [0], epoch_kernels(POLICY, 9))

    def test_scores_from_a_simplex_point_sum_below_one(self):
        rng = Rng(19)
        for _ in range(300):
            probs = softmax(rng.normals(6, scale=4.0))
            label = rng.below(6)
            assert probs[label] + np.delete(probs, label).max() <= 1.0 + 1e-9
            assert one_row_weight(probs, label, 9) == pytest.approx(
                reference_weight(probs, label, 9), rel=1e-15)


class TestCovarianceSchedule:
    def test_zero_at_epoch_zero(self):
        assert covariance_schedule(0, 60) == 0.0

    def test_full_horizon(self):
        assert covariance_schedule(60, 60) == pytest.approx(CS_FULL, abs=1e-15)

    def test_half_horizon(self):
        assert covariance_schedule(30, 60) == pytest.approx(CS_HALF, abs=1e-15)

    @pytest.mark.parametrize("total", [1, 10, 60, 1000])
    def test_strictly_increasing(self, total):
        values = [covariance_schedule(e, total) for e in range(total + 1)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_epoch_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            covariance_schedule(61, 60)
        with pytest.raises(ValueError):
            covariance_schedule(0, 0)
        with pytest.raises(ValueError):
            covariance_schedule(-1, 60)


class TestSigmaFromAxisRatio:
    def test_ratio_one_is_isotropic(self):
        for orient in (ALONG_Y_EQ_X, ALONG_Y_EQ_NEG_X):
            np.testing.assert_allclose(sigma_from_axis_ratio(0.8, 1.0, orient),
                                       np.diag([0.8, 0.8]), atol=0)

    def test_ratio_two_anti_diagonal(self):
        sigma = sigma_from_axis_ratio(0.8, 2.0, ALONG_Y_EQ_NEG_X)
        np.testing.assert_allclose(sigma, [[0.8, -0.48], [-0.48, 0.8]], rtol=1e-15)

    def test_ratio_six_diagonal(self):
        sigma = sigma_from_axis_ratio(0.8, 6.0, ALONG_Y_EQ_X)
        off = 0.8 * 35.0 / 37.0  # = 28/37
        np.testing.assert_allclose(sigma, [[0.8, off], [off, 0.8]], rtol=1e-15)
        assert sigma[0, 1] == pytest.approx(0.7567567567567568, rel=1e-15)

    @pytest.mark.parametrize("ratio,orient,direction", [
        (2.0, ALONG_Y_EQ_NEG_X, np.array([1.0, -1.0])),
        (6.0, ALONG_Y_EQ_X, np.array([1.0, 1.0])),
        (3.5, ALONG_Y_EQ_X, np.array([1.0, 1.0])),
    ])
    def test_eigendecomposition_oracle(self, ratio, orient, direction):
        sigma = sigma_from_axis_ratio(0.8, ratio, orient)
        eigvals, eigvecs = np.linalg.eigh(sigma)
        assert eigvals[1] / eigvals[0] == pytest.approx(ratio ** 2, abs=1e-9)
        major = eigvecs[:, 1]
        unit = direction / np.linalg.norm(direction)
        assert abs(abs(major @ unit) - 1.0) < 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sigma_from_axis_ratio(0.0, 2.0, ALONG_Y_EQ_X)
        with pytest.raises(ValueError):
            sigma_from_axis_ratio(0.8, 0.5, ALONG_Y_EQ_X)
        with pytest.raises(ValueError):
            sigma_from_axis_ratio(0.8, 2.0, "diagonal")


class TestTrueKernel:
    def test_epoch_zero_is_isotropic(self):
        k = build_true_kernel(POLICY, 0)
        np.testing.assert_allclose(k.sigma, np.diag([0.8, 0.8]), atol=0)
        assert k.norm_const == pytest.approx(C_ISOTROPIC, rel=1e-14)

    def test_final_epoch_near_full_ellipse(self):
        k = build_true_kernel(POLICY, 60)
        expected_off = -0.48 * CS_FULL
        np.testing.assert_allclose(k.sigma, [[0.8, expected_off],
                                             [expected_off, 0.8]], rtol=1e-12)
        expected_c = 1.0 / (2.0 * math.pi * math.sqrt(0.64 - expected_off ** 2))
        assert k.norm_const == pytest.approx(expected_c, rel=1e-14)
        # close to, but slightly below, the fully elongated constant
        assert k.norm_const == pytest.approx(C_TRUE_FULL, abs=1e-4)

    @pytest.mark.parametrize("epoch", [0, 1, 17, 30, 59, 60])
    def test_mean_fixed_at_half_half(self, epoch):
        np.testing.assert_allclose(build_true_kernel(POLICY, epoch).mu, [0.5, 0.5])

    def test_positive_definite_over_all_epochs(self):
        for epoch in range(61):
            sigma = build_true_kernel(POLICY, epoch).sigma
            assert sigma[0, 0] > 0
            assert np.linalg.det(sigma) > 0


class TestFalseKernel:
    def test_mean(self):
        np.testing.assert_allclose(build_false_kernel(POLICY).mu, [0.3, 0.15])

    def test_sigma(self):
        off = 28.0 / 37.0
        np.testing.assert_allclose(build_false_kernel(POLICY).sigma,
                                   [[0.8, off], [off, 0.8]], rtol=1e-15)

    def test_norm_const(self):
        assert build_false_kernel(POLICY).norm_const == pytest.approx(
            C_FALSE, rel=1e-14)

    def test_constant_over_epochs(self):
        a = build_false_kernel(POLICY)
        b = build_false_kernel(POLICY)
        np.testing.assert_array_equal(a.sigma, b.sigma)


class TestGaussianWeight:
    def test_peak_at_mean(self):
        k = kernel_params([0.5, 0.5], np.diag([0.8, 0.8]))
        assert gaussian_weight([0.5, 0.5], k) == pytest.approx(C_ISOTROPIC, rel=1e-14)

    def test_off_mean_value(self):
        # quadratic form (1, 0) Sigma^-1 (1, 0) = 1/0.8 for Sigma = 0.8 I
        k = kernel_params([0.5, 0.5], np.diag([0.8, 0.8]))
        expected = 0.10648687774403312  # frozen: C * exp(-1/1.6), 40 digits
        assert gaussian_weight([1.5, 0.5], k) == pytest.approx(expected, rel=1e-14)

    def test_matches_brute_force_oracle(self):
        ok, detail = check_kernel_oracle(seed=21, n=2000)
        assert ok, detail

    def test_batched_oracle_equals_per_case_linear_algebra(self):
        # The stacked oracle reproduces, bit for bit, the per-case triple
        # and density: numpy's inverse and determinant of one 2x2 matrix,
        # d @ inv @ d, and math.exp.
        draws = Rng(2024).uniforms(7 * 1000).reshape(-1, 7)
        points, means, sigmas = random_kernel_cases(draws)
        refs = brute_force_gaussian(points, means, sigmas)
        for row, p, mu, sigma, ref in zip(draws.tolist(), points, means, sigmas, refs):
            px, py, mx, my, ua, ub, urho = row
            a, b = 0.1 + 1.9 * ua, 0.1 + 1.9 * ub
            off = (-0.95 + 1.9 * urho) * math.sqrt(a * b)
            assert p.tolist() == [px, py] and mu.tolist() == [mx, my]
            assert sigma.tolist() == [[a, off], [off, b]]
            d = p - mu
            quad = float(d @ np.linalg.inv(sigma) @ d)
            const = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(sigma)))
            assert ref == const * math.exp(-0.5 * quad)

    def test_oracle_check_sees_the_training_density(self, monkeypatch):
        # The oracle reaches the density naw_weights uses, so an error of
        # 1e-9 in it fails the 1e-10 check.
        density = naw._density
        monkeypatch.setattr(naw, "_density",
                            lambda x, y, k: density(x, y, k) * (1.0 + 1e-9))
        ok, _ = check_kernel_oracle(seed=21, n=100)
        assert not ok

    def test_oracle_check_fails_on_a_nan_density(self, monkeypatch):
        monkeypatch.setattr(naw, "_density", lambda x, y, k: np.float64(np.nan))
        ok, detail = check_kernel_oracle(seed=21, n=100)
        assert not ok and detail == "max rel err=nan over 100 triples"

    def test_many_matches_scalar(self):
        rng = Rng(22)
        k = build_true_kernel(POLICY, 13)
        pts = np.array([[rng.random(), rng.random()] for _ in range(64)])
        singles = [gaussian_weight(p, k) for p in pts]
        np.testing.assert_array_equal(naw._density(pts[:, 0], pts[:, 1], k.constants), singles)

    def test_bounded_by_norm_const(self):
        rng = Rng(23)
        k = build_false_kernel(POLICY)
        pts = np.array([[rng.random(), rng.random()] for _ in range(500)])
        w = naw._density(pts[:, 0], pts[:, 1], k.constants)
        assert np.all(w > 0.0)
        assert np.all(w <= k.norm_const + 1e-15)

    def test_rejects_non_spd_covariance(self):
        for sigma in ([[1.0, 2.0], [2.0, 1.0]],    # indefinite
                      [[1.0, 0.5], [0.4, 1.0]],    # not symmetric
                      [[1.0, 1.0], [1.0, 1.0]],    # singular
                      [[1e-6, 0.0], [0.0, 2e-7]],  # det ~2e-13: singular within 1e-12
                      [[np.inf, 0.0], [0.0, 1.0]],
                      [[1.0, np.nan], [np.nan, 1.0]]):
            with pytest.raises(ValueError):
                kernel_params([0.0, 0.0], sigma)


class TestKernelStacks:
    """One kernel is the no-leading-axes case of a stack of kernels."""

    GOOD_MU = [0.3, 0.15]
    GOOD_SIGMA = [[0.8, 0.2], [0.2, 0.8]]

    @staticmethod
    def one_kernel_error(mu, sigma) -> str:
        with pytest.raises(ValueError) as err:
            kernel_params(mu, sigma)
        return str(err.value)

    @pytest.mark.parametrize("mu, sigma", [
        ([np.nan, 0.1], [[0.8, 0.2], [0.2, 0.8]]),     # non-finite mean
        ([0.3, 0.15], [[np.inf, 0.2], [0.2, 0.8]]),    # non-finite covariance
        ([0.3, 0.15], [[0.8, 0.2], [0.1, 0.8]]),       # asymmetric
        ([0.3, 0.15], [[-0.8, 0.0], [0.0, -0.8]]),     # a <= 0 (det > 0)
        ([0.3, 0.15], [[0.0, 0.0], [0.0, 0.8]]),       # a == 0
        ([0.3, 0.15], [[1.0, 1.0], [1.0, 1.0]]),       # singular
        ([0.3, 0.15], [[1e-6, 0.0], [0.0, 2e-7]]),     # det ~2e-13 <= 1e-12
    ])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_one_bad_kernel_fails_the_stack_with_its_message(self, mu, sigma, at):
        message = self.one_kernel_error(mu, sigma)
        means = np.array([self.GOOD_MU] * 7)
        sigmas = np.array([self.GOOD_SIGMA] * 7)
        means[at], sigmas[at] = mu, sigma
        with pytest.raises(ValueError) as err:
            kernel_params(means, sigmas)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:  # and on two leading axes
            kernel_params(means.reshape(7, 1, 2), sigmas.reshape(7, 1, 2, 2))
        assert str(err.value) == message

    def test_first_rule_broken_names_the_error(self):
        # The same order as one kernel's: finite, symmetric, positive definite.
        means = np.array([self.GOOD_MU] * 3)
        sigmas = np.array([[[1.0, 1.0], [1.0, 1.0]], [[0.8, 0.2], [0.1, 0.8]],
                           [[np.nan, 0.0], [0.0, 0.8]]])
        with pytest.raises(ValueError, match="only finite values"):
            kernel_params(means, sigmas)
        with pytest.raises(ValueError, match="symmetric"):
            kernel_params(means[:2], sigmas[:2])

    @pytest.mark.parametrize("mu_shape, sigma_shape", [
        ((3, 2), (4, 2, 2)), ((3, 2), (2, 2)), ((2,), (3, 2, 2)),
        ((3, 2), (1, 3, 2, 2)), ((2, 3, 2), (3, 2, 2, 2)),
    ])
    def test_leading_axes_must_match(self, mu_shape, sigma_shape):
        mu = np.broadcast_to(self.GOOD_MU, mu_shape)
        sigma = np.broadcast_to(self.GOOD_SIGMA, sigma_shape)
        with pytest.raises(ValueError, match="stacks differ"):
            kernel_params(mu, sigma)

    @pytest.mark.parametrize("mu_shape, sigma_shape", [
        ((3,), (2, 2)), ((2,), (2, 3)), ((4, 3), (4, 2, 2)), ((), (2, 2)),
    ])
    def test_kernel_axes_must_be_2_and_2x2(self, mu_shape, sigma_shape):
        with pytest.raises(ValueError, match="must have shape"):
            kernel_params(np.zeros(mu_shape), np.ones(sigma_shape))

    def test_stack_equals_one_kernel_calls_bit_for_bit(self):
        points, means, sigmas = random_kernel_cases(Rng(98).uniforms(7 * 500).reshape(-1, 7))
        stack = kernel_params(means, sigmas)
        singles = [kernel_params(m, s) for m, s in zip(means, sigmas)]
        assert stack.constants.shape == (6, 500) and stack.norm_const.shape == (500,)
        assert all(type(k.norm_const) is float for k in singles)
        np.testing.assert_array_equal(stack.constants,
                                      np.stack([k.constants for k in singles], axis=1))
        np.testing.assert_array_equal(stack.norm_const, [k.norm_const for k in singles])
        np.testing.assert_array_equal(stack.mu, means)
        np.testing.assert_array_equal(stack.sigma, sigmas)
        # Leading axes are kept: a (20, 25) stack is the same kernels.
        grid = kernel_params(means.reshape(20, 25, 2), sigmas.reshape(20, 25, 2, 2))
        assert grid.constants.tobytes() == stack.constants.reshape(6, 20, 25).tobytes()
        for arr in (stack.mu, stack.sigma, stack.constants, stack.norm_const):
            assert not arr.flags.writeable

    def test_one_kernel_weights_equal_the_stacked_call_bit_for_bit(self):
        # One point on one kernel takes scalar numpy arithmetic; the stack
        # takes array loops.  Squares by multiplication make them agree.
        points, means, sigmas = random_kernel_cases(Rng(99).uniforms(7 * 20_000).reshape(-1, 7))
        stacked = gaussian_weight(points, kernel_params(means, sigmas))
        singles = [gaussian_weight(p, kernel_params(m, s))
                   for p, m, s in zip(points, means, sigmas)]
        assert all(type(w) is float for w in singles[:10])
        np.testing.assert_array_equal(stacked, singles)

    def test_points_broadcast_against_one_kernel(self):
        k = build_true_kernel(POLICY, 13)
        pts = Rng(97).uniforms(2 * 24).reshape(4, 6, 2)
        w = gaussian_weight(pts, k)
        assert w.shape == (4, 6)
        np.testing.assert_array_equal(w.ravel(), [gaussian_weight(p, k)
                                                  for p in pts.reshape(-1, 2)])

    def test_epoch_kernels_are_pinned(self):
        # constants and norm_const of both kernels at epochs 0..60, as the
        # one-kernel judge on Python floats built them before kernels stacked.
        digest = hashlib.sha256()
        for e in range(61):
            for k in epoch_kernels(WeightPolicy(), e):
                assert type(k.norm_const) is float and k.constants.shape == (6,)
                digest.update(k.constants.tobytes())
                digest.update(np.float64(k.norm_const).tobytes())
        assert digest.hexdigest() == (
            "f045e59f89dea280cc13a5be0908e218708bf709d5d7e6fbac862878a0b9a1ad")


class TestNawWeight:
    def test_tie_point_epoch_zero(self):
        # (0.5, 0.5) ties, so the true branch applies and sits at its mean.
        probs = [0.5, 0.5, 0.0]
        assert one_row_weight(probs, 0, 0) == pytest.approx(C_ISOTROPIC, rel=1e-14)

    def test_false_kernel_peak_value(self):
        # The false-branch mean (0.3, 0.15) itself lies in the true-prediction
        # region (gt >= nn), so the peak is asserted on the kernel directly.
        k = build_false_kernel(POLICY)
        assert gaussian_weight([0.3, 0.15], k) == pytest.approx(C_FALSE, rel=1e-14)

    def test_noisy_sample_weight_below_false_peak(self):
        probs = np.zeros(7)
        probs[1] = 0.95
        probs[0] = 0.02
        probs[2:] = 0.03 / 5
        for epoch in (0, 30, 60):
            w_noisy = one_row_weight(probs, 0, epoch)
            peak = gaussian_weight([0.3, 0.15], build_false_kernel(POLICY))
            assert w_noisy < peak

    def test_false_branch_used_when_wrong(self):
        probs = [0.2, 0.5, 0.3]
        k = build_false_kernel(POLICY)
        assert one_row_weight(probs, 0, 7) == pytest.approx(
            gaussian_weight([0.2, 0.5], k), rel=1e-15)

    def test_invariant_under_permuting_non_gt_entries(self):
        probs = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        w = one_row_weight(probs, 0, 11)
        rng = Rng(31)
        for _ in range(20):
            tail = probs[1:].copy()
            tail = tail[rng.permutation(tail.size)]
            shuffled = np.concatenate([[probs[0]], tail])
            assert one_row_weight(shuffled, 0, 11) == pytest.approx(w, rel=1e-15)

    def test_bounded_by_branch_constants(self):
        rng = Rng(32)
        for _ in range(500):
            z = rng.normals(7, scale=4.0)
            probs = softmax(z)
            label = rng.below(7)
            epoch = rng.below(61)
            w = one_row_weight(probs, label, epoch)
            c_true = build_true_kernel(POLICY, epoch).norm_const
            c_false = build_false_kernel(POLICY).norm_const
            assert 0.0 < w <= max(c_true, c_false)

    @pytest.mark.parametrize("t", [0.05, 0.15, 0.35])
    def test_weight_grows_with_epoch_along_anti_diagonal(self, t):
        # Elongation toward y = -x plus the growing normalizing constant:
        # off the mean along y = -x, every epoch raises the weight.
        point = np.array([0.5 + t, 0.5 - t])
        w = [gaussian_weight(point, build_true_kernel(POLICY, e)) for e in range(61)]
        assert all(b > a for a, b in zip(w, w[1:]))

    @pytest.mark.parametrize("t", [0.4, 0.5])
    def test_weight_shrinks_with_epoch_along_diagonal(self, t):
        # Along y = x the exponent penalty and the growing normalizing
        # constant compete; the penalty wins at every schedule step for
        # displacements of roughly 0.4 and beyond.
        point = np.array([0.5 + t, 0.5 + t])
        w = [gaussian_weight(point, build_true_kernel(POLICY, e)) for e in range(61)]
        assert all(b < a for a, b in zip(w, w[1:]))

    @pytest.mark.parametrize("t", [0.05, 0.15, 0.35])
    def test_contour_shape_narrows_along_diagonal(self, t):
        # The shape statement holds at every displacement once the
        # normalizing constant is divided out.
        point = np.array([0.5 + t, 0.5 + t])
        shape = []
        for e in range(61):
            k = build_true_kernel(POLICY, e)
            shape.append(gaussian_weight(point, k) / k.norm_const)
        assert all(b < a for a, b in zip(shape, shape[1:]))

    def test_batch_matches_scalar(self):
        rng = Rng(33)
        z = rng.normals(40 * 7, scale=3.0).reshape(40, 7)
        probs = softmax(z)
        labels = np.array([rng.below(7) for _ in range(40)])
        batch = naw_weights(probs, labels, epoch_kernels(POLICY, 21))
        singles = [reference_weight(probs[i], labels[i], 21) for i in range(40)]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)


    @pytest.mark.parametrize("epoch", [0, 13, 60])
    def test_one_density_per_row_equals_both_densities(self, epoch):
        # The parent formula: both kernels' densities on every row at the
        # label-masked maximum, then np.where on the branch.  The weights
        # must equal it bit for bit, with K = 7 and K = 2, on ties
        # (p_gt == p_nn) and on rows whose other probabilities are all 0.
        def density(x, y, k):
            dx = x - k.mu[0]
            dy = y - k.mu[1]
            inv_xx, inv_xy, inv_yy = k.constants[2:5]
            q = inv_xx * dx ** 2 + 2.0 * inv_xy * dx * dy + inv_yy * dy ** 2
            return k.norm_const * np.exp(-0.5 * q)

        rng = Rng(34 + epoch)
        n = 600
        kernels = epoch_kernels(POLICY, epoch)
        for k in (7, 2):
            z = rng.normals(n * k, scale=3.0).reshape(n, k)
            labels = np.array([rng.below(k) for _ in range(n)])
            for i in range(0, n, 3):  # a tie p_gt == p_nn on every third row
                z[i, labels[i]] = z[i, (labels[i] + 1) % k] = z[i].max()
            for i in range(1, n, 6):  # the label takes all the mass
                z[i] = -400.0
                z[i, labels[i]] = 400.0
            probs = softmax(z)
            rows = np.arange(n)
            p_gt = probs[rows, labels]
            p_nn = np.where(np.arange(k) == labels[:, None], -np.inf, probs).max(axis=1)
            assert (p_gt == p_nn).sum() == n // 3
            assert np.all(p_gt[1::6] == 1.0) and np.all(p_nn[1::6] == 0.0)
            expected = np.where(p_gt >= p_nn, density(p_gt, p_nn, kernels[0]),
                                density(p_gt, p_nn, kernels[1]))
            assert naw_weights(probs, labels, kernels).tobytes() == expected.tobytes()


class TestWeightPolicyValidation:
    def test_defaults_are_valid(self):
        policy = WeightPolicy()
        assert policy.total_epochs == 60

    def test_bad_fields_rejected(self):
        # Each value is a bool, is no real number, or gives a kernel that
        # kernel_params or its builders reject.
        for fields in ({"sigma_diag": 0.0}, {"axis_ratio_true": 0.9},
                       {"total_epochs": 0}, {"sigma_diag": np.nan},
                       {"axis_ratio_false": np.nan}, {"mu_true": (0.5, 0.5, 0.5)},
                       {"mu_false": (np.nan, 0.1)}, {"sigma_diag": 1e-7},
                       {"sigma_diag": True}, {"axis_ratio_true": True},
                       {"axis_ratio_false": True}, {"total_epochs": True},
                       {"mu_true": (True, 0.5)}, {"mu_false": (0.3, True)},
                       {"mu_true": np.array([0.5, True], dtype=object)},
                       {"sigma_diag": "0.8"}, {"mu_false": ("0.3", 0.15)}):
            with pytest.raises(ValueError):
                WeightPolicy(**fields)


def kernel_bytes(kernel) -> bytes:
    return (kernel.mu.tobytes() + kernel.sigma.tobytes() + kernel.constants.tobytes()
            + np.float64(kernel.norm_const).tobytes())


class TestEpochKernelsMemo:
    def test_repeated_call_returns_the_built_pair(self):
        policy = WeightPolicy(total_epochs=60)
        for epoch in (0, 17, 60):
            pair = epoch_kernels(policy, epoch)
            assert epoch_kernels(policy, epoch) is pair
            assert kernel_bytes(pair[0]) == kernel_bytes(build_true_kernel(policy, epoch))
            assert kernel_bytes(pair[1]) == kernel_bytes(build_false_kernel(policy))
            for kernel in pair:
                for arr in (kernel.mu, kernel.sigma, kernel.constants):
                    assert not arr.flags.writeable

    def test_each_new_pair_is_built_once(self, monkeypatch):
        built = []
        real = naw.kernel_params

        def counting(mu, sigma):
            built.append(1)
            return real(mu, sigma)

        policy = WeightPolicy(total_epochs=10)  # builds epoch 10's pair
        monkeypatch.setattr(naw, "kernel_params", counting)
        for _ in range(3):
            for epoch in range(11):
                epoch_kernels(policy, epoch)
        assert len(built) == 2 * 10

    def test_equal_policies_do_not_share_pairs(self):
        a, b = WeightPolicy(sigma_diag=0.7), WeightPolicy(sigma_diag=0.7)
        assert a == b and hash(a) == hash(b)
        assert epoch_kernels(a, 5) is not epoch_kernels(b, 5)
        other = WeightPolicy(sigma_diag=0.9)
        assert (kernel_bytes(epoch_kernels(other, 5)[0])
                != kernel_bytes(epoch_kernels(a, 5)[0]))

    def test_fields_equality_hash_pickle_and_dict_ignore_the_pairs(self):
        used, fresh = WeightPolicy(axis_ratio_true=3.0), WeightPolicy(axis_ratio_true=3.0)
        for epoch in range(61):
            epoch_kernels(used, epoch)
        assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == used
        assert kernel_bytes(epoch_kernels(back, 30)[0]) == kernel_bytes(
            epoch_kernels(used, 30)[0])
        assert (TrainConfig(policy=used).to_dict()
                == TrainConfig(policy=fresh).to_dict())

    def test_list_means_are_accepted(self):
        policy = WeightPolicy(mu_true=[0.4, 0.6], mu_false=[0.3, 0.1])
        pair = epoch_kernels(policy, 12)
        assert epoch_kernels(policy, 12) is pair
        assert kernel_bytes(pair[0]) == kernel_bytes(build_true_kernel(policy, 12))
        assert pair[1].mu.tolist() == [0.3, 0.1]
