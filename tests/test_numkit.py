"""Numeric foundation: softmax stability, 2x2 algebra, random source."""

import numpy as np
import pytest

from nla.numkit import (Rng, SingularMatrixError, derive_seed, log_softmax,
                        logsumexp, mat2_det, mat2_inverse, softmax)


class TestSoftmax:
    def test_two_zeros_is_half_half(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], rtol=0, atol=0)

    @pytest.mark.parametrize("c", [-3.0, 0.0, 1.5, 100.0])
    def test_constant_logits_are_uniform(self, c):
        np.testing.assert_allclose(softmax([c, c, c]), [1 / 3] * 3, atol=1e-15)

    def test_reference_values(self):
        # Frozen from a 40-digit evaluation of exp-normalization.
        expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), expected, rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = Rng(3)
        z = rng.normals(50 * 9, scale=5.0).reshape(50, 9)
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = Rng(4)
        for _ in range(200):
            z = rng.normals(6, scale=10.0)
            shift = rng.normal(scale=50.0)
            np.testing.assert_allclose(softmax(z), softmax(z + shift), atol=1e-9)

    def test_extreme_logits_do_not_overflow(self):
        p = softmax([700.0, -700.0])
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_rejects_single_category(self):
        with pytest.raises(ValueError):
            softmax([1.0])


class TestLogSoftmax:
    def test_matches_logits_minus_logsumexp(self):
        rng = Rng(5)
        for _ in range(200):
            z = rng.normals(7, scale=200.0)
            np.testing.assert_allclose(log_softmax(z), z - logsumexp(z), atol=1e-9)

    def test_large_magnitudes_stay_finite(self):
        z = np.array([700.0, 0.0, -700.0])
        out = log_softmax(z)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, z - logsumexp(z), atol=1e-9)

    def test_logsumexp_of_equal_entries(self):
        np.testing.assert_allclose(logsumexp([-700.0] * 4), -700.0 + np.log(4.0))


class TestMat2:
    def test_det_identity(self):
        assert mat2_det(np.eye(2)) == 1.0

    def test_det_diagonal(self):
        assert mat2_det(np.diag([0.8, 0.8])) == pytest.approx(0.64, rel=1e-15)

    def test_det_true_branch_covariance(self):
        m = [[0.8, -0.48], [-0.48, 0.8]]
        assert mat2_det(m) == pytest.approx(0.4096, rel=1e-15)

    def test_inverse_identity(self):
        np.testing.assert_allclose(mat2_inverse(np.eye(2)), np.eye(2), atol=0)

    def test_inverse_diagonal(self):
        np.testing.assert_allclose(mat2_inverse(np.diag([0.8, 0.8])),
                                   np.diag([1.25, 1.25]), rtol=1e-15)

    def test_inverse_matches_brute_force_solve(self):
        m = np.array([[0.8, -0.48], [-0.48, 0.8]])
        np.testing.assert_allclose(mat2_inverse(m), np.linalg.solve(m, np.eye(2)),
                                   atol=1e-12)

    def test_product_with_inverse_is_identity(self):
        rng = Rng(6)
        for _ in range(500):
            m = rng.normals(4, scale=2.0).reshape(2, 2)
            if abs(mat2_det(m)) <= 1e-6:
                continue
            np.testing.assert_allclose(m @ mat2_inverse(m), np.eye(2), atol=1e-9)

    def test_near_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat2_inverse([[1.0, 1.0], [1.0, 1.0]])

    def test_spd_quadratic_form_nonnegative(self):
        rng = Rng(7)
        for _ in range(300):
            a = 0.2 + rng.random()
            b = 0.2 + rng.random()
            rho = -0.9 + 1.8 * rng.random()
            m = np.array([[a, rho * np.sqrt(a * b)], [rho * np.sqrt(a * b), b]])
            inv = mat2_inverse(m)
            v = rng.normals(2, scale=3.0)
            assert v @ inv @ v >= 0.0


class TestRng:
    def test_fixed_seed_repeats_exactly(self):
        a = Rng(123456789)
        b = Rng(123456789)
        stream_a = [a.next_u64() for _ in range(100_000)]
        stream_b = [b.next_u64() for _ in range(100_000)]
        assert stream_a == stream_b

    def test_reference_stream(self):
        # Regression vector for the documented seeding; any change to the
        # generator breaks every persisted experiment.
        r0 = Rng(0)
        assert [r0.next_u64() for _ in range(3)] == [
            11091344671253066420, 13793997310169335082, 1900383378846508768]
        r42 = Rng(42)
        assert [r42.next_u64() for _ in range(3)] == [
            1546998764402558742, 6990951692964543102, 12544586762248559009]

    def test_uniform_range(self):
        rng = Rng(9)
        draws = [rng.random() for _ in range(10_000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_below_bounds_and_coverage(self):
        rng = Rng(10)
        draws = [rng.below(7) for _ in range(10_000)]
        assert set(draws) == set(range(7))

    def test_normal_moments(self):
        rng = Rng(11)
        x = rng.normals(50_000)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02

    def test_permutation_is_a_permutation(self):
        rng = Rng(12)
        perm = rng.permutation(1000)
        assert sorted(perm.tolist()) == list(range(1000))

    @pytest.mark.parametrize("seed", [0, 12, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3500])
    def test_permutation_is_fisher_yates_on_below(self, seed, n):
        fast, ref = Rng(seed), Rng(seed)
        expected = list(range(n))
        for i in range(n - 1, 0, -1):
            j = ref.below(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        perm = fast.permutation(n)
        assert perm.dtype == np.int64
        assert perm.tolist() == expected
        assert fast.next_u64() == ref.next_u64()

    def test_choice_without_replacement(self):
        rng = Rng(13)
        picked = rng.choice(100, 40)
        assert len(set(picked.tolist())) == 40
        assert all(0 <= i < 100 for i in picked)

    def test_split_streams_differ_from_parent_and_siblings(self):
        rng = Rng(14)
        parent = [Rng(14).next_u64() for _ in range(4)]
        kids = [rng.split(k) for k in range(3)]
        streams = [[kid.next_u64() for _ in range(4)] for kid in kids]
        assert all(s != parent for s in streams)
        assert streams[0] != streams[1] != streams[2]

    def test_split_is_deterministic(self):
        assert Rng(99).split(5).seed == Rng(99).split(5).seed

    def test_derive_seed_stable(self):
        assert derive_seed(7, "train-base") == derive_seed(7, "train-base")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")
