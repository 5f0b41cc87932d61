"""Loss values, identities, and analytic-gradient fidelity."""

import numpy as np
import pytest

from nla.losses import (BatchLoss, batch_total, consistency_loss,
                        cross_entropy, naw_ce_loss)
from nla.naw import WeightPolicy, epoch_kernels, naw_weights
from nla.numkit import Rng, softmax

POLICY = WeightPolicy(total_epochs=60)
LN7 = 1.9459101490553133       # frozen 40-digit ln 7
TWO_LN2 = 1.3862943611198906   # frozen 40-digit 2 ln 2


def fd_gradient(fn, z, h=1e-5):
    """Central-difference gradient of a scalar function of a logit vector."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    for i in range(z.size):
        up = z.copy()
        up[i] += h
        down = z.copy()
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-6):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
    np.testing.assert_array_less(np.abs(analytic - numeric) / scale, rtol)


class TestCrossEntropy:
    def test_confident_correct_prediction_loss_vanishes(self):
        loss, _ = cross_entropy([40.0, 0.0, 0.0], 0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_seven_way(self):
        loss, _ = cross_entropy([0.0] * 7, 3)
        assert loss == pytest.approx(LN7, rel=1e-15)

    def test_grad_entries_sum_to_zero(self):
        rng = Rng(41)
        for _ in range(100):
            z = rng.normals(6, scale=5.0)
            _, grad = cross_entropy(z, rng.below(6))
            assert abs(grad.sum()) < 1e-12

    def test_grad_is_softmax_minus_onehot(self):
        z = np.array([1.0, -2.0, 0.5, 3.0])
        _, grad = cross_entropy(z, 2)
        expected = softmax(z)
        expected[2] -= 1.0
        np.testing.assert_allclose(grad, expected, rtol=1e-15)

    def test_grad_matches_finite_differences(self):
        rng = Rng(42)
        for _ in range(100):
            z = rng.normals(5, scale=3.0)
            label = rng.below(5)
            _, grad = cross_entropy(z, label)
            numeric = fd_gradient(lambda v: cross_entropy(v, label)[0], z)
            assert_grad_close(grad, numeric)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.0, 0.0], 2)

    @pytest.mark.parametrize("label", [1.5, "1", True])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ValueError, match="label must have an integer dtype"):
            cross_entropy([0.0, 0.0], label)

    @pytest.mark.parametrize("label", [[1], np.array([1]), np.array([[1]]), []])
    def test_non_scalar_label_rejected(self, label):
        with pytest.raises(ValueError, match=r"label must be a scalar, got .*\["):
            cross_entropy([0.0, 0.0], label)

    @pytest.mark.parametrize("logits, label, expected", [
        ([700.0, 0.0, -700.0], 2, 1400.0),
        ([-700.0] * 4, 0, np.log(4.0)),
    ])
    def test_log_sum_exp_at_large_magnitudes(self, logits, label, expected):
        # ce = logsumexp(z) - z[label]; a naive exp overflows or underflows.
        loss, grad = cross_entropy(logits, label)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx(expected, rel=1e-12)


class TestNawCeLoss:
    def test_reduces_to_ce_in_zero_weight_limit(self):
        # With the weight pinned at 0 the loss is exactly cross-entropy.
        rng = Rng(40)
        z = rng.normals(7, scale=3.0).reshape(1, 7)
        label = np.array([rng.below(7)])
        batch = batch_total(z[None], label, epoch_kernels(POLICY, 30), 0.5,
                            mode="naw", frozen_weights=np.zeros(1))
        ce, _ = cross_entropy(z[0], label[0])
        assert batch.total[0] == ce

    def test_noisy_sample_weight_is_strongly_suppressed(self):
        # A confidently mislabeled sample sits far from the false kernel
        # mean across its narrow axis, so its multiplier is nearly 1.
        z = np.zeros(7)
        z[1] = 30.0
        z[0] = -30.0
        _, w, _ = naw_ce_loss(z, 0, 30, POLICY)
        assert w < 1e-3

    def test_tie_point_weight(self):
        # logits giving probabilities (0.5, 0.5, ~0) tie on the labeled
        # class, so the epoch-0 true kernel peaks: w = 1 / (2 pi 0.8).
        z = np.array([10.0, 10.0, -30.0])
        weighted, w, _ = naw_ce_loss(z, 0, 0, POLICY)
        ce, _ = cross_entropy(z, 0)
        assert w == pytest.approx(0.19894367886486917, rel=1e-9)
        assert weighted == pytest.approx((1.0 + w) * ce, rel=1e-15)

    @pytest.mark.parametrize("label", [[1], np.array([1])])
    def test_non_scalar_label_rejected(self, label):
        with pytest.raises(ValueError, match=r"label must be a scalar, got .*\[1\]"):
            naw_ce_loss([0.0, 0.0, 0.0], label, 0, POLICY)

    def test_weight_is_pointwise_multiplier(self):
        rng = Rng(43)
        for _ in range(200):
            z = rng.normals(7, scale=4.0)
            label = rng.below(7)
            epoch = rng.below(61)
            ce, ce_grad = cross_entropy(z, label)
            weighted, w, grad = naw_ce_loss(z, label, epoch, POLICY)
            assert weighted == pytest.approx((1.0 + w) * ce, rel=1e-12)
            np.testing.assert_allclose(grad, (1.0 + w) * ce_grad, rtol=1e-12)
            assert weighted >= ce
            if ce > 0.0:
                assert weighted > ce

    def test_grad_matches_finite_differences_with_frozen_weight(self):
        rng = Rng(44)
        for _ in range(100):
            z = rng.normals(7, scale=2.0)
            label = rng.below(7)
            epoch = rng.below(61)
            _, w, grad = naw_ce_loss(z, label, epoch, POLICY)
            numeric = fd_gradient(
                lambda v: (1.0 + w) * cross_entropy(v, label)[0], z)
            assert_grad_close(grad, numeric)


class TestConsistencyLoss:
    def test_identical_views_give_zero(self):
        rng = Rng(45)
        for _ in range(100):
            z = rng.normals(7, scale=6.0)
            loss, ga, gb = consistency_loss(z, z)
            assert loss == 0.0
            np.testing.assert_array_equal(ga, 0.0)
            np.testing.assert_array_equal(gb, 0.0)

    def test_opposite_point_masses_reach_two_ln_two(self):
        loss, _, _ = consistency_loss([500.0, -500.0], [-500.0, 500.0])
        assert loss == pytest.approx(TWO_LN2, rel=1e-12)

    def test_symmetry_is_exact(self):
        rng = Rng(46)
        for _ in range(200):
            za = rng.normals(5, scale=5.0)
            zb = rng.normals(5, scale=5.0)
            l1, ga1, gb1 = consistency_loss(za, zb)
            l2, ga2, gb2 = consistency_loss(zb, za)
            assert l1 == l2
            np.testing.assert_array_equal(ga1, gb2)
            np.testing.assert_array_equal(gb1, ga2)

    def test_bounds_over_random_pairs(self):
        rng = Rng(47)
        upper = TWO_LN2 + 1e-9
        for _ in range(5000):
            za = rng.normals(4, scale=10.0)
            zb = rng.normals(4, scale=10.0)
            loss, _, _ = consistency_loss(za, zb)
            assert 0.0 <= loss <= upper

    def test_zero_iff_equal_distributions(self):
        # shift invariance of softmax: equal distributions, zero loss
        z = np.array([0.3, -1.0, 2.0])
        loss, _, _ = consistency_loss(z, z + 5.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        loss2, _, _ = consistency_loss(z, z + np.array([0.1, 0.0, 0.0]))
        assert loss2 > 0.0

    def test_grads_match_finite_differences(self):
        rng = Rng(48)
        for _ in range(100):
            za = rng.normals(6, scale=3.0)
            zb = rng.normals(6, scale=3.0)
            _, ga, gb = consistency_loss(za, zb)
            num_a = fd_gradient(lambda v: consistency_loss(v, zb)[0], za)
            num_b = fd_gradient(lambda v: consistency_loss(za, v)[0], zb)
            assert_grad_close(ga, num_a)
            assert_grad_close(gb, num_b)

    def test_extreme_logits_stay_finite(self):
        loss, ga, gb = consistency_loss([700.0, -700.0, 0.0], [0.0, 700.0, -700.0])
        assert np.isfinite(loss)
        assert np.all(np.isfinite(ga))
        assert np.all(np.isfinite(gb))


def one_row_total(z, zf, label: int, epoch: int, lam: float) -> BatchLoss:
    """The blended loss of one sample: a one-row call of batch_total."""
    return batch_total(np.array([[z], [zf]]), np.array([label]),
                       epoch_kernels(POLICY, epoch), lam, mode="nla")


class TestTotalLoss:
    def test_lambda_one_disables_regularizer_gradient(self):
        rng = Rng(49)
        z = rng.normals(7, scale=2.0)
        zf = rng.normals(7, scale=2.0)
        bd = one_row_total(z, zf, 2, 10, lam=1.0)
        assert bd.total[0] == pytest.approx(bd.naw_ce[0], rel=1e-15)
        np.testing.assert_array_equal(bd.grad[1], 0.0)

    def test_linear_combination(self):
        rng = Rng(50)
        z = rng.normals(7, scale=2.0)
        zf = rng.normals(7, scale=2.0)
        bd = one_row_total(z, zf, 1, 20, lam=0.5)
        assert bd.total[0] == pytest.approx(0.5 * bd.naw_ce[0] + 0.5 * bd.reg[0],
                                            rel=1e-12)
        assert bd.naw_ce[0] == pytest.approx((1.0 + bd.weight[0]) * bd.ce[0], rel=1e-12)
        assert 0.0 <= bd.reg[0] <= TWO_LN2 + 1e-9

    def test_component_arithmetic(self):
        # direct check of the blend on fixed components
        assert 0.5 * 2.0 + 0.5 * 0.4 == pytest.approx(1.2)

    def test_invariants_over_random_draws(self):
        rng = Rng(51)
        for _ in range(200):
            z = rng.normals(7, scale=3.0)
            zf = rng.normals(7, scale=3.0)
            label = rng.below(7)
            epoch = rng.below(61)
            bd = one_row_total(z, zf, label, epoch, lam=0.5)
            ce, weight, naw_ce, reg, total = (float(a[0]) for a in (
                bd.ce, bd.weight, bd.naw_ce, bd.reg, bd.total))
            assert abs(naw_ce - (1.0 + weight) * ce) < 1e-12 * max(1.0, naw_ce)
            assert abs(total - (0.5 * naw_ce + 0.5 * reg)) < 1e-12
            assert reg >= 0.0
            assert reg <= TWO_LN2 + 1e-9
            assert weight > 0.0

    def test_grads_match_finite_differences_with_frozen_weight(self):
        rng = Rng(52)
        for _ in range(100):
            z = rng.normals(7, scale=2.0)
            zf = rng.normals(7, scale=2.0)
            label = rng.below(7)
            epoch = rng.below(61)
            bd = one_row_total(z, zf, label, epoch, lam=0.5)
            w = bd.weight[0]

            def frozen(v, vf):
                ce, _ = cross_entropy(v, label)
                reg, _, _ = consistency_loss(v, vf)
                return 0.5 * (1.0 + w) * ce + 0.5 * reg

            num_z = fd_gradient(lambda v: frozen(v, zf), z)
            num_zf = fd_gradient(lambda vf: frozen(z, vf), zf)
            assert_grad_close(bd.grad_z[0], num_z)
            assert_grad_close(bd.grad[1][0], num_zf)


class TestBatchTotal:
    def _draw(self, rng, n=16, k=7):
        z = rng.normals(n * k, scale=3.0).reshape(n, k)
        zf = rng.normals(n * k, scale=3.0).reshape(n, k)
        labels = np.array([rng.below(k) for _ in range(n)])
        return z, zf, labels

    def test_matches_per_sample_op(self):
        rng = Rng(53)
        z, zf, labels = self._draw(rng)
        batch = batch_total(np.array((z, zf)), labels, epoch_kernels(POLICY, 15), 0.5,
                            mode="nla")
        for i in range(len(labels)):
            bd = one_row_total(z[i], zf[i], labels[i], 15, 0.5)
            assert batch.total[i] == pytest.approx(bd.total[0], rel=1e-12)
            np.testing.assert_allclose(batch.grad_z[i] * len(labels),
                                       bd.grad_z[0], rtol=1e-9, atol=1e-15)

    def test_mode_ce_zeroes_weight_and_reg(self):
        rng = Rng(54)
        z, zf, labels = self._draw(rng)
        batch = batch_total(np.array((z, zf)), labels, epoch_kernels(POLICY, 15), 0.5,
                            mode="ce")
        np.testing.assert_array_equal(batch.weight, 0.0)
        np.testing.assert_array_equal(batch.reg, 0.0)
        np.testing.assert_array_equal(batch.total, batch.ce)
        assert len(batch.grad) == 1  # no gradient for the mirrored view

    def test_mode_naw_total_is_weighted_ce(self):
        rng = Rng(55)
        z, zf, labels = self._draw(rng)
        batch = batch_total(np.array((z, zf)), labels, epoch_kernels(POLICY, 15), 0.5,
                            mode="naw")
        np.testing.assert_allclose(batch.total, (1.0 + batch.weight) * batch.ce,
                                   rtol=1e-12)
        np.testing.assert_array_equal(batch.reg, 0.0)

    def test_batch_mean_is_order_invariant(self):
        rng = Rng(56)
        z, zf, labels = self._draw(rng, n=32)
        batch = batch_total(np.array((z, zf)), labels, epoch_kernels(POLICY, 7), 0.5,
                            mode="nla")
        perm = Rng(57).permutation(32)
        shuffled = batch_total(np.array((z[perm], zf[perm])), labels[perm],
                               epoch_kernels(POLICY, 7), 0.5, mode="nla")
        assert abs(batch.total.mean() - shuffled.total.mean()) < 1e-12
        assert abs(batch.ce.mean() - shuffled.ce.mean()) < 1e-12

    def test_frozen_weights_are_used_verbatim(self):
        rng = Rng(58)
        z, zf, labels = self._draw(rng, n=8)
        frozen = np.full(8, 0.25)
        batch = batch_total(np.array((z, zf)), labels, epoch_kernels(POLICY, 3), 0.5,
                            mode="nla", frozen_weights=frozen)
        np.testing.assert_array_equal(batch.weight, frozen)
        np.testing.assert_allclose(batch.naw_ce, 1.25 * batch.ce, rtol=1e-15)

    @pytest.mark.parametrize("mode", ["naw", "nla"])
    def test_nearest_negative_from_the_gradient_matches_naw_weights(self, mode):
        # The loss weights its softmax rows as naw_weights weights the
        # same probabilities given directly, also on ties (p_gt == p_nn)
        # and on rows whose other probabilities underflow to 0.
        rng = Rng(60)
        n, k = 48, 7
        z = rng.normals(n * k, scale=3.0).reshape(n, k)
        labels = np.array([rng.below(k) for _ in range(n)])
        for i in range(0, n, 4):  # a tie between the label and another class
            z[i, labels[i]] = z[i, (labels[i] + 1) % k] = z[i].max() + 1.0
        for i in range(1, n, 4):  # the label takes all the mass
            z[i] = -400.0
            z[i, labels[i]] = 400.0
        for i in range(2, n, 8):  # another class takes all the mass
            z[i] = -400.0
            z[i, (labels[i] + 3) % k] = 400.0
        probs = softmax(z)
        rows = np.arange(n)
        others = np.where(np.arange(k) == labels[:, None], -np.inf, probs)
        p_gt, p_nn = probs[rows, labels], others.max(axis=1)
        assert (p_gt == p_nn).sum() == n // 4
        assert np.all(p_nn[1::4] == 0.0) and np.all(p_gt[1::4] == 1.0)
        assert np.all(p_gt[2::8] == 0.0)
        kernels = epoch_kernels(POLICY, 25)
        batch = batch_total(np.array((z, z[:, ::-1])), labels, kernels, 0.5, mode=mode)
        assert batch.weight.tobytes() == naw_weights(probs, labels, kernels).tobytes()
