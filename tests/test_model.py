"""Predictors: init, forward/backward, gradient checker, checkpoints."""

import numpy as np
import pytest

from nla.losses import batch_total
from nla.model import (Arch, Gradients, backward, forward, gradient_check,
                       init_params, load_checkpoint, save_checkpoint)
from nla.naw import WeightPolicy, epoch_kernels, naw_weights
from nla.numkit import Rng, softmax
from nla.selfcheck import draw_kink_safe_batch, frozen_loss_fn

MLP = Arch(input_dim=8, hidden_dim=16, n_classes=7)
LINEAR = Arch(input_dim=8, hidden_dim=0, n_classes=7)


class TestInit:
    def test_same_seed_same_parameters(self):
        a = init_params(MLP, Rng(5))
        b = init_params(MLP, Rng(5))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_start_at_zero(self):
        params = init_params(MLP, Rng(6))
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_linear_parameter_count(self):
        assert LINEAR.param_count == 8 * 7 + 7
        assert MLP.param_count == 8 * 16 + 16 + 16 * 7 + 7

    def test_fan_in_scaling(self):
        big = Arch(input_dim=400, hidden_dim=0, n_classes=10)
        params = init_params(big, Rng(7))
        std = params.weights[0].std()
        assert std == pytest.approx(1.0 / np.sqrt(400), rel=0.05)


class TestForward:
    def test_zero_parameters_give_uniform_softmax(self):
        params = init_params(MLP, Rng(8))
        for w in params.weights:
            w[:] = 0.0
        logits = forward(params, np.ones((4, 8))).logits
        np.testing.assert_array_equal(logits, 0.0)
        np.testing.assert_allclose(softmax(logits), 1.0 / 7.0, atol=1e-15)

    def test_linear_one_hot_selects_weight_column(self):
        params = init_params(LINEAR, Rng(9))
        x = np.zeros((1, 8))
        x[0, 3] = 1.0
        logits = forward(params, x).logits
        np.testing.assert_allclose(logits[0], params.weights[0][3], rtol=1e-15)

    def test_batch_order_equivariance(self):
        params = init_params(MLP, Rng(10))
        x = Rng(11).normals(6 * 8).reshape(6, 8)
        logits = forward(params, x).logits
        perm = Rng(12).permutation(6)
        np.testing.assert_array_equal(forward(params, x[perm]).logits, logits[perm])

    def test_dimension_mismatch_rejected(self):
        params = init_params(MLP, Rng(13))
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 5)))


class TestBackward:
    def test_zero_logit_gradients_give_zero_parameter_gradients(self):
        params = init_params(MLP, Rng(14))
        trace = forward(params, np.ones((3, 8)))
        grads = backward(params, trace, np.zeros_like(trace.logits))
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, 0.0)

    def test_linear_closed_form(self):
        params = init_params(LINEAR, Rng(15))
        x = Rng(16).normals(5 * 8).reshape(5, 8)
        trace = forward(params, x)
        g = Rng(17).normals(5 * 7).reshape(5, 7)
        grads = backward(params, trace, g)
        np.testing.assert_allclose(grads.weights[0], x.T @ g, rtol=1e-12)
        np.testing.assert_allclose(grads.biases[0], g.sum(axis=0), rtol=1e-12)

    def test_trace_model_mismatch_rejected(self):
        mlp_params = init_params(MLP, Rng(18))
        lin_params = init_params(LINEAR, Rng(19))
        trace = forward(lin_params, np.ones((2, 8)))
        with pytest.raises(ValueError):
            backward(mlp_params, trace, np.zeros((2, 7)))

    def test_gradients_accumulate(self):
        params = init_params(MLP, Rng(20))
        x = Rng(21).normals(4 * 8).reshape(4, 8)
        trace = forward(params, x)
        g = np.ones_like(trace.logits)
        a = backward(params, trace, g)
        b = backward(params, trace, g)
        a.add_(b)
        c = backward(params, trace, 2.0 * g)
        for ga, gc in zip(a.weights, c.weights):
            np.testing.assert_allclose(ga, gc, rtol=1e-12)


class TestGradientCheck:
    def test_quadratic_loss(self):
        params = init_params(Arch(4, 0, 3), Rng(22))

        def quadratic(p):
            loss = 0.5 * sum(float((a * a).sum()) for a in p.weights + p.biases)
            return loss, Gradients(weights=[w.copy() for w in p.weights],
                                   biases=[b.copy() for b in p.biases])

        result = gradient_check(params, quadratic, tolerance=1e-8)
        assert result.max_rel_error < 1e-8
        assert result.passed

    def test_full_pipeline_mlp(self):
        rng = Rng(23)
        params = init_params(MLP, Rng(24))
        x = draw_kink_safe_batch(params, rng)
        xf = x.copy()
        xf[:, 0] = -xf[:, 0]
        labels = np.array([rng.below(7) for _ in range(32)])
        policy = WeightPolicy(total_epochs=60)
        probs = softmax(forward(params, x).logits)
        weights = naw_weights(probs, labels, epoch_kernels(policy, 20))
        fn = frozen_loss_fn(x, xf, labels, 20, policy, 0.5, weights)
        result = gradient_check(params, fn, tolerance=1e-6)
        assert result.passed, result

    def test_failure_reports_offending_coordinate(self):
        params = init_params(Arch(3, 0, 2), Rng(25))

        def broken(p):
            loss = 0.5 * sum(float((a * a).sum()) for a in p.weights + p.biases)
            grads = Gradients(weights=[2.0 * w for w in p.weights],
                              biases=[b.copy() for b in p.biases])
            return loss, grads

        result = gradient_check(params, broken, tolerance=1e-6)
        assert not result.passed
        kind, layer, flat = result.worst_coordinate
        assert kind == "W" and layer == 0
        assert 0 <= flat < params.weights[0].size

    def test_sampled_subset_requires_at_least_200(self):
        params = init_params(MLP, Rng(26))
        with pytest.raises(ValueError):
            gradient_check(params, lambda p: (0.0, Gradients.zeros_like(p)),
                           max_coords=50, rng=Rng(0))


class TestOptimizerContinuity:
    def test_vanishing_learning_rate_leaves_predictions_fixed(self):
        from nla.trainer import AdamState, TrainConfig, adam_step

        rng = Rng(27)
        params = init_params(MLP, Rng(28))
        x = rng.normals(16 * 8).reshape(16, 8)
        labels = np.array([rng.below(7) for _ in range(16)])
        before = forward(params, x).logits.copy()
        cfg = TrainConfig(epochs=60, seed=0)
        state = AdamState.zeros_like(params)
        trace = forward(params, x)
        loss = batch_total(trace.logits, trace.logits, labels,
                           epoch_kernels(cfg.policy, 0), 0.5, mode="nla")
        grads = backward(params, trace, loss.grad_z)
        adam_step(params, grads, state, lr=1e-12, cfg=cfg)
        after = forward(params, x).logits
        assert np.abs(after - before).max() < 1e-8


class TestCheckpoint:
    @pytest.mark.parametrize("arch", [MLP, LINEAR])
    def test_bit_exact_round_trip(self, arch, tmp_path):
        params = init_params(arch, Rng(29))
        # make values irregular so truncation would be caught
        for w in params.weights:
            w *= np.pi
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == params.arch
        assert loaded.seed == params.seed
        for a, b in zip(loaded.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, params.biases):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(LINEAR, Rng(30))
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(Exception):
            load_checkpoint(path)
