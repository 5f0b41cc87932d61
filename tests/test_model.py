"""Predictors: init, forward/backward, gradient checker, checkpoints."""

import warnings

import numpy as np
import pytest

import nla.cli
import nla.model
import nla.selfcheck
import nla.trainer
from nla.losses import batch_total
from nla.data import mirror
from nla.model import (_FD_STEP, Arch, ForwardTrace, ModelParams, _layer_views,
                       backward, forward, gradient_check, init_params, load_checkpoint,
                       save_checkpoint)
from nla.naw import WeightPolicy, epoch_kernels
from nla.numkit import Rng, softmax
from nla.selfcheck import (POLICY60, check_gradient_fidelity,
                           draw_kink_safe_batch, frozen_loss_fn)
from nla.trainer import train_step

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

    @pytest.mark.parametrize("arch", [MLP, LINEAR])
    @pytest.mark.parametrize("n", [0, 1, 2, 511, 512, 513, 514, 1025, 1400])
    def test_logits_only_chunks_equal_one_pass(self, arch, n):
        # A logits-only forward runs the rows in chunks; its logits must
        # equal one unchunked pass bit for bit, on both sides of an edge.
        params = init_params(arch, Rng(14))
        x = Rng(15).normals(n * 8).reshape(n, 8)
        trace = forward(params, x, logits_only=True)
        np.testing.assert_array_equal(trace.logits, forward(params, x).logits)
        w, b = params.weights, params.biases
        whole = x @ w[0] + b[0]
        if arch.hidden_dim:
            whole = np.maximum(whole, 0.0) @ w[1] + b[1]
        np.testing.assert_array_equal(trace.logits, whole)
        assert trace.layer_inputs == []

    def test_logits_only_trace_rejected_by_backward(self):
        params = init_params(MLP, Rng(16))
        trace = forward(params, np.ones((3, 8)), logits_only=True)
        with pytest.raises(ValueError, match="does not match"):
            backward(params, trace, np.ones((3, 7)))

    def test_dimension_mismatch_rejected(self):
        params = init_params(MLP, Rng(13))
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 5)))
        # A stack of R vectors takes one block of rows per run: (n, d) rows
        # are not broadcast over it, and one vector takes no run axis.
        stack = ModelParams(MLP, np.stack([params.flat] * 3))
        for p, shape in ((stack, (4, 8)), (stack, (2, 4, 8)), (params, (3, 4, 8))):
            for logits_only in (False, True):
                with pytest.raises(ValueError, match="inputs must be"):
                    forward(p, np.ones(shape), logits_only)

    @pytest.mark.parametrize("arch", [MLP, LINEAR])
    @pytest.mark.parametrize("runs", [1, 7, 50])
    def test_stacked_forward_equals_solo(self, arch, runs):
        # A stack of R parameter vectors gives (R, n, K) logits whose run r
        # is the solo forward of vector r, bit for bit.
        solo = [init_params(arch, Rng(100 + r)) for r in range(runs)]
        stack = ModelParams(arch, np.stack([p.flat for p in solo]))
        for n in (1, 32):
            x = Rng(17 + n).normals(runs * n * 8).reshape(runs, n, 8)
            for logits_only in (False, True):
                logits = forward(stack, x, logits_only).logits
                assert logits.shape == (runs, n, 7)
                for r, params in enumerate(solo):
                    np.testing.assert_array_equal(logits[r], forward(params, x[r]).logits)


class TestBackward:
    def test_zero_logit_gradients_give_zero_parameter_gradients(self):
        params = init_params(MLP, Rng(14))
        trace = forward(params, np.ones((3, 8)))
        grad = backward(params, trace, np.zeros_like(trace.logits))
        np.testing.assert_array_equal(grad, 0.0)

    def test_linear_closed_form(self):
        params = init_params(LINEAR, Rng(15))
        x = Rng(16).normals(5 * 8).reshape(5, 8)
        trace = forward(params, x)
        g = Rng(17).normals(5 * 7).reshape(5, 7)
        (d_w,), (d_b,) = _layer_views(backward(params, trace, g), LINEAR.layer_shapes)
        np.testing.assert_allclose(d_w, x.T @ g, rtol=1e-12)
        np.testing.assert_allclose(d_b, g.sum(axis=0), rtol=1e-12)

    def test_relu_kink_passes_no_gradient(self):
        # A hidden unit whose pre-activation is exactly 0 takes the left
        # limit of the ReLU's slope, 0; just above 0 it passes gradient.
        params = init_params(MLP, Rng(18))
        params.weights[0][:, 3] = 0.0
        x = Rng(19).normals(5 * 8).reshape(5, 8)
        g = Rng(20).normals(5 * 7).reshape(5, 7)
        for bias, passes in ((0.0, False), (1e-300, True)):
            params.biases[0][3] = bias
            d_w, d_b = _layer_views(backward(params, forward(params, x), g),
                                    MLP.layer_shapes)
            assert (d_b[0][3] != 0.0) == passes
            assert np.any(d_w[0][:, 3] != 0.0) == passes

    def test_trace_model_mismatch_rejected(self):
        mlp_params = init_params(MLP, Rng(18))
        lin_params = init_params(LINEAR, Rng(19))
        trace = forward(lin_params, np.ones((2, 8)))
        with pytest.raises(ValueError):
            backward(mlp_params, trace, np.zeros((2, 7)))

    @pytest.mark.parametrize("arch", [MLP, LINEAR])
    @pytest.mark.parametrize("runs", [1, 7, 50])
    def test_stacked_backward_equals_solo(self, arch, runs):
        # A stack of R parameter vectors gives an (R, P) gradient whose
        # row r is the solo backward of vector r, bit for bit.
        solo = [init_params(arch, Rng(200 + r)) for r in range(runs)]
        stack = ModelParams(arch, np.stack([p.flat for p in solo]))
        for n in (1, 12, 32):
            x = Rng(40 + n).normals(runs * n * 8).reshape(runs, n, 8)
            g = Rng(60 + n).normals(runs * n * 7).reshape(runs, n, 7)
            grad = backward(stack, forward(stack, x), g)
            assert grad.shape == (runs, arch.param_count)
            for r, params in enumerate(solo):
                np.testing.assert_array_equal(
                    grad[r], backward(params, forward(params, x[r]), g[r]))

    @pytest.mark.parametrize("arch", [MLP, LINEAR])
    @pytest.mark.parametrize("n", [12, 32])
    def test_views_axis_equals_sum_of_per_view_backwards(self, arch, n):
        # One backward over a (2, n, K) trace of a batch and its mirrored
        # view, as a training step runs it, gives each view's solo
        # gradient as a row; one np.add of the rows is the old
        # `grad += backward(view 1)`, bit for bit, also through buffers.
        params = init_params(arch, Rng(70))
        x = Rng(71 + n).normals(n * 8).reshape(n, 8)
        views = np.array((x, mirror(x)))
        solo = [forward(params, v) for v in views]
        g = Rng(72 + n).normals(2 * n * 7).reshape(2, n, 7)
        trace = ForwardTrace(np.array([t.logits for t in solo]),
                             [np.array(ins) for ins in zip(*(t.layer_inputs for t in solo))])
        expected = backward(params, solo[0], g[0])
        expected += backward(params, solo[1], g[1])
        out = ModelParams(arch, np.empty((2, arch.param_count)))
        for grads in (backward(params, trace, g), backward(params, trace, g, out=out)):
            assert grads.shape == (2, arch.param_count)
            for view in range(2):
                assert grads[view].tobytes() == backward(params, solo[view], g[view]).tobytes()
            assert np.add(grads[0], grads[1]).tobytes() == expected.tobytes()
        assert grads is out.flat

    def test_gradients_accumulate(self):
        params = init_params(MLP, Rng(20))
        x = Rng(21).normals(4 * 8).reshape(4, 8)
        trace = forward(params, x)
        g = np.ones_like(trace.logits)
        a = backward(params, trace, g)
        a += backward(params, trace, g)
        c = backward(params, trace, 2.0 * g)
        np.testing.assert_allclose(a, c, rtol=1e-12)


class TestGradientCheck:
    def test_quadratic_loss(self):
        params = init_params(Arch(4, 0, 3), Rng(22))

        result = gradient_check(params, params.flat.copy(), self._quadratic(params))
        assert result.max_rel_error < 1e-8
        assert result.passed

    def test_full_pipeline_mlp(self):
        rng = Rng(23)
        params = init_params(MLP, Rng(24))
        x, xf = draw_kink_safe_batch(params, rng)
        labels = np.array([rng.below(7) for _ in range(32)])
        policy = WeightPolicy(total_epochs=60)
        grad, losses = frozen_loss_fn(params, x, xf, labels, 20, policy, 0.5)
        result = gradient_check(params, grad, losses)
        assert result.passed, result

    def test_failure_reports_offending_coordinate(self):
        params = init_params(Arch(3, 0, 2), Rng(25))
        grad = params.flat.copy()
        (w,), _ = _layer_views(grad, params.arch.layer_shapes)
        w *= 2.0
        result = gradient_check(params, grad, self._quadratic(params))
        assert not result.passed
        kind, layer, flat = result.worst_coordinate
        assert kind == "W" and layer == 0
        assert 0 <= flat < params.weights[0].size

    def test_sampled_check_is_pinned(self):
        # max_rel_error and worst_coordinate pinned from the coordinate-list
        # implementation: the sample and its (kind, layer, index) labels
        # follow the order all W, then all b.
        rng = Rng(23)
        params = init_params(MLP, Rng(24))
        x, xf = draw_kink_safe_batch(params, rng)
        labels = np.array([rng.below(7) for _ in range(32)])
        policy = WeightPolicy(total_epochs=60)
        grad, losses = frozen_loss_fn(params, x, xf, labels, 20, policy, 0.5)
        result = gradient_check(params, grad, losses, max_coords=200, rng=Rng(30))
        assert result.max_rel_error == 1.5538475429742536e-09
        assert result.worst_coordinate == ("W", 1, 59)
        assert result.n_checked == 200

    def test_fidelity_check_sees_the_training_step(self, monkeypatch):
        # A training step that drops the flipped view's gradient must fail
        # the check that nla check and criterion 4 run.
        real = nla.trainer.batch_total

        def without_flipped_gradient(*args, **kwargs):
            loss = real(*args, **kwargs)
            loss.grad[1][:] = 0.0
            return loss

        assert check_gradient_fidelity(77, 5)[0]
        monkeypatch.setattr(nla.trainer, "batch_total", without_flipped_gradient)
        assert not check_gradient_fidelity(77, 5)[0]

    def test_non_finite_stacked_logits_fail_the_check(self, monkeypatch, capsys):
        # A perturbed vector whose logits are not finite fails the check at
        # its coordinate instead of raising out of nla check.  The losses
        # take the (V, R, n, K) logits of both views from one pass.
        real = nla.selfcheck._dense_pass

        def inf_in_stacks(params, x, outs=None):
            logits, layer_inputs = real(params, x, outs)
            if logits.ndim == 4:
                logits[0, 0, 0, 0] = np.inf
            return logits, layer_inputs

        monkeypatch.setattr(nla.selfcheck, "_dense_pass", inf_in_stacks)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # nothing on stderr
            ok, detail = check_gradient_fidelity(77, 5)
            assert not ok and "nan" in detail
            assert nla.cli.main(["check"]) == 2
        assert "FAIL gradient-fidelity" in capsys.readouterr().out

    def test_sampled_subset_requires_at_least_200(self):
        params = init_params(MLP, Rng(26))
        with pytest.raises(ValueError):
            gradient_check(params, np.zeros_like(params.flat), self._zeros,
                           max_coords=50, rng=Rng(0))

    @staticmethod
    def _quadratic(params, nan_loss_at=None):
        """Losses 0.5 |p|^2 of a stack, whose gradient is p; with
        ``nan_loss_at``, NaN losses for the copies that perturb that
        flat position of ``params``."""
        def losses(stack):
            loss = 0.5 * (stack.flat * stack.flat).sum(axis=-1)
            if nan_loss_at is not None:
                loss[stack.flat[:, nan_loss_at] != params.flat[nan_loss_at]] = np.nan
            return loss
        return losses

    @staticmethod
    def _zeros(stack):
        return np.zeros(len(stack.flat))

    def test_nan_finite_difference_fails_at_its_coordinate(self):
        params = init_params(MLP, Rng(32))
        b0 = MLP.layer_shapes[0][0] * MLP.layer_shapes[0][1]  # flat position of b0[0]
        result = gradient_check(params, params.flat.copy(),
                                self._quadratic(params, nan_loss_at=b0 + 3))
        assert np.isnan(result.max_rel_error)
        assert not result.passed
        assert result.worst_coordinate == ("b", 0, 3)

    def test_nan_analytic_entry_fails_at_its_coordinate(self):
        params = init_params(MLP, Rng(33))
        grad = params.flat.copy()
        grad[[200, 210]] = np.nan  # W1[56] and W1[66], after W0 and b0 (144)
        result = gradient_check(params, grad, self._quadratic(params))
        assert np.isnan(result.max_rel_error)
        assert not result.passed
        assert result.worst_coordinate == ("W", 1, 56)

    def test_ties_go_to_the_first_checked_coordinate(self):
        # Every finite difference is 0, so the error is 1 wherever the
        # claimed gradient is 1.  Checking order is all W, then all b, so
        # W1's entry wins over b0's although b0 comes first in the vector.
        params = init_params(MLP, Rng(34))
        grad = np.zeros_like(params.flat)
        grad[[130, 150]] = 1.0  # b0[2] and W1[6]
        result = gradient_check(params, grad, self._zeros)
        assert result.max_rel_error == 1.0
        assert result.worst_coordinate == ("W", 1, 6)

    def test_zero_errors_report_flat_position_0(self):
        params = init_params(MLP, Rng(35))
        zero = np.zeros_like(params.flat)
        result = gradient_check(params, zero, self._zeros, max_coords=200, rng=Rng(2))
        assert result.max_rel_error == 0.0 and result.passed
        assert result.worst_coordinate == ("W", 0, 0)

    def test_stacked_losses_equal_solo_training_steps(self):
        # Trial 0 of check_gradient_fidelity(77, ...): every perturbed loss
        # that gradient_check evaluates in stacks equals, bit for bit, the
        # batch mean of batch_total over a solo forward of both views at
        # that vector, with the training step's weights frozen; loss_fn
        # only ever sees stacks.
        rng = Rng(77)
        params = init_params(Arch(8, 64, 7), rng.split(0))
        draw = rng.split(10_000)
        x, xf = draw_kink_safe_batch(params, draw)
        labels = np.array([draw.below(7) for _ in range(32)])
        epoch = draw.below(61)
        grad, losses = frozen_loss_fn(params, x, xf, labels, epoch, POLICY60, 0.5)
        stacks = []

        def recording(stack):
            assert stack.flat.ndim == 2
            loss = losses(stack)
            stacks.append((stack.flat.copy(), loss))
            return loss

        gradient_check(params, grad, recording, max_coords=200, rng=draw)
        kernels = epoch_kernels(POLICY60, epoch)
        weights = train_step(params, np.array((x, xf)), labels, kernels, 0.5, "nla")[0].weight
        rows = 0
        for flats, losses in stacks:
            for flat, loss in zip(flats, losses):
                solo = ModelParams(params.arch, flat)
                logits = np.array((forward(solo, x).logits, forward(solo, xf).logits))
                total = batch_total(logits, labels, kernels, 0.5, mode="nla",
                                    frozen_weights=weights).total
                assert loss == total.mean()
                rows += 1
        assert rows == 400

    @pytest.mark.parametrize("size,coords", [(24, 200), (7, 200), (50, None)])
    def test_each_stacked_row_moves_only_its_own_coordinate(self, monkeypatch,
                                                            size, coords):
        # The stacks are rows of one reused buffer: every row a loss_fn is
        # handed differs from params.flat at its own coordinate only, by
        # +h or -h, and params.flat is untouched afterwards.  (7 and 50
        # leave a short last stack; with None every coordinate is checked.)
        monkeypatch.setattr(nla.model, "_GRAD_STACK", size)
        params = init_params(LINEAR if coords is None else MLP, Rng(36))
        before = params.flat.copy()
        seen = []

        def recording(stack):
            assert len(stack.flat) <= size
            seen.append(stack.flat.copy())
            return np.zeros(len(stack.flat))

        result = gradient_check(params, np.zeros_like(params.flat), recording,
                                max_coords=coords, rng=Rng(37))
        assert params.flat.tobytes() == before.tobytes()
        moved = []
        for stack in seen:
            for row in stack:
                (at,) = np.flatnonzero(row != before)
                assert row[at] in (before[at] + _FD_STEP, before[at] - _FD_STEP)
                moved.append((int(at), bool(row[at] > before[at])))
        m = result.n_checked
        assert len(moved) == 2 * m
        assert [up for _, up in moved] == [True] * m + [False] * m
        assert [at for at, _ in moved[:m]] == [at for at, _ in moved[m:]]

    @pytest.mark.parametrize("linear", [False, True])
    def test_stack_size_does_not_change_the_result(self, monkeypatch, linear):
        rng = Rng(23)
        params = init_params(LINEAR if linear else MLP, Rng(24))
        x, xf = draw_kink_safe_batch(params, rng)
        labels = np.array([rng.below(7) for _ in range(32)])
        grad, losses = frozen_loss_fn(params, x, xf, labels, 20, POLICY60, 0.5)
        results = []
        for size in (1, 7, 50):
            monkeypatch.setattr(nla.model, "_GRAD_STACK", size)
            results.append(gradient_check(params, grad, losses,
                                          max_coords=None if linear else 200, rng=Rng(30)))
        assert results[0] == results[1] == results[2]


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
        loss = batch_total(np.array((trace.logits, trace.logits)), labels,
                           epoch_kernels(cfg.policy, 0), 0.5, mode="nla")
        grad = backward(params, trace, loss.grad_z)
        adam_step(params, grad, state, lr=1e-12, cfg=cfg)
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

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(init_params(LINEAR, Rng(31)), path)
        blob = path.read_bytes()
        for cut in range(4 + 4 * 4 + 8 + 1):  # magic, u32 x 4, u64 seed
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(path)
