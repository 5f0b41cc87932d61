"""Training loop: determinism, optimizer contracts, metrics, persistence."""

import hashlib

import numpy as np
import pytest

import nla.naw
import nla.trainer
from nla.data import (Dataset, apply_imbalance, inject_noise, make_synthetic,
                      mirror, standard_instance)
from nla.losses import batch_total
from nla.model import (Arch, ModelParams, _dense_pass, backward, init_params,
                       load_checkpoint)
from nla.naw import WeightPolicy, epoch_kernels, naw_weights
from nla.numkit import Rng, softmax
from nla.trainer import (AdamState, SplitStack, TrainConfig, TrainingDiverged,
                         adam_step, collect_weight_stats, evaluate,
                         load_final_metrics, load_run_metrics, metrics_csv_text, run_group,
                         run_training, save_run_record, train_step)


def tiny_data(seed=1, k=3, d=4, n_train=40, n_test=30, spread=0.7):
    rng = Rng(seed)
    train = make_synthetic(k, d, n_train, spread, rng.split(0), "train")
    test = make_synthetic(k, d, n_test, spread, rng.split(1), "test")
    return train, test


def tiny_config(**overrides):
    fields = dict(mode="nla", epochs=3, seed=11, batch_size=16,
                  lr0=1e-3, hidden_dim=8)
    fields.update(overrides)
    return TrainConfig(**fields)


def spoiled(ds, fault, value):
    """``ds`` with one fault that a run rejects before its first step: a
    label set to ``value`` ("label"), labels cast to dtype ``value``
    ("dtype"), inputs holding ``value`` ("input"), one more input column
    ("dim"), or no row of class ``value`` ("lacks")."""
    inputs, labels = ds.inputs, ds.labels
    if fault == "label":
        labels = labels.copy()
        labels[-1] = value
    elif fault == "dtype":
        labels = labels.astype(value)
    elif fault == "input":
        inputs = inputs.copy()
        inputs[::2, 1] = value
    elif fault == "dim":
        inputs = np.hstack([inputs, inputs[:, :1]])
    else:
        inputs, labels = inputs[labels != value], labels[labels != value]
    return Dataset(inputs=inputs, labels=labels, n_classes=ds.n_classes, split=ds.split)


class TestTrainConfig:
    def test_policy_horizon_defaults_to_epochs(self):
        cfg = TrainConfig(epochs=17, seed=0)
        assert cfg.policy.total_epochs == 17

    def test_mismatched_policy_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, seed=0, policy=WeightPolicy(total_epochs=60))

    def test_round_trips_through_dict(self):
        cfg = tiny_config(lam=0.25, lr0=2e-4)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_bad_values_rejected(self):
        nan = float("nan")
        for fields in ({"mode": "fancy"}, {"lam": 1.5}, {"batch_size": 0},
                       {"lr0": nan}, {"weight_decay": nan}, {"eps": nan},
                       {"lr_gamma": np.inf}, {"weight_decay": np.inf},
                       {"beta1": 2.0}, {"beta2": -1.0}, {"beta1": nan}, {"beta2": 1.0},
                       {"hidden_dim": 0}, {"hidden_dim": -3},
                       {"lam": True}, {"lr0": True}, {"lr_gamma": True},
                       {"weight_decay": True}, {"eps": True}, {"beta1": False},
                       {"beta2": False}, {"lam": "0.5"}, {"lr0": None}):
            with pytest.raises(ValueError):
                TrainConfig(seed=0, **fields)
        # A bool or non-real policy number, with a horizon that fits epochs.
        for policy in ({"sigma_diag": True}, {"axis_ratio_true": True},
                       {"axis_ratio_false": True}, {"total_epochs": True},
                       {"mu_true": [True, 0.5]}, {"mu_false": [0.3, False]},
                       {"sigma_diag": "0.8"}):
            with pytest.raises(ValueError, match="must be a number"):
                TrainConfig.from_dict({"seed": 0, "epochs": 1, "policy": policy})
        # A linear head has no hidden layer to size.
        TrainConfig(seed=0, arch="linear", hidden_dim=0)

    @pytest.mark.parametrize("field", ["batch_size", "epochs", "seed", "hidden_dim"])
    @pytest.mark.parametrize("value", [2.5, 32.0, True, "8"])
    def test_non_integral_integer_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{"seed": 0, field: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(16), epochs=np.int32(3), seed=np.uint64(7),
                          hidden_dim=np.int64(8))
        assert cfg.policy.total_epochs == 3


class TestAdam:
    def test_zero_gradients_only_shrink_by_weight_decay(self):
        cfg = TrainConfig(epochs=5, seed=0, weight_decay=1e-4)
        params = init_params(Arch(4, 6, 3), Rng(2))
        reference = ModelParams(params.arch, params.flat.copy(), params.seed)
        state = AdamState.zeros_like(params)
        adam_step(params, np.zeros_like(params.flat), state, lr=1e-2, cfg=cfg)
        for p, r in zip(params.weights, reference.weights):
            np.testing.assert_allclose(p, r - 1e-2 * 1e-4 * r, rtol=0, atol=1e-12)

    def test_bias_corrected_first_step_magnitude(self):
        # with a constant gradient g, the first step is lr * g / (|g| + eps)
        cfg = TrainConfig(epochs=5, seed=0, weight_decay=0.0)
        params = init_params(Arch(2, 0, 2), Rng(3))
        reference = ModelParams(params.arch, params.flat.copy(), params.seed)
        state = AdamState.zeros_like(params)
        grad = np.concatenate([np.full(params.weights[0].size, 0.5),
                               np.zeros_like(params.biases[0])])
        adam_step(params, grad, state, lr=1e-3, cfg=cfg)
        expected_step = 1e-3 * 0.5 / (0.5 + cfg.eps)
        np.testing.assert_allclose(reference.weights[0] - params.weights[0],
                                   expected_step, rtol=1e-12)


class TestEvaluate:
    def _params_for(self, test):
        return init_params(Arch(test.dim, 0, test.n_classes), Rng(4))

    def test_perfect_predictor(self):
        _, test = tiny_data(spread=0.0)
        # a linear head on zero-spread data: build from class centers
        params = self._params_for(test)
        centers = test.meta["centers"]
        w = np.zeros((test.dim, test.n_classes))
        w[1:, :] = centers[:, 1:].T  # ignore the mirrored axis
        params.weights[0][:] = 10.0 * w
        params.biases[0][:] = 0.0
        result = evaluate(params, test)
        assert result.overall == 1.0
        assert result.mean == 1.0
        np.testing.assert_array_equal(result.confusion,
                                      np.diag(test.class_counts))

    def test_constant_predictor_on_balanced_split(self):
        _, test = tiny_data(k=7, d=8, n_test=20)
        params = self._params_for(test)
        for w in params.weights:
            w[:] = 0.0
        params.biases[0][:] = np.arange(7.0)  # always argmax class 6
        result = evaluate(params, test)
        assert result.overall == pytest.approx(1.0 / 7.0)
        assert result.mean == pytest.approx(1.0 / 7.0)

    def test_balanced_split_overall_equals_mean(self):
        _, test = tiny_data(k=4, d=5)
        params = init_params(Arch(5, 6, 4), Rng(5))
        result = evaluate(params, test)
        assert result.overall == pytest.approx(result.mean, abs=1e-12)

    def test_missing_class_rejected(self):
        _, test = tiny_data(k=3)
        broken = Dataset(inputs=test.inputs[test.labels != 2],
                         labels=test.labels[test.labels != 2],
                         n_classes=3, split="test")
        with pytest.raises(ValueError):
            evaluate(init_params(Arch(test.dim, 0, 3), Rng(6)), broken)

    def test_non_finite_input_rejected(self):
        _, test = tiny_data(k=3)
        test = spoiled(test, "input", np.nan)
        with pytest.raises(ValueError, match="test inputs must contain only finite"):
            evaluate(init_params(Arch(test.dim, 0, 3), Rng(6)), test)


@pytest.mark.parametrize("k", [2, 4, 5])
def test_model_of_another_class_count_rejected(k):
    # A 3-class split scored by a k-class model, before any forward.
    train, test = tiny_data(k=3)
    params = init_params(Arch(train.dim, 8, k), Rng(7))
    message = f"a {k}-class model cannot score 3-class splits"
    with pytest.raises(ValueError, match=message):
        evaluate(params, test)
    with pytest.raises(ValueError, match=message):
        collect_weight_stats(params, train, epoch_kernels(WeightPolicy(total_epochs=10), 4))


class TestWeightStats:
    def test_quartiles_ordered(self):
        train, _ = tiny_data()
        params = init_params(Arch(train.dim, 8, train.n_classes), Rng(7))
        policy = WeightPolicy(total_epochs=10)
        stats = collect_weight_stats(params, train, epoch_kernels(policy, 4))
        assert stats.shape == (train.n_classes, 3)
        assert np.all(stats[:, 0] <= stats[:, 1])
        assert np.all(stats[:, 1] <= stats[:, 2])

    def test_degenerate_distribution_collapses_quartiles(self):
        # all samples predicted identically: every weight equal per class
        train, _ = tiny_data(k=3, d=4, n_train=10)
        params = init_params(Arch(4, 0, 3), Rng(8))
        for w in params.weights:
            w[:] = 0.0
        policy = WeightPolicy(total_epochs=10)
        stats = collect_weight_stats(params, train, epoch_kernels(policy, 0))
        for k in range(3):
            assert stats[k, 0] == pytest.approx(stats[k, 2], rel=1e-12)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_out_of_range_rejected(self, bad):
        train, _ = tiny_data(k=3)
        labels = train.labels.copy()
        labels[-1] = bad
        train = Dataset(inputs=train.inputs, labels=labels, n_classes=3, split="train")
        params = init_params(Arch(train.dim, 8, 3), Rng(7))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            collect_weight_stats(params, train, epoch_kernels(WeightPolicy(total_epochs=10), 4))

    def test_non_finite_input_rejected(self):
        train, _ = tiny_data(k=3)
        train = spoiled(train, "input", np.inf)
        params = init_params(Arch(train.dim, 8, 3), Rng(7))
        with pytest.raises(ValueError, match="train inputs must contain only finite"):
            collect_weight_stats(params, train, epoch_kernels(WeightPolicy(total_epochs=10), 4))


class TestClassQuartiles:
    """The quartiles from a split stack's once-built class order equal
    numpy's per-class percentiles of each run."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equal_per_class_percentile(self, seed):
        rng = Rng(seed)
        for runs in (1, 3):
            self.check_runs(rng, runs, seed % 2)

    @staticmethod
    def check_runs(rng, runs, tied):
        # Absent classes, 1, 2 and 3 samples, and larger classes, in random
        # label order; half the cases draw from 4 values, so ties are common.
        sizes = [0, 1, 2, 3, 4, 7, 40]
        splits, values = [], []
        for _ in range(runs):
            order = rng.permutation(len(sizes))
            labels = np.concatenate([np.full(sizes[i], k) for k, i in enumerate(order)])
            labels = labels[rng.permutation(labels.size)]
            splits.append(Dataset(inputs=np.zeros((labels.size, 1)), labels=labels,
                                  n_classes=8, split="train"))
            if tied:
                values.append(np.array([0.05 * rng.below(4) for _ in range(labels.size)]))
            else:
                values.append(rng.normals(labels.size, scale=0.3) ** 2)
        stack = SplitStack(splits if runs > 1 else splits[0])
        got = nla.trainer._class_quartiles(np.concatenate(values), stack.class_order,
                                           stack.class_counts).reshape(runs, 8, 3)
        for r, (split, run_values) in enumerate(zip(splits, values)):
            for k in range(8):
                rows = split.labels == k
                expected = (np.percentile(run_values[rows], [25.0, 50.0, 75.0])
                            if rows.any() else np.full(3, np.nan))
                assert got[r, k].tobytes() == np.asarray(expected).tobytes(), (r, k)


def split_of(ds, n, split):
    """n rows of ``ds`` in shuffled order, every class among the first K."""
    order = Rng(99).permutation(ds.n)
    firsts = [int(order[np.flatnonzero(ds.labels[order] == k)[0]])
              for k in range(ds.n_classes)]
    rest = [int(i) for i in order if i not in firsts]
    rows = np.array(firsts + rest)[:n]
    return Dataset(inputs=ds.inputs[rows], labels=ds.labels[rows],
                   n_classes=ds.n_classes, split=split)


def whole_split_logits(params, inputs):
    """One unchunked pass of the split through the MLP."""
    w, b = params.weights, params.biases
    return np.maximum(inputs @ w[0] + b[0], 0.0) @ w[1] + b[1]


class TestChunkedPasses:
    """The per-epoch passes run the split through forward's row chunks;
    each must equal one unchunked whole-split pass bit for bit, on both
    sides of a chunk edge."""

    SIZES = [1, 511, 512, 513, 1400, 3500]

    @pytest.fixture(scope="class")
    def setting(self):
        train, _ = standard_instance(3)
        params = init_params(Arch(8, 64, 7), Rng(12))
        return train, params, epoch_kernels(WeightPolicy(total_epochs=60), 30)

    @pytest.mark.parametrize("n", SIZES)
    def test_weight_stats_equal_whole_split(self, setting, n):
        base, params, kernels = setting
        train = split_of(base, n, "train")
        probs = softmax(whole_split_logits(params, train.inputs))
        weights = naw_weights(probs, train.labels, kernels)
        expected = np.full((7, 3), np.nan)
        for k in range(7):
            if np.any(train.labels == k):
                expected[k] = np.percentile(weights[train.labels == k], [25.0, 50.0, 75.0])
        np.testing.assert_array_equal(collect_weight_stats(params, train, kernels),
                                      expected)

    # A split of one row cannot hold every class, which evaluate requires;
    # seven rows is the smallest split that can.
    @pytest.mark.parametrize("n", [7] + SIZES[1:])
    def test_evaluate_equals_whole_split(self, setting, n):
        base, params, _ = setting
        test = split_of(base, n, "test")
        preds = whole_split_logits(params, test.inputs).argmax(axis=1)
        confusion = np.zeros((7, 7), dtype=np.int64)
        np.add.at(confusion, (test.labels, preds), 1)
        result = evaluate(params, test)
        np.testing.assert_array_equal(result.confusion, confusion)
        per_class = np.diag(confusion) / confusion.sum(axis=1)
        np.testing.assert_array_equal(result.per_class, per_class)
        assert result.overall == float(np.trace(confusion) / n)
        assert result.mean == float(per_class.mean())


def rows_of(ds, n, seed, lacking=None):
    """n rows of ``ds`` in an order drawn from ``seed``, none of class
    ``lacking``."""
    keep = np.flatnonzero(ds.labels != lacking) if lacking is not None else np.arange(ds.n)
    rows = keep[Rng(seed).permutation(keep.size)[:n]]
    return Dataset(inputs=ds.inputs[rows], labels=ds.labels[rows],
                   n_classes=ds.n_classes, split=ds.split)


class TestStackedPasses:
    """The whole-split passes over a stack of R runs, each with its own
    parameters and splits, give each run the bits of its solo call, on
    both sides of forward's chunk edge; the last run's train split lacks
    class 3."""

    @pytest.fixture(scope="class")
    def setting(self):
        train, test = standard_instance(3)
        return train, test, epoch_kernels(WeightPolicy(total_epochs=60), 30)

    @pytest.mark.parametrize("n", [511, 512, 513])
    @pytest.mark.parametrize("runs", [1, 2, 5])
    def test_each_run_gets_its_solo_bits(self, setting, runs, n):
        base_train, base_test, kernels = setting
        solo = [init_params(Arch(8, 64, 7), Rng(20 + r)) for r in range(runs)]
        params = ModelParams(solo[0].arch, np.stack([p.flat for p in solo]))
        trains = [rows_of(base_train, n, 30 + r, lacking=3 if r == runs - 1 else None)
                  for r in range(runs)]
        tests = [rows_of(base_test, n, 40 + r) for r in range(runs)]
        stats = collect_weight_stats(params, SplitStack(trains), kernels)
        result = evaluate(params, SplitStack(tests))
        assert stats.shape == (runs, 7, 3)
        for r in range(runs):
            expected = collect_weight_stats(solo[r], trains[r], kernels)
            assert stats[r].tobytes() == expected.tobytes(), r
            assert np.isnan(expected[3]).all() == (r == runs - 1)
            one = evaluate(solo[r], tests[r])
            assert result.confusion[r].tobytes() == one.confusion.tobytes(), r
            assert result.per_class[r].tobytes() == one.per_class.tobytes(), r
            assert (result.overall[r], result.mean[r]) == (one.overall, one.mean), r

    def test_splits_of_a_stack_share_their_shape(self, setting):
        base_train, _, _ = setting
        with pytest.raises(ValueError, match="train splits of a stack must share"):
            SplitStack([rows_of(base_train, 40, 1), rows_of(base_train, 41, 2)])


class TestRunTraining:
    def test_bit_identical_repetition(self):
        train, test = tiny_data()
        cfg = tiny_config()
        a = run_training(cfg, train, test)
        b = run_training(tiny_config(), train, test)
        assert metrics_csv_text(a) == metrics_csv_text(b)
        for wa, wb in zip(a.params.weights, b.params.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seed_changes_the_run(self):
        train, test = tiny_data()
        a = run_training(tiny_config(seed=11), train, test)
        b = run_training(tiny_config(seed=12), train, test)
        assert metrics_csv_text(a) != metrics_csv_text(b)

    def test_learning_rate_schedule(self):
        train, test = tiny_data()
        cfg = tiny_config(epochs=4, lr0=1e-3, lr_gamma=0.9)
        record = run_training(cfg, train, test)
        for e, m in enumerate(record.metrics):
            assert m.lr == pytest.approx(1e-3 * 0.9 ** e, rel=1e-12)

    def test_mode_ce_has_zero_reg_and_total_equals_ce(self):
        train, test = tiny_data()
        record = run_training(tiny_config(mode="ce"), train, test)
        for m in record.metrics:
            assert m.loss_reg == 0.0
            assert m.loss_total == m.loss_ce
            assert m.loss_naw_ce == m.loss_ce

    def test_mode_nla_blends_components(self):
        train, test = tiny_data()
        record = run_training(tiny_config(mode="nla", lam=0.5), train, test)
        for m in record.metrics:
            assert m.loss_total == pytest.approx(
                0.5 * m.loss_naw_ce + 0.5 * m.loss_reg, rel=1e-9)
            assert m.loss_naw_ce > m.loss_ce  # multiplier strictly above 1

    def test_mean_accuracy_is_mean_of_per_class(self):
        train, test = tiny_data()
        record = run_training(tiny_config(), train, test)
        for m in record.metrics:
            assert m.test_mean == pytest.approx(float(m.per_class_acc.mean()),
                                                abs=1e-12)

    def test_training_reduces_loss_on_learnable_data(self):
        train, test = tiny_data(spread=0.3)
        record = run_training(tiny_config(epochs=10, mode="ce"), train, test)
        assert record.metrics[-1].loss_ce < record.metrics[0].loss_ce
        assert record.metrics[-1].test_overall > 1.0 / 3.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_guard_raises(self):
        train, test = tiny_data()
        cfg = tiny_config(lr0=1e150, epochs=2)
        with pytest.raises(TrainingDiverged) as info:
            run_training(cfg, train, test)
        # Update (0, 1) overflows the logits; step (0, 2) sees it.
        assert (info.value.epoch, info.value.batch) == (0, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_at_an_epochs_last_step_names_that_step(self):
        # One step per epoch; only the weight statistics see step (1, 0) overflow.
        train = make_synthetic(3, 4, 10, 0.7, Rng(1))
        test = make_synthetic(3, 4, 10, 0.7, Rng(2), split="test")
        cfg = TrainConfig(mode="nla", epochs=2, lr0=1e150, batch_size=64, hidden_dim=8)
        with pytest.raises(TrainingDiverged) as info:
            run_training(cfg, train, test)
        assert (info.value.epoch, info.value.batch) == (1, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard_covers_the_flipped_view(self, monkeypatch):
        def overflowing(inputs, image_shape=None):
            return np.asarray(inputs, dtype=np.float64) * 1e308

        train, test = tiny_data()
        assert not np.all(np.isfinite(overflowing(train.inputs)))
        monkeypatch.setattr(nla.trainer, "mirror", overflowing)
        # Infinite before any update: an input error, not a divergence.
        with pytest.raises(ValueError, match="non-finite logits before the first update"):
            run_training(tiny_config(mode="nla"), train, test)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_test_split_is_an_error(self):
        # Finite test inputs, which _check_splits accepts, whose logits
        # overflow: no accuracies are made from non-finite logits.
        train = make_synthetic(3, 4, 30, 0.7, Rng(1))
        test = make_synthetic(3, 4, 30, 0.7, Rng(2), split="test")
        test = Dataset(inputs=test.inputs * (1.7e308 / np.abs(test.inputs).max()),
                       labels=test.labels, n_classes=3, split="test")
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            run_training(TrainConfig(mode="ce", epochs=1, seed=0), train, test)

    def test_kernels_built_at_most_twice_per_epoch(self, monkeypatch):
        built = []
        real = nla.naw.kernel_params

        def counting(mu, sigma):
            built.append(1)
            return real(mu, sigma)

        train, test = tiny_data()
        cfg = tiny_config(mode="nla", epochs=3)  # builds its policy's kernels
        monkeypatch.setattr(nla.naw, "kernel_params", counting)
        run_training(cfg, train, test)
        assert 0 < len(built) <= 2 * 3

    def test_noisy_labels_accepted(self):
        train, test = tiny_data()
        noisy = inject_noise(train, 0.2, Rng(9))
        record = run_training(tiny_config(), noisy, test)
        assert len(record.metrics) == 3


def reference_run(config, train):
    """The training loop of run_training composed from unbuffered calls:
    per-view dense pass, batch_total, per-view backward summed in place, and
    adam_step.  Returns the final parameter vector and, per epoch, the
    loss sums (ce, naw_ce, reg, total)."""
    rng = Rng(config.seed)
    params = init_params(Arch(train.dim, config.hidden_dim, train.n_classes), rng.split(0))
    shuffle_rng = rng.split(1)
    state = AdamState.zeros_like(params)
    views = [train.inputs]
    if config.mode == "nla":
        views.append(mirror(train.inputs))
    epoch_sums = []
    for epoch in range(config.epochs):
        kernels = epoch_kernels(config.policy, epoch)
        perm = shuffle_rng.permutation(train.n)
        sums = np.zeros(4)
        for start in range(0, train.n, config.batch_size):
            rows = perm[start:start + config.batch_size]
            passes = [_dense_pass(params, v[rows]) for v in views]
            loss = batch_total(np.array([logits for logits, _ in passes]), train.labels[rows],
                               kernels, config.lam, mode=config.mode)
            grad = backward(params, passes[0][1], loss.grad_z)
            if config.mode == "nla":
                grad += backward(params, passes[1][1], loss.grad[1])
            adam_step(params, grad, state, config.lr0 * config.lr_gamma ** epoch, config)
            sums += [loss.ce.sum(), loss.naw_ce.sum(), loss.reg.sum(), loss.total.sum()]
        epoch_sums.append(sums / train.n)
    return params.flat, epoch_sums


@pytest.mark.parametrize("mode", ["ce", "naw", "nla"])
def test_buffered_steps_equal_the_reference_composition(mode):
    # 45 rows in batches of 16: two full batches and a trailing one of 13,
    # so both of a run's buffer sets are used, each on every epoch.
    train = make_synthetic(3, 4, 15, 0.7, Rng(1))
    test = make_synthetic(3, 4, 10, 0.7, Rng(2), split="test")
    config = tiny_config(mode=mode, epochs=4)
    record = run_training(config, train, test)
    flat, epoch_sums = reference_run(config, train)
    assert record.params.flat.tobytes() == flat.tobytes()
    for m, sums in zip(record.metrics, epoch_sums):
        assert [m.loss_ce, m.loss_naw_ce, m.loss_reg, m.loss_total] == sums.tolist()


@pytest.mark.parametrize("mode, shape", [
    ("nla", (1, 2, 16, 4)),  # one view in a mode of two
    ("ce", (2, 2, 16, 4)),   # two views in a mode of one
    ("nla", (2, 1, 16, 4)),  # one run's batch for a stack of two
    ("nla", (2, 16, 4)),     # no run axis for a stack
    ("nla", (2, 2, 16, 5)),  # rows of another dim
])
def test_step_rejects_inputs_of_another_shape(mode, shape):
    arch = Arch(input_dim=4, hidden_dim=8, n_classes=3)
    stack = ModelParams(arch, np.stack([init_params(arch, Rng(s)).flat for s in (1, 2)]))
    labels = np.zeros((2, 16), dtype=np.intp)
    with pytest.raises(ValueError, match=r"inputs must be \(\d, 2, n, 4\)"):
        train_step(stack, np.ones(shape), labels, epoch_kernels(WeightPolicy(), 0), 0.5, mode)


def test_step_buffers_are_reused(monkeypatch):
    # One buffer set per batch size of the run, however many steps.
    built = []
    real = nla.trainer.StepBuffers

    def counting(*args):
        built.append(args[1:])
        return real(*args)

    monkeypatch.setattr(nla.trainer, "StepBuffers", counting)
    train, test = tiny_data()  # 40 rows in batches of 16: 16, 16, 8
    run_training(tiny_config(mode="nla", epochs=3), train, test)
    assert sorted(built) == [(2, 8), (2, 16)]


def run_bytes(record, out_dir):
    """(metrics.csv, checkpoint.bin) bytes of a saved run record."""
    save_run_record(record, out_dir)
    return (out_dir / "metrics.csv").read_bytes(), (out_dir / "checkpoint.bin").read_bytes()


@pytest.fixture
def no_steps(monkeypatch):
    def step(*args, **kwargs):
        raise AssertionError("a training step ran before validation")

    monkeypatch.setattr(nla.trainer, "train_step", step)


def outcome_of(fn):
    """What a run gives: its record, or (type, message) of its error."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


class TestRunGroup:
    """Stacked runs give each run the bytes and errors of its solo run."""

    @staticmethod
    def imbalanced_runs(mode, count):
        # Standard instance at imbalance 100: n = 929, so every epoch ends
        # with a one-row batch.  Distinct seeds and noise draws per run.
        train, test = standard_instance(5)
        runs = []
        for r in range(count):
            rng = Rng(200 + r)
            ds = inject_noise(apply_imbalance(train, 100, rng.split(1)), 0.2, rng.split(0))
            runs.append((TrainConfig(mode=mode, epochs=2, seed=50 + r), ds, test))
        assert {ds.n for _, ds, _ in runs} == {929}
        return runs

    @pytest.mark.parametrize("mode", ["ce", "naw", "nla"])
    def test_members_give_their_solo_bytes(self, mode, tmp_path):
        runs = self.imbalanced_runs(mode, 5)
        solo = [run_bytes(run_training(*run), tmp_path / f"solo{r}")
                for r, run in enumerate(runs)]
        assert len(set(solo)) == 5
        for size in (1, 2, 5):
            got = []
            for lo in range(0, 5, size):
                records = run_group(runs[lo:lo + size])
                got += [run_bytes(record, tmp_path / f"g{size}_{lo + r}")
                        for r, record in enumerate(records)]
            assert got == solo, f"groups of {size}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["ce", "nla"])
    def test_the_first_member_to_fail_fails_the_group(self, mode, tmp_path):
        # At lr0 = 1e8 the weight decay term multiplies the weights by
        # about -1e4 per update, so the logits overflow the sooner the
        # larger the inputs: never within 3 epochs on the rows as they
        # are, at a later step on scaled rows, and before the first
        # update on rows of 1.7e308.
        train, test = tiny_data(n_train=40)

        def rows(inputs):
            return Dataset(inputs=inputs, labels=train.labels, n_classes=3, split="train")

        x = train.inputs
        datasets = [rows(x), rows(x * 1e200), rows(np.full_like(x, 1.7e308)),
                    rows(x * 1e150), rows(x)]
        runs = [(tiny_config(mode=mode, lr0=1e8, seed=11 + r), ds, test)
                for r, ds in enumerate(datasets)]
        solo = [outcome_of(lambda run=run: run_training(*run)) for run in runs]
        assert solo[1:4] == [(TrainingDiverged, "training diverged at epoch 1, batch 5"),
                             (ValueError, "non-finite logits before the first update"),
                             (TrainingDiverged, "training diverged at epoch 2, batch 2")]
        # Each group raises the error of its member that fails first.
        for members, first in [((0, 1, 2, 3, 4), 2), ((0, 1, 3, 4), 1), ((3, 0, 4), 3)]:
            group = [runs[r] for r in members]
            assert outcome_of(lambda group=group: run_group(group)) == solo[first]
        records = run_group([runs[0], runs[4]])
        for r, record in zip((0, 4), records):
            assert (run_bytes(record, tmp_path / f"group{r}")
                    == run_bytes(solo[r], tmp_path / f"solo{r}"))

    def test_rejected_splits_fail_the_group_before_any_step(self, no_steps):
        train, test = tiny_data()
        lacking = Dataset(inputs=test.inputs[test.labels != 2],
                          labels=test.labels[test.labels != 2], n_classes=3, split="test")
        runs = [(tiny_config(seed=11), train, test), (tiny_config(seed=12), train, lacking)]
        solo = outcome_of(lambda: run_training(*runs[1]))
        assert solo == (ValueError, "test split must contain every class")
        assert outcome_of(lambda: run_group(runs)) == solo

    @pytest.mark.parametrize("split, fault, value", [
        ("train", "label", -1), ("train", "label", 3), ("test", "label", -1),
        ("test", "label", 3), ("train", "dtype", np.float64), ("train", "dtype", np.bool_),
        ("test", "dtype", np.float64), ("test", "dtype", np.bool_),
        ("train", "input", np.nan), ("train", "input", np.inf),
        ("test", "input", np.nan), ("test", "input", np.inf),
        ("test", "dim", None), ("test", "lacks", 2)])
    def test_a_faulty_run_fails_the_group_with_its_solo_error(self, no_steps, split,
                                                              fault, value):
        train, test = tiny_data()
        splits = {"train": train, "test": test}
        splits[split] = spoiled(splits[split], fault, value)
        runs = [(tiny_config(seed=11), train, test),
                (tiny_config(seed=12), splits["train"], splits["test"])]
        solo = outcome_of(lambda: run_training(*runs[1]))
        assert solo[0] is ValueError
        assert outcome_of(lambda: run_group(runs)) == solo

    @pytest.mark.parametrize("faults", [
        # Run 0's test split lacks a class and run 1 has a bad train label:
        # train splits are judged before test splits.
        (("test", "lacks", 2), ("train", "label", -1)),
        # Run 0's train inputs are not finite and run 1's splits disagree
        # on dim: the group's facts are judged before any split.
        (("train", "input", np.nan), ("test", "dim", None)),
    ], ids=["train-before-test", "facts-before-splits"])
    def test_of_two_faults_the_documented_first_is_raised(self, no_steps, faults):
        # Run by run, run 0's fault would be the first.
        train, test = tiny_data()
        runs = []
        for r, (split, fault, value) in enumerate(faults):
            splits = {"train": train, "test": test}
            splits[split] = spoiled(splits[split], fault, value)
            runs.append((tiny_config(seed=11 + r), splits["train"], splits["test"]))
        solo = [outcome_of(lambda run=run: run_training(*run)) for run in runs]
        assert solo[0] != solo[1]
        assert outcome_of(lambda: run_group(runs)) == solo[1]

    def test_test_splits_must_share_a_row_count(self, no_steps):
        train, test = tiny_data()
        other = tiny_data(n_test=31)[1]
        runs = [(tiny_config(seed=11), train, test), (tiny_config(seed=12), train, other)]
        with pytest.raises(ValueError, match="test splits of a stack must share"):
            run_group(runs)

    def test_label_dtypes_may_differ(self, tmp_path):
        train, test = tiny_data()
        narrow = Dataset(inputs=train.inputs, labels=train.labels.astype(np.uint8),
                         n_classes=3, split="train")
        runs = [(tiny_config(seed=11), train, test), (tiny_config(seed=12), narrow, test)]
        got = [run_bytes(record, tmp_path / f"group{r}")
               for r, record in enumerate(run_group(runs))]
        assert got == [run_bytes(run_training(*run), tmp_path / f"solo{r}")
                       for r, run in enumerate(runs)]

    @pytest.mark.parametrize("change", [{"mode": "ce"}, {"lr0": 2e-3}, "rows"])
    def test_runs_must_share_config_and_shape(self, change):
        train, test = tiny_data()
        other = tiny_data(n_train=41)[0] if change == "rows" else train
        config = tiny_config(seed=12, **({} if change == "rows" else change))
        with pytest.raises(ValueError, match="the runs of a group must share"):
            run_group([(tiny_config(seed=11), train, test), (config, other, test)])


class TestRunValidation:
    """Unusable splits are rejected before the first training step."""

    @pytest.mark.parametrize("split, bad", [("train", -1), ("train", 3),
                                            ("test", 3)])
    def test_label_out_of_range(self, no_steps, split, bad):
        splits = dict(zip(("train", "test"), tiny_data(k=3)))
        ds = splits[split]
        labels = ds.labels.copy()
        labels[-1] = bad
        splits[split] = Dataset(inputs=ds.inputs, labels=labels, n_classes=3,
                                split=split)
        with pytest.raises(ValueError, match=f"{split} labels must lie in"):
            run_training(tiny_config(), splits["train"], splits["test"])

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_labels(self, no_steps, split, dtype):
        # Two classes, so that bool labels hold the same classes 0 and 1.
        splits = dict(zip(("train", "test"), tiny_data(k=2)))
        ds = splits[split]
        splits[split] = Dataset(inputs=ds.inputs, labels=ds.labels.astype(dtype),
                                n_classes=2, split=split)
        with pytest.raises(ValueError, match=f"{split} labels must have an integer dtype"):
            run_training(tiny_config(), splits["train"], splits["test"])

    def test_train_and_test_dims_differ(self, no_steps):
        train, _ = tiny_data(d=4)
        _, test = tiny_data(d=5)
        with pytest.raises(ValueError, match="disagree"):
            run_training(tiny_config(), train, test)

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_inputs(self, no_steps, split, value):
        splits = dict(zip(("train", "test"), tiny_data(k=3)))
        ds = splits[split]
        inputs = ds.inputs.copy()
        inputs[::2, 1] = value
        splits[split] = Dataset(inputs=inputs, labels=ds.labels, n_classes=3,
                                split=split)
        with pytest.raises(ValueError, match=f"{split} inputs must contain only finite"):
            run_training(tiny_config(), splits["train"], splits["test"])

    def test_test_split_lacks_a_class(self, no_steps):
        train, test = tiny_data(k=3)
        keep = test.labels != 2
        test = Dataset(inputs=test.inputs[keep], labels=test.labels[keep],
                       n_classes=3, split="test")
        with pytest.raises(ValueError, match="test split must contain every class"):
            run_training(tiny_config(), train, test)


# sha256 of (metrics.csv, checkpoint.bin) for 3-epoch runs on the standard
# instance (master seed 5) with 30% label noise.  Keys: mode, arch,
# imbalance factor.  Any change to the training path must keep these bytes.
PINNED_RUNS = {
    ("ce", "mlp", 1): (
        "c1a4c71880320f17844d1523afa6a05b8eb61fa06643815162004f2c0aa28d39",
        "31aff862584318d6a9f403f48219d117023d457f29ac296967559eda6addfd78"),
    ("naw", "mlp", 1): (
        "802b637fb50777fe5ed4a6d11a87c1e50b5efb7fb484aec2322297b59a7174b6",
        "58ee16c9823245924351fbd57294ea0d200fff66df755208ff98e1d094824a5c"),
    ("nla", "mlp", 1): (
        "4ad18419ce17cdb0bcb21a94e6354ce37ca8a544ee6a95d1680dccee0877f645",
        "b3a0daaa0d631cb284ebd82fc607f32287d18319a93d2c614572b704f56a7f8d"),
    ("nla", "linear", 1): (
        "319154947896619ae762baa0d023f3b0b88712f80e22433ea62ffd0205ac7a4a",
        "9bf40bf9b4994a5ef1318e91c0b95ee155ffca7462e47a6ef10bc8a2ebb25464"),
    ("nla", "mlp", 100): (
        "1dd8aac40a8276aa154401d9ffee37514829ad8903576efaa4f3acf590d98bb9",
        "24ecc65aff675d36c69313577a6cc8b6894193d0461ac3b9067b523abea64c49"),
}


@pytest.mark.parametrize("mode, arch, imbalance", sorted(PINNED_RUNS))
def test_pinned_run_bytes(mode, arch, imbalance, tmp_path):
    train, test = standard_instance(5)
    rng = Rng(123)
    if imbalance > 1:
        train = apply_imbalance(train, imbalance, rng.split(1))
    train = inject_noise(train, 0.3, rng.split(0))
    record = run_training(TrainConfig(mode=mode, epochs=3, seed=41, arch=arch),
                          train, test)
    save_run_record(record, tmp_path)
    got = (hashlib.sha256(metrics_csv_text(record).encode("utf-8")).hexdigest(),
           hashlib.sha256((tmp_path / "checkpoint.bin").read_bytes()).hexdigest())
    assert got == PINNED_RUNS[mode, arch, imbalance]


class TestPersistence:
    def test_round_trip_run_record(self, tmp_path):
        train, test = tiny_data()
        record = run_training(tiny_config(), train, test)
        save_run_record(record, tmp_path / "run")
        metrics = load_run_metrics(tmp_path / "run")
        assert len(metrics) == len(record.metrics)
        for loaded, orig in zip(metrics, record.metrics):
            assert loaded.lr == orig.lr
            assert loaded.test_overall == orig.test_overall
            np.testing.assert_array_equal(loaded.per_class_acc, orig.per_class_acc)
            np.testing.assert_array_equal(loaded.weight_quartiles,
                                          orig.weight_quartiles)
        final = load_final_metrics(tmp_path / "run")
        assert (final.epoch, final.test_overall) == (metrics[-1].epoch, metrics[-1].test_overall)
        np.testing.assert_array_equal(final.weight_quartiles, metrics[-1].weight_quartiles)
        params = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        for a, b in zip(params.weights, record.params.weights):
            np.testing.assert_array_equal(a, b)

    def test_csv_is_deterministic_text(self, tmp_path):
        train, test = tiny_data()
        a = metrics_csv_text(run_training(tiny_config(), train, test))
        b = metrics_csv_text(run_training(tiny_config(), train, test))
        assert a == b
        header = a.split("\n", 1)[0].split(",")
        assert header[:8] == ["epoch", "lr", "loss_ce", "loss_naw_ce",
                              "loss_reg", "loss_total", "test_overall",
                              "test_mean"]
