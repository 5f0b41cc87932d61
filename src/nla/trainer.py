"""Mini-batch training loop with epoch-scheduled adaptive weighting.

One shared parameter set sees both views of every batch.  Every optimizer
step takes its loss and flat gradient from one :func:`train_step` (one
dense pass over the views axis, the loss, one backward over it), the step
whose gradient the gradient-fidelity check verifies; it writes into
:class:`StepBuffers` built once per batch size.  The optimizer is Adam
with decoupled weight decay and an exponentially decayed learning rate,
applied to the flat parameter vector in one pass.  Both weighting kernels
are built once per epoch and shared by every batch and by that epoch's
weight statistics.  Inputs are checked once per run, before the first
step; the per-step loop only guards against divergence.  Runs are
bit-reproducible functions of (config, datasets).

Runs that differ only in their seed and data train together:
:func:`run_group` stacks R runs' parameter vectors and Adam moments as
(R, P) arrays, so a step's inputs carry a run axis after the views axis,
(V, R, n, d) with (R, n) labels, and one step and one Adam update serve
every run.  Its splits are held as :class:`SplitStack` arrays, and each
epoch's weight statistics and evaluation are one whole-split pass over
the stack.  Each run's values are those of its solo run, which is the
R = 1 group (:func:`run_training`).  A stack is all or nothing: the first
run to fail ends the group with that run's error.  A caller that needs
each run's own outcome reruns the runs alone, as ``nla sweep`` does, so a
failing group costs its stacked epochs up to the failure plus one solo
run per member.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, mirror
from .losses import _VIEWS, MODES, BatchLoss, batch_total
from .model import (Arch, ForwardTrace, ModelParams, _check_rows, _dense_pass,
                    backward, forward, init_params, save_checkpoint)
from .naw import KernelParams, WeightPolicy, epoch_kernels, naw_weights
from .numkit import (Rng, _as_finite_array, _check_labels, _softmax_lse,
                     atomic_write_bytes)

__all__ = [
    "TrainConfig",
    "EpochMetrics",
    "RunRecord",
    "EvalResult",
    "SplitStack",
    "TrainingDiverged",
    "AdamState",
    "adam_step",
    "StepBuffers",
    "train_step",
    "run_training",
    "run_group",
    "evaluate",
    "collect_weight_stats",
    "metrics_csv_text",
    "save_run_record",
    "load_run_metrics",
    "load_final_metrics",
    "atomic_write_text",
]

_QUARTILES = np.array([0.25, 0.5, 0.75])  # np.percentile's q / 100


class TrainingDiverged(RuntimeError):
    """Non-finite logits or loss after an update; carries the epoch and
    batch index of the last update taken before they were first seen.
    Non-finite values before the first update are an input error, a
    ValueError of :func:`run_training`."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"training diverged at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    """Everything a run needs besides the data."""

    mode: str = "nla"
    lam: float = 0.5
    batch_size: int = 32
    epochs: int = 60
    lr0: float = 1e-4
    lr_gamma: float = 0.9
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    arch: str = "mlp"
    hidden_dim: int = 64
    policy: WeightPolicy | None = None

    def __post_init__(self) -> None:
        for name in ("batch_size", "epochs", "seed", "hidden_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        # Chained comparisons, so that NaN fails each range.
        if not (all(0.0 < v < np.inf for v in (self.lr0, self.lr_gamma, self.eps))
                and 0.0 <= self.weight_decay < np.inf):
            raise ValueError("lr0, lr_gamma and eps must be finite and > 0, "
                             "weight_decay finite and >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.arch not in ("mlp", "linear"):
            raise ValueError("arch must be 'mlp' or 'linear'")
        if self.arch == "mlp" and self.hidden_dim < 1:
            raise ValueError("arch 'mlp' needs hidden_dim >= 1")
        if self.policy is None:
            self.policy = WeightPolicy(total_epochs=self.epochs)
        elif self.policy.total_epochs != self.epochs:
            raise ValueError("policy.total_epochs must equal epochs")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["policy"] = dataclasses.asdict(self.policy)
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        """Inverse of to_dict; the policy dict may be partial."""
        d = dict(d)
        policy = d.pop("policy", None)
        if policy is not None:
            fields = {k: tuple(v) if k in ("mu_true", "mu_false") else v
                      for k, v in policy.items()}
            fields.setdefault("total_epochs", d.get("epochs", 60))
            policy = WeightPolicy(**fields)
        return TrainConfig(policy=policy, **d)


@dataclass
class EpochMetrics:
    """Per-epoch instrumentation row."""

    epoch: int
    lr: float
    loss_ce: float
    loss_naw_ce: float
    loss_reg: float
    loss_total: float
    test_overall: float
    test_mean: float
    per_class_acc: np.ndarray
    weight_quartiles: np.ndarray  # (K, 3): q1, median, q3 per class


@dataclass
class EvalResult:
    """Test accuracies of one run, or of each run of a stack on a leading
    run axis (see :func:`evaluate`)."""

    overall: float | np.ndarray
    mean: float | np.ndarray
    per_class: np.ndarray
    confusion: np.ndarray


@dataclass
class RunRecord:
    config: TrainConfig
    metrics: list[EpochMetrics]
    params: ModelParams


@dataclass
class AdamState:
    """Adam's moments and step count, plus two temporaries of their shape
    that every update writes through."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self) -> None:
        self.scratch = np.empty((2,) + self.m.shape)

    @staticmethod
    def zeros_like(params: ModelParams) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState,
              lr: float, cfg: TrainConfig) -> None:
    """One Adam update with decoupled weight decay:
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, then
    p -= lr ((m / bias1) / (sqrt(v / bias2) + eps) + wd p), evaluated in
    that order through ``state.scratch``.

    With zero gradients the only change is the shrinkage lr * wd * param.
    """
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    p, g, m, v = params.flat, grad, state.m, state.v
    a, b = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=a)
    v *= b2
    np.multiply(1.0 - b2, g, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, bias1, out=a)
    np.divide(v, bias2, out=b)
    np.sqrt(b, out=b)
    b += cfg.eps
    a /= b
    a += np.multiply(cfg.weight_decay, p, out=b)
    p -= np.multiply(lr, a, out=a)


def _check_covers_classes(counts: np.ndarray) -> None:
    """Raise ValueError unless the ([R,] K) class counts of test splits
    are all positive."""
    if counts.size == 0 or not counts.all():
        raise ValueError("test split must contain every class")


class SplitStack:
    """One split per run of an (R, P) parameter stack, held as arrays with a
    leading run axis: (R, n, d) float64 ``inputs`` and (R, n) ``labels``.

    A single :class:`Dataset` is the stack of one run, without the run axis,
    and shares its arrays; a list of R splits is stacked once.  The stack
    judges each split in order (integer labels in [0, n_classes), finite
    inputs, every class in a test split), then that they share their row
    count, dim and class count; the first fault is a ValueError.
    ``class_counts`` holds the ([R,] K) rows of each class in each split.
    ``class_order``, the order of the weight statistics' sort, is built at
    its first use and kept, since the labels do not change.
    """

    def __init__(self, splits: Dataset | list[Dataset]) -> None:
        one = isinstance(splits, Dataset)
        splits = [splits] if one else splits
        inputs = []
        for ds in splits:
            _check_labels(ds.labels, ds.n_classes, f"{ds.split} labels")
            inputs.append(_as_finite_array(ds.inputs, f"{ds.split} inputs"))
            if ds.split == "test":
                _check_covers_classes(ds.class_counts)
        first = splits[0]
        shape = first.n, first.dim, first.n_classes
        if any((ds.n, ds.dim, ds.n_classes) != shape for ds in splits):
            raise ValueError(f"the {first.split} splits of a stack must share "
                             "their row count, dim and class count")
        self.inputs = inputs[0] if one else np.stack(inputs)
        self.labels = first.labels if one else np.stack([ds.labels for ds in splits])
        self.n_classes = k = first.n_classes
        runs = self.labels.shape[:-1]
        bins = int(np.prod(runs)) * k
        # The (run, class) bin of each row, flat: its label plus K times its run.
        self._bins = (self.labels + np.arange(0, bins, k).reshape(*runs, 1)).ravel()
        self.class_counts = np.bincount(self._bins, minlength=bins).reshape(*runs, k)

    @functools.cached_property
    def class_order(self) -> np.ndarray:
        """The flat rows of the stack by run, by class within a run, and in
        split order within a class: one stable sort of the bins, as the
        smallest unsigned type that holds them, which numpy radix-sorts for
        8- and 16-bit keys where it timsorts int64 ones."""
        keys = self._bins.astype(np.min_scalar_type(self.class_counts.size - 1))
        return np.argsort(keys, kind="stable")


def _as_stack(splits: Dataset | SplitStack) -> SplitStack:
    return splits if isinstance(splits, SplitStack) else SplitStack(splits)


def _split_logits(params: ModelParams, splits: SplitStack) -> np.ndarray:
    """([R,] n, K) logits of whole splits from one logits-only forward;
    raises FloatingPointError when they are not finite."""
    logits = forward(params, splits.inputs, logits_only=True).logits
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    return logits


def evaluate(params: ModelParams, test: Dataset | SplitStack) -> EvalResult:
    """Accuracy on the original view only.

    With an (R, P) stack of parameters ``test`` is a :class:`SplitStack`
    of one split per run, and every field of the result has a leading run
    axis: (R,) ``overall`` and ``mean``, (R, K) ``per_class`` and
    (R, K, K) ``confusion``, each run's equal to its solo call's.  One
    forward, one argmax and one bincount serve the stack.  Raises the
    ValueError of a :class:`SplitStack` or of a lacking class, and
    FloatingPointError when the logits are not finite, as finite inputs
    that overflow the model give.
    """
    test = _as_stack(test)
    counts = test.class_counts
    _check_covers_classes(counts)
    preds = _split_logits(params, test).argmax(axis=-1)
    k = test.n_classes
    confusion = np.bincount(test._bins * k + preds.ravel(),
                            minlength=counts.size * k).reshape(*counts.shape, k)
    per_class = np.diagonal(confusion, axis1=-2, axis2=-1) / counts
    overall = np.trace(confusion, axis1=-2, axis2=-1) / preds.shape[-1]
    return EvalResult(overall=overall[()], mean=per_class.mean(axis=-1)[()],
                      per_class=per_class, confusion=confusion)


def collect_weight_stats(params: ModelParams, train: Dataset | SplitStack,
                         kernels: tuple[KernelParams, KernelParams]) -> np.ndarray:
    """Per-class quartiles (q1, median, q3) of the adaptive weights, (K, 3).

    Weights are computed for every training sample under the given
    (true, false) kernel pair of one epoch (see :func:`nla.naw.epoch_kernels`).
    Classes absent from the split get NaN rows.  With an (R, P) stack of
    parameters ``train`` is a :class:`SplitStack` of one split per run and
    the result is (R, K, 3), each run's equal to its solo call's: one
    forward, one softmax and one :func:`nla.naw.naw_weights` call score
    every run's rows.  Raises the ValueError of a :class:`SplitStack`, and
    FloatingPointError when the logits are not finite.
    """
    train = _as_stack(train)
    probs = _softmax_lse(_split_logits(params, train))[0]
    weights = naw_weights(probs.reshape(-1, probs.shape[-1]), train.labels.reshape(-1),
                          kernels)
    return _class_quartiles(weights, train.class_order, train.class_counts)


def _class_quartiles(values: np.ndarray, order: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.percentile`` at 25, 50 and 75 of each group of ``values``, bit
    for bit, in an array of shape ``counts.shape + (3,)``; NaN rows for
    empty groups.  ``order`` lists the indices of ``values`` group by
    group, and ``counts`` holds the size of each group in that order (a
    :class:`SplitStack`'s ``class_order`` and ``class_counts``): the
    values are gathered in that order, and each group's are sorted."""
    sizes = counts.ravel()
    ends = np.cumsum(sizes)
    starts = ends - sizes
    ranked = values[order]
    for a, b in zip(starts.tolist(), ends.tolist()):
        ranked[a:b].sort(kind="stable")
    present = sizes > 0
    n = sizes[present][:, None]
    start = starts[present][:, None]
    # numpy's "linear" method: rank (n - 1) q, then its lerp between the
    # neighbouring order statistics, taken from the upper one when the
    # fraction is >= 0.5.
    rank = (n - 1) * _QUARTILES
    below = np.floor(rank)
    frac = rank - below
    below = start + below.astype(np.intp)
    lo = ranked[below]
    hi = ranked[np.minimum(below + 1, start + n - 1)]
    diff = hi - lo
    quartiles = lo + diff * frac
    np.subtract(hi, diff * (1 - frac), out=quartiles, where=frac >= 0.5)
    out = np.full((sizes.size, 3), np.nan)
    out[present] = quartiles
    return out.reshape(*counts.shape, 3)


class StepBuffers:
    """Every array that a training step of ``params`` on batches of
    ``rows`` rows writes, with the views on a leading axis and then, for an
    (R, P) stack, the runs: ``outs``, the (V, [R,] rows, fan_out) output of
    each dense layer (the units of each hidden layer, then the logits),
    the (V, [R,] P) per-view gradients with their layer views, and the
    ([R,] P) gradient of the step.  :func:`run_group` builds them once per
    stack of runs and batch size."""

    def __init__(self, params: ModelParams, views: int, rows: int) -> None:
        arch, runs = params.arch, params.flat.shape[:-1]
        self.outs = [np.empty((views, *runs, rows, fan_out)) for _, fan_out in arch.layer_shapes]
        self.grads = ModelParams(arch, np.empty((views, *runs, arch.param_count)))
        self.grad = self.grads.flat[0] if views == 1 else np.empty(params.flat.shape)


def train_step(params: ModelParams, inputs: np.ndarray, labels: np.ndarray,
               kernels: tuple[KernelParams, KernelParams], lam: float, mode: str,
               buffers: StepBuffers | None = None) -> tuple[BatchLoss, np.ndarray]:
    """Loss of one mini-batch and the flat gradient of its mean at ``params``.

    ``inputs`` stacks the views of the batch's (n, d) rows on a leading
    axis: the rows, then in mode ``nla`` their mirrored view.  With an
    (R, P) stack of parameters each view holds one batch per run, (R, n, d)
    with (R, n) labels, and the loss and gradient are each run's own, as
    in a solo step.  Runs the (V, [R,] n, d) batch through one
    :func:`nla.model._dense_pass` into ``buffers`` (built for n rows when
    None), checks the (V, [R,] n, K) logits, evaluates
    :func:`nla.losses.batch_total` on them, backpropagates its logit
    gradients over the views axis in one :func:`backward`, and in mode
    ``nla`` adds view 1's gradient to view 0's.  The returned gradient is
    an array of ``buffers``, overwritten by the next step that uses them.
    Raises FloatingPointError when the logits (checked before the loss is
    evaluated) or the loss are not finite, in any run of a stack.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    # The views of the mode, then one block per run; an unknown mode is
    # batch_total's to refuse.
    _check_rows(params, inputs, (_VIEWS.get(mode, len(inputs)),))
    if buffers is None:
        buffers = StepBuffers(params, len(inputs), inputs.shape[-2])
    trace = ForwardTrace(*_dense_pass(params, inputs, buffers.outs))
    if not np.isfinite(trace.logits).all():
        raise FloatingPointError("non-finite logits")
    loss = batch_total(trace.logits, labels, kernels, lam, mode=mode)
    if not np.isfinite(loss.total).all():
        raise FloatingPointError("non-finite loss")
    grads = backward(params, trace, loss.grad, out=buffers.grads)
    if len(grads) > 1:
        np.add(grads[0], grads[1], out=buffers.grad)
    return loss, buffers.grad


def run_training(config: TrainConfig, train: Dataset, test: Dataset) -> RunRecord:
    """Full training run; returns all epoch metrics plus the final model.

    The one-run case of :func:`run_group`, whose errors it raises: a
    ValueError before the first step for splits that disagree on dim or
    class count, then for the train and then the test split that
    :class:`SplitStack` rejects, and before the first update when either
    view's logits or the loss are not finite; TrainingDiverged when they
    stop being finite later (also after an epoch's last update, which
    only the weight statistics see).  Non-finite test-split logits are not a divergence of
    the training split: :func:`evaluate`'s FloatingPointError propagates.
    """
    return run_group([(config, train, test)])[0]


def run_group(runs: list[tuple[TrainConfig, Dataset, Dataset]]) -> list[RunRecord]:
    """Train the (config, train, test) runs of ``runs`` as one stack; return
    each run's RunRecord.

    The configs must be equal apart from ``seed``, the train splits of
    one shape (rows, dim, classes) and each run's splits of one dim and
    class count, else ValueError.  Each run keeps the sub-streams of its
    seed (split 0 initializes its parameters, split 1 drives its shuffles)
    and its splits.  Its parameters and Adam moments are a row of (R, P)
    stacks that one :func:`train_step` and one :func:`adam_step` update per
    batch, with the values of its solo steps (a group of one has no run
    axis).  Only mode ``nla`` has a
    second view, :func:`nla.data.mirror` of the train rows (by the split's
    ``image_shape`` when it has one).  The train splits are held as one
    :class:`SplitStack`, whose rows each epoch's shuffles gather, and the
    test splits as another, each the judge of its splits.  Each epoch's
    weight statistics and evaluation are one :func:`collect_weight_stats`
    and one :func:`evaluate` call on the whole stack.

    A stack is all or nothing.  Every run's splits are checked before the
    first step, and an error ends the whole group, with no record
    returned: a failing group costs its stacked epochs up to the failure,
    and the other runs' outcomes stay unknown until they train again.  A
    faulty run's error is its :func:`run_training`'s; of several faults,
    the first in the order group facts, train splits, test splits.
    """
    if not runs:
        return []
    config = runs[0][0]
    n, dim, k = shape = runs[0][1].n, runs[0][1].dim, runs[0][1].n_classes
    for cfg, train, test in runs:
        if (dataclasses.replace(cfg, seed=config.seed) != config
                or (train.n, train.dim, train.n_classes) != shape):
            raise ValueError("the runs of a group must share a TrainConfig apart "
                             "from seed and train splits of one shape")
        if (train.dim, train.n_classes) != (test.dim, test.n_classes):
            raise ValueError(f"train and test splits disagree: train has dim {train.dim} "
                             f"and {train.n_classes} classes, test has dim {test.dim} "
                             f"and {test.n_classes} classes")
    # A group of one run steps without the run axis, on the arrays of a
    # solo step: numpy spends more per call on a stack of one.  ``at(r)``
    # indexes run r on the run axis, and is empty without one.
    lead = (len(runs),) if len(runs) > 1 else ()
    at = (lambda r: (r,)) if lead else (lambda r: ())
    trains = SplitStack([train for _, train, _ in runs] if lead else runs[0][1])
    tests = SplitStack([test for _, _, test in runs] if lead else runs[0][2])
    arch = Arch(input_dim=dim,
                hidden_dim=config.hidden_dim if config.arch == "mlp" else 0,
                n_classes=k)
    rngs = [Rng(cfg.seed) for cfg, _, _ in runs]
    inits = [init_params(arch, rng.split(0)) for rng in rngs]
    shuffles = [rng.split(1) for rng in rngs]
    params = ModelParams(arch, np.stack([p.flat for p in inits]).reshape(*lead, -1))
    state = AdamState.zeros_like(params)
    views = [trains.inputs]
    if _VIEWS[config.mode] == 2:
        views.append(np.empty_like(trains.inputs))
        for r, (_, train, _) in enumerate(runs):
            views[1][at(r)] = mirror(trains.inputs[at(r)], train.meta.get("image_shape"))
    size = config.batch_size
    # Each epoch gathers every run's views in shuffled order into one
    # (V, R, N, d) array, so that each batch is a slice of it with the
    # step buffers of its size: one set for the full batch and one for the
    # trailing one.
    inputs = np.empty((len(views), *lead, n, dim))
    labels = np.empty((*lead, n), dtype=np.intp)
    sets = {rows: StepBuffers(params, len(views), rows)
            for rows in {min(size, n), n % size or size}}
    batches = [(inputs[..., start:start + size, :], labels[..., start:start + size],
                sets[min(size, n - start)]) for start in range(0, n, size)]
    metrics: list[list[EpochMetrics]] = [[] for _ in runs]
    last = None  # (epoch, batch) of the last update taken
    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_gamma ** epoch
        kernels = epoch_kernels(config.policy, epoch)
        for r, shuffle in enumerate(shuffles):
            perm = shuffle.permutation(n)
            for view, out in zip(views, inputs[(slice(None), *at(r))]):
                np.take(view[at(r)], perm, axis=0, out=out)
            labels[at(r)] = trains.labels[at(r)][perm]
        sums = np.zeros((4, *lead))  # ce, naw_ce, reg, total per run
        try:
            for batch_index, (batch, batch_labels, buffers) in enumerate(batches):
                loss, grad = train_step(params, batch, batch_labels, kernels,
                                        config.lam, config.mode, buffers)
                adam_step(params, grad, state, lr, config)
                last = epoch, batch_index
                sums += loss.components.sum(axis=-1)
            # Only the weight statistics see the epoch's last update.
            quartiles = collect_weight_stats(params, trains, kernels)
        except FloatingPointError as exc:
            # Non-finite logits or loss: an input error before the first
            # update, else a divergence at the last update taken.
            if last is None:
                raise ValueError(f"{exc} before the first update") from None
            raise TrainingDiverged(*last) from None
        ev = evaluate(params, tests)
        for r, run_metrics in enumerate(metrics):
            run_sums = sums[(slice(None), *at(r))]
            run_metrics.append(EpochMetrics(
                epoch=epoch, lr=lr,
                loss_ce=float(run_sums[0] / n), loss_naw_ce=float(run_sums[1] / n),
                loss_reg=float(run_sums[2] / n), loss_total=float(run_sums[3] / n),
                test_overall=float(ev.overall[at(r)]), test_mean=float(ev.mean[at(r)]),
                per_class_acc=ev.per_class[at(r)], weight_quartiles=quartiles[at(r)]))
    return [RunRecord(config=cfg, metrics=run_metrics,
                      params=ModelParams(arch, params.flat[at(r)], init.seed))
            for r, ((cfg, _, _), run_metrics, init)
            in enumerate(zip(runs, metrics, inits))]


# ---------------------------------------------------------------------------
# Persistence: metrics CSV + checkpoint
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def metrics_csv_text(record: RunRecord) -> str:
    """Deterministic CSV, one row per epoch.

    Columns: epoch, lr, loss_ce, loss_naw_ce, loss_reg, loss_total,
    test_overall, test_mean, acc_c{k} for each class, then w{k}_q1,
    w{k}_med, w{k}_q3 for each class.  Floats use shortest round-trip
    formatting, so identical runs produce identical bytes.
    """
    k = record.metrics[0].per_class_acc.shape[0]
    header = ["epoch", "lr", "loss_ce", "loss_naw_ce", "loss_reg", "loss_total",
              "test_overall", "test_mean"]
    header += [f"acc_c{i}" for i in range(k)]
    for i in range(k):
        header += [f"w{i}_q1", f"w{i}_med", f"w{i}_q3"]
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for m in record.metrics:
        row = [str(m.epoch), _fmt(m.lr), _fmt(m.loss_ce), _fmt(m.loss_naw_ce),
               _fmt(m.loss_reg), _fmt(m.loss_total), _fmt(m.test_overall),
               _fmt(m.test_mean)]
        row += [_fmt(v) for v in m.per_class_acc]
        for i in range(k):
            row += [_fmt(v) for v in m.weight_quartiles[i]]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def atomic_write_text(path: Path, text: str) -> None:
    """Write UTF-8 text via :func:`nla.numkit.atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def save_run_record(record: RunRecord, out_dir) -> None:
    """Persist checkpoint.bin and metrics.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(record.params, out_dir / "checkpoint.bin")
    atomic_write_text(out_dir / "metrics.csv", metrics_csv_text(record))


def _metrics_row(header: list[str], line: str) -> EpochMetrics:
    """One row of a metrics.csv under its ``header`` columns."""
    row = dict(zip(header, line.split(",")))
    k = sum(1 for name in header if name.startswith("acc_c"))
    per_class = np.array([float(row[f"acc_c{i}"]) for i in range(k)])
    quart = np.array([[float(row[f"w{i}_q1"]), float(row[f"w{i}_med"]),
                       float(row[f"w{i}_q3"])] for i in range(k)])
    return EpochMetrics(
        epoch=int(row["epoch"]), lr=float(row["lr"]),
        loss_ce=float(row["loss_ce"]), loss_naw_ce=float(row["loss_naw_ce"]),
        loss_reg=float(row["loss_reg"]), loss_total=float(row["loss_total"]),
        test_overall=float(row["test_overall"]),
        test_mean=float(row["test_mean"]),
        per_class_acc=per_class, weight_quartiles=quart)


def _metrics_lines(run_dir) -> list[str]:
    return (Path(run_dir) / "metrics.csv").read_text(encoding="utf-8").strip().split("\n")


def load_run_metrics(run_dir) -> list[EpochMetrics]:
    """Read back the epoch metrics of a persisted run."""
    header, *lines = _metrics_lines(run_dir)
    return [_metrics_row(header.split(","), line) for line in lines]


def load_final_metrics(run_dir) -> EpochMetrics:
    """Read back the last epoch's metrics of a persisted run, parsing only
    that row."""
    lines = _metrics_lines(run_dir)
    return _metrics_row(lines[0].split(","), lines[-1])
