"""Mini-batch training loop with epoch-scheduled adaptive weighting.

One shared parameter set sees both views of every batch.  Every optimizer
step takes its loss and flat gradient from one :func:`train_step` (forward
of both views, the loss, backward), the step whose gradient the
gradient-fidelity check verifies.  The optimizer is Adam with
decoupled weight decay and an exponentially decayed learning rate, applied
to the flat parameter vector in one pass.  Both weighting kernels are
built once per epoch and shared by every batch and by that epoch's weight
statistics.  Inputs are checked once per run, before the first step; the
per-step loop only guards against divergence.  Runs are bit-reproducible
functions of (config, datasets).
"""

from __future__ import annotations

import dataclasses
import io
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, default_view
from .losses import MODES, BatchLoss, batch_total
from .model import (Arch, ModelParams, backward, forward, init_params,
                    save_checkpoint)
from .naw import KernelParams, WeightPolicy, epoch_kernels, naw_weights
from .numkit import (Rng, _as_finite_array, _check_labels, _softmax_lse,
                     atomic_write_bytes)

__all__ = [
    "TrainConfig",
    "EpochMetrics",
    "RunRecord",
    "EvalResult",
    "TrainingDiverged",
    "AdamState",
    "adam_step",
    "train_step",
    "run_training",
    "evaluate",
    "collect_weight_stats",
    "metrics_csv_text",
    "save_run_record",
    "load_run_metrics",
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
    overall: float
    mean: float
    per_class: np.ndarray
    confusion: np.ndarray


@dataclass
class RunRecord:
    config: TrainConfig
    metrics: list[EpochMetrics]
    params: ModelParams


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros_like(params: ModelParams) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState,
              lr: float, cfg: TrainConfig) -> None:
    """One Adam update with decoupled weight decay.

    With zero gradients the only change is the shrinkage lr * wd * param.
    """
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    p, g, m, v = params.flat, grad, state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    p -= lr * ((m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
               + cfg.weight_decay * p)


def _check_covers_classes(test: Dataset) -> None:
    if test.n == 0 or np.any(test.class_counts == 0):
        raise ValueError("test split must contain every class")


def _split_logits(params: ModelParams, ds: Dataset) -> np.ndarray:
    """Logits of a whole split from one logits-only forward; raises
    FloatingPointError when they are not finite."""
    logits = forward(params, ds.inputs, logits_only=True).logits
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    return logits


def evaluate(params: ModelParams, test: Dataset) -> EvalResult:
    """Accuracy on the original view only.  Raises FloatingPointError when
    the logits are not finite, as finite inputs that overflow the model
    give."""
    _check_covers_classes(test)
    preds = _split_logits(params, test).argmax(axis=1)
    k = test.n_classes
    confusion = np.bincount(test.labels * k + preds, minlength=k * k).reshape(k, k)
    per_class = np.diag(confusion) / confusion.sum(axis=1)
    return EvalResult(overall=float(np.trace(confusion) / test.n),
                      mean=float(per_class.mean()),
                      per_class=per_class,
                      confusion=confusion)


def collect_weight_stats(params: ModelParams, train: Dataset,
                         kernels: tuple[KernelParams, KernelParams]) -> np.ndarray:
    """Per-class quartiles (q1, median, q3) of the adaptive weights.

    Weights are computed for every training sample under the given
    (true, false) kernel pair of one epoch (see :func:`nla.naw.epoch_kernels`).
    Classes absent from the split get NaN rows.  Raises FloatingPointError
    when the logits are not finite.
    """
    probs = _softmax_lse(_split_logits(params, train))[0]
    weights = naw_weights(probs, train.labels, kernels)
    return _class_quartiles(weights, train.labels, train.n_classes)


def _class_quartiles(values: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """``np.percentile(values[labels == k], [25, 50, 75])`` for every class
    k, bit for bit, from one sort by (label, value); NaN rows for absent
    classes."""
    ranked = values[np.lexsort((values, labels))]
    counts = np.bincount(labels, minlength=n_classes)
    present = counts > 0
    n = counts[present][:, None]
    start = (np.cumsum(counts) - counts)[present][:, None]
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
    out = np.full((n_classes, 3), np.nan)
    out[present] = quartiles
    return out


def train_step(params: ModelParams, inputs: np.ndarray, flipped: np.ndarray | None,
               labels: np.ndarray, kernels: tuple[KernelParams, KernelParams],
               lam: float, mode: str) -> tuple[BatchLoss, np.ndarray]:
    """Loss of one mini-batch and the flat gradient of its mean at ``params``.

    Runs the forward pass of both views (``flipped``, the mirrored view
    of ``inputs``, is read only in mode ``nla``, where the gradient is
    view 0's plus view 1's), checks their logits, evaluates
    :func:`nla.losses.batch_total` on them and backpropagates its logit
    gradients.  Raises FloatingPointError when either view's logits
    (checked before the loss is evaluated) or the loss are not finite.
    """
    use_flip = mode == "nla"
    trace = forward(params, inputs)
    trace_f = forward(params, flipped) if use_flip else trace
    if not np.isfinite(trace.logits).all() or (
            use_flip and not np.isfinite(trace_f.logits).all()):
        raise FloatingPointError("non-finite logits")
    loss = batch_total(trace.logits, trace_f.logits, labels, kernels, lam, mode=mode)
    if not np.isfinite(loss.total).all():
        raise FloatingPointError("non-finite loss")
    grad = backward(params, trace, loss.grad_z)
    if use_flip:
        grad += backward(params, trace_f, loss.grad_zf)
    return loss, grad


def _check_splits(train: Dataset, test: Dataset) -> None:
    """Reject splits a run cannot use, before any step is taken: splits
    that disagree on dim or class count, a label outside [0, n_classes),
    a non-finite input, or a test split that lacks a class."""
    if (train.dim, train.n_classes) != (test.dim, test.n_classes):
        raise ValueError(
            f"train and test splits disagree: train has dim {train.dim} and "
            f"{train.n_classes} classes, test has dim {test.dim} and "
            f"{test.n_classes} classes")
    for ds in (train, test):
        _check_labels(ds.labels, ds.n_classes, f"{ds.split} labels")
        _as_finite_array(ds.inputs, f"{ds.split} inputs")
    _check_covers_classes(test)


def run_training(config: TrainConfig, train: Dataset, test: Dataset) -> RunRecord:
    """Full training run; returns all epoch metrics plus the final model.

    Sub-streams of the run seed: split 0 initializes parameters, split 1
    drives the per-epoch shuffles.  The flipped view is only evaluated in
    mode ``nla``; the other modes never look at it.  Raises ValueError
    before the first step for splits that :func:`_check_splits` rejects,
    and before the first update when either view's logits or the loss are
    not finite; TrainingDiverged when they stop being finite later (also
    after an epoch's last update, which only the weight statistics see).
    Non-finite test-split logits are not a divergence of the training
    split: :func:`evaluate`'s FloatingPointError propagates.
    """
    _check_splits(train, test)
    rng = Rng(config.seed)
    arch = Arch(input_dim=train.dim,
                hidden_dim=config.hidden_dim if config.arch == "mlp" else 0,
                n_classes=train.n_classes)
    params = init_params(arch, rng.split(0))
    shuffle_rng = rng.split(1)
    state = AdamState.zeros_like(params)
    flipped = default_view(train).apply(train.inputs)
    n = train.n
    last = None  # (epoch, batch) of the last update taken

    metrics: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_gamma ** epoch
        kernels = epoch_kernels(config.policy, epoch)
        perm = shuffle_rng.permutation(n)
        # Gather once per epoch; each batch is then a contiguous slice.
        inputs, labels, inputs_f = train.inputs[perm], train.labels[perm], flipped[perm]
        sums = np.zeros(4)  # ce, naw_ce, reg, total
        try:
            for batch_index, start in enumerate(range(0, n, config.batch_size)):
                stop = start + config.batch_size
                loss, grad = train_step(params, inputs[start:stop],
                                        inputs_f[start:stop], labels[start:stop],
                                        kernels, config.lam, config.mode)
                adam_step(params, grad, state, lr, config)
                last = epoch, batch_index
                sums += [loss.ce.sum(), loss.naw_ce.sum(), loss.reg.sum(),
                         loss.total.sum()]
            # Only the weight statistics see the epoch's last update.
            quartiles = collect_weight_stats(params, train, kernels)
        except FloatingPointError as exc:
            if last is None:
                raise ValueError(f"{exc} before the first update") from None
            raise TrainingDiverged(*last) from None
        ev = evaluate(params, test)
        metrics.append(EpochMetrics(
            epoch=epoch, lr=lr,
            loss_ce=float(sums[0] / n), loss_naw_ce=float(sums[1] / n),
            loss_reg=float(sums[2] / n), loss_total=float(sums[3] / n),
            test_overall=ev.overall, test_mean=ev.mean,
            per_class_acc=ev.per_class, weight_quartiles=quartiles))
    return RunRecord(config=config, metrics=metrics, params=params)


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


def load_run_metrics(run_dir) -> list[EpochMetrics]:
    """Read back the epoch metrics of a persisted run."""
    lines = (Path(run_dir) / "metrics.csv").read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    k = sum(1 for name in header if name.startswith("acc_c"))
    metrics = []
    for line in lines[1:]:
        vals = line.split(",")
        row = dict(zip(header, vals))
        per_class = np.array([float(row[f"acc_c{i}"]) for i in range(k)])
        quart = np.array([[float(row[f"w{i}_q1"]), float(row[f"w{i}_med"]),
                           float(row[f"w{i}_q3"])] for i in range(k)])
        metrics.append(EpochMetrics(
            epoch=int(row["epoch"]), lr=float(row["lr"]),
            loss_ce=float(row["loss_ce"]), loss_naw_ce=float(row["loss_naw_ce"]),
            loss_reg=float(row["loss_reg"]), loss_total=float(row["loss_total"]),
            test_overall=float(row["test_overall"]),
            test_mean=float(row["test_mean"]),
            per_class_acc=per_class, weight_quartiles=quart))
    return metrics
