"""Mini-batch training loop with epoch-scheduled adaptive weighting.

One shared parameter set sees both views of every batch.  Every optimizer
step takes its loss and flat gradient from one :func:`train_step` (a
forward per view, the loss, one backward over the views axis), the step
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
every run.  Each run's values are those of its solo run, which is the
R = 1 group (:func:`run_training`).
"""

from __future__ import annotations

import dataclasses
import io
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, default_view
from .losses import _VIEWS, MODES, BatchLoss, batch_total
from .model import (Arch, ForwardTrace, ModelParams, backward, forward,
                    init_params, save_checkpoint)
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
    "StepBuffers",
    "train_step",
    "run_training",
    "run_group",
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
    k, bit for bit, from one stable sort by label and then by value within
    each class; NaN rows for absent classes.  The labels are sorted as the
    smallest unsigned type that holds n_classes - 1: the order is the same,
    and numpy radix-sorts 8- and 16-bit keys where it timsorts int64 ones."""
    counts = np.bincount(labels, minlength=n_classes)
    ends = np.cumsum(counts)
    starts = ends - counts
    keys = labels.astype(np.min_scalar_type(n_classes - 1))
    ranked = values[np.argsort(keys, kind="stable")]
    for a, b in zip(starts.tolist(), ends.tolist()):
        ranked[a:b].sort(kind="stable")
    present = counts > 0
    n = counts[present][:, None]
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
    out = np.full((n_classes, 3), np.nan)
    out[present] = quartiles
    return out


class StepBuffers:
    """Every array that :func:`forward` and :func:`backward` write in a
    training step of ``params`` on batches of ``rows`` rows, with the
    views on a leading axis and then, for an (R, P) stack, the runs: the
    (V, [R,] rows, ...) units of each hidden layer and logits, held as one
    trace whose first layer input is the batch, each view's slices of
    them, the (V, [R,] P) per-view gradients with their layer views, and
    the ([R,] P) gradient of the step.  :func:`run_group` builds them
    once per stack of runs and batch size."""

    def __init__(self, params: ModelParams, views: int, rows: int) -> None:
        arch, runs = params.arch, params.flat.shape[:-1]
        outs = [np.empty((views, *runs, rows, fan_out)) for _, fan_out in arch.layer_shapes]
        self.trace = ForwardTrace(logits=outs[-1], layer_inputs=[None] + outs[:-1])
        self.view_outs = [[out[view] for out in outs] for view in range(views)]
        self.grads = ModelParams(arch, np.empty((views, *runs, arch.param_count)))
        self.grad = self.grads.flat[0] if views == 1 else np.empty(params.flat.shape)


class _NonFinite(FloatingPointError):
    """Logits or a loss of a training step that are not finite.  ``runs``
    marks the runs of a stacked step that have such a value, along axis
    ``run_axis`` of ``values`` (True for a step of one parameter vector,
    whose ``run_axis`` is None)."""

    def __init__(self, what: str, values: np.ndarray, run_axis: int | None) -> None:
        super().__init__(f"non-finite {what}")
        self.runs = True if run_axis is None else ~np.isfinite(values).all(
            axis=tuple(a for a in range(values.ndim) if a != run_axis))


def train_step(params: ModelParams, inputs: np.ndarray, labels: np.ndarray,
               kernels: tuple[KernelParams, KernelParams], lam: float, mode: str,
               buffers: StepBuffers | None = None) -> tuple[BatchLoss, np.ndarray]:
    """Loss of one mini-batch and the flat gradient of its mean at ``params``.

    ``inputs`` stacks the views of the batch's (n, d) rows on a leading
    axis: the rows, then in mode ``nla`` their mirrored view.  With an
    (R, P) stack of parameters each view holds one batch per run, (R, n, d)
    with (R, n) labels, and the loss and gradient are each run's own, as
    in a solo step.  Runs the forward pass of each view into its slice of
    ``buffers`` (built for n rows when None), checks the (V, [R,] n, K)
    logits, evaluates :func:`nla.losses.batch_total` on them,
    backpropagates its logit gradients over the views axis in one
    :func:`backward`, and in mode ``nla`` adds view 1's gradient to view
    0's.  The returned gradient is an array of ``buffers``, overwritten by
    the next step that uses them.  Raises FloatingPointError when the
    logits (checked before the loss is evaluated) or the loss are not
    finite; its ``runs`` marks the runs of a stack that have such values.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    # An unknown mode is batch_total's to refuse.
    if mode in _VIEWS and len(inputs) != _VIEWS[mode]:
        raise ValueError(f"mode {mode} steps on {_VIEWS[mode]} views, got {len(inputs)}")
    if buffers is None:
        buffers = StepBuffers(params, len(inputs), inputs.shape[-2])
    trace = buffers.trace
    trace.layer_inputs[0] = inputs
    for x, out in zip(inputs, buffers.view_outs):
        forward(params, x, out=out)
    stacked = params.flat.ndim > 1
    if not np.isfinite(trace.logits).all():
        raise _NonFinite("logits", trace.logits, 1 if stacked else None)
    loss = batch_total(trace.logits, labels, kernels, lam, mode=mode)
    if not np.isfinite(loss.total).all():
        raise _NonFinite("loss", loss.total, 0 if stacked else None)
    grads = backward(params, trace, loss.grad, out=buffers.grads)
    if len(grads) > 1:
        np.add(grads[0], grads[1], out=buffers.grad)
    return loss, buffers.grad


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

    The one-run case of :func:`run_group`, whose errors it raises: a
    ValueError before the first step for splits that :func:`_check_splits`
    rejects, and before the first update when either view's logits or the
    loss are not finite; TrainingDiverged when they stop being finite
    later (also after an epoch's last update, which only the weight
    statistics see).  Non-finite test-split logits are not a divergence of
    the training split: :func:`evaluate`'s FloatingPointError propagates.
    """
    outcome, = run_group([(config, train, test)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _divergence(exc: FloatingPointError, last: tuple[int, int] | None) -> Exception:
    """The error of a run whose logits or loss are not finite: an input
    error before its first update, else a divergence at the last update
    taken."""
    if last is None:
        return ValueError(f"{exc} before the first update")
    return TrainingDiverged(*last)


def run_group(runs: list[tuple[TrainConfig, Dataset, Dataset]]) -> list[RunRecord | Exception]:
    """Train the (config, train, test) runs of ``runs`` as one stack; return
    each run's RunRecord, or the exception its :func:`run_training` raises.

    The configs must be equal apart from ``seed`` and the train splits of
    one shape (rows, dim, classes), else ValueError.  Each run keeps the
    sub-streams of its seed (split 0 initializes its parameters, split 1
    drives its shuffles), its splits and their checks, and its divergence
    guard.  Its parameters and Adam moments are a row of (R, P) stacks that
    one :func:`train_step` and one :func:`adam_step` update per batch, with
    the values of its solo steps (a group of one has no run axis).  The flipped view is only evaluated in
    mode ``nla``.  A run that fails leaves the stack and the others go on.
    The weight statistics and the evaluation take one run at a time.
    """
    if not runs:
        return []
    config = runs[0][0]
    n, dim, k = shape = runs[0][1].n, runs[0][1].dim, runs[0][1].n_classes
    outcomes: list = [None] * len(runs)
    for i, (cfg, train, test) in enumerate(runs):
        if (dataclasses.replace(cfg, seed=config.seed) != config
                or (train.n, train.dim, train.n_classes) != shape):
            raise ValueError("the runs of a group must share a TrainConfig apart "
                             "from seed and train splits of one shape")
        try:
            _check_splits(train, test)
        except ValueError as exc:
            outcomes[i] = exc
    live = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if not live:
        return outcomes
    arch = Arch(input_dim=dim,
                hidden_dim=config.hidden_dim if config.arch == "mlp" else 0,
                n_classes=k)
    rngs = [Rng(runs[i][0].seed) for i in live]
    inits = [init_params(arch, rng.split(0)) for rng in rngs]
    seeds = [p.seed for p in inits]
    shuffles = [rng.split(1) for rng in rngs]
    # A group of one run steps without the run axis, on the arrays of a
    # solo step: numpy spends more per call on a stack of one.  ``at(r)``
    # indexes run r on the run axis, and is empty without one.
    lead = (len(live),) if len(live) > 1 else ()
    at = (lambda r: (r,)) if lead else (lambda r: ())
    params = ModelParams(arch, np.stack([p.flat for p in inits]).reshape(*lead, -1))
    state = AdamState.zeros_like(params)
    views = []
    for i in live:
        views.append([np.asarray(runs[i][1].inputs, dtype=np.float64)])
        if _VIEWS[config.mode] == 2:
            views[-1].append(default_view(runs[i][1]).apply(views[-1][0]))
    size = config.batch_size
    # Each epoch gathers every run's views in shuffled order into one
    # (V, R, N, d) array, so that each batch is a slice of it.
    inputs = np.empty((len(views[0]), *lead, n, dim))
    labels = np.empty((*lead, n), dtype=np.intp)
    metrics: dict[int, list[EpochMetrics]] = {i: [] for i in live}
    last = None  # (epoch, batch) of the last update taken

    def batch_plan() -> list[tuple[np.ndarray, np.ndarray, StepBuffers]]:
        """Each batch's slices of ``inputs`` and ``labels`` and its step
        buffers: one set for the full batch and one for the trailing one."""
        sets = {rows: StepBuffers(params, len(views[0]), rows)
                for rows in {min(size, n), n % size or size}}
        return [(inputs[..., start:start + size, :], labels[..., start:start + size],
                 sets[min(size, n - start)]) for start in range(0, n, size)]

    def leave(errors: dict[int, Exception]) -> None:
        """Take the stack's rows ``errors`` names out, with their errors."""
        nonlocal params, state, inputs, labels, sums, batches
        for r in sorted(errors, reverse=True):
            outcomes[live[r]] = errors[r]
            for per_run in (live, seeds, shuffles, views):
                del per_run[r]
        if not live:
            return
        keep = np.ones(len(params.flat), dtype=bool)
        keep[list(errors)] = False
        params = ModelParams(arch, params.flat[keep])
        state = AdamState(m=state.m[keep], v=state.v[keep], t=state.t)
        inputs, labels, sums = inputs[:, keep], labels[keep], sums[:, keep]
        batches = batch_plan()

    batches = batch_plan()
    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_gamma ** epoch
        kernels = epoch_kernels(config.policy, epoch)
        for r, (run_views, shuffle) in enumerate(zip(views, shuffles)):
            perm = shuffle.permutation(n)
            for view, out in zip(run_views, inputs[(slice(None), *at(r))]):
                np.take(view, perm, axis=0, out=out)
            labels[at(r)] = runs[live[r]][1].labels[perm]
        sums = np.zeros((4, *params.flat.shape[:-1]))  # ce, naw_ce, reg, total per run
        for batch_index in range(len(batches)):
            while True:
                batch, batch_labels, buffers = batches[batch_index]
                try:
                    loss, grad = train_step(params, batch, batch_labels, kernels,
                                            config.lam, config.mode, buffers)
                    break
                except _NonFinite as exc:
                    # The runs with non-finite values leave; the others
                    # take the step again.
                    leave({r: _divergence(exc, last) for r in np.flatnonzero(exc.runs)})
                    if not live:
                        return outcomes
            adam_step(params, grad, state, lr, config)
            last = epoch, batch_index
            sums += loss.components.sum(axis=-1)
        errors = {}
        for r, i in enumerate(live):
            run_params = ModelParams(arch, params.flat[at(r)])
            run_sums = sums[(slice(None), *at(r))]
            try:
                # Only the weight statistics see the epoch's last update.
                quartiles = collect_weight_stats(run_params, runs[i][1], kernels)
            except FloatingPointError as exc:
                errors[r] = _divergence(exc, last)
                continue
            try:
                ev = evaluate(run_params, runs[i][2])
            except FloatingPointError as exc:
                errors[r] = exc
                continue
            metrics[i].append(EpochMetrics(
                epoch=epoch, lr=lr,
                loss_ce=float(run_sums[0] / n), loss_naw_ce=float(run_sums[1] / n),
                loss_reg=float(run_sums[2] / n), loss_total=float(run_sums[3] / n),
                test_overall=ev.overall, test_mean=ev.mean,
                per_class_acc=ev.per_class, weight_quartiles=quartiles))
        if errors:
            leave(errors)
            if not live:
                return outcomes
    for r, i in enumerate(live):
        outcomes[i] = RunRecord(config=runs[i][0], metrics=metrics[i],
                                params=ModelParams(arch, params.flat[at(r)], seeds[r]))
    return outcomes


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
