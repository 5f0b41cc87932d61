"""Loss assembly with analytic logit gradients.

Cross-entropy, its adaptively weighted variant, a symmetrized-KL
consistency term between two views of the same batch, and the blended
total.  The adaptive weight is treated as a per-sample constant in every
gradient: no gradient flows through the weighting kernel.

:func:`batch_total` is the one implementation of the loss; training calls
it on every mini-batch.  The single-sample functions check their inputs
and evaluate one row through the same code: :func:`cross_entropy` and
:func:`naw_ce_loss` are one-row calls of :func:`batch_total`, and
:func:`consistency_loss` uses its consistency core.  Every softmax here is
the one of :mod:`nla.numkit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .naw import (KernelParams, WeightPolicy, _branch_weights, _label_scores,
                  epoch_kernels)
from .numkit import _as_finite_array, _check_labels, _softmax_lse

__all__ = [
    "MODES",
    "BatchLoss",
    "cross_entropy",
    "naw_ce_loss",
    "consistency_loss",
    "batch_total",
]

# Views a step of each mode reads: the batch and, in mode nla, its
# mirrored view.
_VIEWS = {"ce": 1, "naw": 1, "nla": 2}
MODES = tuple(_VIEWS)

_M_FLOOR = 1e-12  # floor on mixture entries before taking logs


@dataclass
class BatchLoss:
    """Per-sample loss components plus gradients of the batch mean.

    ``components`` holds the rows ce, naw_ce, reg and total, one entry per
    sample, so that one reduction over the last axis sums all four;
    ``weight`` has one entry per sample.  ``grad`` stacks the gradients of
    the batch-mean total with respect to each view's logits (so they
    already carry the 1/n factor): (2, n, K) in mode ``nla``, (1, n, K)
    otherwise, whose loss does not read the mirrored view.  For a stack of
    R runs, the samples of each are (R, n) instead of (n,): components
    are (4, R, n), the weights (R, n) and the gradients (V, R, n, K), each
    run's the mean over its own n samples.
    """

    components: np.ndarray
    weight: np.ndarray
    grad: np.ndarray

    ce = property(lambda self: self.components[0])
    naw_ce = property(lambda self: self.components[1])
    reg = property(lambda self: self.components[2])
    total = property(lambda self: self.components[3])
    grad_z = property(lambda self: self.grad[0])


def _as_logit_rows(logits, name: str) -> np.ndarray:
    z = _as_finite_array(logits, name)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"{name} must be a vector or matrix with K >= 2 columns")
    return z


def _one_sample(logits, label: int) -> tuple[np.ndarray, np.ndarray]:
    """Check one logit vector and its label; return them as a (1, K) row
    and a (1,) label array."""
    z = _as_logit_rows(logits, "logits")
    if z.shape[0] != 1:
        raise ValueError("logits must be a single logit vector")
    labels = np.array([label])
    if labels.shape != (1,):
        raise ValueError(f"label must be a scalar, got {label!r}")
    _check_labels(labels, z.shape[1], "label")
    return z, labels


def _consistency(p: np.ndarray):
    """Symmetrized KL against the mixture, per sample, with both gradients.

    ``p`` stacks the two views' probabilities as a (2, n, K) array.  With
    m = (p[0] + p[1]) / 2 the loss is KL(p[0]||m) + KL(p[1]||m), which lies
    in [0, 2 ln 2].  Mixture entries are floored at 1e-12 before the log
    and 0 log 0 is taken as 0.  Returns the (n,) losses and the (2, n, K)
    gradients with respect to each view's logits.
    """
    m = p[0] + p[1]
    m *= 0.5
    np.maximum(m, _M_FLOOR, out=m)
    log_m = np.log(m, out=m)
    # terms p log(p/m) with the 0 log 0 convention; dual = log(p/m)
    dual = np.maximum(p, _M_FLOOR)
    np.log(dual, out=dual)
    dual -= log_m
    dual = np.where(p > 0.0, dual, 0.0)
    kl = np.add.reduce(p * dual, axis=-1)
    # d loss / d z = p * (log(p/m) - KL(p||m)) for each view.
    dual -= kl[..., None]
    dual *= p
    return kl[0] + kl[1], dual


def cross_entropy(logits, label: int):
    """Negative log-probability of the labeled class.

    Returns ``(loss, grad)`` where ``grad = softmax(logits) - onehot``.
    """
    z, labels = _one_sample(logits, label)
    batch = batch_total(z[None], labels, None, 1.0, mode="ce")
    return float(batch.ce[0]), batch.grad_z[0]


def naw_ce_loss(logits, label: int, epoch: int, policy: WeightPolicy):
    """Adaptively weighted cross-entropy: (1 + w) * ce.

    The weight w comes from the epoch's kernels and is a constant with
    respect to the logits.  Returns ``(loss, weight, grad)``.
    """
    z, labels = _one_sample(logits, label)
    batch = batch_total(z[None], labels, epoch_kernels(policy, epoch),
                        1.0, mode="naw")
    return float(batch.naw_ce[0]), float(batch.weight[0]), batch.grad_z[0]


def consistency_loss(logits_a, logits_b):
    """Symmetrized KL between the two views' predicted distributions.

    Returns ``(loss, grad_a, grad_b)``.  Swapping the inputs swaps the
    gradients and leaves the loss unchanged.
    """
    za = _as_logit_rows(logits_a, "logits_a")
    zb = _as_logit_rows(logits_b, "logits_b")
    if za.shape != zb.shape:
        raise ValueError("both views must have the same shape")
    if za.shape[0] != 1:
        raise ValueError("consistency_loss takes single logit vectors")
    p, _ = _softmax_lse(np.array((za, zb)))
    losses, grads = _consistency(p)
    return float(losses[0]), grads[0, 0], grads[1, 0]


def batch_total(logits: np.ndarray, labels: np.ndarray,
                kernels: tuple[KernelParams, KernelParams] | None, lam: float,
                mode: str = "nla",
                frozen_weights: np.ndarray | None = None) -> BatchLoss:
    """Vectorized loss for one mini-batch under a training mode.

    Modes:
      * ``ce``:  plain cross-entropy; weight and reg are zero.
      * ``naw``: weighted cross-entropy only.
      * ``nla``: lam-blend of weighted cross-entropy and consistency.

    ``logits`` stacks the views' (n, K) logits on a leading axis: the
    batch, then (read in mode ``nla`` only) its mirrored view.  Logits of
    a stack of R runs are (V, R, n, K), with labels (R, n): the rows of
    every run go through one evaluation, and each run's gradient is the
    one of its own batch mean, as if it were evaluated alone.
    ``kernels`` is the (true, false) pair of :func:`nla.naw.epoch_kernels`
    for the batch's epoch; mode ``ce`` and ``frozen_weights`` ignore it.
    ``frozen_weights`` substitutes precomputed per-sample weights for the
    ones the current logits would induce; finite-difference gradient
    checks use this to hold the weights constant across perturbations,
    matching the analytic gradients' stop-gradient treatment of them.

    The views' softmax is computed once and shared by the cross-entropy,
    its gradient, the adaptive weights and the consistency term.  Labels,
    that gradient and the weights come from the scoring path of
    :func:`nla.naw.naw_weights`.  Inputs are not checked here: ``logits``
    must be finite float64 and ``labels`` integers in [0, K), one per row.
    ``run_training`` checks the labels once per run and the logits once
    per step; the single-sample functions above check theirs per call.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    z = logits[:_VIEWS[mode]]
    shape = z.shape  # (V, n, K), or (V, R, n, K) for a stack of runs
    if len(shape) > 3:  # the rows of every run, one after another
        z = z.reshape(shape[0], -1, shape[-1])
        labels = labels.reshape(-1)
    n = z.shape[1]
    p, lse = _softmax_lse(z)
    at, p_gt, ce_grad = _label_scores(p[0], labels)
    components = np.empty((4, n))
    ce, naw_ce, reg, total = components
    np.subtract(lse[0], z[0].take(at), out=ce)

    if mode == "ce":
        components[1] = ce
        components[2] = 0.0
        components[3] = ce
        w, grad = np.zeros(n), ce_grad[None]
    else:
        if frozen_weights is None:
            w = _branch_weights(p_gt, ce_grad, kernels)
        else:
            w = np.asarray(frozen_weights, dtype=np.float64)
            if w.shape != shape[1:-1]:
                raise ValueError("frozen_weights must have one entry per row")
            w = w.reshape(n)
        multiplier = 1.0 + w
        np.multiply(multiplier, ce, out=naw_ce)
        ce_grad *= multiplier[:, None]  # the weighted cross-entropy's gradient
        if mode == "naw":
            components[2] = 0.0
            components[3] = naw_ce
            grad = ce_grad[None]
        else:
            reg[:], grad = _consistency(p)
            np.multiply(lam, naw_ce, out=total)
            total += (1.0 - lam) * reg
            grad *= 1.0 - lam
            ce_grad *= lam
            grad[0] += ce_grad
    grad /= shape[-2]  # each run's batch mean
    if len(shape) > 3:
        return BatchLoss(components.reshape((4,) + shape[1:-1]), w.reshape(shape[1:-1]),
                         grad.reshape(shape))
    return BatchLoss(components, w, grad)
