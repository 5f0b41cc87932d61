"""Loss assembly with analytic logit gradients.

Cross-entropy, its adaptively weighted variant, a symmetrized-KL
consistency term between two views of the same batch, and the blended
total.  The adaptive weight is treated as a per-sample constant in every
gradient: no gradient flows through the weighting kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .naw import KernelParams, WeightPolicy, epoch_kernels, score_weights

__all__ = [
    "MODES",
    "LossBreakdown",
    "BatchLoss",
    "cross_entropy",
    "naw_ce_loss",
    "consistency_loss",
    "total_loss",
    "batch_total",
]

MODES = ("ce", "naw", "nla")

_M_FLOOR = 1e-12  # floor on mixture entries before taking logs


@dataclass
class LossBreakdown:
    """All components of the blended loss for one sample.

    ``grad_logits`` is the gradient with respect to the first view's
    logits; ``grad_logits_aux`` with respect to the second view's.
    """

    ce: float
    weight: float
    naw_ce: float
    reg: float
    total: float
    grad_logits: np.ndarray
    grad_logits_aux: np.ndarray


@dataclass
class BatchLoss:
    """Per-sample loss components plus gradients of the batch mean.

    Component arrays have one entry per sample.  ``grad_z`` and
    ``grad_zf`` are the gradients of ``total.mean()`` with respect to the
    two views' logit matrices (so they already carry the 1/n factor).
    """

    ce: np.ndarray
    weight: np.ndarray
    naw_ce: np.ndarray
    reg: np.ndarray
    total: np.ndarray
    grad_z: np.ndarray
    grad_zf: np.ndarray


def _as_logit_rows(logits, name: str) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"{name} must be a vector or matrix with K >= 2 columns")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} must be finite")
    return z


def _one_sample(logits, label: int, name: str = "logits") -> np.ndarray:
    """Check one logit vector and its label; return the vector as a (1, K) row."""
    z = _as_logit_rows(logits, name)
    if z.shape[0] != 1:
        raise ValueError(f"{name} must be a single logit vector")
    if not 0 <= label < z.shape[1]:
        raise ValueError(f"label {label} out of range for {z.shape[1]} categories")
    return z


def _softmax_lse(z: np.ndarray):
    """Softmax and log-sum-exp over the last axis from one max/exp/sum."""
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, m[..., 0] + np.log(s[..., 0])


def _consistency(p: np.ndarray):
    """Symmetrized KL against the mixture, per sample, with both gradients.

    ``p`` stacks the two views' probabilities as a (2, n, K) array.  With
    m = (p[0] + p[1]) / 2 the loss is KL(p[0]||m) + KL(p[1]||m), which lies
    in [0, 2 ln 2].  Mixture entries are floored at 1e-12 before the log
    and 0 log 0 is taken as 0.  Returns the (n,) losses and the (2, n, K)
    gradients with respect to each view's logits.
    """
    m = np.maximum(0.5 * (p[0] + p[1]), _M_FLOOR)
    log_m = np.log(m)
    # terms p log(p/m) with the 0 log 0 convention; dual = log(p/m)
    dual = np.where(p > 0.0, np.log(np.maximum(p, _M_FLOOR)) - log_m, 0.0)
    kl = (p * dual).sum(axis=-1)
    # d loss / d z = p * (log(p/m) - KL(p||m)) for each view.
    return kl[0] + kl[1], p * (dual - kl[..., None])


def _batch_consistency(za: np.ndarray, zb: np.ndarray):
    """Consistency losses of two (n, K) logit matrices and both gradients."""
    p, _ = _softmax_lse(np.array((za, zb)))
    losses, grads = _consistency(p)
    return losses, grads[0], grads[1]


def cross_entropy(logits, label: int):
    """Negative log-probability of the labeled class.

    Returns ``(loss, grad)`` where ``grad = softmax(logits) - onehot``.
    """
    z = _one_sample(logits, label)
    p, lse = _softmax_lse(z)
    grad = p[0]
    grad[label] -= 1.0
    return float(lse[0] - z[0, label]), grad


def naw_ce_loss(logits, label: int, epoch: int, policy: WeightPolicy):
    """Adaptively weighted cross-entropy: (1 + w) * ce.

    The weight w comes from the epoch's kernels and is a constant with
    respect to the logits.  Returns ``(loss, weight, grad)``.
    """
    z = _one_sample(logits, label)
    batch = batch_total(z, z, np.array([label]), epoch_kernels(policy, epoch),
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
    losses, ga, gb = _batch_consistency(za, zb)
    return float(losses[0]), ga[0], gb[0]


def total_loss(logits, flipped_logits, label: int, epoch: int,
               policy: WeightPolicy, lam: float) -> LossBreakdown:
    """Blend of weighted cross-entropy and the consistency term.

    total = lam * (1 + w) * ce(view 1) + (1 - lam) * reg(view 1, view 2).
    The cross-entropy part reads only the first (original) view.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    z = _one_sample(logits, label)
    zf = _one_sample(flipped_logits, label, "flipped logits")
    if zf.shape != z.shape:
        raise ValueError("both views must have the same shape")
    batch = batch_total(z, zf, np.array([label]), epoch_kernels(policy, epoch),
                        lam, mode="nla")
    return LossBreakdown(
        ce=float(batch.ce[0]),
        weight=float(batch.weight[0]),
        naw_ce=float(batch.naw_ce[0]),
        reg=float(batch.reg[0]),
        total=float(batch.total[0]),
        grad_logits=batch.grad_z[0],
        grad_logits_aux=batch.grad_zf[0],
    )


def batch_total(z: np.ndarray, zf: np.ndarray, labels: np.ndarray,
                kernels: tuple[KernelParams, KernelParams], lam: float,
                mode: str = "nla",
                frozen_weights: np.ndarray | None = None) -> BatchLoss:
    """Vectorized loss for one mini-batch under a training mode.

    Modes:
      * ``ce``:  plain cross-entropy; weight and reg are zero.
      * ``naw``: weighted cross-entropy only.
      * ``nla``: lam-blend of weighted cross-entropy and consistency.

    ``kernels`` is the (true, false) pair of :func:`nla.naw.epoch_kernels`
    for the batch's epoch; mode ``ce`` and ``frozen_weights`` ignore it.
    ``frozen_weights`` substitutes precomputed per-sample weights for the
    ones the current logits would induce; finite-difference gradient
    checks use this to hold the weights constant across perturbations,
    matching the analytic gradients' stop-gradient treatment of them.

    Each view's softmax is computed once and shared by the cross-entropy,
    its gradient, the adaptive weights and the consistency term.  Inputs
    are not checked here: ``z`` and ``zf`` must be finite float64 (n, K)
    arrays of one shape and ``labels`` (n,) integers in [0, K).
    ``run_training`` checks the labels once per run and the logits once
    per step; the single-sample functions above check theirs per call.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = z.shape[0]
    rows = np.arange(n)
    if mode == "nla":
        p_views, lse = _softmax_lse(np.array((z, zf)))
        p, lse = p_views[0], lse[0]
    else:
        p, lse = _softmax_lse(z)
    ce = lse - z[rows, labels]
    ce_grad = p.copy()
    ce_grad[rows, labels] -= 1.0

    if mode == "ce":
        zeros = np.zeros(n)
        return BatchLoss(ce=ce, weight=zeros, naw_ce=ce.copy(), reg=zeros.copy(),
                         total=ce.copy(), grad_z=ce_grad / n,
                         grad_zf=np.zeros_like(zf))

    if frozen_weights is None:
        w = score_weights(p, labels, kernels)
    else:
        w = np.asarray(frozen_weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("frozen_weights must have one entry per row")
    naw_ce = (1.0 + w) * ce
    naw_grad = (1.0 + w)[:, None] * ce_grad

    if mode == "naw":
        zeros = np.zeros(n)
        return BatchLoss(ce=ce, weight=w, naw_ce=naw_ce, reg=zeros,
                         total=naw_ce.copy(), grad_z=naw_grad / n,
                         grad_zf=np.zeros_like(zf))

    reg, reg_grads = _consistency(p_views)
    total = lam * naw_ce + (1.0 - lam) * reg
    grad_z = (lam * naw_grad + (1.0 - lam) * reg_grads[0]) / n
    grad_zf = (1.0 - lam) * reg_grads[1] / n
    return BatchLoss(ce=ce, weight=w, naw_ce=naw_ce, reg=reg, total=total,
                     grad_z=grad_z, grad_zf=grad_zf)
