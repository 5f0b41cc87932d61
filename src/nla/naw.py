"""Noise-aware adaptive weighting (NAW).

Each training sample is scored by a bivariate Gaussian kernel evaluated at
the point (ground-truth score, nearest-negative score): the model's
predicted probability for the labeled class, paired with its highest
predicted probability among the other classes.  Samples whose two scores
sit near the kernel mean (ambiguous predictions) receive weights near the
kernel's normalizing constant; clean or badly mislabeled samples sit far
from the mean and receive weights near zero.

Two branches are used.  When the labeled class attains the maximum
probability (a true prediction, ties included) the kernel is centered at
(0.5, 0.5) and its covariance is reshaped every epoch, starting isotropic
and elongating along the y = -x direction so that clean samples regain
weight late in training.  Otherwise a fixed kernel centered at
(0.3, 0.15) and elongated along y = x is used, which suppresses
confidently wrong (noisy) samples while keeping weight on ambiguous ones.

One scoring path serves :func:`naw_weights` and the training loss:
:func:`_label_scores` then :func:`_branch_weights`, which evaluates one
density per row; :func:`gaussian_weight` evaluates it at given points.
:func:`kernel_params` builds one kernel or a stack of them with the same
code, so the acceptance oracle builds and scores its random kernels a
block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import _check_labels, _row_max

__all__ = [
    "ALONG_Y_EQ_X",
    "ALONG_Y_EQ_NEG_X",
    "KernelParams",
    "WeightPolicy",
    "covariance_schedule",
    "sigma_from_axis_ratio",
    "kernel_params",
    "build_true_kernel",
    "build_false_kernel",
    "epoch_kernels",
    "gaussian_weight",
    "naw_weights",
]

# Major-axis orientations for sigma_from_axis_ratio.
ALONG_Y_EQ_X = "y=x"
ALONG_Y_EQ_NEG_X = "y=-x"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class KernelParams:
    """Gaussian weighting kernels: means, covariances and constants.

    One kernel has ``mu`` (2,), ``sigma`` (2, 2), a float ``norm_const``
    and ``constants`` (6,); a stack of kernels puts its leading axes after
    those: ``mu`` (..., 2), ``sigma`` (..., 2, 2), ``norm_const`` (...)
    and ``constants`` (6, ...).  ``norm_const`` is 1 / (2 pi
    sqrt(det(sigma))), a kernel's value at its mean and the upper bound of
    every weight it produces.  ``constants`` is what the density reads:
    (mu_x, mu_y, inv_xx, inv_xy, inv_yy, norm_const), with inv the inverse
    of sigma.
    """

    mu: np.ndarray
    sigma: np.ndarray
    norm_const: float | np.ndarray
    constants: np.ndarray


def kernel_params(mu, sigma) -> KernelParams:
    """Validate means and covariances and precompute their constants.

    ``mu`` is (..., 2) and ``sigma`` (..., 2, 2) with the same leading
    axes, none for one kernel; a stack is judged and built with one numpy
    call per step.  The one judge of a kernel, :class:`WeightPolicy`'s
    too: every mean must be finite and every covariance finite, symmetric
    and positive definite with a determinant above 1e-12; each is inverted
    by the adjugate formula.  The first rule that any kernel of the stack
    breaks names the error.
    """
    mu = np.array(mu, dtype=np.float64)
    sigma = np.array(sigma, dtype=np.float64)
    if mu.shape[-1:] != (2,):
        raise ValueError(f"mean must have shape (..., 2), got {mu.shape}")
    if sigma.shape[-2:] != (2, 2):
        raise ValueError(f"covariance must have shape (..., 2, 2), got {sigma.shape}")
    if mu.shape[:-1] != sigma.shape[:-2]:
        raise ValueError(f"mean and covariance stacks differ: {mu.shape} and {sigma.shape}")
    # Each kernel's six numbers on the last axis.  count_nonzero is numpy's
    # cheapest reduction, for one kernel too.
    raw = np.concatenate((mu, sigma.reshape(mu.shape[:-1] + (4,))), axis=-1)
    if np.count_nonzero(np.isfinite(raw)) < raw.size:
        raise ValueError("mean and covariance must contain only finite values")
    # That axis first: one kernel unpacks to numpy scalars, a stack to one
    # array per number.
    lead = range(mu.ndim - 1)
    mu_x, mu_y, a, b, c, d = raw.transpose(-1, *lead)
    if np.count_nonzero(b != c):
        raise ValueError("covariance must be symmetric")
    det = a * d - b * c
    if np.count_nonzero((a <= 0.0) | (det <= 1e-12)):
        raise ValueError("covariance must be positive definite (det > 1e-12)")
    norm_const = 1.0 / (_TWO_PI * np.sqrt(det))
    constants = np.array([mu_x, mu_y, d / det, -b / det, a / det, norm_const])
    for arr in (mu, sigma, constants):
        arr.flags.writeable = False
    return KernelParams(mu=mu, sigma=sigma, constants=constants,
                        norm_const=constants[5] if lead else float(norm_const))


@dataclass(frozen=True)
class WeightPolicy:
    """Complete weighting configuration: both branches plus the horizon.

    Axis ratios are ratios of ellipse axis lengths (major : minor), so the
    covariance eigenvalue ratio is the square of the stated value.  The
    fields are checked by building the horizon epoch's kernels, the most
    elongated the policy gives, so :func:`kernel_params` judges them.
    """

    mu_true: tuple[float, float] = (0.5, 0.5)
    mu_false: tuple[float, float] = (0.3, 0.15)
    sigma_diag: float = 0.8
    axis_ratio_true: float = 2.0
    axis_ratio_false: float = 6.0
    total_epochs: int = 60

    def __post_init__(self) -> None:
        epoch_kernels(self, self.total_epochs)


def covariance_schedule(epoch: int, total_epochs: int) -> float:
    """Epoch-scheduled covariance factor 1 - exp(-10 e / E).

    Strictly increasing in the epoch; 0 at epoch 0 and 1 - e^-10 at the
    final epoch E.
    """
    if total_epochs <= 0:
        raise ValueError("total_epochs must be positive")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return -math.expm1(-10.0 * epoch / total_epochs)


def sigma_from_axis_ratio(diag: float, ratio: float, orientation: str) -> np.ndarray:
    """Covariance with equal diagonals whose ellipse has the given shape.

    Returns [[d, b], [b, d]] with |b| = d (r^2 - 1) / (r^2 + 1), where r
    is the major:minor axis-length ratio.  The eigenvectors of such a
    matrix are (1, 1) and (1, -1); b > 0 puts the larger eigenvalue (the
    major axis) along y = x, b < 0 along y = -x.
    """
    if diag <= 0.0:
        raise ValueError("diag must be positive")
    if ratio < 1.0:
        raise ValueError("ratio must be >= 1")
    if orientation not in (ALONG_Y_EQ_X, ALONG_Y_EQ_NEG_X):
        raise ValueError(f"orientation must be {ALONG_Y_EQ_X!r} or {ALONG_Y_EQ_NEG_X!r}")
    r2 = ratio * ratio
    b = diag * (r2 - 1.0) / (r2 + 1.0)
    if orientation == ALONG_Y_EQ_NEG_X:
        b = -b
    return np.array([[diag, b], [b, diag]], dtype=np.float64)


def build_true_kernel(policy: WeightPolicy, epoch: int) -> KernelParams:
    """True-branch kernel for the given epoch.

    The off-diagonal of the fully elongated covariance (major axis along
    y = -x) is scaled by the covariance schedule, so the contour morphs
    from isotropic at epoch 0 toward the full ellipse at the horizon.
    """
    full = sigma_from_axis_ratio(policy.sigma_diag, policy.axis_ratio_true,
                                 ALONG_Y_EQ_NEG_X)
    cs = covariance_schedule(epoch, policy.total_epochs)
    b = cs * full[0, 1]
    sigma = np.array([[policy.sigma_diag, b], [b, policy.sigma_diag]])
    return kernel_params(np.array(policy.mu_true), sigma)


def build_false_kernel(policy: WeightPolicy) -> KernelParams:
    """False-branch kernel; fixed over all epochs."""
    sigma = sigma_from_axis_ratio(policy.sigma_diag, policy.axis_ratio_false,
                                  ALONG_Y_EQ_X)
    return kernel_params(np.array(policy.mu_false), sigma)


def epoch_kernels(policy: WeightPolicy, epoch: int) -> tuple[KernelParams, KernelParams]:
    """The (true-branch, false-branch) kernel pair in force at ``epoch``.

    Only the true-branch kernel depends on the epoch, so a trainer builds
    the pair once per epoch and passes it to every batch.
    """
    return build_true_kernel(policy, epoch), build_false_kernel(policy)


def _density(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kernel density at the points (x[i], y[i]).

    ``c`` holds :attr:`KernelParams.constants`, each entry a scalar or one
    value per point.  Squares are products, as numpy computes an array's
    ``** 2``, so a scalar point gets the bits of the same point in an array.
    """
    dx = x - c[0]
    dy = y - c[1]
    q = c[2] * (dx * dx) + 2.0 * c[3] * dx * dy + c[4] * (dy * dy)
    return c[5] * np.exp(-0.5 * q)


def gaussian_weight(p, kernel: KernelParams):
    """Kernel density at (..., 2) points; each in (0, norm_const].

    The density that :func:`naw_weights` evaluates.  The points broadcast
    against the kernel's leading axes, so a stack of points can meet one
    kernel or a stack of kernels.  One point on one kernel gives a float.
    """
    p = np.asarray(p, dtype=np.float64)
    w = _density(p[..., 0], p[..., 1], kernel.constants)
    return w if w.ndim else float(w)


def _label_scores(probs: np.ndarray, labels: np.ndarray):
    """The flat label positions ``row * K + label`` of (n, K) probability
    rows, the ground-truth probabilities there and the cross-entropy
    gradient p - onehot, a new array.  Unchecked: the caller guarantees a
    float array and (n,) integer labels in [0, K)."""
    n, k = probs.shape
    at = np.arange(0, n * k, k) + labels
    p_gt = probs.take(at)
    grad = probs.copy()
    grad.put(at, p_gt - 1.0)
    return at, p_gt, grad


def _branch_weights(p_gt: np.ndarray, grad: np.ndarray,
                    kernels: tuple[KernelParams, KernelParams]) -> np.ndarray:
    """Weights at the points (p_gt[i], p_nn[i]) from the scores of
    :func:`_label_scores`: one density per row, with the constants of the
    true-branch kernel where p_gt >= p_nn and of the false-branch kernel
    elsewhere.  The nearest negative p_nn is the row maximum of the
    gradient p - onehot, which is the maximum over the other classes when
    K >= 2 and every probability lies in [0, 1]: the label entry is
    p - 1 <= 0 and every other entry >= 0."""
    p_nn = _row_max(grad)
    true_kernel, false_kernel = kernels
    constants = np.where(p_gt >= p_nn, true_kernel.constants[:, None],
                         false_kernel.constants[:, None])
    return _density(p_gt, p_nn, constants)


def naw_weights(probs: np.ndarray, labels: np.ndarray,
                kernels: tuple[KernelParams, KernelParams]) -> np.ndarray:
    """Vectorized adaptive weights for a batch.

    ``probs`` is (n, K) with K >= 2 and rows on the probability simplex;
    ``labels`` is (n,) integers in [0, K); ``kernels`` is the (true, false)
    pair from :func:`epoch_kernels`.  Row i's weight is the density of the
    true-branch kernel at (p_gt, p_nn) when p_gt >= p_nn, else of the
    false-branch kernel.  Raises ValueError for K < 2, for NaN or
    probabilities outside [0, 1] and for labels that are not integers in
    range.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = probs.shape
    if k < 2:
        raise ValueError("probability rows need K >= 2 classes")
    # One comparison pair, so that NaN fails it too.
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per probability row")
    _check_labels(labels, k)
    _, p_gt, grad = _label_scores(probs, labels)
    return _branch_weights(p_gt, grad, kernels)
