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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import mat2_det, mat2_inverse

__all__ = [
    "ALONG_Y_EQ_X",
    "ALONG_Y_EQ_NEG_X",
    "PredictionPair",
    "KernelParams",
    "WeightPolicy",
    "extract_scores",
    "covariance_schedule",
    "sigma_from_axis_ratio",
    "kernel_params",
    "build_true_kernel",
    "build_false_kernel",
    "epoch_kernels",
    "gaussian_weight",
    "gaussian_weight_many",
    "naw_weight",
    "score_weights",
    "naw_weights",
]

# Major-axis orientations for sigma_from_axis_ratio.
ALONG_Y_EQ_X = "y=x"
ALONG_Y_EQ_NEG_X = "y=-x"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PredictionPair:
    """Ground-truth and nearest-negative scores for one sample.

    ``is_true_prediction`` is True when the labeled class attains the
    maximum probability; the tie p_gt == p_nn counts as true, so the
    (0.5, 0.5) center of the true-branch kernel is reachable.
    """

    p_gt: float
    p_nn: float
    is_true_prediction: bool


@dataclass(frozen=True, eq=False)
class KernelParams:
    """One Gaussian weighting branch: mean, covariance, and constants.

    ``norm_const`` is 1 / (2 pi sqrt(det(sigma))), the kernel's value at
    its mean and the upper bound of every weight it produces.
    """

    mu: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray
    norm_const: float


def kernel_params(mu, sigma) -> KernelParams:
    """Validate a mean / covariance pair and precompute its constants."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != (2,):
        raise ValueError(f"mean must have shape (2,), got {mu.shape}")
    if sigma.shape != (2, 2):
        raise ValueError(f"covariance must have shape (2, 2), got {sigma.shape}")
    if sigma[0, 1] != sigma[1, 0]:
        raise ValueError("covariance must be symmetric")
    det = mat2_det(sigma)
    if sigma[0, 0] <= 0.0 or det <= 0.0:
        raise ValueError("covariance must be positive definite")
    mu = mu.copy()
    sigma = sigma.copy()
    mu.flags.writeable = False
    sigma.flags.writeable = False
    inv = mat2_inverse(sigma)
    inv.flags.writeable = False
    return KernelParams(mu=mu, sigma=sigma, sigma_inv=inv,
                        norm_const=1.0 / (_TWO_PI * math.sqrt(det)))


@dataclass(frozen=True)
class WeightPolicy:
    """Complete weighting configuration: both branches plus the horizon.

    Axis ratios are ratios of ellipse axis lengths (major : minor), so the
    covariance eigenvalue ratio is the square of the stated value.
    """

    mu_true: tuple[float, float] = (0.5, 0.5)
    mu_false: tuple[float, float] = (0.3, 0.15)
    sigma_diag: float = 0.8
    axis_ratio_true: float = 2.0
    axis_ratio_false: float = 6.0
    total_epochs: int = 60

    def __post_init__(self) -> None:
        if self.sigma_diag <= 0.0:
            raise ValueError("sigma_diag must be positive")
        if self.axis_ratio_true < 1.0 or self.axis_ratio_false < 1.0:
            raise ValueError("axis ratios must be >= 1")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")


def extract_scores(probs, label: int) -> PredictionPair:
    """Split a probability vector into (labeled score, best other score)."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("probs must be a vector with at least 2 entries")
    if not 0 <= label < p.shape[0]:
        raise ValueError(f"label {label} out of range for {p.shape[0]} categories")
    p_gt = float(p[label])
    others = np.delete(p, label)
    p_nn = float(others.max())
    return PredictionPair(p_gt=p_gt, p_nn=p_nn, is_true_prediction=p_gt >= p_nn)


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


def gaussian_weight(p, kernel: KernelParams) -> float:
    """Kernel density at a single point; in (0, norm_const]."""
    d = np.asarray(p, dtype=np.float64) - kernel.mu
    q = float(d @ kernel.sigma_inv @ d)
    return kernel.norm_const * math.exp(-0.5 * q)


def _density(x: np.ndarray, y: np.ndarray, kernel: KernelParams) -> np.ndarray:
    """Kernel density at the points (x[i], y[i])."""
    dx = x - kernel.mu[0]
    dy = y - kernel.mu[1]
    i = kernel.sigma_inv
    q = i[0, 0] * dx ** 2 + 2.0 * i[0, 1] * dx * dy + i[1, 1] * dy ** 2
    return kernel.norm_const * np.exp(-0.5 * q)


def gaussian_weight_many(points: np.ndarray, kernel: KernelParams) -> np.ndarray:
    """Kernel density at each row of an (n, 2) array."""
    pts = np.asarray(points, dtype=np.float64)
    return _density(pts[:, 0], pts[:, 1], kernel)


def naw_weight(probs, label: int, epoch: int, policy: WeightPolicy) -> float:
    """Adaptive weight for one sample at the given epoch's kernels."""
    pair = extract_scores(probs, label)
    if pair.is_true_prediction:
        kernel = build_true_kernel(policy, epoch)
    else:
        kernel = build_false_kernel(policy)
    return gaussian_weight(np.array([pair.p_gt, pair.p_nn]), kernel)


def score_weights(probs: np.ndarray, labels: np.ndarray,
                  kernels: tuple[KernelParams, KernelParams]) -> np.ndarray:
    """Adaptive weights of probability rows, without input checks.

    The caller guarantees an (n, K) float array and (n,) labels in
    [0, K); :func:`naw_weights` is the checked form.
    """
    rows = np.arange(probs.shape[0])
    p_gt = probs[rows, labels]
    masked = probs.copy()
    masked[rows, labels] = -np.inf
    p_nn = masked.max(axis=1)
    true_kernel, false_kernel = kernels
    return np.where(p_gt >= p_nn, _density(p_gt, p_nn, true_kernel),
                    _density(p_gt, p_nn, false_kernel))


def naw_weights(probs: np.ndarray, labels: np.ndarray,
                kernels: tuple[KernelParams, KernelParams]) -> np.ndarray:
    """Vectorized adaptive weights for a batch.

    ``probs`` is (n, K) with rows on the probability simplex; ``labels``
    is (n,); ``kernels`` is the (true, false) pair from
    :func:`epoch_kernels`.  Equivalent to calling :func:`naw_weight` per
    row with that pair's epoch.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = probs.shape
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per probability row")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError("label out of range")
    return score_weights(probs, labels, kernels)
