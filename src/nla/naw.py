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

One density implementation serves every caller: :func:`naw_weights`
evaluates it on a batch of probability rows, and :func:`gaussian_weight`
on a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "score_weights",
    "naw_weights",
]

# Major-axis orientations for sigma_from_axis_ratio.
ALONG_Y_EQ_X = "y=x"
ALONG_Y_EQ_NEG_X = "y=-x"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class KernelParams:
    """One Gaussian weighting branch: mean, covariance, and constants.

    ``norm_const`` is 1 / (2 pi sqrt(det(sigma))), the kernel's value at
    its mean and the upper bound of every weight it produces.
    ``constants`` is what the density reads: (mu_x, mu_y, inv_xx, inv_xy,
    inv_yy, norm_const), with inv the inverse of sigma.
    """

    mu: np.ndarray
    sigma: np.ndarray
    norm_const: float
    constants: np.ndarray


def kernel_params(mu, sigma) -> KernelParams:
    """Validate a mean / covariance pair and precompute its constants.

    The covariance must be finite, symmetric and positive definite with
    a determinant above 1e-12; it is inverted by the adjugate formula.
    """
    mu = np.array(mu, dtype=np.float64)
    sigma = np.array(sigma, dtype=np.float64)
    if mu.shape != (2,):
        raise ValueError(f"mean must have shape (2,), got {mu.shape}")
    if sigma.shape != (2, 2):
        raise ValueError(f"covariance must have shape (2, 2), got {sigma.shape}")
    # Python floats from here on: the same IEEE double operations as
    # numpy's, without its per-scalar overhead.
    (a, b), (c, d) = sigma.tolist()
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError("covariance must contain only finite values")
    if b != c:
        raise ValueError("covariance must be symmetric")
    det = a * d - b * c
    if a <= 0.0 or det <= 1e-12:
        raise ValueError("covariance must be positive definite (det > 1e-12)")
    norm_const = 1.0 / (_TWO_PI * math.sqrt(det))
    constants = np.array(mu.tolist() + [d / det, -b / det, a / det, norm_const])
    for arr in (mu, sigma, constants):
        arr.flags.writeable = False
    return KernelParams(mu=mu, sigma=sigma, norm_const=norm_const, constants=constants)


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

    ``c`` holds a kernel's :attr:`KernelParams.constants`, each a scalar
    or one value per point.
    """
    dx = x - c[0]
    dy = y - c[1]
    q = c[2] * dx ** 2 + 2.0 * c[3] * dx * dy + c[4] * dy ** 2
    return c[5] * np.exp(-0.5 * q)


def gaussian_weight(p, kernel: KernelParams) -> float:
    """Kernel density at a single point; in (0, norm_const].

    A one-point call of the density that :func:`naw_weights` evaluates.
    """
    x, y = np.asarray(p, dtype=np.float64)
    return float(_density(x, y, kernel.constants))


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
    # One density per row, with the constants of the row's branch.
    constants = np.where(p_gt >= p_nn, true_kernel.constants[:, None],
                         false_kernel.constants[:, None])
    return _density(p_gt, p_nn, constants)


def naw_weights(probs: np.ndarray, labels: np.ndarray,
                kernels: tuple[KernelParams, KernelParams]) -> np.ndarray:
    """Vectorized adaptive weights for a batch.

    ``probs`` is (n, K) with rows on the probability simplex; ``labels``
    is (n,); ``kernels`` is the (true, false) pair from
    :func:`epoch_kernels`.  Row i's weight is the density of the
    true-branch kernel at (p_gt, p_nn) when p_gt >= p_nn, else of the
    false-branch kernel.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = probs.shape
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per probability row")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError("label out of range")
    return score_weights(probs, labels, kernels)
