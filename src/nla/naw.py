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
density per row; :func:`gaussian_weight` evaluates it on a single point.
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

    The one judge of a kernel, :class:`WeightPolicy`'s too: the mean must
    be a finite 2-vector and the covariance finite, symmetric and positive
    definite with a determinant above 1e-12; it is inverted by the
    adjugate formula.
    """
    mu = np.array(mu, dtype=np.float64)
    sigma = np.array(sigma, dtype=np.float64)
    if mu.shape != (2,):
        raise ValueError(f"mean must have shape (2,), got {mu.shape}")
    if sigma.shape != (2, 2):
        raise ValueError(f"covariance must have shape (2, 2), got {sigma.shape}")
    # Python floats from here on: the same IEEE double operations as
    # numpy's, without its per-scalar overhead.
    mu_xy = mu.tolist()
    (a, b), (c, d) = sigma.tolist()
    if not all(map(math.isfinite, (*mu_xy, a, b, c, d))):
        raise ValueError("mean and covariance must contain only finite values")
    if b != c:
        raise ValueError("covariance must be symmetric")
    det = a * d - b * c
    if a <= 0.0 or det <= 1e-12:
        raise ValueError("covariance must be positive definite (det > 1e-12)")
    norm_const = 1.0 / (_TWO_PI * math.sqrt(det))
    constants = np.array(mu_xy + [d / det, -b / det, a / det, norm_const])
    for arr in (mu, sigma, constants):
        arr.flags.writeable = False
    return KernelParams(mu=mu, sigma=sigma, norm_const=norm_const, constants=constants)


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
