"""Noise-aware adaptive sample weighting with consistency training.

A small numpy library for studying classification under label noise and
long-tailed class imbalance.  Per-sample loss weights come from a
bivariate Gaussian kernel over the (ground-truth, nearest-negative)
prediction scores, with an epoch-scheduled covariance; a symmetrized-KL
consistency term ties predictions on a sample and its mirrored view.
"""

__version__ = "0.1.0"

from .numkit import softmax
from .naw import (WeightPolicy, build_false_kernel, build_true_kernel,
                  epoch_kernels, gaussian_weight)
from .losses import batch_total
from .model import Arch, forward, gradient_check, init_params
from .data import (apply_imbalance, bayes_accuracy, fingerprint, inject_noise,
                   mirror, save_dataset, standard_instance)
from .trainer import TrainConfig, run_training

__all__ = [name for name in dir() if not name.startswith("_")]
