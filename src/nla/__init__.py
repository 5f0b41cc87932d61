"""Noise-aware adaptive sample weighting with consistency training.

A small numpy library for studying classification under label noise and
long-tailed class imbalance.  Per-sample loss weights come from a
bivariate Gaussian kernel over the (ground-truth, nearest-negative)
prediction scores, with an epoch-scheduled covariance; a symmetrized-KL
consistency term ties predictions on a sample and its mirrored view.
"""

__version__ = "0.1.0"

from .numkit import Rng, SingularMatrixError, log_softmax, logsumexp, mat2_det, \
    mat2_inverse, softmax
from .naw import (ALONG_Y_EQ_NEG_X, ALONG_Y_EQ_X, KernelParams, WeightPolicy,
                  build_false_kernel, build_true_kernel, covariance_schedule,
                  epoch_kernels, gaussian_weight, naw_weights,
                  sigma_from_axis_ratio)
from .losses import batch_total, consistency_loss, cross_entropy, naw_ce_loss
from .model import Arch, ForwardTrace, GradCheckResult, ModelParams, backward, \
    forward, gradient_check, init_params, load_checkpoint, save_checkpoint
from .data import (Dataset, FormatError, ViewTransform, apply_imbalance,
                   bayes_accuracy, default_view, fingerprint, ingest_csv,
                   ingest_idx, inject_noise, load_dataset, make_synthetic,
                   save_dataset, standard_instance)
from .trainer import (EpochMetrics, EvalResult, RunRecord, TrainConfig,
                      TrainingDiverged, collect_weight_stats, evaluate,
                      run_training, save_run_record, select_epoch, train_step)

__all__ = [name for name in dir() if not name.startswith("_")]
