"""Acceptance criteria 1-5, and the ``nla check`` command that runs them.

The exact-math criteria are implemented here once: kernel values against a
brute-force density oracle on a separate linear-algebra path, scheduler
endpoints and monotonicity, covariance eigenstructure, end-to-end gradient
fidelity, and the loss identities.  Each ``check_*`` function takes its
seed and sizes (if any), checks its criterion's tolerance and returns
``(ok, detail)``.  Gradient fidelity checks the step that training runs,
:func:`nla.trainer.train_step`, against losses composed here.  The
acceptance suite calls the checks at the sizes the criteria state;
:func:`run_selfcheck`, behind ``nla check``, at reduced size with its own seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .data import mirror
from .losses import batch_total, consistency_loss, cross_entropy, naw_ce_loss
from .model import _FD_STEP, _GRAD_TOLERANCE, Arch, forward, gradient_check, init_params
from .naw import (ALONG_Y_EQ_NEG_X, ALONG_Y_EQ_X, WeightPolicy,
                  covariance_schedule, epoch_kernels, gaussian_weight,
                  kernel_params, sigma_from_axis_ratio)
from .numkit import Rng
from .trainer import train_step

__all__ = [
    "brute_force_gaussian",
    "frozen_loss_fn",
    "check_kernel_oracle",
    "check_scheduler",
    "check_covariance_shapes",
    "check_gradient_fidelity",
    "check_loss_identities",
    "run_selfcheck",
]

POLICY60 = WeightPolicy(total_epochs=60)
_BOUND_CHUNK = 1000  # rows per batch_total call in the consistency bound check
_ORACLE_CHUNK = 1000  # kernel cases per block of uniforms in the oracle check
_FD_BATCH = 32  # rows per gradient-fidelity batch


def brute_force_gaussian(p, mu, sigma) -> np.ndarray:
    """Density oracle on the general linear-algebra path, for N cases.

    ``p`` and ``mu`` are (N, 2), ``sigma`` is (N, 2, 2).  Uses numpy's
    generic stacked inverse and determinant rather than the 2x2 closed
    forms, so it shares no code with the production evaluation.  The
    exponential is taken per case with ``math.exp``, whose result can
    differ from numpy's vector ``exp`` in the last bit.
    """
    p = np.asarray(p, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    d = p - mu
    # d @ inv(sigma) @ d for every case.
    quad = np.vecdot(np.vecdot(d[:, :, None], np.linalg.inv(sigma), axis=1), d)
    const = 1.0 / (2.0 * math.pi * np.sqrt(np.linalg.det(sigma)))
    return const * np.array([math.exp(v) for v in (-0.5 * quad).tolist()])


def random_kernel_cases(draws: np.ndarray):
    """Random (points, means, SPD covariances), one triple per row of 7
    uniforms in [0, 1): arrays of shape (N, 2), (N, 2) and (N, 2, 2)."""
    px, py, mx, my, ua, ub, urho = draws.T
    a = 0.1 + 1.9 * ua
    b = 0.1 + 1.9 * ub
    rho = -0.95 + 1.9 * urho
    off = rho * np.sqrt(a * b)
    sigma = np.stack([a, off, off, b], axis=1).reshape(-1, 2, 2)
    return np.stack([px, py], axis=1), np.stack([mx, my], axis=1), sigma


def check_kernel_oracle(seed: int, n: int):
    """Criterion 1: kernel values match the density oracle to 1e-10.

    Draws ``n`` random (point, mean, covariance) triples and compares
    :func:`nla.naw.gaussian_weight`, the training density, with
    :func:`brute_force_gaussian`, ``_ORACLE_CHUNK`` cases at a time: each
    chunk's kernels are judged and inverted by one
    :func:`nla.naw.kernel_params` call on the stack and scored by one
    :func:`nla.naw.gaussian_weight` call, each case at its own point.
    """
    rng = Rng(seed)
    worst = 0.0
    for lo in range(0, n, _ORACLE_CHUNK):
        draws = rng.uniforms(7 * min(_ORACLE_CHUNK, n - lo)).reshape(-1, 7)
        points, means, sigmas = random_kernel_cases(draws)
        refs = brute_force_gaussian(points, means, sigmas)
        errors = np.abs(gaussian_weight(points, kernel_params(means, sigmas)) - refs) / refs
        worst = float(np.maximum(worst, np.max(errors)))  # NaN propagates
    return bool(worst <= 1e-10), f"max rel err={worst:.3e} over {n} triples"


def check_scheduler():
    """Criterion 2: CS(0, E) = 0 exactly, CS(E, E) = 1 - e^-10 within
    1e-12, strictly increasing in the epoch, for E in 1, 10, 60 and 1000."""
    target = -math.expm1(-10.0)
    ok = True
    details = []
    for total in (1, 10, 60, 1000):
        start = covariance_schedule(0, total)
        end = covariance_schedule(total, total)
        values = [covariance_schedule(e, total) for e in range(total + 1)]
        mono = all(b > a for a, b in zip(values, values[1:]))
        ok &= start == 0.0 and abs(end - target) <= 1e-12 and mono
        details.append(f"E={total}: start={start}, |end-target|={abs(end - target):.1e}, "
                       f"monotone={mono}")
    return ok, "; ".join(details)


def check_covariance_shapes():
    """Criterion 3: eigenvalue ratios 4 and 36 within 1e-9, major axes
    along y = -x (true branch) and y = x (false branch)."""
    ok = True
    details = []
    for ratio, orient, direction in ((2.0, ALONG_Y_EQ_NEG_X, (1.0, -1.0)),
                                     (6.0, ALONG_Y_EQ_X, (1.0, 1.0))):
        sigma = sigma_from_axis_ratio(0.8, ratio, orient)
        eigvals, eigvecs = np.linalg.eigh(sigma)
        got = eigvals[1] / eigvals[0]
        unit = np.array(direction) / math.sqrt(2.0)
        aligned = abs(abs(eigvecs[:, 1] @ unit) - 1.0) <= 1e-12
        ok &= abs(got - ratio ** 2) <= 1e-9 and aligned
        details.append(f"{orient}: ratio={got:.12f}, aligned={aligned}")
    return bool(ok), "; ".join(details)


def draw_kink_safe_batch(params, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Random batch of ``_FD_BATCH`` rows and its mirrored view (the
    synthetic data's sign flip of coordinate 0), both with ReLU
    pre-activations clear of the kink by more than the step h = ``_FD_STEP``.

    A +/-h perturbation of one first-layer parameter shifts a hidden
    pre-activation by at most h * max(|x|, 1); any pre-activation closer
    to zero than that could change sign between the two finite-difference
    evaluations, making the central difference measure a mix of the two
    one-sided slopes instead of the derivative.  Batches are redrawn (for
    both views) until every pre-activation clears the kink with a 4x
    margin, for up to 100 draws.
    """
    d = params.arch.input_dim
    for _ in range(100):
        x = rng.normals(_FD_BATCH * d).reshape(_FD_BATCH, d)
        xf = mirror(x)
        margin = 4.0 * _FD_STEP * max(float(np.abs(x).max()), 1.0)
        # Pre-activations of the layers that meet a ReLU, all but the last:
        # the first layer of an MLP, none of a linear head.
        pre = [batch @ w + b for batch in (x, xf)
               for w, b in zip(params.weights[:-1], params.biases[:-1])]
        if all(np.abs(p).min() > margin for p in pre):
            return x, xf
    raise RuntimeError("could not draw a kink-safe batch")


def frozen_loss_fn(params, inputs, flipped, labels, epoch, policy, lam):
    """The training step at ``params`` with the sample weights pinned:
    ``(grad, losses)`` for :func:`nla.model.gradient_check`.

    ``grad`` is the flat gradient of the batch-mean loss from
    :func:`nla.trainer.train_step` in mode ``nla``, which treats the
    adaptive weights as constants.  ``losses`` maps a stack of R parameter
    vectors to their R batch-mean losses, composed apart from that step:
    logits-only forwards of both views, one :func:`nla.losses.batch_total`
    over the stacked rows with the weights frozen at the step's values.
    Non-finite logits give a NaN loss, without a floating-point warning.
    """
    kernels = epoch_kernels(policy, epoch)
    step, grad = train_step(params, np.array((inputs, flipped)), labels, kernels,
                            lam, "nla")

    def losses(stack):
        shape = (len(stack.flat), *labels.shape)
        logits = np.array([forward(stack, np.broadcast_to(x, (*shape, x.shape[-1])),
                                   logits_only=True).logits for x in (inputs, flipped)])
        with np.errstate(invalid="ignore", over="ignore"):
            loss = batch_total(logits, np.broadcast_to(labels, shape), kernels, lam,
                               mode="nla", frozen_weights=np.broadcast_to(step.weight, shape))
        return loss.total.mean(axis=1)

    return grad, losses


def check_gradient_fidelity(seed: int, trials: int):
    """Criterion 4: analytic gradients of the blended loss match central
    differences to 1e-6.

    Each trial draws an 8-64-7 MLP, a kink-safe batch with its mirrored
    view, labels and an epoch, freezes the adaptive weights, and
    checks 200 sampled coordinates of the training step's gradient.
    """
    rng = Rng(seed)
    arch = Arch(input_dim=8, hidden_dim=64, n_classes=7)
    errors = []
    for trial in range(trials):
        params = init_params(arch, rng.split(trial))
        draw = rng.split(10_000 + trial)
        x, xf = draw_kink_safe_batch(params, draw)
        labels = draw.belows(np.full(_FD_BATCH, 7)).astype(np.int64)
        epoch = draw.below(61)
        grad, losses = frozen_loss_fn(params, x, xf, labels, epoch, POLICY60, 0.5)
        result = gradient_check(params, grad, losses, max_coords=200, rng=draw)
        errors.append(result.max_rel_error)
    worst = float(np.max(errors, initial=0.0))  # NaN if any trial's is NaN
    return bool(worst <= _GRAD_TOLERANCE), f"max rel err={worst:.3e} over {trials} trials"


def check_loss_identities(seed: int, n_equal: int, n_pairs: int, n_dominance: int):
    """Criterion 5: the consistency term is 0 (loss and gradients) on
    equal views and lies in [0, 2 ln 2]; weighted CE dominates plain CE.

    ``n_equal`` equal-view pairs, ``n_pairs`` random pairs for the bound
    (evaluated by :func:`nla.losses.batch_total`), ``n_dominance``
    weighted samples.
    """
    rng = Rng(seed)
    bound = 2.0 * math.log(2.0) + 1e-9
    zero_ok = True
    for _ in range(n_equal):
        z = rng.normals(7, scale=5.0)
        loss, ga, gb = consistency_loss(z, z)
        zero_ok &= loss == 0.0 and not ga.any() and not gb.any()

    def uniform_logits():
        return (rng.uniforms(5 * n_pairs).reshape(n_pairs, 5) - 0.5) * 16.0

    za = uniform_logits()
    zb = uniform_logits()
    # The consistency term depends on neither labels, weights nor lam.
    # Chunks of _BOUND_CHUNK rows keep the temporaries of nla check small.
    reg = []
    for lo in range(0, n_pairs, _BOUND_CHUNK):
        a, b = za[lo:lo + _BOUND_CHUNK], zb[lo:lo + _BOUND_CHUNK]
        zeros = np.zeros(len(a))
        reg.append(batch_total(np.array((a, b)), zeros.astype(np.int64), None, 0.5,
                               mode="nla", frozen_weights=zeros).reg)
    reg = np.concatenate(reg)
    bound_ok = bool(np.all(reg >= 0.0) and np.all(reg <= bound))
    dominance_ok = True
    for _ in range(n_dominance):
        z = rng.normals(7, scale=4.0)
        label = rng.below(7)
        ce, _ = cross_entropy(z, label)
        weighted, w, _ = naw_ce_loss(z, label, rng.below(61), POLICY60)
        dominance_ok &= w > 0.0 and weighted >= ce and (ce == 0.0 or weighted > ce)
    ok = zero_ok and bound_ok and dominance_ok
    return ok, (f"zero@equal={zero_ok}, bound@{n_pairs} pairs={bound_ok} "
                f"(max={reg.max():.9f} <= {bound:.9f}), dominance={dominance_ok}")


def run_selfcheck() -> bool:
    """Run criteria 1-5 at reduced size; print one PASS/FAIL line each.

    Returns True when every check passes.
    """
    checks = [
        ("kernel-oracle-equivalence", check_kernel_oracle, (2024, 10_000)),
        ("scheduler-endpoints", check_scheduler, ()),
        ("covariance-eigenstructure", check_covariance_shapes, ()),
        ("gradient-fidelity", check_gradient_fidelity, (77, 5)),
        ("loss-identities", check_loss_identities, (5, 50, 10_000, 200)),
    ]
    all_ok = True
    for name, fn, args in checks:
        ok, _ = fn(*args)
        all_ok &= ok
        print(f"[check] {'PASS' if ok else 'FAIL'} {name}")
    return all_ok
