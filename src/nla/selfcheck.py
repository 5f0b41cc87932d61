"""Built-in verification suite behind ``nla check``.

Fast, self-contained checks of the numeric core: kernel values against a
brute-force density oracle on a separate linear-algebra path, scheduler
endpoints and monotonicity, covariance eigenstructure, end-to-end
gradient fidelity, and the loss identities.  The pytest acceptance suite
runs the same checks at full size; this command is the quick field
version.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import batch_total, consistency_loss, cross_entropy, naw_ce_loss
from .model import Arch, backward, forward, gradient_check, init_params
from .naw import (ALONG_Y_EQ_NEG_X, ALONG_Y_EQ_X, WeightPolicy,
                  covariance_schedule, epoch_kernels, gaussian_weight,
                  kernel_params, naw_weights, sigma_from_axis_ratio)
from .numkit import Rng, softmax

__all__ = ["brute_force_gaussian", "frozen_loss_fn", "run_selfcheck"]


def brute_force_gaussian(p, mu, sigma) -> float:
    """Density oracle on the general linear-algebra path.

    Uses numpy's generic inverse and determinant rather than the 2x2
    closed forms, so it shares no code with the production evaluation.
    """
    p = np.asarray(p, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    d = p - mu
    quad = float(d @ np.linalg.inv(sigma) @ d)
    const = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(sigma)))
    return const * math.exp(-0.5 * quad)


def random_kernel_case(rng: Rng):
    """One random (point, mean, SPD covariance) triple."""
    p = np.array([rng.random(), rng.random()])
    mu = np.array([rng.random(), rng.random()])
    a = 0.1 + 1.9 * rng.random()
    b = 0.1 + 1.9 * rng.random()
    rho = -0.95 + 1.9 * rng.random()
    off = rho * math.sqrt(a * b)
    sigma = np.array([[a, off], [off, b]])
    return p, mu, sigma


def check_kernel_oracle(n: int = 10_000, seed: int = 2024, tol: float = 1e-10) -> bool:
    rng = Rng(seed)
    worst = 0.0
    for _ in range(n):
        p, mu, sigma = random_kernel_case(rng)
        ours = gaussian_weight(p, kernel_params(mu, sigma))
        ref = brute_force_gaussian(p, mu, sigma)
        worst = max(worst, abs(ours - ref) / ref)
    return worst <= tol


def check_scheduler(horizons=(1, 10, 60, 1000), tol: float = 1e-12) -> bool:
    target = -math.expm1(-10.0)
    for total in horizons:
        if covariance_schedule(0, total) != 0.0:
            return False
        if abs(covariance_schedule(total, total) - target) > tol:
            return False
        values = [covariance_schedule(e, total) for e in range(total + 1)]
        if any(b <= a for a, b in zip(values, values[1:])):
            return False
    return True


def _major_axis_ok(sigma: np.ndarray, expected_ratio_sq: float,
                   direction: np.ndarray, tol: float = 1e-9) -> bool:
    eigvals, eigvecs = np.linalg.eigh(sigma)
    if abs(eigvals[1] / eigvals[0] - expected_ratio_sq) > tol:
        return False
    major = eigvecs[:, 1]
    unit = direction / np.linalg.norm(direction)
    return abs(abs(major @ unit) - 1.0) <= 1e-12


def check_covariance_shapes() -> bool:
    true_sigma = sigma_from_axis_ratio(0.8, 2.0, ALONG_Y_EQ_NEG_X)
    false_sigma = sigma_from_axis_ratio(0.8, 6.0, ALONG_Y_EQ_X)
    return (_major_axis_ok(true_sigma, 4.0, np.array([1.0, -1.0]))
            and _major_axis_ok(false_sigma, 36.0, np.array([1.0, 1.0])))


def draw_kink_safe_batch(params, rng: Rng, n: int = 32, h: float = 1e-5,
                         attempts: int = 100) -> np.ndarray:
    """Random batch whose ReLU pre-activations clear the kink by > h.

    A +/-h perturbation of one first-layer parameter shifts a hidden
    pre-activation by at most h * max(|x|, 1); any pre-activation closer
    to zero than that could change sign between the two finite-difference
    evaluations, making the central difference measure a mix of the two
    one-sided slopes instead of the derivative.  Batches are redrawn (for
    both views) until every pre-activation clears the kink with a 4x
    margin.
    """
    d = params.arch.input_dim
    for _ in range(attempts):
        x = rng.normals(n * d).reshape(n, d)
        xf = x.copy()
        xf[:, 0] = -xf[:, 0]
        margin = 4.0 * h * max(float(np.abs(x).max()), 1.0)
        safe = True
        for view in (x, xf):
            pre = forward(params, view).pre_hidden
            if pre is not None and np.abs(pre).min() <= margin:
                safe = False
                break
        if safe:
            return x
    raise RuntimeError("could not draw a kink-safe batch")


def frozen_loss_fn(inputs, flipped, labels, epoch, policy, lam, weights):
    """Deterministic total-loss closure with the sample weights pinned.

    Returns a callable for :func:`nla.model.gradient_check`: it maps
    params to (batch-mean loss, analytic parameter gradients) while the
    adaptive weights stay at the values supplied, exactly as the analytic
    gradients assume.
    """
    kernels = epoch_kernels(policy, epoch)

    def fn(params):
        trace = forward(params, inputs)
        trace_f = forward(params, flipped)
        loss = batch_total(trace.logits, trace_f.logits, labels, kernels,
                           lam, mode="nla", frozen_weights=weights)
        grads = backward(params, trace, loss.grad_z)
        grads.add_(backward(params, trace_f, loss.grad_zf))
        return float(loss.total.mean()), grads

    return fn


def check_gradient_fidelity(trials: int = 5, seed: int = 77,
                            tol: float = 1e-6) -> bool:
    rng = Rng(seed)
    policy = WeightPolicy(total_epochs=60)
    arch = Arch(input_dim=8, hidden_dim=16, n_classes=7)
    for trial in range(trials):
        params = init_params(arch, rng.split(trial))
        draw = rng.split(1000 + trial)
        x = draw_kink_safe_batch(params, draw)
        xf = x.copy()
        xf[:, 0] = -xf[:, 0]
        labels = np.array([draw.below(7) for _ in range(32)])
        epoch = draw.below(61)
        probs = softmax(forward(params, x).logits)
        weights = naw_weights(probs, labels, epoch_kernels(policy, epoch))
        fn = frozen_loss_fn(x, xf, labels, epoch, policy, 0.5, weights)
        result = gradient_check(params, fn, tolerance=tol, max_coords=200,
                                rng=draw)
        if not result.passed:
            return False
    return True


def check_loss_identities(seed: int = 5, n: int = 10_000) -> bool:
    rng = Rng(seed)
    bound = 2.0 * math.log(2.0) + 1e-9
    policy = WeightPolicy(total_epochs=60)
    for _ in range(50):
        z = rng.normals(7, scale=3.0)
        loss, ga, gb = consistency_loss(z, z)
        if loss != 0.0 or np.any(ga != 0.0) or np.any(gb != 0.0):
            return False
    for _ in range(n):
        za = rng.normals(5, scale=8.0)
        zb = rng.normals(5, scale=8.0)
        loss, _, _ = consistency_loss(za, zb)
        if not 0.0 <= loss <= bound:
            return False
    for _ in range(200):
        z = rng.normals(7, scale=4.0)
        label = rng.below(7)
        ce, _ = cross_entropy(z, label)
        weighted, w, _ = naw_ce_loss(z, label, rng.below(61), policy)
        if w <= 0.0 or weighted < ce:
            return False
        if ce > 0.0 and weighted <= ce:
            return False
    return True


def run_selfcheck() -> bool:
    """Run every check, print one PASS/FAIL line each, return overall result."""
    checks = [
        ("kernel-oracle-equivalence", check_kernel_oracle),
        ("scheduler-endpoints", check_scheduler),
        ("covariance-eigenstructure", check_covariance_shapes),
        ("gradient-fidelity", check_gradient_fidelity),
        ("loss-identities", check_loss_identities),
    ]
    all_ok = True
    for name, fn in checks:
        ok = fn()
        all_ok &= ok
        print(f"[check] {'PASS' if ok else 'FAIL'} {name}")
    return all_ok
