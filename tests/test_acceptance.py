"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Exact-math criteria (1-5, 10) run at their stated tolerances.  The trend
criteria (6-9) run the standard synthetic instance with the same stream
wiring as the experiment runner (master seed 7), so every run here can be
reproduced with the CLI.  Two training profiles are used:

* paper-default profile: the TrainConfig defaults (lr0 1e-4); used for
  the noise-robustness trend, which is about resisting degradation while
  training.
* desk-converged profile: lr0 5e-3, all else default; used for the
  imbalance, weight-dynamics, and ablation trends.  Those claims concern
  models that actually fit their training data; at the default rate a
  from-scratch MLP of this size never leaves the low-confidence regime,
  where the weighting surface is nearly flat and has nothing to act on
  (the full-scale experiments start from a pretrained backbone that is
  confident from the first epoch).

Run with ``pytest -s tests/test_acceptance.py`` to see the criterion
lines.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from nla.cli import dataset_id
from nla.data import (STANDARD_SPREAD, apply_imbalance, inject_noise,
                      standard_instance)
from nla.losses import _batch_consistency, consistency_loss, \
    cross_entropy, naw_ce_loss
from nla.model import Arch, forward, gradient_check, init_params
from nla.naw import (ALONG_Y_EQ_NEG_X, ALONG_Y_EQ_X, WeightPolicy,
                     covariance_schedule, epoch_kernels, gaussian_weight,
                     kernel_params, naw_weights, sigma_from_axis_ratio)
from nla.numkit import Rng, derive_seed, softmax
from nla.selfcheck import (brute_force_gaussian, draw_kink_safe_batch,
                           frozen_loss_fn)
from nla.trainer import TrainConfig, metrics_csv_text, run_training

MASTER_SEED = 7
SEEDS = (1, 2, 3, 4, 5)
DESK_CONVERGED_LR = 5e-3
POLICY60 = WeightPolicy(total_epochs=60)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:2d} "
          f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _cell_dataset(base_train, noise: float, imbalance: float, seed: int):
    """Identical wiring to the experiment runner's per-cell corruption."""
    rng = Rng(derive_seed(MASTER_SEED,
                          f"data|{dataset_id(noise, imbalance, seed)}"))
    ds = base_train
    if noise > 0.0:
        ds = inject_noise(ds, noise, rng.split(0))
    if imbalance > 1.0:
        ds = apply_imbalance(ds, imbalance, rng.split(1))
    return ds


def _run_seed(noise: float, imbalance: float, seed: int) -> int:
    return derive_seed(MASTER_SEED,
                       f"run|{dataset_id(noise, imbalance, seed)}")


@pytest.fixture(scope="module")
def splits():
    return standard_instance(MASTER_SEED)


@pytest.fixture(scope="module")
def noise_battery(splits):
    """CE and NLA runs at 30% noise, paper-default profile, five seeds."""
    base_train, test = splits
    t0 = time.perf_counter()
    runs = {}
    for seed in SEEDS:
        train = _cell_dataset(base_train, 0.3, 1.0, seed)
        rs = _run_seed(0.3, 1.0, seed)
        for mode in ("ce", "nla"):
            cfg = TrainConfig(mode=mode, epochs=60, seed=rs)
            runs[(mode, seed)] = run_training(cfg, train, test)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def imbalance_battery(splits):
    """CE and NLA runs at imbalance 100, desk-converged profile."""
    base_train, test = splits
    t0 = time.perf_counter()
    runs = {}
    for seed in SEEDS:
        train = _cell_dataset(base_train, 0.0, 100.0, seed)
        rs = _run_seed(0.0, 100.0, seed)
        for mode in ("ce", "nla"):
            cfg = TrainConfig(mode=mode, epochs=60, seed=rs,
                              lr0=DESK_CONVERGED_LR)
            runs[(mode, seed)] = run_training(cfg, train, test)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ablation_battery(splits):
    """All three modes at 20% noise + imbalance 50, desk-converged profile."""
    base_train, test = splits
    runs = {}
    for seed in SEEDS:
        train = _cell_dataset(base_train, 0.2, 50.0, seed)
        rs = _run_seed(0.2, 50.0, seed)
        for mode in ("ce", "naw", "nla"):
            cfg = TrainConfig(mode=mode, epochs=60, seed=rs,
                              lr0=DESK_CONVERGED_LR)
            runs[(mode, seed)] = run_training(cfg, train, test)
    return runs


def test_standard_instance_calibration_band(splits):
    """Supporting check: the clean baseline sits in the 0.75..0.90 band."""
    base_train, test = splits
    cfg = TrainConfig(mode="ce", epochs=60,
                      seed=derive_seed(MASTER_SEED, "run|clean"))
    record = run_training(cfg, base_train, test)
    acc = record.metrics[-1].test_overall
    ok = 0.75 <= acc <= 0.90
    report(0, "calibration-band", ok,
           f"clean CE baseline overall={acc:.4f}, spread={STANDARD_SPREAD}")
    assert ok


def test_criterion_01_kernel_oracle_equivalence():
    """Kernel values match a brute-force density oracle to 1e-10."""
    rng = Rng(20240601)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        p = np.array([rng.random(), rng.random()])
        mu = np.array([rng.random(), rng.random()])
        a = 0.1 + 1.9 * rng.random()
        b = 0.1 + 1.9 * rng.random()
        rho = -0.95 + 1.9 * rng.random()
        off = rho * math.sqrt(a * b)
        sigma = np.array([[a, off], [off, b]])
        ours = gaussian_weight(p, kernel_params(mu, sigma))
        ref = brute_force_gaussian(p, mu, sigma)
        worst = max(worst, abs(ours - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, "kernel-oracle-equivalence", ok,
           f"max rel err={worst:.3e} over 10^4 triples in {elapsed:.2f}s")
    assert ok


def test_criterion_02_scheduler_endpoints():
    """CS(0,E)=0 exactly; CS(E,E)=1-e^-10 within 1e-12; strictly increasing."""
    target = -math.expm1(-10.0)
    ok = True
    detail = []
    for total in (1, 10, 60, 1000):
        start = covariance_schedule(0, total)
        end = covariance_schedule(total, total)
        values = [covariance_schedule(e, total) for e in range(total + 1)]
        mono = all(b > a for a, b in zip(values, values[1:]))
        ok &= start == 0.0 and abs(end - target) <= 1e-12 and mono
        detail.append(f"E={total}: start={start}, |end-target|={abs(end - target):.1e}, "
                      f"monotone={mono}")
    report(2, "scheduler-endpoints", ok, "; ".join(detail))
    assert ok


def test_criterion_03_derived_covariance():
    """Eigenvalue ratios 4 and 36; major axes along the stated lines."""
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
    report(3, "derived-covariance", ok, "; ".join(details))
    assert ok


def test_criterion_04_gradient_fidelity():
    """Analytic gradients of the blended loss match central differences."""
    rng = Rng(424242)
    arch = Arch(input_dim=8, hidden_dim=64, n_classes=7)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        params = init_params(arch, rng.split(trial))
        draw = rng.split(10_000 + trial)
        x = draw_kink_safe_batch(params, draw)
        xf = x.copy()
        xf[:, 0] = -xf[:, 0]
        labels = np.array([draw.below(7) for _ in range(32)])
        epoch = draw.below(61)
        weights = naw_weights(softmax(forward(params, x).logits), labels,
                              epoch_kernels(POLICY60, epoch))
        fn = frozen_loss_fn(x, xf, labels, epoch, POLICY60, 0.5, weights)
        result = gradient_check(params, fn, tolerance=1e-6, h=1e-5,
                                max_coords=200, rng=draw)
        worst = max(worst, result.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report(4, "gradient-fidelity", ok,
           f"max rel err={worst:.3e} over 100 trials in {elapsed:.1f}s")
    assert ok


def test_criterion_05_loss_identities():
    """Consistency zero/bounded; weighted CE dominates plain CE."""
    rng = Rng(515151)
    bound = 2.0 * math.log(2.0) + 1e-9
    zero_ok = True
    for _ in range(100):
        z = rng.normals(7, scale=5.0)
        loss, _, _ = consistency_loss(z, z)
        zero_ok &= loss == 0.0
    za = (np.array([[rng.random() for _ in range(5)]
                    for _ in range(100_000)]) - 0.5) * 16.0
    zb = (np.array([[rng.random() for _ in range(5)]
                    for _ in range(100_000)]) - 0.5) * 16.0
    losses, _, _ = _batch_consistency(za, zb)
    bound_ok = bool(np.all(losses >= 0.0) and np.all(losses <= bound))
    dominance_ok = True
    for _ in range(500):
        z = rng.normals(7, scale=4.0)
        label = rng.below(7)
        ce, _ = cross_entropy(z, label)
        weighted, w, _ = naw_ce_loss(z, label, rng.below(61), POLICY60)
        dominance_ok &= weighted >= ce and (ce == 0.0 or weighted > ce)
    ok = zero_ok and bound_ok and dominance_ok
    report(5, "loss-identities", ok,
           f"zero@equal={zero_ok}, bound@1e5 pairs={bound_ok} "
           f"(max={losses.max():.9f} <= {bound:.9f}), dominance={dominance_ok}")
    assert ok


def test_criterion_06_noise_robustness_trend(noise_battery):
    """At 30% noise the blended objective beats plain CE."""
    runs, elapsed = noise_battery
    gaps = []
    for seed in SEEDS:
        ce = runs[("ce", seed)].metrics[-1].test_overall
        nla = runs[("nla", seed)].metrics[-1].test_overall
        gaps.append(100.0 * (nla - ce))
    wins = sum(g > 0 for g in gaps)
    mean_gap = float(np.mean(gaps))
    ok = wins >= 4 and mean_gap >= 2.0 and elapsed < 900.0
    report(6, "noise-robustness-trend", ok,
           f"gaps(pts)={[f'{g:+.2f}' for g in gaps]}, mean={mean_gap:+.2f}, "
           f"wins={wins}/5, sweep took {elapsed:.0f}s")
    assert ok


def test_criterion_07_imbalance_trend(imbalance_battery):
    """At imbalance 100 the blended objective should lift mean accuracy.

    Known red.  The weighting multiplier is bounded by 1 + max kernel
    peak (~1.61x), while a factor-100 tail faces a ~100x gradient-mass
    deficit and a boundary shift that grows with log(prior ratio);
    measured gaps stay near +1 point in every regime tried.  A control
    with unbounded inverse-frequency weights pushed through the identical
    harness gains +5.8 points, so the pipeline can express the required
    gap; the bounded multiplier is the cause.  The criterion is asserted
    as stated rather than weakened.
    """
    runs, elapsed = imbalance_battery
    gaps = []
    for seed in SEEDS:
        ce = runs[("ce", seed)].metrics[-1].test_mean
        nla = runs[("nla", seed)].metrics[-1].test_mean
        gaps.append(100.0 * (nla - ce))
    wins = sum(g > 0 for g in gaps)
    mean_gap = float(np.mean(gaps))
    ok = wins >= 4 and mean_gap >= 3.0 and elapsed < 900.0
    report(7, "imbalance-trend", ok,
           f"mean-acc gaps(pts)={[f'{g:+.2f}' for g in gaps]}, "
           f"mean={mean_gap:+.2f}, wins={wins}/5, sweep took {elapsed:.0f}s")
    assert ok


def test_criterion_08_weight_dynamics(imbalance_battery):
    """Median weights of the two smallest classes rise over training."""
    runs, _ = imbalance_battery
    rising = 0
    details = []
    stable = True
    for seed in SEEDS:
        record = runs[("nla", seed)]
        stable &= all(np.isfinite(m.loss_total) for m in record.metrics)
        first = record.metrics[0].weight_quartiles
        last = record.metrics[-1].weight_quartiles
        up = all(last[c, 1] > first[c, 1] for c in (5, 6))
        rising += up
        details.append(f"s{seed}:{'up' if up else 'down'}")
    ok = rising >= 4 and stable
    report(8, "weight-dynamics", ok,
           f"{' '.join(details)} -> rising {rising}/5, stable={stable}")
    assert ok


def test_criterion_09_ablation_ordering(ablation_battery):
    """Seed-averaged mean accuracy: CE <= weighted CE <= full objective."""
    runs = ablation_battery
    avg = {mode: float(np.mean([runs[(mode, s)].metrics[-1].test_mean
                                for s in SEEDS]))
           for mode in ("ce", "naw", "nla")}
    ok = avg["ce"] <= avg["naw"] <= avg["nla"]
    report(9, "ablation-ordering", ok,
           f"ce={avg['ce']:.4f} <= naw={avg['naw']:.4f} <= nla={avg['nla']:.4f}"
           f" is {ok}")
    assert ok


def test_criterion_10_determinism(splits):
    """Identical config twice gives a bit-identical metrics CSV."""
    base_train, test = splits
    train = _cell_dataset(base_train, 0.1, 1.0, 1)

    def one_run():
        cfg = TrainConfig(mode="nla", epochs=5, seed=_run_seed(0.1, 1.0, 1))
        return metrics_csv_text(run_training(cfg, train, test))

    digest_a = hashlib.sha256(one_run().encode()).hexdigest()
    digest_b = hashlib.sha256(one_run().encode()).hexdigest()
    ok = digest_a == digest_b
    report(10, "determinism", ok, f"sha256 {digest_a[:16]}... x2, equal={ok}")
    assert ok
