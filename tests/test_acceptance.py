"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Exact-math criteria (1-5, 10) run at their stated tolerances; criteria 1-5
call the checks in ``nla.selfcheck``, which ``nla check`` runs at reduced
size.  The trend criteria (6-9) run the standard synthetic instance through
the experiment runner's own stream wiring (``cli._cell_dataset`` and
``cli.run_seed``, master seed 7), so every run here can be reproduced with
the CLI.  Two training profiles are used:

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
import time

import numpy as np
import pytest

from nla.cli import _cell_dataset, run_seed
from nla.data import STANDARD_SPREAD, standard_instance
from nla.numkit import derive_seed
from nla.selfcheck import (check_covariance_shapes, check_gradient_fidelity,
                           check_kernel_oracle, check_loss_identities,
                           check_scheduler)
from nla.trainer import TrainConfig, metrics_csv_text, run_training

MASTER_SEED = 7
SEEDS = (1, 2, 3, 4, 5)
DESK_CONVERGED_LR = 5e-3
CELL_CONFIG = {"seed": MASTER_SEED}  # the only runner config field a cell's data reads


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:2d} "
          f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


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
        train = _cell_dataset(base_train, CELL_CONFIG, 0.3, 1.0, seed)
        rs = run_seed(MASTER_SEED, 0.3, 1.0, seed)
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
        train = _cell_dataset(base_train, CELL_CONFIG, 0.0, 100.0, seed)
        rs = run_seed(MASTER_SEED, 0.0, 100.0, seed)
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
        train = _cell_dataset(base_train, CELL_CONFIG, 0.2, 50.0, seed)
        rs = run_seed(MASTER_SEED, 0.2, 50.0, seed)
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
    t0 = time.perf_counter()
    ok, detail = check_kernel_oracle(seed=20240601, n=10_000)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(1, "kernel-oracle-equivalence", ok, f"{detail} in {elapsed:.2f}s")
    assert ok


def test_criterion_02_scheduler_endpoints():
    """CS(0,E)=0 exactly; CS(E,E)=1-e^-10 within 1e-12; strictly increasing."""
    ok, detail = check_scheduler()
    report(2, "scheduler-endpoints", ok, detail)
    assert ok


def test_criterion_03_derived_covariance():
    """Eigenvalue ratios 4 and 36; major axes along the stated lines."""
    ok, detail = check_covariance_shapes()
    report(3, "derived-covariance", ok, detail)
    assert ok


def test_criterion_04_gradient_fidelity():
    """Analytic gradients of the blended loss match central differences."""
    t0 = time.perf_counter()
    ok, detail = check_gradient_fidelity(seed=424242, trials=100)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, "gradient-fidelity", ok, f"{detail} in {elapsed:.1f}s")
    assert ok


def test_criterion_05_loss_identities():
    """Consistency zero/bounded; weighted CE dominates plain CE."""
    ok, detail = check_loss_identities(seed=515151, n_equal=100,
                                       n_pairs=100_000, n_dominance=500)
    report(5, "loss-identities", ok, detail)
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
    train = _cell_dataset(base_train, CELL_CONFIG, 0.1, 1.0, 1)

    def one_run():
        cfg = TrainConfig(mode="nla", epochs=5,
                          seed=run_seed(MASTER_SEED, 0.1, 1.0, 1))
        return metrics_csv_text(run_training(cfg, train, test))

    digest_a = hashlib.sha256(one_run().encode()).hexdigest()
    digest_b = hashlib.sha256(one_run().encode()).hexdigest()
    ok = digest_a == digest_b
    report(10, "determinism", ok, f"sha256 {digest_a[:16]}... x2, equal={ok}")
    assert ok
