"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Exact-math criteria (1-5, 10) run at their stated tolerances; criteria 1-5
call the checks in ``nla.selfcheck``, which ``nla check`` runs at reduced
size.  The trend criteria (6-9) train the standard synthetic instance
through the experiment runner: each battery is one ``nla sweep --workers 2``
over its grid (master seed 7, seeds 1..5) read back from the run records,
and criterion 10 runs ``nla train --force`` twice on one cell, so every
run here is a runner cell.  Two training profiles are used:

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

import contextlib
import hashlib
import io
import json
import time

import numpy as np
import pytest

from nla.cli import cell_id, main
from nla.data import STANDARD_SPREAD, standard_instance
from nla.numkit import derive_seed
from nla.selfcheck import (check_covariance_shapes, check_gradient_fidelity,
                           check_kernel_oracle, check_loss_identities,
                           check_scheduler)
from nla.trainer import TrainConfig, load_run_metrics, run_training

MASTER_SEED = 7
SEEDS = (1, 2, 3, 4, 5)
DESK_CONVERGED = {"epochs": 60, "lr0": 5e-3}


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:2d} "
          f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def nla_quietly(*argv) -> int:
    """``nla`` with its stdout swallowed, so each criterion prints one line."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def sweep(tmp_path_factory, noise: float, imbalance: float, modes, train: dict):
    """One ``nla sweep --workers 2`` over the battery's grid: each run's
    epoch metrics by (mode, seed), and the sweep's wall time."""
    root = tmp_path_factory.mktemp("battery")
    config = root / "config.json"
    config.write_text(json.dumps({
        "seed": MASTER_SEED, "noise": [noise], "imbalance": [imbalance],
        "modes": list(modes), "seeds": list(SEEDS), "train": train,
        "out": str(root / "out")}), encoding="utf-8")
    t0 = time.perf_counter()
    assert nla_quietly("sweep", "--config", config, "--workers", 2) == 0
    elapsed = time.perf_counter() - t0
    return {(mode, seed): load_run_metrics(
                root / "out" / "runs" / cell_id(noise, imbalance, mode, seed))
            for mode in modes for seed in SEEDS}, elapsed


@pytest.fixture(scope="module")
def noise_battery(tmp_path_factory):
    """CE and NLA runs at 30% noise, paper-default profile, five seeds."""
    return sweep(tmp_path_factory, 0.3, 1.0, ("ce", "nla"), {"epochs": 60})


@pytest.fixture(scope="module")
def imbalance_battery(tmp_path_factory):
    """CE and NLA runs at imbalance 100, desk-converged profile."""
    return sweep(tmp_path_factory, 0.0, 100.0, ("ce", "nla"), DESK_CONVERGED)


@pytest.fixture(scope="module")
def ablation_battery(tmp_path_factory):
    """All three modes at 20% noise + imbalance 50, desk-converged profile."""
    return sweep(tmp_path_factory, 0.2, 50.0, ("ce", "naw", "nla"), DESK_CONVERGED)[0]


def test_standard_instance_calibration_band():
    """Supporting check: the clean baseline sits in the 0.75..0.90 band."""
    base_train, test = standard_instance(MASTER_SEED)
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
        ce = runs[("ce", seed)][-1].test_overall
        nla = runs[("nla", seed)][-1].test_overall
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
        ce = runs[("ce", seed)][-1].test_mean
        nla = runs[("nla", seed)][-1].test_mean
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
        metrics = runs[("nla", seed)]
        stable &= all(np.isfinite(m.loss_total) for m in metrics)
        first = metrics[0].weight_quartiles
        last = metrics[-1].weight_quartiles
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
    avg = {mode: float(np.mean([runs[(mode, s)][-1].test_mean
                                for s in SEEDS]))
           for mode in ("ce", "naw", "nla")}
    ok = avg["ce"] <= avg["naw"] <= avg["nla"]
    report(9, "ablation-ordering", ok,
           f"ce={avg['ce']:.4f} <= naw={avg['naw']:.4f} <= nla={avg['nla']:.4f}"
           f" is {ok}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    """Identical config twice gives a bit-identical metrics CSV."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": MASTER_SEED, "out": str(tmp_path / "out")}),
                      encoding="utf-8")
    csv = tmp_path / "out" / "runs" / "n0.1_f1_nla_s1" / "metrics.csv"

    def one_run():
        assert nla_quietly("train", "--config", config, "--noise", 0.1, "--mode", "nla",
                           "--seed", 1, "--epochs", 5, "--force") == 0
        return csv.read_bytes()

    digest_a = hashlib.sha256(one_run()).hexdigest()
    digest_b = hashlib.sha256(one_run()).hexdigest()
    ok = digest_a == digest_b
    report(10, "determinism", ok, f"sha256 {digest_a[:16]}... x2, equal={ok}")
    assert ok
