"""Label-noise sweep: plain cross-entropy vs the full objective.

Flips 10/20/30% of training labels uniformly to other classes, trains
both objectives on identical data with paired seeds, and reports the
final overall test accuracy (mean and standard deviation across seeds).
At the default settings expect the gap to widen with the noise rate.

Takes about 7 s on a 2-vCPU Xeon VM: 18 full training runs, as one stack
of 9 runs per objective.

Run:  python demos/03_noise_robustness.py
"""

import numpy as np

from nla import TrainConfig, inject_noise, standard_instance
from nla.numkit import Rng, derive_seed
from nla.trainer import run_group

MASTER = 7
SEEDS = (1, 2, 3)
RATES = (0.1, 0.2, 0.3)

base_train, test = standard_instance(MASTER)
print(f"standard instance: {base_train.n} train / {test.n} test samples, "
      f"{base_train.n_classes} classes\n")

# (noisy split, run seed) of each (rate, seed) pair, rate by rate.
pairs = [(inject_noise(base_train, rate,
                       Rng(derive_seed(MASTER, f"demo-noise|{rate}|{seed}"))),
          derive_seed(MASTER, f"demo-run|{rate}|{seed}"))
         for rate in RATES for seed in SEEDS]
# The runs of one objective differ only in seed and data, so they train
# as one stack, each with the values of its solo run.
finals = {}
for mode in ("ce", "nla"):
    records = run_group([(TrainConfig(mode=mode, epochs=60, seed=run_seed), noisy, test)
                         for noisy, run_seed in pairs])
    finals[mode] = np.array([record.metrics[-1].test_overall for record in records]
                            ).reshape(len(RATES), len(SEEDS))

print("noise   ce accuracy        nla accuracy       gap")
print("-----   ---------------    ---------------    ------")
for rate, ce, nla in zip(RATES, finals["ce"], finals["nla"]):
    print(f"{rate:>4.0%}   {ce.mean():.4f} +/- {ce.std(ddof=1):.4f}   "
          f"{nla.mean():.4f} +/- {nla.std(ddof=1):.4f}   "
          f"{100 * (nla.mean() - ce.mean()):+.2f} pts")

print("\nEach row compares the two objectives on byte-identical noisy data "
      "with identical initializations; only the loss differs.")
