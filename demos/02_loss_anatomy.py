"""Dissect the blended loss on one mini-batch, then verify its gradients.

Shows the per-sample components (plain cross-entropy, the adaptive
multiplier, the consistency term, and the blend), how the three training
modes differ, and a finite-difference check of the end-to-end parameter
gradients with the sample weights held frozen.

Run:  python demos/02_loss_anatomy.py
"""

import numpy as np

from nla import (Arch, WeightPolicy, batch_total, epoch_kernels, forward,
                 gradient_check, init_params, mirror, softmax, standard_instance)
from nla.numkit import Rng
from nla.selfcheck import draw_kink_safe_batch, frozen_loss_fn

policy = WeightPolicy(total_epochs=60)
train, _ = standard_instance(7)

rng = Rng(99)
params = init_params(Arch(train.dim, 64, train.n_classes), rng.split(0))
idx = rng.choice(train.n, 8)
x = train.inputs[idx]
xf = mirror(x)
labels = train.labels[idx]

logits = forward(params, x)
views = np.array((logits, forward(params, xf)))  # the batch, then its mirror

print("Per-sample anatomy at epoch 20 (lambda = 0.5):\n")
print("  gt_prob  nn_prob  branch   ce      weight  naw_ce  reg     total")
probs = softmax(logits)
bd = batch_total(views, labels, epoch_kernels(policy, 20), 0.5, mode="nla")
for i in range(len(idx)):
    gt = probs[i, labels[i]]
    others = np.delete(probs[i], labels[i])
    branch = "true " if gt >= others.max() else "false"
    print(f"  {gt:.4f}   {others.max():.4f}   {branch}   "
          f"{bd.ce[i]:.4f}  {bd.weight[i]:.4f}  {bd.naw_ce[i]:.4f}  {bd.reg[i]:.4f}  "
          f"{bd.total[i]:.4f}")

print("\nBatch means by training mode (same batch, epoch 20):")
for mode in ("ce", "naw", "nla"):
    batch = batch_total(views, labels, epoch_kernels(policy, 20), 0.5, mode=mode)
    print(f"  {mode:4s}: total={batch.total.mean():.4f} "
          f"(ce={batch.ce.mean():.4f}, reg={batch.reg.mean():.4f})")

print("\nGradient check (weights frozen, central differences, h = 1e-5):")
check_x, check_xf = draw_kink_safe_batch(params, rng.split(1))
check_labels = rng.belows(np.full(32, train.n_classes)).astype(np.int64)
grad, losses = frozen_loss_fn(params, check_x, check_xf, check_labels, 20, policy, 0.5)
result = gradient_check(params, grad, losses)
print(f"  checked {result.n_checked} coordinates, "
      f"max relative error {result.max_rel_error:.3e} "
      f"({'PASS' if result.passed else 'FAIL'} at 1e-6)")
