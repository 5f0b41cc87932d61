"""Pins on the units of work a training run does, not on how it is split
into calls: rows through dense passes, rows backpropagated, optimizer
steps and shuffles.  A change that regroups the same work into fewer
calls keeps these numbers; one that drops or repeats a batch does not.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest

import nla.model
import nla.trainer
from nla.data import make_synthetic
from nla.numkit import Rng
from nla.trainer import TrainConfig, run_group, run_training

BATCH, EPOCHS = 16, 3
VIEWS = {"nla": 2, "ce": 1}  # the rows, then in mode nla their mirror


def rows_of(array) -> int:
    """Rows of an array whose last axis holds one row's values."""
    return math.prod(np.shape(array)[:-1])


def count_work(monkeypatch) -> Counter:
    """Wrap ``_dense_pass``, ``backward`` and ``adam_step`` at every name
    an ``nla`` module looks them up by, and ``Rng.permutation`` on its
    class; return the tally they add their units of work to."""
    tally = Counter()

    def counting(key, fn, units):
        def counted(*args, **kwargs):
            tally[key] += units(*args, **kwargs)
            return fn(*args, **kwargs)
        return counted

    targets = [
        ("dense rows", nla.model._dense_pass, lambda params, x, *_, **__: rows_of(x)),
        ("backward rows", nla.model.backward, lambda params, trace, g, *_, **__: rows_of(g)),
        ("adam steps", nla.trainer.adam_step, lambda *_, **__: 1),
    ]
    modules = [module for name, module in list(sys.modules.items())
               if module is not None and (name == "nla" or name.startswith("nla."))]
    for key, fn, units in targets:
        wrapper = counting(key, fn, units)
        sites = [(module, name) for module in modules
                 for name, value in vars(module).items() if value is fn]
        assert sites, key
        for module, name in sites:
            monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(Rng, "permutation",
                        counting("shuffles", Rng.permutation, lambda *_, **__: 1))
    return tally


@pytest.mark.parametrize("mode, seeds", [("nla", [11]), ("ce", [11]), ("nla", [11, 12])],
                         ids=["nla-solo", "ce-solo", "nla-group-of-2"])
def test_a_run_does_the_work_of_its_shape(monkeypatch, mode, seeds):
    rng = Rng(1)
    train = make_synthetic(3, 4, 40, 0.7, rng.split(0), "train")
    test = make_synthetic(3, 4, 30, 0.7, rng.split(1), "test")
    n, n_test = train.n, test.n
    assert n % BATCH  # a trailing short batch
    runs = [(TrainConfig(mode=mode, epochs=EPOCHS, seed=seed, batch_size=BATCH,
                         lr0=1e-3, hidden_dim=8), train, test) for seed in seeds]
    tally = count_work(monkeypatch)
    if len(runs) == 1:
        run_training(*runs[0])
    else:
        run_group(runs)
    views, r = VIEWS[mode], len(runs)
    assert tally == {
        # Every step's V·R·b rows, and each epoch's whole-split passes
        # (weight statistics on train, evaluation on test) for every run.
        "dense rows": EPOCHS * (views * r * n + r * (n + n_test)),
        "backward rows": EPOCHS * views * r * n,
        "adam steps": EPOCHS * math.ceil(n / BATCH),
        "shuffles": EPOCHS * r,
    }
