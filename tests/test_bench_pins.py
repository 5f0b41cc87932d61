"""The outputs that the benchmark harness pins equal its pins.

``perfbench/`` runs outside this suite and refuses a run whose outputs
differ from ``perfbench/pins.json``; these tests read that file, never
write it, and fail here first on a byte change.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import nla.cli
from nla.data import inject_noise, standard_instance
from nla.numkit import Rng, derive_seed
from nla.trainer import TrainConfig, metrics_csv_text, run_training

PINS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "pins.json")
                  .read_text(encoding="utf-8"))
MASTER, EPOCHS, CELL = 7, 10, "n0.3_f1_s1"  # the harness's digest block


def test_check_stdout_equals_its_pin():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert nla.cli.main(["check"]) == 0
    assert out.getvalue() == PINS["verify"]["stdout"]


@pytest.fixture(scope="module")
def noisy_standard_instance():
    """The runner's dataset n0.3_f1_s1 at master seed 7: the standard
    instance with 30% label noise."""
    train, test = standard_instance(MASTER)
    train = inject_noise(train, 0.3, Rng(derive_seed(MASTER, f"data|{CELL}")).split(0))
    return train, test


@pytest.mark.parametrize("mode", ["ce", "naw", "nla"])
def test_digest_block_equals_its_pin(noisy_standard_instance, mode):
    config = TrainConfig(mode=mode, epochs=EPOCHS, seed=derive_seed(MASTER, f"run|{CELL}"))
    text = metrics_csv_text(run_training(config, *noisy_standard_instance))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINS["digest_block"][f"n0.3_f1_{mode}_s1"]
