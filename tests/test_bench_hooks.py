"""The names the benchmark harness wraps, calls or patches stay callable.

``perfbench/`` runs outside this suite, so a change that deletes or
renames one of these names would otherwise fail only there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Called or patched by perfbench/run.py and perfbench/test_perfbench.py.
CALLED = [
    ("nla.cli", "main"),
    ("nla.cli", "run_training"),
    ("nla.trainer", "run_training"),
    ("nla.trainer", "metrics_csv_text"),
    ("nla.trainer", "forward"),
    ("nla.trainer", "batch_total"),
    ("nla.trainer", "TrainConfig"),
    ("nla.data", "standard_instance"),
    ("nla.numkit", "Rng"),
    ("nla.numkit", "Rng.split"),
    ("nla.numkit", "derive_seed"),
]


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attr in tracer.LAYER_FUNCTIONS]


@pytest.mark.parametrize("module, attr", traced_names() + CALLED,
                         ids=lambda value: value)
def test_benchmark_hook_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
