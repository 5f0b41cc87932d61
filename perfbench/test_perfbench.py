"""Self-tests of the benchmark: tracer counts, wrapper removal, digests,
the hang guard, process clean-up, and the BENCHMARK.json it defines.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

import run
from tracer import SPAN_NAMES, Tracer

nla = run.load_nla()


def traced_runs(mode: str, epochs: int, runs: int):
    """Trace `runs` back-to-back train-nla-shaped runs; return tracer, top ops, digests."""
    config, train, test = run.train_inputs(nla, 7, mode, epochs)
    tracer, top, digests = Tracer(), [], []
    with tracer:
        for i in range(runs):
            top.append(tracer.begin_op(f"run{i}"))
            digests.append(run.run_digest(nla, config, train, test))
    return tracer, top, digests, train.n


@pytest.mark.parametrize("mode", ["nla", "ce"])
def test_train_counts_match_workload_shape(mode):
    epochs, runs = 2, 2
    tracer, top, _, n = traced_runs(mode, epochs, runs)
    totals = tracer.per_op_totals(top)
    calls = {name: sum(c) for name, (c, _) in totals.items()}
    steps = math.ceil(n / 32) * epochs * runs
    assert calls["losses.batch_total"] == steps
    assert calls["trainer.adam_step"] == steps
    per_step_forwards = 2 if mode == "nla" else 1
    assert calls["model.forward"] == per_step_forwards * steps + 2 * epochs * runs
    assert calls["numkit.permutation"] == epochs * runs
    assert calls["trainer.run_training"] == runs
    # Reported, not asserted: kernel caching is expected to change it.
    print(f"{mode}: naw.kernel_params.calls = {calls['naw.kernel_params']}")


def test_self_times_partition_each_operation():
    tracer, top, _, _ = traced_runs("nla", 1, 1)
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    assert len(roots) == 1
    root = roots[0]
    total_self = sum(tracer.self_times())
    assert total_self == pytest.approx(tracer.ends[root] - tracer.starts[root], rel=1e-9)
    assert min(tracer.self_times()) >= -1e-6


def test_traced_digests_equal_untraced():
    for mode in ("ce", "naw", "nla"):
        config, train, test = run.train_inputs(nla, 7, mode, 2)
        plain = run.run_digest(nla, config, train, test)
        _, _, traced, _ = traced_runs(mode, 2, 1)
        assert traced == [plain]


def test_wrappers_are_installed_at_call_sites_and_removed():
    originals = {id(v) for name, m in list(sys.modules.items())
                 if name == "nla" or name.startswith("nla.") for v in vars(m).values()}
    perm = nla.numkit.Rng.__dict__["permutation"]
    tracer = Tracer()
    with tracer:
        assert getattr(nla.trainer.forward, "_perfbench_wrapper", False)
        assert getattr(nla.trainer.batch_total, "_perfbench_wrapper", False)
        assert getattr(nla.naw.kernel_params, "_perfbench_wrapper", False)
        assert getattr(nla.cli.run_cell, "_perfbench_wrapper", False)
        assert nla.numkit.Rng.__dict__["permutation"] is not perm
    for name, module in list(sys.modules.items()):
        if name == "nla" or name.startswith("nla."):
            for value in vars(module).values():
                assert not getattr(value, "_perfbench_wrapper", False), name
                if callable(value):
                    assert id(value) in originals
    assert nla.numkit.Rng.__dict__["permutation"] is perm


def test_traced_sweep_counts_per_cell_and_resume(tmp_path):
    config = tmp_path / "config.json"
    run.write_sweep_config(config, 7)
    argv = run.sweep_argv(config, tmp_path / "out", 1) + ["--epochs", "2"]
    tracer = Tracer()
    with tracer:
        fresh = tracer.begin_op("sweep0")
        assert run.call_cli(nla, argv)[0] == 0
        resume = tracer.begin_op("resume0")
        assert run.call_cli(nla, argv)[0] == 0
    totals = tracer.per_op_totals([fresh, resume])
    steps = math.ceil(929 / 32) * 2
    cells = len(run.SWEEP_CELLS)
    assert totals["losses.batch_total"][0] == [cells * steps, 0]
    assert totals["model.forward"][0] == [cells * (steps + 4), 0]
    assert totals["numkit.permutation"][0] == [cells * 2, 0]
    assert totals["cli.run_cell"][0] == [cells, cells]
    assert totals["trainer.run_training"][0] == [cells, 0]
    assert set(run.SWEEP_CELLS) <= set(tracer.op_ids)


def test_timeout_ends_a_hung_sweep_and_leaves_no_workers(tmp_path):
    # Fed through stdin, the spawn workers cannot re-import the main module
    # and die at bootstrap; the pool respawns them forever.
    script = textwrap.dedent(f"""
        import json, multiprocessing, sys
        from pathlib import Path
        sys.path.insert(0, {str(run.BENCH_DIR)!r})
        import run
        run.OP_TIMEOUT["sweep-ce"] = 4.0
        run.OUT_DIR = Path({str(tmp_path)!r})
        nla = run.load_nla()
        tally = run.Tally()
        bench = run.SweepCe(nla, 7, tally, run.load_pins())
        bench.setup()
        run.run_ops(bench, 0.1, "sweep")
        bench.teardown()
        print(json.dumps({{"stopped": tally.stopped, "failed": tally.failed,
                          "children": len(multiprocessing.active_children())}}))
    """)
    proc = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"stopped": True, "failed": len(run.SWEEP_CELLS), "children": 0}


def test_resource_tracker_of_a_spawn_pool_is_stopped():
    script = textwrap.dedent(f"""
        import multiprocessing, os, sys
        from multiprocessing import resource_tracker
        sys.path.insert(0, {str(run.BENCH_DIR)!r})
        import run
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            pool.map(abs, [-1])
        del pool                   # as in nla's sweep, where the pool is a local
        pid = resource_tracker._resource_tracker._pid
        run.stop_resource_tracker()
        try:
            os.kill(pid, 0)
            print("alive")
        except ProcessLookupError:
            print("gone")
    """)
    # Run with -c: spawn workers of a script fed through stdin die at bootstrap.
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["gone"]
    assert "leaked" not in proc.stderr


def test_timeout_is_raised_again_after_the_body_swallows_it(monkeypatch):
    monkeypatch.setitem(run.OP_TIMEOUT, "verify", 0.2)
    monkeypatch.setattr(run, "OP_TIMEOUT_REFIRE", 0.2)
    bench = run.Verify(nla, 7, run.Tally(), run.load_pins())
    swallowed = []

    def cells():  # like `nla sweep --workers 1`: run_cell catches every Exception
        for _ in range(3):
            try:
                time.sleep(30)
            except run.OpTimeout:
                swallowed.append(1)
        return "done"

    t0 = time.perf_counter()
    with pytest.raises(run.OpTimeout):
        bench.timed_call(cells)
    assert len(swallowed) == 3
    assert time.perf_counter() - t0 < 5


def test_timeout_ends_an_in_process_sweep(monkeypatch, tmp_path):
    monkeypatch.setitem(run.OP_TIMEOUT, "sweep-ce", 1.0)
    monkeypatch.setattr(run, "OP_TIMEOUT_REFIRE", 0.2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(nla.cli, "run_training", lambda *a, **k: time.sleep(30))
    tally = run.Tally()
    bench = run.SweepCe(nla, 7, tally, run.load_pins(), workers=1)
    bench.setup()
    t0 = time.perf_counter()
    run.run_ops(bench, 0.1, "sweep")
    bench.teardown()
    assert tally.stopped
    assert tally.failed == len(run.SWEEP_CELLS)
    assert time.perf_counter() - t0 < 30


def test_tail_percentile_has_ten_samples_beyond_it():
    assert "no tail percentile" in run.quantile_summary([float(v) for v in range(20)])
    for n in (21, 25, 40):
        text = run.quantile_summary([float(v) for v in range(n)])
        tail = float(text.split(", p")[1].split()[1])
        assert sum(1 for v in range(n) if v > tail) == 10, text


def test_benchmark_json_matches_definitions():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == run.benchmark_spec()
    names = [m["name"] for m in committed["per_layer"]]
    assert len(names) == len(set(names)) == 2 * len(SPAN_NAMES) + 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not multiprocessing.active_children()
