"""The nla benchmark: three closed-loop workloads against the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-nla --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Workloads (one client, one operation after another):

* ``train-nla``: back-to-back ``trainer.run_training`` calls, mode nla,
  60 epochs, on ``standard_instance(seed)`` with 30% label noise wired as
  the runner's cell ``n0.3_f1_s1``.
* ``sweep-ce``: ``nla sweep --mode ce --noise 0.2 --imbalance 100
  --seeds 1..10 --workers 2`` into a fresh directory, then the identical
  command again on the completed directory (the resume).
* ``verify``: ``nla check`` with stdout captured.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced phase (see ``tracer.py``).  Every operation's output is checked
against ``pins.json`` (made by ``pin.py`` from the commit that defined
the benchmark) when the seed is pinned, and against the first operation
of the same run otherwise.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS/OpenMP thread per process, set before numpy loads, so the
# sweep's two spawn workers use no more threads than cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PINS_PATH = BENCH_DIR / "pins.json"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

WORKLOADS = {
    "train-nla": "Per-batch path of the paper's mechanism (batch_total, naw_weights, "
                 "kernel builds, consistency on the mirrored view): 60-epoch nla runs, n=3500.",
    "sweep-ce": "CLI sweep of 10 equal-shape ce cells (n=929) on a 2-process pool, then its "
                "resume: optimizer, shuffle, per-epoch passes, I/O, pool, no per-batch weighting.",
    "verify": "nla check: the scalar loss API, 10^4 kernel builds and the finite-difference "
              "gradient check, which no training workload runs.",
}
END_TO_END = [
    # (name, unit, better, bound)
    ("op_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]
RUN_SECONDS = 35
SETUP_PROBES = 7
# setup_s is reported in seconds on a host where reference_s() takes this
# long: each probe's set-up time is scaled by the reference it runs next.
NOMINAL_REF_S = 0.25
PINNED_SEEDS = range(0, 64)        # workload seeds that pins.json covers

# Workload shapes.
NOISE_CELL = "n0.3_f1_s1"          # runner dataset id of train-nla's data
TRAIN_EPOCHS = 60
DIGEST_EPOCHS = 10
DIGEST_SEED = 7
SWEEP_ARGS = ["--mode", "ce", "--noise", "0.2", "--imbalance", "100",
              "--seeds", "1..10"]
SWEEP_CELLS = [f"n0.2_f100_ce_s{s}" for s in range(1, 11)]
SWEEP_DATASETS = [f"n0.2_f100_s{s}" for s in range(1, 11)]
CHECK_LINES = 5                    # PASS/FAIL lines printed by one `nla check`

# Per-operation time limits (seconds).  A sweep whose spawn workers die at
# bootstrap would otherwise respawn them forever.
OP_TIMEOUT = {"train-nla": 60.0, "sweep-ce": 90.0, "verify": 60.0}
# Once a limit has passed, the alarm fires again at this interval, so a
# timeout that nla's per-cell error handling swallows is raised again.
OP_TIMEOUT_REFIRE = 2.0


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class BenchError(Exception):
    """The benchmark cannot run here (e.g. the program is missing)."""


class OpTimeout(Exception):
    pass


class Deadline:
    """Raise OpTimeout in the main thread once the body has run too long.

    The alarm keeps firing every OP_TIMEOUT_REFIRE seconds after the limit,
    and ``expired`` stays set, so a caller can raise the timeout again when
    the body swallowed it and returned.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.expired = False

    def _on_alarm(self, signum, frame):
        self.expired = True
        raise OpTimeout("operation exceeded its time limit")

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds, OP_TIMEOUT_REFIRE)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def reap_children(grace: float = 5.0) -> None:
    """Terminate and wait for every child process still alive."""
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if a pool started it, and wait for it.

    A spawn pool starts the tracker as a separate process that is not in
    active_children() and would otherwise outlive this process.
    """
    from multiprocessing import resource_tracker
    gc.collect()                   # finalize pool semaphores so none is reported leaked
    resource_tracker._resource_tracker._stop()


def reference_s() -> float:
    """Wall time of fixed work with nla's mix of interpreter and small-numpy cost.

    It is timed next to every operation.  The host's CPU speed drifts by
    tens of percent over minutes, and an operation's time over the
    reference time next to it cancels most of that drift.
    """
    import numpy as np
    a = np.full((32, 8), 0.5)
    w = np.full((8, 64), 0.25)
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    for _ in range(15_000):
        np.maximum(a @ w, 0.0)
    return time.perf_counter() - t0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_nla():
    """Import nla from this checkout's src/, never from anywhere else."""
    if not (SRC / "nla" / "__init__.py").is_file():
        raise BenchError(f"no nla package under {SRC}")
    import nla
    import nla.cli
    import nla.selfcheck  # noqa: F401 - imported so the tracer can wrap it
    if Path(nla.__file__).resolve().parent != (SRC / "nla").resolve():
        raise BenchError(f"nla imported from {nla.__file__}, not {SRC}")
    return nla


def quantile_summary(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    if n < 21:
        return f"median {med:.6g} (n={n}; no tail percentile: needs n >= 21)"
    k = n - 11                     # sorted index with exactly ten samples above it
    q = 100 * (k + 1) // n         # share of samples at or below it, in percent
    return f"median {med:.6g}, p{q} {sorted(values)[k]:.6g} (n={n})"


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    applied: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    stopped: bool = False

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def train_inputs(nla, master: int, mode: str = "nla", epochs: int = TRAIN_EPOCHS):
    """Standard instance with 30% noise, wired as the runner's cell n0.3_f1_s1."""
    numkit, data, trainer = nla.numkit, nla.data, nla.trainer
    train, test = data.standard_instance(master)
    rng = numkit.Rng(numkit.derive_seed(master, f"data|{NOISE_CELL}"))
    train = data.inject_noise(train, 0.3, rng.split(0))
    config = trainer.TrainConfig(
        mode=mode, epochs=epochs,
        seed=numkit.derive_seed(master, f"run|{NOISE_CELL}"))
    return config, train, test


def run_digest(nla, config, train, test) -> str:
    record = nla.trainer.run_training(config, train, test)
    return sha256_text(nla.trainer.metrics_csv_text(record))


def digest_block(nla) -> dict[str, str]:
    """sha256 of metrics.csv for n0.3_f1_{ce,naw,nla}_s1 at 10 epochs, seed 7."""
    out = {}
    for mode in ("ce", "naw", "nla"):
        config, train, test = train_inputs(nla, DIGEST_SEED, mode, DIGEST_EPOCHS)
        out[f"n0.3_f1_{mode}_s1"] = run_digest(nla, config, train, test)
    return out


def sweep_argv(config_path: Path, out: Path, workers: int) -> list[str]:
    return ["sweep", "--config", str(config_path), *SWEEP_ARGS,
            "--workers", str(workers), "--out", str(out)]


def write_sweep_config(path: Path, master: int) -> None:
    path.write_text(json.dumps({"seed": master}) + "\n", encoding="utf-8")


def call_cli(nla, argv: list[str]) -> tuple[int, str]:
    """nla.cli.main with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = nla.cli.main(argv)
    return rc, buf.getvalue()


def sweep_outputs(out: Path) -> dict:
    """Digests and sizes of a finished sweep directory."""
    cells, samples = {}, 0
    for cid, did in zip(SWEEP_CELLS, SWEEP_DATASETS):
        run_dir = out / "runs" / cid
        manifest_path = run_dir / "manifest.json"
        if not manifest_path.exists():
            cells[cid] = None
            continue
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        info = json.loads((out / "data" / f"{did}_train.json").read_text(encoding="utf-8"))
        cells[cid] = sha256_file(run_dir / "metrics.csv")
        samples += info["n"] * manifest["epochs_completed"]
    summary = out / "summary.csv"
    return {"cells": cells,
            "summary.csv": sha256_file(summary) if summary.exists() else None,
            "samples": samples}


def file_states(out: Path) -> dict[str, tuple[int, int, int]]:
    """(size, mtime_ns, inode) of every file the resume must leave alone."""
    states = {}
    for sub in ("data", "runs"):
        for path in sorted((out / sub).rglob("*")):
            if path.is_file():
                st = path.stat()
                states[str(path.relative_to(out))] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return states


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One closed-loop workload: set up once, then run operations."""

    name = ""
    op_label = "operation"
    timed_label = ""              # what one timed operation covers, if not op_label

    def __init__(self, nla, seed: int, tally: Tally, pins: dict, workers: int = 2):
        self.nla = nla
        self.seed = seed
        self.tally = tally
        self.pins = pins
        self.workers = workers
        self.times: list[float] = []  # timed part of each completed operation
        self.refs: list[float] = []   # reference time around each of them
        self.samples = 0              # training sample-epochs in those operations
        self.expected = None          # first operation's digests

    def setup(self) -> None:
        pass

    def op(self, index: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def reset_timings(self) -> None:
        """Forget the timings so far (after the warm-up operation)."""
        self.times.clear()
        self.refs.clear()
        self.samples = 0

    def timed_call(self, fn):
        """Run fn under the operation time limit; returns (seconds, result).

        Raises OpTimeout also when fn swallowed the timeout and returned.
        """
        with Deadline(OP_TIMEOUT[self.name]) as limit:
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
            if limit.expired:
                raise OpTimeout("operation exceeded its time limit")
            return seconds, result

    def check_digest(self, what: str, got, pinned) -> bool:
        """Compare with the pin; there is none for an unpinned seed."""
        if pinned is not None and got != pinned:
            self.tally.problems.append(f"{what}: digest {got} != pinned {pinned}")
            return False
        return True


class TrainNla(Workload):
    name = "train-nla"
    op_label = "run"

    def setup(self) -> None:
        self.config, self.train, self.test = train_inputs(self.nla, self.seed)
        self.pin = self.pins["train-nla"].get(str(self.seed))

    def op(self, index: int) -> None:
        trainer = self.nla.trainer
        try:
            seconds, record = self.timed_call(
                lambda: trainer.run_training(self.config, self.train, self.test))
        except Exception:
            self.tally.record(False, f"run {index}: raised or timed out")
            raise
        digest = sha256_text(trainer.metrics_csv_text(record))
        if self.expected is None:
            self.expected = digest
        ok = self.check_digest(f"run {index} metrics.csv", digest, self.pin)
        if digest != self.expected:
            self.tally.problems.append(f"run {index}: digest differs from run 0")
            ok = False
        self.tally.record(ok, f"run {index}")
        self.times.append(seconds)
        self.samples += self.train.n * self.config.epochs

    def report(self) -> list[tuple[str, float, str, str]]:
        return [
            ("samples_per_s", self.samples / sum(self.times), "samples/s",
             f"{len(self.times)} runs x n={self.train.n} x {TRAIN_EPOCHS} epochs"),
            ("run_s", statistics.median(self.times), "s", quantile_summary(self.times)),
        ]


class SweepCe(Workload):
    name = "sweep-ce"
    op_label = "sweep"
    timed_label = "fresh sweep + resume"

    def setup(self) -> None:
        self.work = OUT_DIR / f"sweep-ce-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        write_sweep_config(self.config_path, self.seed)
        self.pin = self.pins["sweep-ce"].get(str(self.seed))
        self.fresh_times: list[float] = []
        self.resume_times: list[float] = []

    def op(self, index: int) -> None:
        out = self.work / f"cycle{index}"
        argv = sweep_argv(self.config_path, out, self.workers)
        try:
            fresh_s, (rc, _) = self.timed_call(lambda: call_cli(self.nla, argv))
        except Exception:
            self.tally.record(False, f"sweep {index}: raised or timed out",
                              count=len(SWEEP_CELLS))
            raise
        got = sweep_outputs(out)
        if self.expected is None:
            self.expected = got
        # summary.csv aggregates every cell, so a wrong summary fails them all.
        summary_ok = (got["summary.csv"] is not None
                      and got["summary.csv"] == self.expected["summary.csv"]
                      and self.check_digest(f"sweep {index} summary.csv", got["summary.csv"],
                                            self.pin["summary.csv"] if self.pin else None))
        for cid in SWEEP_CELLS:
            digest = got["cells"][cid]
            ok = rc == 0 and summary_ok and digest is not None
            if ok:
                pinned = self.pin["cells"][cid] if self.pin else None
                ok = self.check_digest(f"sweep {index} {cid}", digest, pinned)
                if digest != self.expected["cells"][cid]:
                    self.tally.problems.append(f"sweep {index} {cid}: differs from sweep 0")
                    ok = False
            self.tally.record(ok, f"sweep {index} cell {cid} (exit {rc}, "
                              f"summary ok: {summary_ok})")

        before = file_states(out)
        summary_bytes = (out / "summary.csv").read_bytes() if summary_ok else None
        try:
            resume_s, (rc2, _) = self.timed_call(lambda: call_cli(self.nla, argv))
        except Exception:
            self.tally.record(False, f"resume {index}: raised or timed out")
            raise
        # Resume passes only if no cell or cache was rewritten (every cell
        # skipped) and summary.csv is byte-identical to the fresh sweep's.
        after = file_states(out)
        resume_ok = (rc2 == 0 and summary_ok and before == after
                     and (out / "summary.csv").read_bytes() == summary_bytes)
        self.tally.record(resume_ok, f"resume {index} (exit {rc2}, "
                          f"files unchanged: {before == after})")
        # The operation is the fresh sweep plus its resume, so a change that
        # slows the resume (cache verification, cell reuse) moves op_ref.
        self.times.append(fresh_s + resume_s)
        self.fresh_times.append(fresh_s)
        self.resume_times.append(resume_s)
        self.samples += got["samples"]
        shutil.rmtree(out, ignore_errors=True)

    def teardown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def reset_timings(self) -> None:
        super().reset_timings()
        self.fresh_times.clear()
        self.resume_times.clear()

    def report(self):
        return [
            ("samples_per_s", self.samples / sum(self.fresh_times), "samples/s",
             f"{len(self.fresh_times)} fresh sweeps x 10 cells"),
            ("sweep_s", statistics.median(self.fresh_times), "s",
             quantile_summary(self.fresh_times)),
            ("resume_s", statistics.median(self.resume_times), "s",
             quantile_summary(self.resume_times)),
        ]


class Verify(Workload):
    name = "verify"
    op_label = "check"

    def setup(self) -> None:
        self.pin = self.pins["verify"]["stdout"]

    def op(self, index: int) -> None:
        try:
            seconds, (rc, text) = self.timed_call(lambda: call_cli(self.nla, ["check"]))
        except Exception:
            self.tally.record(False, f"check {index}: raised or timed out",
                              count=CHECK_LINES)
            raise
        lines = [ln for ln in text.splitlines() if ln.startswith("[check] ")]
        fails = sum(1 for ln in lines if ln.startswith("[check] FAIL"))
        bad = min(CHECK_LINES, fails + max(0, CHECK_LINES - len(lines)))
        if bad == 0 and (rc != 0 or text != self.pin):
            bad = 1
        self.tally.attempted += CHECK_LINES
        self.tally.failed += bad
        if bad:
            self.tally.problems.append(f"check {index}: exit {rc}, {fails} FAIL lines, "
                                       f"output {'equals' if text == self.pin else 'differs from'}"
                                       " the pin")
        self.times.append(seconds)

    def report(self):
        return [("check_s", statistics.median(self.times), "s",
                 quantile_summary(self.times))]


WORKLOAD_CLASSES = {cls.name: cls for cls in (TrainNla, SweepCe, Verify)}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(load_at_start: tuple[float, float, float]) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": list(load_at_start),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Running workloads
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time, reference time) of fresh benchmark processes.

    The set-up time runs from process start to the first timed call; the
    probe runs the reference right after it.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        elapsed, ref = map(float, proc.stdout.split()[-2:])
        samples.append((elapsed, ref))
    return samples


def setup_probe(workload: str, seed: int) -> int:
    """Body of a --setup-probe process: import, set up, print elapsed seconds."""
    nla = load_nla()
    bench = WORKLOAD_CLASSES[workload](nla, seed, Tally(), load_pins())
    bench.setup()
    elapsed = time.perf_counter() - T_START
    bench.teardown()
    print(f"{elapsed:.9f} {reference_s():.9f}")
    return 0


def run_ops(bench: Workload, seconds: float, op_prefix: str, tracer=None,
            start_index: int = 0, warmup: bool = False) -> list[int]:
    """Closed loop: run operations until ``seconds`` have passed (at least one).

    With ``warmup`` the first operation is checked but its timing is
    dropped, so lazy first-call costs do not enter the medians.
    """
    top_ops = []
    t_end = time.perf_counter() + seconds
    index = start_index
    ref_before = reference_s()
    while not bench.tally.stopped:
        if tracer is not None:
            top_ops.append(tracer.begin_op(f"{op_prefix}{index}"))
        completed = len(bench.times)
        try:
            bench.op(index)
        except OpTimeout:
            bench.tally.problems.append(f"{bench.op_label} {index}: timed out")
            bench.tally.stopped = True
            reap_children()
        except Exception as exc:  # noqa: BLE001 - op() counted it; keep going
            bench.tally.problems.append(f"{bench.op_label} {index}: "
                                        f"{type(exc).__name__}: {exc}")
            reap_children()
        ref_after = reference_s()
        if len(bench.times) > completed:
            bench.refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        if warmup and index == start_index and bench.times:
            bench.reset_timings()
        index += 1
        if time.perf_counter() >= t_end and (bench.times or index - start_index >= 2):
            break
    return top_ops


def check_plan(name: str, seed: int, pins: dict, tally: Tally) -> None:
    """Record which output checks this run applies and which it cannot."""
    if name == "train-nla":
        tally.applied.append("digest block n0.3_f1_{ce,naw,nla}_s1 (10 epochs, seed 7)")
    if name == "verify":
        tally.applied.append("`nla check` prints the pinned PASS lines (no seeded input)")
        return
    if str(seed) in pins[name]:
        tally.applied.append(f"{name} metrics.csv/summary.csv pins for seed {seed}")
    else:
        tally.skipped.append(f"{name} metrics.csv/summary.csv pins: seed {seed} is not "
                             f"pinned (pinned seeds: {PINNED_SEEDS.start}.."
                             f"{PINNED_SEEDS.stop - 1})")
    tally.applied.append("every operation's digests equal the first operation's")
    if name == "sweep-ce":
        tally.applied.append("resume rewrites no file and keeps summary.csv's bytes")


def traced_phase(bench: Workload, seconds: float) -> dict[str, float]:
    """Untraced and traced operations in turn; per-layer metrics from the traced spans.

    Alternating the two lets the host's CPU-speed drift cancel out of
    trace.overhead_s.
    """
    from tracer import Tracer
    tracer = Tracer()
    top_ops: list[int] = []
    untraced: list[float] = []
    traced: list[float] = []
    t_end = time.perf_counter() + seconds
    run_ops(bench, 0, bench.op_label, warmup=True)   # warm-up, then one untraced op
    untraced += bench.times
    index = 2
    while not bench.tally.stopped and (time.perf_counter() < t_end or not traced):
        bench.reset_timings()
        with tracer:
            top_ops += run_ops(bench, 0, "traced-" + bench.op_label, tracer=tracer,
                               start_index=index)
        traced += bench.times
        bench.reset_timings()
        run_ops(bench, 0, bench.op_label, start_index=index + 1)
        untraced += bench.times
        index += 2
    if not traced or not untraced:
        raise BenchError("no operation completed")
    bench.times = traced
    layer = tracer.layer_metrics(top_ops)
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"[bench] traced {bench.op_label}: {quantile_summary(traced)} s; "
          f"untraced: {quantile_summary(untraced)} s")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{bench.name}-seed{bench.seed}.tsv.gz"
    count = tracer.write(path)
    print(f"[bench] wrote {count} spans to {path.relative_to(ROOT)}")
    return layer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_at_start = os.getloadavg()
    nla = load_nla()
    pins = load_pins()
    tally = Tally()
    bench = WORKLOAD_CLASSES[name](nla, seed, tally, pins, workers=1 if trace else 2)
    bench.setup()
    own_setup = time.perf_counter() - T_START
    print(f"[bench] workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("[bench] env " + json.dumps(environment(load_at_start), sort_keys=True))
    if name == "sweep-ce" and trace:
        print("[bench] traced sweep-ce runs with --workers 1 (traced and untraced ops): "
              "wrappers installed in this process do not reach spawn workers")
    check_plan(name, seed, pins, tally)
    try:
        # Outside every timed phase; it also warms up the training path.
        if name == "train-nla":
            for cell, digest in digest_block(nla).items():
                tally.record(digest == pins["digest_block"][cell],
                             f"digest block {cell}: {digest}")
        if trace:
            layer = traced_phase(bench, seconds)
        else:
            run_ops(bench, seconds, bench.op_label, warmup=True)
    finally:
        reap_children()
        stop_resource_tracker()
        bench.teardown()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    for line in tally.applied:
        print(f"[bench] check applied: {line}")
    for line in tally.skipped:
        print(f"[bench] check NOT applied: {line}")
    for line in tally.problems:
        print(f"[bench] FAILED: {line}")
    result = {"correct": tally.failed == 0 and not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": {}}
    print(f"[bench] failed_ops {tally.failed}/{tally.attempted} "
          "(runs, cells, resumes, check lines, digest-block runs)")
    if not bench.times:
        raise BenchError("no operation completed")

    if trace:
        from tracer import per_layer_metric_names
        for metric, unit, _ in per_layer_metric_names():
            result["metrics"][metric] = {"value": layer[metric], "unit": unit}
            print(f"[bench] {metric:<40s} {layer[metric]:>14.6f} {unit}")
        return result

    setup = measure_setup(name, seed)
    timed = bench.timed_label or bench.op_label
    rows = [("setup_s", NOMINAL_REF_S * statistics.median(t / r for t, r in setup), "s",
             f"median of {len(setup)} fresh processes, each scaled to a {NOMINAL_REF_S} s "
             "reference"),
            ("setup_raw_s", statistics.median(t for t, _ in setup), "s",
             f"median of the same probes, unscaled; this process: {own_setup:.4f} s"),
            ("op_ref", statistics.median(t / r for t, r in zip(bench.times, bench.refs)),
             "ref", f"one {timed} over the reference next to it, median of "
             f"{len(bench.times)}"),
            ("ref_s", statistics.median(bench.refs), "s", "reference work, median"),
            ("op_s", statistics.median(bench.times), "s",
             f"one {timed}: {quantile_summary(bench.times)}"),
            *bench.report(),
            ("peak_rss_mb", self_rss, "MiB", "benchmark process (RUSAGE_SELF)"),
            ("child_rss_mb", child_rss, "MiB",
             "largest child (RUSAGE_CHILDREN; includes RSS inherited at spawn)")]
    for metric, value, unit, note in rows:
        print(f"[bench] {metric:<14s} {value:>14.6f} {unit:<10s} {note}")
    print(f"[bench] {timed} times (s): "
          + " ".join(f"{t:.4f}" for t in bench.times))
    values = {metric: value for metric, value, _, _ in rows}
    for metric, unit, _, _ in END_TO_END:
        result["metrics"][metric] = {"value": values[metric], "unit": unit}
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()}}


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json, from the definitions in this package."""
    from tracer import per_layer_metric_names
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metric_names()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=7, help="master seed of the inputs")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this package's definitions")
    args = parser.parse_args(argv)
    try:
        if args.write_spec:
            (ROOT / "BENCHMARK.json").write_text(
                json.dumps(benchmark_spec(), indent=2) + "\n", encoding="utf-8")
            return 0
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
