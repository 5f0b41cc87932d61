"""Config-driven experiment runner.

Subcommands: ``generate`` (dataset caches), ``train`` (one run cell),
``sweep`` (all cells of the noise x imbalance x mode x seed grid, with
aggregation across seeds), ``plotdata`` (tidy CSVs for plotting), and
``check`` (built-in verification suite).

A sweep cell is identified by ``n{noise}_f{imbalance}_{mode}_s{seed}``;
its dataset (mode-independent, so modes are compared on identical data)
by ``n{noise}_f{imbalance}_s{seed}``.  Every random stream is derived
from the config's master seed and a string tag via
``numkit.derive_seed``, so adding cells never changes existing ones.

Exit codes: 0 success, 1 usage error, 2 runtime error or divergence,
3 partial sweep failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import (MIN_IMBALANCE, NOISE_RATES, STANDARD_DIM, STANDARD_K,
                   STANDARD_SPREAD, STANDARD_TEST_PER_CLASS,
                   STANDARD_TRAIN_PER_CLASS, Dataset, apply_imbalance,
                   ingest_csv, ingest_idx, inject_noise, load_dataset,
                   save_dataset, synthetic_splits)
from .losses import MODES
from .numkit import Rng, derive_seed
from .trainer import (RunRecord, TrainConfig, TrainingDiverged, atomic_write_text,
                      load_final_metrics, load_run_metrics, run_group, run_training,
                      save_run_record)

__all__ = ["main", "load_config", "cell_id", "dataset_id", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "seed": 7,
    "dataset": {
        "kind": "synthetic",
        "k": STANDARD_K,
        "d": STANDARD_DIM,
        "n_per_class": STANDARD_TRAIN_PER_CLASS,
        "test_per_class": STANDARD_TEST_PER_CLASS,
        "spread": STANDARD_SPREAD,
    },
    "noise": [0.0],
    "imbalance": [1.0],
    "modes": ["ce", "nla"],
    "seeds": [1, 2, 3, 4, 5],
    "train": {},
    "out": None,
}


# The path fields each dataset kind reads; ``_apply_overrides`` checks
# that they are present before anything is written.
_DATASET_PATHS = {
    "synthetic": (),
    "idx": ("train_images", "train_labels", "test_images", "test_labels"),
    "csv": ("train", "test"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


def cell_id(noise: float, imbalance: float, mode: str, seed: int) -> str:
    return f"n{noise:g}_f{imbalance:g}_{mode}_s{seed}"


def dataset_id(noise: float, imbalance: float, seed: int) -> str:
    return f"n{noise:g}_f{imbalance:g}_s{seed}"


def load_config(path: str | None) -> dict:
    """Config file merged over the defaults (shallow per section)."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise UsageError("a config file must hold a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise UsageError(f"unknown config key {key!r}")
            kind = type(cfg[key])
            if kind in (dict, list) and not isinstance(value, kind):
                raise UsageError(f"config key {key!r} must be a JSON "
                                 + ("object" if kind is dict else "list"))
            if kind is dict:
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad seed list {text!r}") from exc


def _apply_overrides(cfg: dict, args) -> dict:
    if getattr(args, "noise", None) is not None:
        cfg["noise"] = _parse_float_list(args.noise)
    if getattr(args, "imbalance", None) is not None:
        cfg["imbalance"] = _parse_float_list(args.imbalance)
    if getattr(args, "mode", None) is not None:
        cfg["modes"] = args.mode.split(",")
    if getattr(args, "seeds", None) is not None:
        cfg["seeds"] = _parse_seeds(args.seeds)
    if getattr(args, "seed", None) is not None:
        cfg["seeds"] = [args.seed]
    if getattr(args, "epochs", None) is not None:
        cfg["train"]["epochs"] = args.epochs
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    if cfg["out"] is None:
        cfg["out"] = os.environ.get("NLA_OUT_DIR", "nla_out")
    for m in cfg["modes"]:
        if m not in MODES:
            raise UsageError(f"unknown mode {m!r}")
    # Types, then ranges; apply_imbalance checks the data-dependent per-class bound.
    number = (int, float)
    ds_cfg = cfg["dataset"]
    ds_kind = ds_cfg["kind"]
    fields = [("noise", cfg["noise"], number), ("imbalance", cfg["imbalance"], number),
              ("seeds", cfg["seeds"], int), ("seed", [cfg["seed"]], int),
              ("out", [cfg["out"]], str), ("dataset.kind", [ds_kind], str)]
    if ds_kind == "synthetic":
        fields += [(f"dataset.{key}", [ds_cfg[key]], number if key == "spread" else int)
                   for key in ("k", "d", "n_per_class", "test_per_class", "spread")]
    for name, values, kind in fields:
        if not all(isinstance(v, kind) and not isinstance(v, bool) for v in values):
            raise UsageError(f"config key {name!r} must hold "
                             + {int: "integers", str: "strings"}.get(kind, "numbers"))
    if ds_kind not in _DATASET_PATHS:
        raise UsageError(f"unknown dataset kind {ds_kind!r}")
    for key in _DATASET_PATHS[ds_kind]:
        if not isinstance(ds_cfg.get(key), str):
            raise UsageError(f"dataset kind {ds_kind!r} needs a path string "
                             f"in 'dataset.{key}'")
    lo, hi = NOISE_RATES
    if not all(lo <= v <= hi for v in cfg["noise"]):
        raise UsageError(f"noise rates must lie in [{lo:g}, {hi:g}]")
    if not all(v >= MIN_IMBALANCE for v in cfg["imbalance"]):
        raise UsageError(f"imbalance factors must be >= {MIN_IMBALANCE:g}")
    return cfg


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def _base_splits(cfg: dict) -> tuple[Dataset, Dataset]:
    """The clean train and test splits of the dataset kind that
    :func:`_apply_overrides` accepted."""
    ds_cfg = cfg["dataset"]
    if ds_cfg["kind"] == "synthetic":
        return synthetic_splits(cfg["seed"], ds_cfg["k"], ds_cfg["d"],
                                ds_cfg["n_per_class"], ds_cfg["test_per_class"],
                                ds_cfg["spread"])
    if ds_cfg["kind"] == "idx":
        return (ingest_idx(ds_cfg["train_images"], ds_cfg["train_labels"], "train"),
                ingest_idx(ds_cfg["test_images"], ds_cfg["test_labels"], "test"))
    return ingest_csv(ds_cfg["train"], "train"), ingest_csv(ds_cfg["test"], "test")


def _cell_dataset(base_train: Dataset, cfg: dict, noise: float,
                  imbalance: float, seed: int) -> Dataset:
    """Per-cell corruption of the shared clean base train split."""
    rng = Rng(derive_seed(cfg["seed"], f"data|{dataset_id(noise, imbalance, seed)}"))
    ds = base_train
    if noise > 0.0:
        ds = inject_noise(ds, noise, rng.split(0))
    if imbalance > 1.0:
        ds = apply_imbalance(ds, imbalance, rng.split(1))
    return ds


def _ensure_datasets(cfg: dict, grid: list[tuple], force: bool = False,
                     quiet: bool = False) -> dict:
    """Write each dataset cache of ``grid``'s cells that is forced, missing
    or stale (see :func:`_cached_info`); return ``{"test" or dataset id:
    (path, sha256)}``.  The base splits are built, and ``data/`` made, only
    when a cache is written."""
    data_dir = Path(cfg["out"]) / "data"
    base_splits = functools.cache(lambda: _base_splits(cfg))

    def reuse_or_write(path: Path, noise, imbalance, build) -> tuple[str, Dataset | None]:
        """The cache's sha256, and the dataset when it was (re)written."""
        sha = None if force else _cached_info(path, cfg, noise, imbalance)
        if sha is not None:
            return sha, None
        ds = build()
        data_dir.mkdir(parents=True, exist_ok=True)
        sha = save_dataset(ds, path)
        _write_dataset_fingerprint(ds, path, cfg, sha)
        return sha, ds

    path = data_dir / "test.ds"
    caches = {"test": (path, reuse_or_write(path, 0.0, 1.0, lambda: base_splits()[1])[0])}
    for noise, imbalance, seed in dict.fromkeys((n, f, s) for n, f, _, s in grid):
        did = dataset_id(noise, imbalance, seed)
        path = data_dir / f"{did}_train.ds"
        sha, ds = reuse_or_write(path, noise, imbalance, lambda: _cell_dataset(
            base_splits()[0], cfg, noise, imbalance, seed))
        caches[did] = (path, sha)
        if ds is not None and not quiet:
            flipped = 0 if ds.clean_labels is None else int(
                (ds.labels != ds.clean_labels).sum())
            counts = ds.class_counts
            ratio = float(counts.max() / counts.min())
            print(f"[generate] {did}: n={ds.n} flipped={flipped} "
                  f"max/min={ratio:.2f} sha={sha[:12]}")
    return caches


def _as_json(value):
    """``value`` as it reads back from a JSON file."""
    return json.loads(json.dumps(value))


def _cached_info(path: Path, cfg: dict, noise: float, imbalance: float) -> str | None:
    """The sha256 of a dataset cache that may be reused for ``cfg``, else
    None.  Reusable means: its ``.json`` sidecar records the requested
    generator, master seed, noise rate and imbalance (0 and 1 for
    ``test.ds``), and the file's sha256 equals the sidecar's."""
    try:
        info = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
    except (OSError, ValueError):
        return None
    if (isinstance(info, dict)
            and info.get("generator") == _as_json(cfg["dataset"])
            and info.get("master_seed") == cfg["seed"]
            and info.get("noise_rate") == noise
            and info.get("imbalance") == imbalance
            and info.get("sha256") == sha):
        return sha
    return None


def _write_dataset_fingerprint(ds: Dataset, path: Path, cfg: dict, sha256: str) -> None:
    """Write the ``.json`` sidecar of the cache at ``path``, whose sha256
    :func:`nla.data.save_dataset` returned."""
    info = {
        "sha256": sha256,
        "n": ds.n,
        "d": ds.dim,
        "k": ds.n_classes,
        "split": ds.split,
        "class_counts": ds.class_counts.tolist(),
        "noise_rate": ds.meta.get("noise_rate", 0.0),
        "imbalance": ds.meta.get("imbalance", 1.0),
        "generator": cfg["dataset"],
        "master_seed": cfg["seed"],
    }
    _write_json(path.with_suffix(".json"), info)


def _write_json(path: Path, value) -> None:
    atomic_write_text(path, json.dumps(value, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Run cells
# ---------------------------------------------------------------------------

@dataclass
class CellSpec:
    noise: float
    imbalance: float
    mode: str
    seed: int
    config: TrainConfig
    train_path: str
    test_path: str
    train_sha256: str
    test_sha256: str
    run_dir: str
    force: bool = False

    @property
    def id(self) -> str:
        return cell_id(self.noise, self.imbalance, self.mode, self.seed)


def _manifest(spec: CellSpec) -> dict:
    """The cell's ``manifest.json``, written once its run is saved: the
    config, the sha256 of the dataset caches it was trained on, and the
    package version."""
    return {
        "config": spec.config.to_dict(),
        "train_fingerprint": spec.train_sha256,
        "test_fingerprint": spec.test_sha256,
        "epochs_completed": spec.config.epochs,
        "version": __version__,
        "status": "complete",
    }


def _is_complete(spec: CellSpec) -> bool:
    """Whether the cell's stored manifest equals (as JSON) the one this
    request would write; never when forced.  A missing, unreadable or
    malformed manifest is not complete, so its cell is rerun."""
    if spec.force:
        return False
    try:
        stored = json.loads((Path(spec.run_dir) / "manifest.json")
                            .read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return stored == _as_json(_manifest(spec))


def _failed(spec: CellSpec, exc: Exception) -> dict:
    """The status dict of a cell that raised ``exc``."""
    error = str(exc) if isinstance(exc, TrainingDiverged) else f"{type(exc).__name__}: {exc}"
    return {"cell": spec.id, "ok": False, "error": error}


def _save_cell(spec: CellSpec, record: RunRecord) -> dict:
    """Remove the cell's old manifest, save the run record, then write the
    manifest that marks the cell complete; return its status dict.  A
    process killed between the record and the manifest so leaves a cell
    that :func:`_is_complete` reruns, never an old manifest beside new
    files."""
    try:
        (Path(spec.run_dir) / "manifest.json").unlink(missing_ok=True)
        save_run_record(record, spec.run_dir)
        _write_json(Path(spec.run_dir) / "manifest.json", _manifest(spec))
    except Exception as exc:  # noqa: BLE001 - per-cell isolation in sweeps
        return _failed(spec, exc)
    return {"cell": spec.id, "ok": True, "skipped": False}


def run_cell(spec: CellSpec) -> dict:
    """Execute one cell unless :func:`_is_complete`: train, save the run
    record, then write the manifest that marks the cell complete.
    Returns a status dict."""
    if _is_complete(spec):
        return {"cell": spec.id, "ok": True, "skipped": True}
    try:
        train = load_dataset(spec.train_path)
        test = load_dataset(spec.test_path)
        record = run_training(spec.config, train, test)
    except Exception as exc:  # noqa: BLE001 - per-cell isolation in sweeps
        return _failed(spec, exc)
    return _save_cell(spec, record)


def run_cell_group(specs: list[CellSpec]) -> list[dict]:
    """Train the cells of ``specs`` as one stack (see
    :func:`nla.trainer.run_group`) and save each; return their status
    dicts in order.  If loading or training raises, every cell runs again
    alone through :func:`run_cell`, so a failing cell gets the status its
    solo run gives and grouping never changes a result; such a group costs
    its stacked epochs up to the failure plus one solo run per cell."""
    try:
        records = run_group([(spec.config, load_dataset(spec.train_path),
                              load_dataset(spec.test_path)) for spec in specs])
    except Exception:  # noqa: BLE001 - the cells rerun alone
        return [run_cell(spec) for spec in specs]
    return [_save_cell(spec, record) for spec, record in zip(specs, records)]


# The most cells a pool task trains as one stack.  Per run, stacks of R
# runs took this share of a solo run's time (2-vCPU Xeon VM, one process):
#   n = 929, 5 epochs, ce:    0.65 (R = 2), 0.42 (5), 0.36 (10), 0.41-0.47 (16-40)
#   n = 929, 5 epochs, nla:   0.73 (R = 2), 0.57 (5), 0.56 (10), 0.50-0.52 (16-40)
#   n = 3500, 2 epochs, nla:  0.56 (R = 2), 0.37 (5), 0.36 (10), 0.32-0.38 (16-40)
# Past R = 10 the per-run work outside the step (shuffles, weight
# statistics, evaluation) dominates.
_GROUP_CAP = 10


def _split(items: list, parts: int) -> list[list]:
    """``items`` in ``parts`` contiguous slices whose sizes differ by at most 1."""
    size, extra = divmod(len(items), parts)
    bounds = [part * size + min(part, extra) for part in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _cell_groups(pending: list[CellSpec], workers: int) -> list[list[CellSpec]]:
    """The pool tasks of ``pending``: cells that share a training config
    apart from ``seed`` and an imbalance factor, in groups of at most
    ``_GROUP_CAP``, split further while there are fewer groups than
    ``min(workers, len(pending))``, so that no process idles.  Largest
    groups first; cells in spec order within a group.  Label noise keeps
    the train split's row count and the imbalance factor fixes it, so such
    cells stack; a group that cannot still trains its cells one by one
    (see :func:`run_cell_group`)."""
    alike: dict[tuple, list[CellSpec]] = {}
    for spec in pending:
        key = json.dumps({**spec.config.to_dict(), "seed": None}, sort_keys=True)
        alike.setdefault((key, spec.imbalance), []).append(spec)
    groups = [part for specs in alike.values()
              for part in _split(specs, -(-len(specs) // _GROUP_CAP))]
    while len(groups) < min(workers, len(pending)):
        largest = max(range(len(groups)), key=lambda g: len(groups[g]))
        groups[largest:largest + 1] = _split(groups[largest], 2)
    return sorted(groups, key=len, reverse=True)


def _grid(cfg: dict) -> list[tuple]:
    """Every (noise, imbalance, mode, seed) cell, in sweep order.  An empty
    grid and two cells with one id (a repeated value, or values that
    format alike) are usage errors, raised before anything is written."""
    grid = list(itertools.product(cfg["noise"], cfg["imbalance"], cfg["modes"],
                                  cfg["seeds"]))
    if not grid:
        raise UsageError("the grid is empty: noise, imbalance, modes and seeds "
                         "each need at least one value")
    ids = [cell_id(*cell) for cell in grid]
    if len(set(ids)) < len(ids):
        repeated = next(i for i in ids if ids.count(i) > 1)
        raise UsageError(f"cell {repeated} appears more than once in the grid")
    return grid


def _cells(cfg: dict, grid: list[tuple], force: bool) -> list[CellSpec]:
    """The cells of ``grid`` with their training configs built once; a
    ``train`` section that :class:`TrainConfig` rejects, or that sets the
    grid's ``mode`` or ``seed``, is a usage error, raised before anything
    is written.  A cell's training seed does not depend on its mode, so
    modes are paired per (data, seed) cell."""
    if {"mode", "seed"} & cfg["train"].keys():
        raise UsageError("bad train section: the grid sets mode and seed")
    try:
        configs = [TrainConfig.from_dict({
            **cfg["train"], "mode": mode,
            "seed": derive_seed(cfg["seed"], f"run|{dataset_id(noise, imbalance, seed)}")})
            for noise, imbalance, mode, seed in grid]
    except (AttributeError, TypeError, ValueError) as exc:  # e.g. "policy": [1]
        raise UsageError(f"bad train section: {exc}") from exc
    caches = _ensure_datasets(cfg, grid, quiet=True)
    test_path, test_sha = caches["test"]
    runs = Path(cfg["out"]) / "runs"
    specs = []
    for (noise, imbalance, mode, seed), config in zip(grid, configs):
        train_path, train_sha = caches[dataset_id(noise, imbalance, seed)]
        specs.append(CellSpec(
            noise=noise, imbalance=imbalance, mode=mode, seed=seed, config=config,
            train_path=str(train_path), test_path=str(test_path),
            train_sha256=train_sha, test_sha256=test_sha,
            run_dir=str(runs / cell_id(noise, imbalance, mode, seed)), force=force))
    return specs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: dict, args) -> int:
    _ensure_datasets(cfg, _grid(cfg), force=args.force)
    return 0


def cmd_train(cfg: dict, args) -> int:
    grid = _grid(cfg)
    if len(grid) != 1:
        raise UsageError("train runs exactly one cell: one noise, imbalance, mode and seed")
    spec = _cells(cfg, grid, args.force)[0]
    result = run_cell(spec)
    if not result["ok"]:
        print(f"[train] {result['cell']} FAILED: {result['error']}", file=sys.stderr)
        return 2
    state = "skipped (already complete)" if result["skipped"] else "done"
    print(f"[train] {result['cell']} {state} -> {spec.run_dir}")
    return 0


def cmd_sweep(cfg: dict, args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    specs = _cells(cfg, _grid(cfg), args.force)
    # With more than one pending cell and worker, the pending cells go to
    # a pool of processes as groups (see _cell_groups), one group per
    # task, each trained as stacked runs or, when its stack fails, as solo
    # runs.  run_cell runs every other cell in this process, where a
    # complete one is skipped.  Results keep spec order.
    pending = [s for s in specs if not _is_complete(s)] if args.workers > 1 else []
    pooled = {}
    if len(pending) > 1:
        groups = _cell_groups(pending, args.workers)
        with multiprocessing.get_context("spawn").Pool(
                min(args.workers, len(groups))) as pool:
            pooled = {r["cell"]: r for results in
                      pool.map(run_cell_group, groups, chunksize=1) for r in results}
    results = [pooled.get(s.id) or run_cell(s) for s in specs]
    failures = [r for r in results if not r["ok"]]
    for r in results:
        tag = "ok" if r["ok"] else f"FAILED: {r['error']}"
        print(f"[sweep] {r['cell']}: {tag}")
    _write_summary(cfg, specs, results)
    return 3 if failures else 0


def _write_summary(cfg: dict, specs: list[CellSpec], results: list[dict]) -> None:
    """Aggregate final-epoch accuracies across seeds for each grid cell."""
    ok = {r["cell"] for r in results if r["ok"]}
    by_group: dict[tuple, list] = {}
    for spec in specs:
        if spec.id not in ok:
            continue
        key = (spec.noise, spec.imbalance, spec.mode)
        by_group.setdefault(key, []).append(load_final_metrics(spec.run_dir))

    rows = {}  # (noise, imbalance, mode) -> summary row, in sorted key order
    for (noise, imbalance, mode), finals in sorted(by_group.items()):
        overall = np.array([m.test_overall for m in finals])
        mean_acc = np.array([m.test_mean for m in finals])
        per_class = np.stack([m.per_class_acc for m in finals]).mean(axis=0)
        rows[noise, imbalance, mode] = {
            "noise": noise, "imbalance": imbalance, "mode": mode,
            "n_seeds": len(finals),
            "overall_mean": float(overall.mean()),
            "overall_std": float(overall.std(ddof=1)) if len(finals) > 1 else 0.0,
            "mean_acc_mean": float(mean_acc.mean()),
            "mean_acc_std": float(mean_acc.std(ddof=1)) if len(finals) > 1 else 0.0,
            "per_class_mean": [float(v) for v in per_class],
        }

    deltas = {}
    for (noise, imbalance, mode), a in rows.items():
        for other in cfg["modes"]:
            b = rows.get((noise, imbalance, other))
            if other == mode or b is None:
                continue
            deltas[f"n{noise:g}_f{imbalance:g}:{mode}-{other}"] = {
                "overall": a["overall_mean"] - b["overall_mean"],
                "mean_acc": a["mean_acc_mean"] - b["mean_acc_mean"],
            }

    out = Path(cfg["out"])
    cells = list(rows.values())
    k = len(cells[0]["per_class_mean"]) if cells else 0
    header = ["noise", "imbalance", "mode", "n_seeds", "overall_mean",
              "overall_std", "mean_acc_mean", "mean_acc_std"]
    header += [f"acc_c{i}" for i in range(k)]
    lines = [",".join(header)]
    for r in cells:
        line = [f"{r['noise']:g}", f"{r['imbalance']:g}", r["mode"],
                str(r["n_seeds"]), repr(r["overall_mean"]), repr(r["overall_std"]),
                repr(r["mean_acc_mean"]), repr(r["mean_acc_std"])]
        line += [repr(v) for v in r["per_class_mean"]]
        lines.append(",".join(line))
    atomic_write_text(out / "summary.csv", "\n".join(lines) + "\n")
    incomplete = [r["cell"] for r in results if not r["ok"]]
    _write_json(out / "summary.json", {
        "cells": cells, "pairwise_deltas": deltas,
        "incomplete": incomplete, "version": __version__,
    })
    _print_pivot(rows)
    print(f"[sweep] summary -> {out / 'summary.csv'}"
          + (f" ({len(incomplete)} incomplete)" if incomplete else ""))


def _print_pivot(rows: dict[tuple, dict]) -> None:
    """Compact accuracy tables: one block per imbalance factor and metric,
    modes as rows and noise rates as columns.  ``rows`` maps
    (noise, imbalance, mode) to a summary row."""
    if not rows:
        return
    noises = sorted({n for n, _, _ in rows})
    factors = sorted({f for _, f, _ in rows})
    modes = sorted({m for _, _, m in rows})
    for factor in factors:
        for metric, label in (("overall", "overall acc"),
                              ("mean_acc", "mean acc")):
            print(f"[sweep] imbalance {factor:g}, {label} "
                  "(mean +/- std over seeds):")
            print("         " + "".join(f"  noise {n:<11g}" for n in noises))
            for mode in modes:
                cells = []
                for n in noises:
                    r = rows.get((n, factor, mode))
                    cells.append("      --         " if r is None else
                                 f"  {r[f'{metric}_mean']:.4f}±{r[f'{metric}_std']:.4f}")
                print(f"  {mode:>5s}: " + "".join(cells))


def cmd_plotdata(cfg: dict, args) -> int:
    out = Path(cfg["out"])
    runs_dir = out / "runs"
    # Only runs a manifest vouches for; it is written after metrics.csv.
    run_dirs = sorted(d for d in runs_dir.glob("*") if (d / "manifest.json").exists()) \
        if runs_dir.exists() else []
    if not run_dirs:
        print(f"[plotdata] no run records under {runs_dir}", file=sys.stderr)
        return 2
    plot_dir = out / "plot"
    plot_dir.mkdir(parents=True, exist_ok=True)
    acc = ["run,epoch,class,accuracy"]
    quart = ["run,epoch,class,q1,median,q3"]
    loss = ["run,epoch,lr,loss_ce,loss_naw_ce,loss_reg,loss_total,test_overall,test_mean"]
    for run_dir in run_dirs:
        name = run_dir.name
        for m in load_run_metrics(run_dir):
            for k, a in enumerate(m.per_class_acc):
                acc.append(f"{name},{m.epoch},{k},{a!r}")
            for k in range(m.weight_quartiles.shape[0]):
                q1, med, q3 = m.weight_quartiles[k]
                quart.append(f"{name},{m.epoch},{k},{q1!r},{med!r},{q3!r}")
            loss.append(f"{name},{m.epoch},{m.lr!r},{m.loss_ce!r},{m.loss_naw_ce!r},"
                        f"{m.loss_reg!r},{m.loss_total!r},{m.test_overall!r},{m.test_mean!r}")
    atomic_write_text(plot_dir / "accuracy_curves.csv", "\n".join(acc) + "\n")
    atomic_write_text(plot_dir / "weight_quartiles.csv", "\n".join(quart) + "\n")
    atomic_write_text(plot_dir / "loss_curves.csv", "\n".join(loss) + "\n")
    print(f"[plotdata] {len(run_dirs)} runs -> {plot_dir}")
    return 0


def cmd_check(cfg: dict, args) -> int:
    from .selfcheck import run_selfcheck
    return 0 if run_selfcheck() else 2


def main(argv=None) -> int:
    parser = _Parser(prog="nla", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # Each subcommand takes only the flags it reads.
    def add_common(p, grid=True, epochs=True):
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output root (default $NLA_OUT_DIR)")
        if grid:
            p.add_argument("--seed", type=int, default=None, help="single run seed")
            p.add_argument("--seeds", default=None, help="seed list: A..B or a,b,c")
            p.add_argument("--noise", default=None, help="noise rates, comma separated")
            p.add_argument("--imbalance", default=None, help="imbalance factors, comma separated")
            p.add_argument("--mode", default=None, help="ce|naw|nla (comma list for sweep)")
            if epochs:
                p.add_argument("--epochs", type=int, default=None)
            p.add_argument("--force", action="store_true", help="redo existing outputs")

    add_common(sub.add_parser("generate", help="write dataset caches"), epochs=False)
    add_common(sub.add_parser("train", help="run a single cell"))
    sweep = sub.add_parser("sweep", help="run the full grid and aggregate")
    add_common(sweep)
    sweep.add_argument("--workers", type=int, default=1, help="parallel cells")
    add_common(sub.add_parser("plotdata", help="emit plot-ready CSVs"), grid=False)
    sub.add_parser("check", help="run built-in verification")

    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        cfg = _apply_overrides(load_config(getattr(args, "config", None)), args)
        handler = {"generate": cmd_generate, "train": cmd_train,
                   "sweep": cmd_sweep, "plotdata": cmd_plotdata,
                   "check": cmd_check}[args.command]
        return handler(cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TrainingDiverged) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
