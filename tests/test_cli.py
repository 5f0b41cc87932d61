"""End-to-end CLI: generate, train, sweep, plotdata, check, exit codes."""

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nla.cli
import nla.data
from nla import __version__
from nla.cli import (DEFAULT_CONFIG, _base_splits, cell_id, dataset_id,
                     load_config, main)
from nla.data import fingerprint, load_dataset, standard_instance
from nla.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, **overrides):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = {
        "seed": 5,
        "dataset": {"kind": "synthetic", "k": 3, "d": 4, "n_per_class": 40,
                    "test_per_class": 30, "spread": 0.6},
        "noise": [0.0],
        "imbalance": [1.0],
        "modes": ["ce", "nla"],
        "seeds": [1, 2],
        "train": {"epochs": 2, "hidden_dim": 8, "lr0": 1e-3},
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg["dataset"]["k"] == DEFAULT_CONFIG["dataset"]["k"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rocket": 1}', encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("text", [
        '[1, 2]', '{"dataset": 3}', '{"train": [1]}',
        '{"noise": 0.2}', '{"imbalance": 5}', '{"modes": "nla"}', '{"seeds": 1}',
        '{"modes": ["banana"]}', '{'])
    def test_malformed_config_is_usage_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("text", [
        '{"dataset": {"k": "7"}}', '{"dataset": {"n_per_class": 40.0}}',
        '{"dataset": {"spread": "0.5"}}', '{"seeds": ["x"]}', '{"seeds": [true]}',
        '{"noise": ["a"]}', '{"imbalance": [null]}',
        '{"noise": [-0.1]}', '{"noise": [0.7]}', '{"noise": [NaN]}',
        '{"imbalance": [0.5]}', '{"dataset": {"kind": ["csv"]}}',
        '{"dataset": {"kind": {"a": 1}}}', '{"out": 5}', '{"seed": 1.5}',
        '{"seed": true}', '{"seed": "x"}'])
    def test_mistyped_config_element_is_usage_error(self, tmp_path, text):
        # The output root goes in the file, so that a mistyped "out" is read.
        path = tmp_path / "bad.json"
        out = tmp_path / "out"
        path.write_text(json.dumps({"out": str(out), **json.loads(text)}),
                        encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("dataset", [
        {"kind": "csv"}, {"kind": "csv", "train": "a.csv"},
        {"kind": "csv", "train": "a.csv", "test": 3},
        {"kind": "idx", "train_images": "x", "train_labels": "y", "test_images": "z"},
        {"kind": "parquet"}])
    def test_dataset_without_its_paths_is_usage_error(self, tmp_path, dataset):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": dataset}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("dataset", [
        {"spread": float("nan")}, {"spread": 1e308}, {"spread": -1.0}, {"k": 1},
        {"d": 1}, {"n_per_class": 0}, {"test_per_class": 0}])
    def test_unbuildable_dataset_writes_nothing(self, tmp_path, dataset):
        path, cfg = write_config(tmp_path)
        cfg["dataset"].update(dataset)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_overflowing_spread_prints_only_the_error(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        cfg["dataset"]["spread"] = 1e308
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["generate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: ValueError: synthetic inputs must contain only finite values"]
        assert not (tmp_path / "out").exists()

    def test_non_finite_csv_writes_nothing(self, tmp_path):
        table = "label,f0,f1\n" + "".join(f"{i % 2},{i},1\n" for i in range(10))
        (tmp_path / "train.csv").write_text(table + "1,nan,1\n", encoding="utf-8")
        (tmp_path / "test.csv").write_text(table, encoding="utf-8")
        path, cfg = write_config(tmp_path, modes=["ce"], seeds=[1], dataset={
            "kind": "csv", "train": str(tmp_path / "train.csv"),
            "test": str(tmp_path / "test.csv")})
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_cell_and_dataset_ids(self):
        assert cell_id(0.3, 100.0, "nla", 4) == "n0.3_f100_nla_s4"
        assert dataset_id(0.0, 1.0, 2) == "n0_f1_s2"


class TestGenerate:
    def test_writes_caches_and_fingerprints(self, tmp_path):
        path, cfg = write_config(tmp_path, noise=[0.2])
        assert main(["generate", "--config", str(path)]) == 0
        data_dir = tmp_path / "out" / "data"
        assert (data_dir / "test.ds").exists()
        train_path = data_dir / "n0.2_f1_s1_train.ds"
        assert train_path.exists()
        ds = load_dataset(train_path)
        assert int((ds.labels != ds.clean_labels).sum()) == round(0.2 * ds.n)
        info = json.loads(train_path.with_suffix(".json").read_text())
        assert info["sha256"]
        assert info["noise_rate"] == 0.2

    def test_each_cache_is_serialized_once(self, tmp_path, monkeypatch):
        # The sidecar's sha256 is the digest of the bytes save_dataset wrote.
        calls = []
        serialize = nla.data.dataset_bytes
        monkeypatch.setattr(nla.data, "dataset_bytes",
                            lambda ds: calls.append(ds.split) or serialize(ds))
        path, cfg = write_config(tmp_path, noise=[0.0, 0.2], seeds=[1, 2])
        assert main(["generate", "--config", str(path)]) == 0
        assert sorted(calls) == ["test"] + ["train"] * 4
        for cache in (tmp_path / "out" / "data").glob("*.ds"):
            info = json.loads(cache.with_suffix(".json").read_text())
            assert info["sha256"] == hashlib.sha256(cache.read_bytes()).hexdigest()
            assert info["sha256"] == fingerprint(load_dataset(cache))

    def test_regeneration_is_identical(self, tmp_path):
        path, cfg = write_config(tmp_path, noise=[0.1], imbalance=[5.0])
        assert main(["generate", "--config", str(path)]) == 0
        target = tmp_path / "out" / "data" / "n0.1_f5_s1_train.ds"
        first = target.read_bytes()
        assert main(["generate", "--config", str(path), "--force"]) == 0
        assert target.read_bytes() == first

    def test_changed_generator_rewrites_caches(self, tmp_path):
        path, cfg = write_config(tmp_path, noise=[0.2], seeds=[1])
        data_dir = tmp_path / "out" / "data"
        cfg["dataset"]["spread"] = 0.5
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 0
        before = {p.name: p.read_bytes() for p in data_dir.glob("*.ds")}
        cfg["dataset"] = {"spread": 0.9}  # merged over the defaults
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 0
        for name, old in before.items():
            assert (data_dir / name).read_bytes() != old
            info = json.loads((data_dir / name).with_suffix(".json").read_text())
            assert info["generator"]["spread"] == 0.9
        fresh = tmp_path / "fresh"
        cfg["out"] = str(fresh)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 0
        for name in before:
            assert (data_dir / name).read_bytes() == (fresh / "data" / name).read_bytes()

    def test_stale_cache_is_regenerated(self, tmp_path):
        path, cfg = write_config(tmp_path, seeds=[1])
        assert main(["generate", "--config", str(path)]) == 0
        target = tmp_path / "out" / "data" / "n0_f1_s1_train.ds"
        good = target.read_bytes()
        # A cache whose bytes differ from its sidecar's sha256 (a write cut
        # short, an edit) is rewritten.
        target.write_bytes(good[:-8] + bytes(8))
        assert main(["generate", "--config", str(path)]) == 0
        assert target.read_bytes() == good
        # So is one made under another master seed.
        cfg["seed"] = 6
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 0
        assert target.read_bytes() != good
        info = json.loads(target.with_suffix(".json").read_text())
        assert info["master_seed"] == 6

    def test_default_splits_are_the_standard_instance(self):
        runner = _base_splits(load_config(None))
        for ours, standard in zip(runner, standard_instance(7)):
            assert fingerprint(ours) == fingerprint(standard)

    def test_imbalance_audit_ratio(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, imbalance=[8.0], seeds=[1])
        assert main(["generate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "max/min=8.00" in out


class TestTrain:
    def test_single_cell_run_and_skip(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, seeds=[1], modes=["ce"])
        args = ["train", "--config", str(path), "--mode", "ce", "--seed", "1"]
        assert main(args) == 0
        run_dir = tmp_path / "out" / "runs" / "n0_f1_ce_s1"
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "checkpoint.bin").exists()
        first = (run_dir / "metrics.csv").read_bytes()
        capsys.readouterr()
        assert main(args) == 0
        assert "skipped" in capsys.readouterr().out
        assert (run_dir / "metrics.csv").read_bytes() == first

    def test_changed_config_is_rerun(self, tmp_path, capsys):
        # A complete run is reused only for the config it was made with.
        path, cfg = write_config(tmp_path, seeds=[1], modes=["nla"])
        args = ["train", "--config", str(path), "--noise", "0.1", "--mode", "nla",
                "--seed", "1"]
        csv = tmp_path / "out" / "runs" / "n0.1_f1_nla_s1" / "metrics.csv"
        assert main(args + ["--epochs", "2"]) == 0
        assert len(csv.read_text().strip().split("\n")) == 1 + 2
        capsys.readouterr()
        assert main(args + ["--epochs", "4"]) == 0
        assert "skipped" not in capsys.readouterr().out
        assert len(csv.read_text().strip().split("\n")) == 1 + 4
        assert main(args + ["--epochs", "4"]) == 0
        assert "skipped (already complete)" in capsys.readouterr().out

    def test_run_killed_before_its_manifest_is_not_complete(self, tmp_path, capsys,
                                                             monkeypatch):
        # 3 epochs, then 5 killed after its data files but before its
        # manifest, then 3 again: the old manifest must not vouch for the
        # 5-epoch files, so the last request retrains.
        path, cfg = write_config(tmp_path, seeds=[1], modes=["ce"])
        args = ["train", "--config", str(path), "--noise", "0.1", "--mode", "ce",
                "--seed", "1", "--epochs"]
        run_dir = tmp_path / "out" / "runs" / "n0.1_f1_ce_s1"

        def rows():
            return len((run_dir / "metrics.csv").read_text().strip().split("\n")) - 1

        assert main(args + ["3"]) == 0
        assert rows() == 3
        real = nla.cli._write_json

        def killed_at_manifest(target, value):
            if Path(target).name == "manifest.json":
                raise KeyboardInterrupt
            real(target, value)

        monkeypatch.setattr(nla.cli, "_write_json", killed_at_manifest)
        with pytest.raises(KeyboardInterrupt):
            main(args + ["5"])
        monkeypatch.undo()
        assert rows() == 5
        assert not (run_dir / "manifest.json").exists()
        capsys.readouterr()
        assert main(args + ["3"]) == 0
        assert "skipped" not in capsys.readouterr().out
        assert rows() == 3
        assert (run_dir / "manifest.json").exists()

    def test_cache_is_rebuilt_for_another_noise_rate(self, tmp_path, capsys):
        # 0.1 and 0.1000001 both format to cell n0.1_f1_ce_s2; the cache's
        # sidecar records the rate it was built for, so it is not reused.
        path, cfg = write_config(tmp_path, seeds=[2], modes=["ce"])
        args = ["train", "--config", str(path), "--seed", "2", "--mode", "ce",
                "--epochs", "1", "--noise"]
        assert main(args + ["0.1"]) == 0
        capsys.readouterr()
        assert main(args + ["0.1000001"]) == 0
        assert "n0.1_f1_ce_s2 done" in capsys.readouterr().out
        info = tmp_path / "out" / "data" / "n0.1_f1_s2_train.json"
        assert json.loads(info.read_text())["noise_rate"] == 0.1000001

    def test_epochs_flag_controls_row_count(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["train", "--config", str(path), "--mode", "nla",
                     "--seed", "2", "--epochs", "3"]) == 0
        csv = (tmp_path / "out" / "runs" / "n0_f1_nla_s2" / "metrics.csv")
        assert len(csv.read_text().strip().split("\n")) == 1 + 3

    def test_rerun_identical_with_force(self, tmp_path):
        path, cfg = write_config(tmp_path, seeds=[1], modes=["nla"])
        args = ["train", "--config", str(path), "--mode", "nla", "--seed", "1"]
        assert main(args) == 0
        csv = tmp_path / "out" / "runs" / "n0_f1_nla_s1" / "metrics.csv"
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        assert main(args + ["--force"]) == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest

    def test_manifest_is_pinned_and_names_the_caches(self, tmp_path):
        path, cfg = write_config(tmp_path, noise=[0.1], seeds=[1], modes=["nla"])
        assert main(["train", "--config", str(path), "--mode", "nla", "--seed", "1"]) == 0
        out = tmp_path / "out"
        blob = (out / "runs" / "n0.1_f1_nla_s1" / "manifest.json").read_bytes()
        # Changed manifest bytes would make every existing run directory rerun.
        assert hashlib.sha256(blob).hexdigest() == (
            "0b6bd0b894c89f2b7906541ef555ba2d6d63fcca330d5d2f1459ea1d43e04201")
        manifest = json.loads(blob)
        assert manifest["status"] == "complete"
        assert manifest["config"]["mode"] == "nla"
        for key, cache in (("train_fingerprint", "n0.1_f1_s1_train.json"),
                           ("test_fingerprint", "test.json")):
            info = json.loads((out / "data" / cache).read_text())
            assert manifest[key] == info["sha256"]

    def test_training_serializes_no_dataset(self, tmp_path, monkeypatch):
        # The manifest takes its digests from the cache sidecars.
        path, cfg = write_config(tmp_path, seeds=[1], modes=["ce"])
        assert main(["generate", "--config", str(path)]) == 0
        monkeypatch.setattr(nla.data, "dataset_bytes", forbidden)
        assert main(["train", "--config", str(path), "--mode", "ce", "--seed", "1"]) == 0
        assert (tmp_path / "out" / "runs" / "n0_f1_ce_s1" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("train", [{"lam": 2}, {"foo": 1}, {"policy": [1]},
                                       {"epochs": 2.5}, {"batch_size": 32.0},
                                       {"hidden_dim": 8.5},
                                       {"policy": {"mu_true": [0.5, 0.5, 0.5]}},
                                       {"policy": {"sigma_diag": 1e-7}},
                                       {"policy": {"mu_false": [np.nan, 0.1]}},
                                       {"mode": "ce"}, {"seed": 3},
                                       {"lr0": np.nan}, {"weight_decay": np.nan},
                                       {"eps": np.nan}, {"lr_gamma": np.inf},
                                       {"beta1": 2.0}, {"beta2": -1.0},
                                       {"hidden_dim": 0}, {"hidden_dim": -3}],
                             ids=["lam", "foo", "policy", "epochs", "batch_size",
                                  "hidden_dim", "policy-mu_true", "policy-sigma_diag",
                                  "policy-mu_false", "mode", "seed", "lr0-nan",
                                  "weight_decay-nan", "eps-nan", "lr_gamma-inf",
                                  "beta1", "beta2", "hidden_dim-0", "hidden_dim-neg"])
    def test_rejected_train_section_is_usage_error(self, tmp_path, capsys,
                                                    command, train):
        path, cfg = write_config(tmp_path, seeds=[1], modes=["ce"], train=train)
        assert main([command, "--config", str(path)]) == 1
        assert "bad train section" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # no cache, no run directory

    def test_needs_single_cell(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["train", "--config", str(path), "--mode", "ce,nla",
                     "--seed", "1"]) == 1
        assert main(["train", "--config", str(path), "--mode", "ce"]) == 1
        assert not (tmp_path / "out").exists()


def deterministic_files(out):
    """Bytes of every file a sweep writes deterministically, by path."""
    names = {"manifest.json", "metrics.csv", "checkpoint.bin", "summary.csv",
             "summary.json"}
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.name in names or p.suffix == ".ds"}


def file_states(root):
    """(size, mtime_ns, inode) of every file under root."""
    return {str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns,
                                       p.stat().st_ino)
            for p in sorted(root.rglob("*")) if p.is_file()}


def forbidden(*args, **kwargs):
    raise AssertionError("must not be called")


# Two seeds per (mode, imbalance), so a one-worker sweep trains every
# cell in a stack and none alone.
SOLO_GRID = {"imbalance": [1.0, 10.0], "seeds": [1, 2]}


@pytest.fixture(scope="module")
def trained_cells(tmp_path_factory):
    """The files of ``nla train`` run on each cell of ``SOLO_GRID`` in turn:
    the solo reference that every sweep of the grid must equal."""
    root = tmp_path_factory.mktemp("trained")
    path, cfg = write_config(root, **SOLO_GRID)
    for noise, imbalance, mode, seed in itertools.product(
            cfg["noise"], cfg["imbalance"], cfg["modes"], cfg["seeds"]):
        assert main(["train", "--config", str(path), "--noise", f"{noise:g}",
                     "--imbalance", f"{imbalance:g}", "--mode", mode,
                     "--seed", str(seed)]) == 0
    return deterministic_files(root / "out")


def cell_files(out):
    """:func:`deterministic_files` of ``out`` without the sweep summaries."""
    return {name: data for name, data in deterministic_files(out).items()
            if not name.startswith("summary.")}


class InProcessContext:
    """Stand-in for a multiprocessing context: its pool runs tasks in this
    process and records (method, processes, tasks, chunksize), each task
    (a group of cells) as its cell ids joined by "+"."""

    def __init__(self, method, pools):
        self.method, self.pools = method, pools

    def Pool(self, processes):  # noqa: N802 - multiprocessing's name
        context = self

        class Pool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=None):
                context.pools.append((context.method, processes,
                                      ["+".join(s.id for s in group) for group in items],
                                      chunksize))
                return [fn(s) for s in items]

        return Pool()


class TestSweep:
    def test_full_grid_and_summary(self, tmp_path):
        path, cfg = write_config(tmp_path, noise=[0.0, 0.25])
        assert main(["sweep", "--config", str(path)]) == 0
        runs = sorted(p.name for p in (tmp_path / "out" / "runs").iterdir())
        assert len(runs) == 2 * 2 * 2  # noise x mode x seed
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["cells"]) == 4  # noise x mode aggregates
        assert summary["incomplete"] == []
        cell = summary["cells"][0]
        assert cell["n_seeds"] == 2
        assert "overall_std" in cell
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().split("\n")
        assert lines[0].startswith("noise,imbalance,mode,n_seeds,overall_mean")
        assert len(lines) == 1 + 4

    def test_aggregation_matches_independent_recalc(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for cell in summary["cells"]:
            finals = []
            for seed in cfg["seeds"]:
                cid = cell_id(cell["noise"], cell["imbalance"], cell["mode"], seed)
                csv = (tmp_path / "out" / "runs" / cid / "metrics.csv")
                last = csv.read_text().strip().split("\n")[-1].split(",")
                header = csv.read_text().split("\n")[0].split(",")
                finals.append(float(last[header.index("test_overall")]))
            assert cell["overall_mean"] == pytest.approx(np.mean(finals), abs=1e-12)
            assert cell["overall_std"] == pytest.approx(np.std(finals, ddof=1), abs=1e-12)

    def test_workers_give_identical_outputs(self, tmp_path):
        path_a, _ = write_config(tmp_path / "a")
        path_b, _ = write_config(tmp_path / "b")
        assert main(["sweep", "--config", str(path_a)]) == 0
        assert main(["sweep", "--config", str(path_b), "--workers", "2"]) == 0
        files_a = deterministic_files(tmp_path / "a" / "out")
        assert len(files_a) == 4 * 3 + 2 + 3  # cells x 3, summaries, caches
        assert deterministic_files(tmp_path / "b" / "out") == files_a

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_equals_train_of_each_cell(self, tmp_path, trained_cells, workers):
        path, _ = write_config(tmp_path, **SOLO_GRID)
        assert main(["sweep", "--config", str(path), "--workers", workers]) == 0
        files = cell_files(tmp_path / "out")
        assert len(files) == 8 * 3 + 5  # cells x 3, caches
        assert files == trained_cells

    def test_one_worker_sweep_trains_no_cell_alone(self, tmp_path, monkeypatch,
                                                   trained_cells):
        path, _ = write_config(tmp_path, **SOLO_GRID)
        monkeypatch.setattr(nla.cli, "run_training", forbidden)
        assert main(["sweep", "--config", str(path), "--workers", "1"]) == 0
        assert cell_files(tmp_path / "out") == trained_cells

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-earlier"])
    def test_kill_at_any_replace_then_resume_gives_a_clean_sweeps_bytes(
            self, tmp_path, monkeypatch, earlier):
        # Every file a sweep writes is committed by one os.replace, so a
        # kill can land before or after each of them.  The kill is a
        # BaseException from the k-th call, which no per-cell handler
        # catches (as KeyboardInterrupt in the test above), for every k.  The killed sweep asks
        # for 3 epochs, in a fresh directory or over a complete 2-epoch
        # sweep, and is resumed with that earlier request when there is
        # one, else with its own.  A cell whose manifest is the resumed
        # request's is one the resume skips, so its files must already be
        # that request's; after the resume every file must be.
        def sweep(root, epochs):
            path, _ = write_config(root, modes=["ce", "nla"], seeds=[1],
                                   train={"epochs": epochs, "hidden_dim": 8, "lr0": 1e-3})
            return main(["sweep", "--config", str(path), "--workers", "1"])

        def files(out):
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        def start(root):
            if earlier:
                assert sweep(root, 2) == 0
            calls.clear()

        class Killed(BaseException):
            pass

        real, calls, kill_at = os.replace, [], None

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == kill_at:
                raise Killed
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        clean = {}
        for epochs in (2, 3):
            assert sweep(tmp_path / f"clean{epochs}", epochs) == 0
            clean[epochs] = files(tmp_path / f"clean{epochs}" / "out")
        start(tmp_path / "count")
        assert sweep(tmp_path / "count", 3) == 0
        assert files(tmp_path / "count" / "out") == clean[3]
        # Two cells' checkpoint, metrics and manifest and two summaries,
        # after two train and two test cache files when fresh.
        assert len(calls) == 3 * 2 + 2 + (0 if earlier else 2 * 2)
        resumed = 2 if earlier else 3
        expected = clean[resumed]
        for k in range(1, len(calls) + 1):
            root = tmp_path / f"kill{k}"
            start(root)
            kill_at = k
            with pytest.raises(Killed):
                sweep(root, 3)
            kill_at = None
            killed = files(root / "out")
            assert set(killed) <= set(expected), k
            for name, data in killed.items():
                if name.endswith("manifest.json") and data == expected[name]:
                    run = Path(name).parent
                    for other in expected:
                        if Path(other).parent == run:
                            assert killed[other] == expected[other], (k, other)
            assert sweep(root, resumed) == 0
            assert files(root / "out") == expected, k

    def test_changed_dataset_reruns_every_cell(self, tmp_path):
        # A complete run is reused only on the dataset caches it was
        # trained on: after a changed dataset section the directory must
        # equal a fresh sweep of the new request.
        path, cfg = write_config(tmp_path / "a")
        assert main(["sweep", "--config", str(path)]) == 0
        cfg["dataset"]["spread"] = 0.9
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["sweep", "--config", str(path)]) == 0
        fresh, _ = write_config(tmp_path / "b", dataset=cfg["dataset"])
        assert main(["sweep", "--config", str(fresh)]) == 0
        assert (deterministic_files(tmp_path / "a" / "out")
                == deterministic_files(tmp_path / "b" / "out"))

    def test_complete_resume_starts_no_pool_and_writes_nothing(self, tmp_path,
                                                               monkeypatch):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path)]) == 0
        before = file_states(out)
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        monkeypatch.setattr(nla.cli, "_base_splits", forbidden)
        assert main(["sweep", "--config", str(path), "--workers", "2"]) == 0
        assert file_states(out) == before

    def test_only_pending_cells_are_dispatched(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, seeds=[1, 2, 3])
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path)]) == 0
        # Three of six cells pending: one never run, one cut short before
        # its manifest, one with a manifest that is not JSON.
        shutil.rmtree(out / "runs" / "n0_f1_ce_s2")
        (out / "runs" / "n0_f1_nla_s1" / "manifest.json").unlink()
        broken = out / "runs" / "n0_f1_nla_s3" / "manifest.json"
        fresh = broken.read_bytes()
        broken.write_text("{")
        untouched = ["n0_f1_ce_s1", "n0_f1_ce_s3", "n0_f1_nla_s2"]
        before = {c: file_states(out / "runs" / c) for c in untouched}
        pools = []
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: InProcessContext(method, pools))
        assert main(["sweep", "--config", str(path), "--workers", "8"]) == 0
        assert pools == [("spawn", 3, ["n0_f1_ce_s2", "n0_f1_nla_s1", "n0_f1_nla_s3"], 1)]
        for c in untouched:
            assert file_states(out / "runs" / c) == before[c]
        assert broken.read_bytes() == fresh
        summary = json.loads((out / "summary.json").read_text())
        assert summary["incomplete"] == []

    def test_resume_builds_each_config_once(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path)
        assert main(["sweep", "--config", str(path)]) == 0
        built = []
        from_dict = TrainConfig.from_dict
        monkeypatch.setattr(TrainConfig, "from_dict",
                            staticmethod(lambda d: built.append(d) or from_dict(d)))
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        assert main(["sweep", "--config", str(path), "--workers", "2"]) == 0
        assert len(built) == 4  # mode x seed cells

    @pytest.mark.parametrize("flags, repeated", [
        (["--seeds", "2,2"], "n0.1_f1_ce_s2"),
        (["--seeds", "2", "--noise", "0.1,0.1000001"], "n0.1_f1_ce_s2"),
        (["--seeds", "2", "--mode", "ce,ce"], "n0.1_f1_ce_s2"),
    ], ids=["seed", "noise", "mode"])
    @pytest.mark.parametrize("command", ["generate", "train", "sweep"])
    def test_repeated_cell_is_usage_error(self, tmp_path, capsys, command, flags,
                                          repeated):
        path, cfg = write_config(tmp_path, noise=[0.1], modes=["ce"])
        workers = ["--workers", "2"] if command == "sweep" else []
        assert main([command, "--config", str(path), *workers, *flags]) == 1
        assert f"cell {repeated} appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        path, cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--workers", workers]) == 1
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "sweep"])
    def test_empty_grid_is_usage_error(self, tmp_path, capsys, command):
        path, cfg = write_config(tmp_path, modes=["ce"])
        assert main([command, "--config", str(path), "--seeds", "5..1"]) == 1
        assert "the grid is empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pairwise_deltas_present(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "n0_f1:nla-ce" in summary["pairwise_deltas"]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_partial_failure_exits_3_and_is_recorded(self, tmp_path):
        path, cfg = write_config(
            tmp_path, seeds=[1], modes=["ce"],
            train={"epochs": 2, "hidden_dim": 8, "lr0": 1e150})
        assert main(["sweep", "--config", str(path)]) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["incomplete"] == ["n0_f1_ce_s1"]
        assert summary["cells"] == []


def rewrite_train_cache(out, did, change):
    """Replace a train cache by ``change(dataset)``, and its sidecar's
    sha256 with the new file's, so that the sweep reuses it."""
    path = out / "data" / f"{did}_train.ds"
    ds = change(load_dataset(path))
    sidecar = path.with_suffix(".json")
    info = json.loads(sidecar.read_text())
    info["sha256"] = nla.data.save_dataset(ds, path)
    sidecar.write_text(json.dumps(info))


def rescale_train_cache(out, did, transform):
    """Replace the inputs of a train cache by ``transform(inputs)``, as
    :func:`rewrite_train_cache` does."""
    rewrite_train_cache(out, did, lambda ds: dataclasses.replace(
        ds, inputs=transform(ds.inputs)))


def sweep_outputs_equal_workers_1(tmp_path, path, capsys):
    """Copy ``path``'s generated ``out`` directory, sweep the original with
    one worker and the copy with two, assert equal exit codes, stdout and
    deterministic files; return the one-worker stdout."""
    out_a = Path(json.loads(path.read_text())["out"])
    out_b = tmp_path / "b" / "out"
    shutil.copytree(out_a, out_b)
    path_b = tmp_path / "b" / "config.json"
    path_b.write_text(path.read_text().replace(str(out_a), str(out_b)))
    capsys.readouterr()
    code = main(["sweep", "--config", str(path)])
    solo = capsys.readouterr().out
    assert main(["sweep", "--config", str(path_b), "--workers", "2"]) == code
    assert capsys.readouterr().out.replace(str(out_b), str(out_a)) == solo
    assert deterministic_files(out_b) == deterministic_files(out_a)
    return solo


class TestSweepGroups:
    """The pool trains groups of alike cells as stacked runs."""

    @pytest.mark.parametrize("workers, seeds, groups", [
        (2, [1, 2, 3], [["n0_f1_ce_s1", "n0_f1_ce_s2", "n0_f1_ce_s3"],
                        ["n0_f1_nla_s1", "n0_f1_nla_s2", "n0_f1_nla_s3"],
                        ["n0_f10_ce_s1", "n0_f10_ce_s2", "n0_f10_ce_s3"],
                        ["n0_f10_nla_s1", "n0_f10_nla_s2", "n0_f10_nla_s3"]]),
        (6, [1, 2, 3], [["n0_f1_ce_s1", "n0_f1_ce_s2"], ["n0_f1_nla_s1", "n0_f1_nla_s2"],
                        ["n0_f1_ce_s3"], ["n0_f1_nla_s3"],
                        ["n0_f10_ce_s1", "n0_f10_ce_s2", "n0_f10_ce_s3"],
                        ["n0_f10_nla_s1", "n0_f10_nla_s2", "n0_f10_nla_s3"]]),
    ])
    def test_groups_share_config_and_rows(self, tmp_path, monkeypatch, workers, seeds,
                                          groups):
        # One group per (mode, imbalance), split until every process has one.
        path, _ = write_config(tmp_path, imbalance=[1.0, 10.0], seeds=seeds)
        pools = []
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: InProcessContext(method, pools))
        assert main(["sweep", "--config", str(path), "--workers", str(workers)]) == 0
        ((method, processes, ids, chunksize),) = pools
        assert (method, processes, chunksize) == ("spawn", min(workers, len(groups)), 1)
        assert sorted(ids) == sorted("+".join(group) for group in groups)

    def test_cap_splits_large_groups(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nla.cli, "_GROUP_CAP", 2)
        path, _ = write_config(tmp_path, modes=["ce"], seeds=[1, 2, 3, 4, 5])
        pools = []
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: InProcessContext(method, pools))
        assert main(["sweep", "--config", str(path), "--workers", "2"]) == 0
        assert pools[0][2] == ["n0_f1_ce_s1+n0_f1_ce_s2", "n0_f1_ce_s3+n0_f1_ce_s4",
                               "n0_f1_ce_s5"]

    def test_grid_of_shapes_and_modes_equals_workers_1_and_resumes(self, tmp_path,
                                                                   monkeypatch):
        grid = {"imbalance": [1.0, 10.0], "seeds": [1, 2, 3]}
        path_a, _ = write_config(tmp_path / "a", **grid)
        path_b, _ = write_config(tmp_path / "b", **grid)
        assert main(["sweep", "--config", str(path_a)]) == 0
        assert main(["sweep", "--config", str(path_b), "--workers", "2"]) == 0
        files = deterministic_files(tmp_path / "b" / "out")
        assert len(files) == 12 * 3 + 2 + 7  # cells x 3, summaries, caches
        assert files == deterministic_files(tmp_path / "a" / "out")
        before = file_states(tmp_path / "b" / "out" / "runs")
        data = file_states(tmp_path / "b" / "out" / "data")
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        assert main(["sweep", "--config", str(path_b), "--workers", "2"]) == 0
        assert file_states(tmp_path / "b" / "out" / "runs") == before
        assert file_states(tmp_path / "b" / "out" / "data") == data
        assert deterministic_files(tmp_path / "b" / "out") == files

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_members_fail_alone_as_with_one_worker(self, tmp_path, capsys):
        # lr0 = 1e10 leaves the logits of the cached rows finite for 3
        # epochs; scaled by 1e200 they overflow after a few updates, and
        # rows of 1.7e308 overflow before the first one.  The pool trains
        # s1 with s2 and s3 with s4.
        path, _ = write_config(tmp_path / "a", modes=["ce"], seeds=[1, 2, 3, 4],
                               train={"epochs": 3, "hidden_dim": 8, "lr0": 1e10})
        assert main(["generate", "--config", str(path)]) == 0
        out_a = tmp_path / "a" / "out"
        rescale_train_cache(out_a, "n0_f1_s2", lambda x: x * 1e200)
        rescale_train_cache(out_a, "n0_f1_s3", lambda x: np.full_like(x, 1.7e308))
        out_b = tmp_path / "b" / "out"
        shutil.copytree(out_a, out_b)
        path_b = tmp_path / "b" / "config.json"
        path_b.write_text(path.read_text().replace(str(out_a), str(out_b)))
        capsys.readouterr()
        assert main(["sweep", "--config", str(path)]) == 3
        solo = capsys.readouterr().out
        assert main(["sweep", "--config", str(path_b), "--workers", "2"]) == 3
        assert capsys.readouterr().out.replace(str(out_b), str(out_a)) == solo
        lines = [line for line in solo.splitlines() if line.startswith("[sweep] n0_")]
        assert lines[0] == "[sweep] n0_f1_ce_s1: ok"
        assert lines[1].startswith("[sweep] n0_f1_ce_s2: FAILED: training diverged at epoch ")
        assert lines[2] == ("[sweep] n0_f1_ce_s3: FAILED: ValueError: non-finite logits "
                            "before the first update")
        assert lines[3] == "[sweep] n0_f1_ce_s4: ok"
        assert deterministic_files(out_b) == deterministic_files(out_a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failing_group_of_one_trains_once(self, tmp_path, monkeypatch, capsys):
        # Two workers train s1 and s2 as groups of one, and s2's rows,
        # scaled as above, diverge.  Its group is its solo run, so its
        # cache is trained once, not as a stack and then alone.
        path, _ = write_config(tmp_path, modes=["ce"], seeds=[1, 2],
                               train={"epochs": 3, "hidden_dim": 8, "lr0": 1e10})
        assert main(["generate", "--config", str(path)]) == 0
        rescale_train_cache(tmp_path / "out", "n0_f1_s2", lambda x: x * 1e200)
        real, stacks, pools = nla.trainer.run_group, [], []

        def run_group(runs):
            stacks.append([bool(np.abs(train.inputs).max() > 1e100) for _, train, _ in runs])
            return real(runs)

        monkeypatch.setattr(nla.trainer, "run_group", run_group)
        monkeypatch.setattr(nla.cli, "run_group", run_group)
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: InProcessContext(method, pools))
        capsys.readouterr()
        assert main(["sweep", "--config", str(path), "--workers", "2"]) == 3
        assert pools[0][2] == ["n0_f1_ce_s1", "n0_f1_ce_s2"]
        assert sorted(stacks) == [[False], [True]]
        assert ("[sweep] n0_f1_ce_s2: FAILED: training diverged at epoch "
                in capsys.readouterr().out)

    def test_a_rejected_label_fails_its_cell_alone(self, tmp_path, capsys):
        # The pool trains s1 with s2, whose train cache holds label 3 of
        # a 3-class split.
        path, _ = write_config(tmp_path / "a", modes=["ce"], seeds=[1, 2, 3, 4])
        assert main(["generate", "--config", str(path)]) == 0

        def relabel(ds):
            labels = ds.labels.copy()
            labels[0] = 3
            return dataclasses.replace(ds, labels=labels)

        rewrite_train_cache(tmp_path / "a" / "out", "n0_f1_s2", relabel)
        solo = sweep_outputs_equal_workers_1(tmp_path, path, capsys)
        lines = [line for line in solo.splitlines() if line.startswith("[sweep] n0_")]
        assert lines == ["[sweep] n0_f1_ce_s1: ok",
                         "[sweep] n0_f1_ce_s2: FAILED: ValueError: train labels "
                         "must lie in [0, 3)",
                         "[sweep] n0_f1_ce_s3: ok", "[sweep] n0_f1_ce_s4: ok"]

    @pytest.mark.parametrize("rows", [None, 1])
    def test_sidecar_rows_are_only_a_grouping_hint(self, tmp_path, capsys, rows):
        # Groups are planned from the grid: a train sidecar's "n" is no
        # longer read, so one that lacks or misstates it changes nothing.
        path, _ = write_config(tmp_path / "a", modes=["ce"], imbalance=[1.0, 2.0, 10.0])
        assert main(["generate", "--config", str(path)]) == 0
        sidecars = sorted((tmp_path / "a" / "out" / "data").glob("*_train.json"))
        assert len(sidecars) == 6
        for sidecar in sidecars:
            info = json.loads(sidecar.read_text())
            info.pop("n") if rows is None else info.update(n=rows)
            sidecar.write_text(json.dumps(info))
        solo = sweep_outputs_equal_workers_1(tmp_path, path, capsys)
        assert "FAILED" not in solo


class TestPlotdata:
    def test_emits_three_tidy_files(self, tmp_path):
        path, cfg = write_config(tmp_path, seeds=[1])
        assert main(["sweep", "--config", str(path)]) == 0
        assert main(["plotdata", "--config", str(path)]) == 0
        plot = tmp_path / "out" / "plot"
        acc = (plot / "accuracy_curves.csv").read_text().strip().split("\n")
        assert acc[0] == "run,epoch,class,accuracy"
        # epochs x classes rows per run, 2 runs
        assert len(acc) == 1 + 2 * 2 * 3
        quart = (plot / "weight_quartiles.csv").read_text().strip().split("\n")
        assert quart[0] == "run,epoch,class,q1,median,q3"
        loss = (plot / "loss_curves.csv").read_text().strip().split("\n")
        assert loss[0].startswith("run,epoch,lr,loss_ce")

    def test_missing_records_reported(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["plotdata", "--config", str(path)]) == 2

    def test_reads_only_runs_a_manifest_vouches_for(self, tmp_path, capsys):
        # A run cut short before its manifest still has its metrics.csv.
        path, cfg = write_config(tmp_path, seeds=[1])
        assert main(["sweep", "--config", str(path)]) == 0
        runs = tmp_path / "out" / "runs"
        (runs / "n0_f1_nla_s1" / "manifest.json").unlink()
        capsys.readouterr()
        assert main(["plotdata", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("[plotdata] 1 runs ->")
        plot = tmp_path / "out" / "plot"
        for name in ("accuracy_curves.csv", "weight_quartiles.csv", "loss_curves.csv"):
            rows = (plot / name).read_text().strip().split("\n")[1:]
            assert {row.split(",")[0] for row in rows} == {"n0_f1_ce_s1"}, name
        (runs / "n0_f1_ce_s1" / "manifest.json").unlink()
        assert main(["plotdata", "--config", str(path)]) == 2
        assert "no run records" in capsys.readouterr().err


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        assert capsys.readouterr().out == (
            "[check] PASS kernel-oracle-equivalence\n"
            "[check] PASS scheduler-endpoints\n"
            "[check] PASS covariance-eigenstructure\n"
            "[check] PASS gradient-fidelity\n"
            "[check] PASS loss-identities\n")


class TestUsage:
    def test_runs_as_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "nla", "--version"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{__version__}\n"

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["generate", "--epochs", "-5"], "--epochs"),
        (["check", "--out", "elsewhere"], "--out"),
        (["check", "--config", "bad.json"], "--config"),
    ], ids=["generate-epochs", "check-out", "check-config"])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, tmp_path, monkeypatch,
                                                               capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        assert main(argv) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_bad_mode_is_usage_error(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--mode", "banana"]) == 1

    def test_seed_range_parsing(self, tmp_path):
        path, cfg = write_config(tmp_path, modes=["ce"])
        assert main(["sweep", "--config", str(path), "--seeds", "1..3"]) == 0
        runs = sorted(p.name for p in (tmp_path / "out" / "runs").iterdir())
        assert runs == ["n0_f1_ce_s1", "n0_f1_ce_s2", "n0_f1_ce_s3"]

    def test_policy_fields_configurable(self, tmp_path):
        path, cfg = write_config(
            tmp_path, seeds=[1], modes=["nla"],
            train={"epochs": 2, "hidden_dim": 8,
                   "policy": {"sigma_diag": 0.9, "axis_ratio_false": 4.0}})
        assert main(["train", "--config", str(path), "--mode", "nla",
                     "--seed", "1"]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "runs" / "n0_f1_nla_s1" / "manifest.json")
            .read_text())
        assert manifest["config"]["policy"]["sigma_diag"] == 0.9
        assert manifest["config"]["policy"]["axis_ratio_false"] == 4.0
        assert manifest["config"]["policy"]["total_epochs"] == 2
