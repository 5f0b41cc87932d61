"""Write perfbench/pins.json: the output digests the benchmark checks against.

    python3 perfbench/pin.py

It pins the workload seeds in ``run.PINNED_SEEDS`` (0..63).

Run it only on the commit whose bytes the pins should describe.  A later
change that alters output bytes on purpose regenerates the pins and says
why in its description; any other digest change is a regression.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def pin_sweep(nla, seed: int) -> dict:
    work = run.OUT_DIR / f"pin-sweep-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        run.write_sweep_config(config, seed)
        rc, _ = run.call_cli(nla, run.sweep_argv(config, work / "out", 2))
        if rc != 0:
            raise RuntimeError(f"sweep for seed {seed} exited with {rc}")
        got = run.sweep_outputs(work / "out")
        if None in got["cells"].values():
            raise RuntimeError(f"sweep for seed {seed} left incomplete cells")
        return {"cells": got["cells"], "summary.csv": got["summary.csv"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n", 1)[0]).parse_args(argv)
    nla = run.load_nla()

    verify_rc, verify_out = run.call_cli(nla, ["check"])
    if verify_rc != 0:
        raise RuntimeError("nla check failed; refusing to pin its output")
    pins = {"digest_block": run.digest_block(nla),
            "verify": {"stdout": verify_out},
            "train-nla": {}, "sweep-ce": {}}
    for seed in run.PINNED_SEEDS:
        pins["train-nla"][str(seed)] = run.run_digest(nla, *run.train_inputs(nla, seed))
        pins["sweep-ce"][str(seed)] = pin_sweep(nla, seed)
        print(f"[pin] seed {seed} done", file=sys.stderr, flush=True)
    run.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
