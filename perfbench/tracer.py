"""Span tracer for the nla benchmark.

Wraps public functions of the ``nla`` modules from outside, at every name
a caller looks them up by: each ``nla`` module attribute that holds the
original function is replaced by one wrapper, and ``Rng.permutation`` is
replaced on the class.  Each call records a span (layer function, start,
end, parent span, operation id) in flat in-memory columns; self times and
call counts are derived from the spans after the traced phase ends.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, module, attribute) for every traced function; the metric prefix
# is "<layer>.<function>".
LAYER_FUNCTIONS = [
    ("numkit", "nla.numkit", "Rng.permutation"),
    ("data", "nla.data", "make_synthetic"),
    ("data", "nla.data", "inject_noise"),
    ("data", "nla.data", "apply_imbalance"),
    ("data", "nla.data", "save_dataset"),
    ("data", "nla.data", "load_dataset"),
    ("data", "nla.data", "fingerprint"),
    ("model", "nla.model", "forward"),
    ("model", "nla.model", "backward"),
    ("model", "nla.model", "gradient_check"),
    ("model", "nla.model", "save_checkpoint"),
    ("naw", "nla.naw", "naw_weights"),
    ("naw", "nla.naw", "kernel_params"),
    ("naw", "nla.naw", "gaussian_weight"),
    ("losses", "nla.losses", "batch_total"),
    ("losses", "nla.losses", "cross_entropy"),
    ("losses", "nla.losses", "naw_ce_loss"),
    ("losses", "nla.losses", "consistency_loss"),
    ("trainer", "nla.trainer", "run_training"),
    ("trainer", "nla.trainer", "adam_step"),
    ("trainer", "nla.trainer", "evaluate"),
    ("trainer", "nla.trainer", "collect_weight_stats"),
    ("trainer", "nla.trainer", "save_run_record"),
    ("cli", "nla.cli", "main"),
    ("cli", "nla.cli", "run_cell"),
    ("selfcheck", "nla.selfcheck", "run_selfcheck"),
]


SPAN_NAMES = [f"{layer}.{attr.rsplit('.', 1)[-1]}" for layer, _, attr in LAYER_FUNCTIONS]
KERNEL_SPAN = "naw.kernel_params"
CELL_SPAN = "cli.run_cell"


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.append((f"{KERNEL_SPAN}.useful_ratio", "ratio", "higher"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Installs wrappers, records spans, and restores the originals.

    Spans live in parallel arrays (name index, parent index, op index,
    start, end) so that tens of thousands of spans per run stay cheap;
    parent -1 marks a root span.
    """

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.op_ids: list[str] = []
        self.kernel_keys: dict[int, bytes] = {}   # span index -> (mu, sigma) bytes
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- operation ids ------------------------------------------------------

    def begin_op(self, op_id: str) -> int:
        """Tag the spans that follow with ``op_id`` (a run, sweep or check)."""
        self.op_ids.append(op_id)
        self._op = len(self.op_ids) - 1
        return self._op

    # -- wrappers -----------------------------------------------------------

    def _wrapper(self, fn, name_index: int, cell: bool, kernel: bool):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        tracer = self

        def traced(*args, **kwargs):
            if kernel:
                mu, sigma = args[:2] if len(args) >= 2 else (
                    kwargs["mu"], kwargs["sigma"])
                tracer.kernel_keys[len(starts)] = (
                    np.asarray(mu, dtype=np.float64).tobytes()
                    + np.asarray(sigma, dtype=np.float64).tobytes())
            outer_op = tracer._op
            if cell:
                # Spans inside a sweep cell carry the cell id.
                tracer.op_ids.append(args[0].id)
                tracer._op = len(tracer.op_ids) - 1
            i = len(starts)
            names.append(name_index)
            parents.append(stack[-1])
            ops.append(tracer._op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
                tracer._op = outer_op

        traced._perfbench_wrapper = True
        return traced

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS at every nla lookup site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for _, module_name, _ in LAYER_FUNCTIONS:
            importlib.import_module(module_name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nla" or name.startswith("nla."))]
        for index, (_, module_name, attr) in enumerate(LAYER_FUNCTIONS):
            module = sys.modules[module_name]
            name = SPAN_NAMES[index]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, orig,
                            self._wrapper(orig, index, False, False))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrapper(orig, index, name == CELL_SPAN,
                                    name == KERNEL_SPAN)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key: str, orig, wrapper) -> None:
        self._patches.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original; safe to call more than once."""
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived metrics ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the wrapped children's."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def _span_columns(self, top_ops: list[int]) -> list[int | None]:
        """Column of ``top_ops`` each span belongs to, or None.

        ``top_ops`` lists indices returned by :meth:`begin_op`; spans tagged
        with a cell id belong to the operation that ran the cell, i.e. the
        nearest top operation tagged before it.
        """
        col_of_op, current = [], None
        top = {op: i for i, op in enumerate(top_ops)}
        for op in range(len(self.op_ids)):
            current = top.get(op, current)
            col_of_op.append(current)
        return [col_of_op[op] if op >= 0 else None for op in self.ops]

    def per_op_totals(self, top_ops: list[int]) -> dict[str, tuple[list[int], list[float]]]:
        """Per benchmark operation: call count and self time of each span name."""
        out = {name: ([0] * len(top_ops), [0.0] * len(top_ops)) for name in SPAN_NAMES}
        for name_index, col, self_s in zip(self.names, self._span_columns(top_ops),
                                           self.self_times()):
            if col is not None:
                calls, secs = out[SPAN_NAMES[name_index]]
                calls[col] += 1
                secs[col] += self_s
        return out

    def layer_metrics(self, top_ops: list[int]) -> dict[str, float]:
        """Median over operations of each per-layer metric."""
        totals = self.per_op_totals(top_ops)
        metrics = {}
        for name in SPAN_NAMES:
            calls, secs = totals[name]
            metrics[f"{name}.calls"] = statistics.median(calls)
            metrics[f"{name}.self_s"] = statistics.median(secs)
        # Distinct (mu, sigma) kernels built per operation over calls.
        cols = self._span_columns(top_ops)
        distinct = [set() for _ in top_ops]
        for span, key in self.kernel_keys.items():
            if cols[span] is not None:
                distinct[cols[span]].add(key)
        calls = totals[KERNEL_SPAN][0]
        metrics[f"{KERNEL_SPAN}.useful_ratio"] = statistics.median(
            len(d) / c if c else 0.0 for d, c in zip(distinct, calls))
        return metrics

    def write(self, path) -> int:
        """Write every span as gzip'd TSV; returns the number written."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tid\n")
            for i in range(len(self.starts)):
                op = self.ops[i]
                fh.write(f"{i}\t{SPAN_NAMES[self.names[i]]}\t"
                         f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\t"
                         f"{self.parents[i]}\t{self.op_ids[op] if op >= 0 else ''}\n")
        return len(self.starts)
