"""Minimal differentiable predictors with hand-derived backprop.

Two architectures: a linear softmax head (d -> K) and a one-hidden-layer
ReLU perceptron (d -> h -> K).  The ReLU derivative at exactly 0 is taken
as 0 (the left limit), so gradient checks have a fixed convention at the
kink.  Checkpoints round-trip bit-exactly through a small binary format.

Parameters and gradients each live in one contiguous float64 vector,
``flat``, ordered W0, b0 [, W1, b1] with every W row-major; the per-layer
``weights`` and ``biases`` lists hold views into it.  This is also the
checkpoint's byte order, so a checkpoint is a header plus the vector, and
the optimizer updates a model with one pass over the vector.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .numkit import Rng

__all__ = [
    "Arch",
    "ModelParams",
    "ForwardTrace",
    "Gradients",
    "GradCheckResult",
    "init_params",
    "forward",
    "backward",
    "gradient_check",
    "save_checkpoint",
    "load_checkpoint",
]

_MAGIC = b"NLAM"
_VERSION = 1


@dataclass(frozen=True)
class Arch:
    """Architecture descriptor.  ``hidden_dim == 0`` means linear."""

    input_dim: int
    hidden_dim: int
    n_classes: int

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.n_classes < 2 or self.hidden_dim < 0:
            raise ValueError(f"bad architecture {self}")

    @property
    def is_linear(self) -> bool:
        return self.hidden_dim == 0

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of each dense layer, input side first."""
        d, h, k = self.input_dim, self.hidden_dim, self.n_classes
        return [(d, k)] if self.is_linear else [(d, h), (h, k)]

    @property
    def param_count(self) -> int:
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.layer_shapes)


def _layer_views(flat: np.ndarray, shapes) -> tuple[list, list]:
    """Weight and bias views of a vector ordered W0, b0, W1, b1, ..."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in shapes:
        end = offset + fan_in * fan_out
        weights.append(flat[offset:end].reshape(fan_in, fan_out))
        biases.append(flat[end:end + fan_out])
        offset = end + fan_out
    return weights, biases


class _LayerVector:
    """Per-layer weight and bias views over one contiguous float64 vector.

    ``flat`` holds W0, b0, W1, b1, ... in that order, each W row-major:
    the checkpoint's parameter order.  ``weights`` and ``biases`` are
    views into it, so writing through them writes ``flat`` and whole-model
    arithmetic (optimizer, gradient accumulation) is one operation on
    ``flat``.  Building from per-layer arrays copies them into a new
    vector.
    """

    def __init__(self, weights, biases) -> None:
        if len(weights) != len(biases):
            raise ValueError("need one bias vector per weight matrix")
        shapes = [np.shape(w) for w in weights]
        for shape, b in zip(shapes, biases):
            if len(shape) != 2 or np.shape(b) != shape[1:]:
                raise ValueError(f"bias of shape {np.shape(b)} does not match "
                                 f"weights of shape {shape}")
        flat = np.concatenate([np.ravel(a) for wb in zip(weights, biases) for a in wb])
        self._bind(flat.astype(np.float64, copy=False), shapes)

    def _bind(self, flat: np.ndarray, shapes) -> None:
        self.flat = flat
        self.weights, self.biases = _layer_views(flat, shapes)


class ModelParams(_LayerVector):
    """Dense weights and biases, ordered input side first, in one vector."""

    def __init__(self, arch: Arch, weights, biases, seed: int = 0) -> None:
        super().__init__(weights, biases)
        if [w.shape for w in self.weights] != arch.layer_shapes:
            raise ValueError(f"parameter shapes do not match {arch}")
        self.arch = arch
        self.seed = seed

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.weights, self.biases, self.seed)


@dataclass
class ForwardTrace:
    """Cached activations for one mini-batch, consumed by backward."""

    inputs: np.ndarray
    logits: np.ndarray
    pre_hidden: np.ndarray | None = None
    hidden: np.ndarray | None = None


class Gradients(_LayerVector):
    """Parameter gradients with the same shapes and layout as the model."""

    @staticmethod
    def zeros_like(params: ModelParams) -> "Gradients":
        return Gradients._over(np.zeros_like(params.flat), params.arch)

    @staticmethod
    def _over(flat: np.ndarray, arch: Arch) -> "Gradients":
        grads = Gradients.__new__(Gradients)
        grads._bind(flat, arch.layer_shapes)
        return grads

    def add_(self, other: "Gradients") -> None:
        self.flat += other.flat


def init_params(arch: Arch, rng: Rng) -> ModelParams:
    """Zero-mean normal weights scaled by 1/sqrt(fan_in); zero biases.

    Draw order is fixed (layer by layer, row-major within a layer), so a
    seed fully determines the parameters.
    """
    weights, biases = [], []
    for fan_in, fan_out in arch.layer_shapes:
        w = rng.normals(fan_in * fan_out).reshape(fan_in, fan_out) / np.sqrt(fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return ModelParams(arch=arch, weights=weights, biases=biases, seed=rng.seed)


def forward(params: ModelParams, inputs: np.ndarray) -> ForwardTrace:
    """Batch forward pass; rows of ``inputs`` are samples."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.arch.input_dim:
        raise ValueError(
            f"inputs must be (n, {params.arch.input_dim}), got {x.shape}")
    if params.arch.is_linear:
        logits = x @ params.weights[0] + params.biases[0]
        return ForwardTrace(inputs=x, logits=logits)
    pre = x @ params.weights[0] + params.biases[0]
    hid = np.maximum(pre, 0.0)
    logits = hid @ params.weights[1] + params.biases[1]
    return ForwardTrace(inputs=x, logits=logits, pre_hidden=pre, hidden=hid)


def backward(params: ModelParams, trace: ForwardTrace,
             grad_logits: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients for the supplied logit gradients.

    ``grad_logits`` must be dL/d(logits) of the scalar loss being
    differentiated (any batch-mean factor included by the caller).  The
    per-layer products are written straight into the gradient vector.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != trace.logits.shape:
        raise ValueError("grad_logits shape does not match the trace")
    if trace.inputs.shape[1] != params.arch.input_dim:
        raise ValueError("trace does not match the model architecture")
    grads = Gradients._over(np.empty_like(params.flat), params.arch)
    d_w, d_b = grads.weights, grads.biases
    if params.arch.is_linear:
        if trace.pre_hidden is not None:
            raise ValueError("trace does not match the model architecture")
        np.matmul(trace.inputs.T, g, out=d_w[0])
        np.add.reduce(g, axis=0, out=d_b[0])
        return grads
    if trace.pre_hidden is None or trace.hidden is None:
        raise ValueError("trace does not match the model architecture")
    np.matmul(trace.hidden.T, g, out=d_w[1])
    np.add.reduce(g, axis=0, out=d_b[1])
    d_hid = g @ params.weights[1].T
    d_pre = d_hid * (trace.pre_hidden > 0.0)
    np.matmul(trace.inputs.T, d_pre, out=d_w[0])
    np.add.reduce(d_pre, axis=0, out=d_b[0])
    return grads


@dataclass
class GradCheckResult:
    """Outcome of a finite-difference gradient check."""

    max_rel_error: float
    worst_coordinate: tuple[str, int, int]
    n_checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def gradient_check(params: ModelParams, loss_fn, tolerance: float = 1e-6,
                   h: float = 1e-5, max_coords: int | None = None,
                   rng: Rng | None = None,
                   denom_floor: float = 1e-2) -> GradCheckResult:
    """Compare analytic parameter gradients against central differences.

    ``loss_fn(params)`` must deterministically return ``(loss, Gradients)``.
    Every coordinate is perturbed by +/- h unless ``max_coords`` (at least
    200 when sampling) limits the check to a random subset.  The reported
    error is ``|fd - analytic| / max(|fd|, |analytic|, denom_floor)``: a
    relative error with an absolute floor on the denominator, since
    central differences cannot resolve near-zero gradients below roundoff.
    """
    _, analytic = loss_fn(params)
    coords = []
    arrays = [("W", i, w) for i, w in enumerate(params.weights)]
    arrays += [("b", i, b) for i, b in enumerate(params.biases)]
    for kind, layer, arr in arrays:
        for flat in range(arr.size):
            coords.append((kind, layer, flat))
    if max_coords is not None and len(coords) > max_coords:
        if max_coords < 200:
            raise ValueError("sampled gradient checks need at least 200 coordinates")
        if rng is None:
            raise ValueError("rng required when sampling coordinates")
        picked = rng.choice(len(coords), max_coords)
        coords = [coords[i] for i in picked]

    worst = 0.0
    worst_coord = ("W", 0, 0)
    for kind, layer, flat in coords:
        arr = params.weights[layer] if kind == "W" else params.biases[layer]
        an = (analytic.weights[layer] if kind == "W" else analytic.biases[layer]).flat[flat]
        old = arr.flat[flat]
        arr.flat[flat] = old + h
        up = loss_fn(params)[0]
        arr.flat[flat] = old - h
        down = loss_fn(params)[0]
        arr.flat[flat] = old
        fd = (up - down) / (2.0 * h)
        err = abs(fd - an) / max(abs(fd), abs(an), denom_floor)
        if err > worst:
            worst = err
            worst_coord = (kind, layer, flat)
    return GradCheckResult(max_rel_error=worst, worst_coordinate=worst_coord,
                           n_checked=len(coords), tolerance=tolerance)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Little-endian layout:
#   magic "NLAM" | u32 version | u32 input_dim | u32 hidden_dim |
#   u32 n_classes | u64 seed | parameter arrays as raw float64,
#   row-major, ordered W0, b0 [, W1, b1].

def save_checkpoint(params: ModelParams, path) -> None:
    a = params.arch
    header = _MAGIC + struct.pack("<IIIIQ", _VERSION, a.input_dim, a.hidden_dim,
                                  a.n_classes, params.seed)
    with open(path, "wb") as fh:
        fh.write(header + params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"not a model checkpoint: bad magic {blob[:4]!r}")
    version, d, h, k, seed = struct.unpack_from("<IIIIQ", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    arch = Arch(input_dim=d, hidden_dim=h, n_classes=k)
    offset = 4 + struct.calcsize("<IIIIQ")
    size = len(blob) - offset
    if size < arch.param_count * 8:
        raise ValueError("checkpoint is truncated")
    if size > arch.param_count * 8:
        raise ValueError("checkpoint has trailing bytes")
    weights, biases = _layer_views(np.frombuffer(blob, dtype="<f8", offset=offset),
                                   arch.layer_shapes)
    return ModelParams(arch=arch, weights=weights, biases=biases, seed=seed)
