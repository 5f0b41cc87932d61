"""Minimal differentiable predictors with hand-derived backprop.

Two architectures: a linear softmax head (d -> K) and a one-hidden-layer
ReLU perceptron (d -> h -> K).  The ReLU derivative at exactly 0 is taken
as 0 (the left limit), so gradient checks have a fixed convention at the
kink.  Checkpoints round-trip bit-exactly through a small binary format.

Parameters live in one contiguous float64 vector, ``ModelParams.flat``,
ordered W0, b0 [, W1, b1] with every W row-major; the per-layer
``weights`` and ``biases`` lists hold views into it.  A gradient is a
plain vector in the same layout: :func:`backward` returns one, so
accumulating views and taking an optimizer step are single operations on
vectors.  This is also the checkpoint's byte order, so a checkpoint is a
header plus the vector.

A ``ModelParams`` may also hold an (R, P) stack of R such vectors, one
per row.  The same lines then carry a leading run axis: :func:`forward`
returns (R, n, K) logits through 3-D ``np.matmul`` and :func:`backward`
an (R, P) stack of gradients, each run's bit-identical to a solo call;
the finite-difference gradient check evaluates its perturbed parameter
vectors this way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .numkit import Rng, atomic_write_bytes

__all__ = [
    "Arch",
    "ModelParams",
    "ForwardTrace",
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
_HEADER = struct.Struct("<IIIIQ")  # after the magic; see "Checkpoint format"

# Rows per chunk of a logits-only forward.  Over the 3500-row train-nla
# split (8-64-7 MLP) 512-row chunks took about a quarter of one unchunked
# pass; 1024-row chunks were slower.
_CHUNK_ROWS = 512
# Perturbed parameter vectors per loss evaluation of gradient_check.  On
# the 8-64-7 MLP with 32-row batches, stacks of 16-50 took within 10% of
# the fastest (about 40) and stacks of 100 or more were slower.  A stacked
# loss holds both views' traces (four 384 KiB activation arrays at 24)
# through batch_total: 0.7 MiB more peak RSS in the verify benchmark than
# logits-only stacks; stacks of 32 add 0.4 MiB more.
_GRAD_STACK = 24


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
    """Weight and bias views of a vector ordered W0, b0, W1, b1, ...

    Any leading axes of ``flat`` lead every view too: of an (R, P) stack
    the weights are (R, fan_in, fan_out) and the biases (R, fan_out).
    """
    lead, weights, biases, offset = flat.shape[:-1], [], [], 0
    for fan_in, fan_out in shapes:
        end = offset + fan_in * fan_out
        weights.append(flat[..., offset:end].reshape(*lead, fan_in, fan_out))
        biases.append(flat[..., end:end + fan_out])
        offset = end + fan_out
    return weights, biases


class ModelParams:
    """Dense weights and biases, ordered input side first, in one vector.

    Owns ``flat`` (not copied), which must hold ``arch.param_count``
    float64 values in the layout of :attr:`Arch.layer_shapes`, or an
    (R, param_count) stack of R such vectors (see :func:`_layer_views`).
    """

    def __init__(self, arch: Arch, flat: np.ndarray, seed: int = 0) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim not in (1, 2) or flat.shape[-1] != arch.param_count:
            raise ValueError(f"{arch} needs a vector of {arch.param_count} "
                             f"parameters or a stack of them, got shape {flat.shape}")
        self.arch = arch
        self.flat = flat
        self.seed = seed
        self.weights, self.biases = _layer_views(flat, arch.layer_shapes)


@dataclass
class ForwardTrace:
    """Cached activations for one mini-batch, consumed by backward; a
    logits-only trace (see :func:`forward`) holds none."""

    inputs: np.ndarray
    logits: np.ndarray
    pre_hidden: np.ndarray | None = None
    hidden: np.ndarray | None = None


def init_params(arch: Arch, rng: Rng) -> ModelParams:
    """Zero-mean normal weights scaled by 1/sqrt(fan_in); zero biases.

    Draw order is fixed (layer by layer, row-major within a layer), so a
    seed fully determines the parameters.
    """
    parts = []
    for fan_in, fan_out in arch.layer_shapes:
        parts += [rng.normals(fan_in * fan_out) / np.sqrt(fan_in), np.zeros(fan_out)]
    return ModelParams(arch, np.concatenate(parts), rng.seed)


def _dense_pass(params: ModelParams, x: np.ndarray):
    """(logits, pre_hidden, hidden) of the rows of ``x``; the last two are
    None for a linear model.  With stacked parameters each has a leading
    run axis, over which the (R, 1, fan_out) biases broadcast.  The biases
    are added in place (one array fewer per layer, the same bits)."""
    w, b = params.weights, params.biases
    pre = x @ w[0]
    pre += b[0][..., None, :]
    if params.arch.is_linear:
        return pre, None, None
    hid = np.maximum(pre, 0.0)
    logits = hid @ w[1]
    logits += b[1][..., None, :]
    return logits, pre, hid


def _row_chunks(n: int) -> list[slice]:
    """Slices of ``_CHUNK_ROWS`` rows covering n rows (one slice when n is
    0).  A trailing single row joins the slice before it: numpy multiplies
    a one-row matrix by another method, whose sums can differ in the last
    bit."""
    starts = list(range(0, max(n, 1), _CHUNK_ROWS))
    if len(starts) > 1 and n % _CHUNK_ROWS == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def forward(params: ModelParams, inputs: np.ndarray,
            logits_only: bool = False) -> ForwardTrace:
    """Batch forward pass; rows of ``inputs`` are samples.

    With stacked parameters (``params.flat`` of shape (R, P)) every array
    of the trace has a leading run axis: the logits are (R, n, K).

    With ``logits_only`` (for passes over a whole split) the rows go
    through in chunks of ``_CHUNK_ROWS`` and the trace keeps only the
    logits, so it cannot be passed to :func:`backward`; each row's logits
    are bit-identical to those of one unchunked pass.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.arch.input_dim:
        raise ValueError(
            f"inputs must be (n, {params.arch.input_dim}), got {x.shape}")
    if logits_only:
        return ForwardTrace(inputs=x, logits=np.concatenate(
            [_dense_pass(params, x[rows])[0] for rows in _row_chunks(len(x))],
            axis=-2))
    logits, pre, hid = _dense_pass(params, x)
    return ForwardTrace(inputs=x, logits=logits, pre_hidden=pre, hidden=hid)


def backward(params: ModelParams, trace: ForwardTrace,
             grad_logits: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradient for the supplied logit gradients.

    ``grad_logits`` must be dL/d(logits) of the scalar loss being
    differentiated (any batch-mean factor included by the caller), shaped
    like ``trace.logits``.  Returns a new float64 array in the layout of
    ``params.flat``; the per-layer products are written straight into it.
    With stacked parameters every run gets its own gradient row, each
    bit-identical to a solo backward.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != trace.logits.shape:
        raise ValueError("grad_logits shape does not match the trace")
    # A linear model's trace, like a logits-only one, has no hidden layer.
    if (trace.inputs.shape[1] != params.arch.input_dim
            or (trace.pre_hidden is None) != params.arch.is_linear):
        raise ValueError("trace does not match the model architecture")
    grad = np.empty_like(params.flat)
    d_w, d_b = _layer_views(grad, params.arch.layer_shapes)
    if not params.arch.is_linear:
        np.matmul(trace.hidden.mT, g, out=d_w[1])
        np.add.reduce(g, axis=-2, out=d_b[1])
        g = (g @ params.weights[1].mT) * (trace.pre_hidden > 0.0)  # d pre_hidden
    np.matmul(trace.inputs.mT, g, out=d_w[0])
    np.add.reduce(g, axis=-2, out=d_b[0])
    return grad


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


def gradient_check(params: ModelParams, grad: np.ndarray, loss_fn,
                   tolerance: float = 1e-6, h: float = 1e-5,
                   max_coords: int | None = None,
                   rng: Rng | None = None) -> GradCheckResult:
    """Compare the analytic gradient ``grad`` at ``params`` (a vector in
    the layout of ``params.flat``) against central differences.

    ``loss_fn(stack)`` must deterministically return the R losses of a
    ``ModelParams`` whose ``flat`` is an (R, P) stack of perturbed copies
    of ``params.flat`` (see :func:`forward`).  Each copy moves one
    coordinate by +h or -h, and a stack holds at most ``_GRAD_STACK``
    copies; ``params`` itself is never modified.

    Every coordinate is checked unless ``max_coords`` (at least 200 when
    sampling) limits the check to a random subset.  The reported error is
    ``|fd - analytic| / max(|fd|, |analytic|, 1e-2)``: a relative error
    with an absolute floor on the denominator, since central differences
    cannot resolve near-zero gradients below roundoff.  The worst
    coordinate is the first one with a NaN error, else the first with the
    largest error; a NaN error fails the check.
    """
    # Each layer's contiguous run of positions in the flat vector, in
    # reporting order: all W, then all b.
    w_at, b_at = _layer_views(np.arange(params.flat.size), params.arch.layer_shapes)
    blocks = [("W", layer, a.ravel()) for layer, a in enumerate(w_at)]
    blocks += [("b", layer, a) for layer, a in enumerate(b_at)]
    index = np.concatenate([a for _, _, a in blocks])
    if max_coords is not None and index.size > max_coords:
        if max_coords < 200:
            raise ValueError("sampled gradient checks need at least 200 coordinates")
        if rng is None:
            raise ValueError("rng required when sampling coordinates")
        index = index[rng.choice(index.size, max_coords)]

    # Perturbed copy j moves coordinate index[j] to old + h and copy
    # m + j moves it to old - h, for the m checked coordinates.
    flat, m = params.flat, index.size
    coords = np.concatenate((index, index))
    values = np.concatenate((flat[index] + h, flat[index] - h))
    losses = np.empty(2 * m)
    for lo in range(0, 2 * m, _GRAD_STACK):
        at = coords[lo:lo + _GRAD_STACK]
        stack = np.tile(flat, (at.size, 1))
        stack[np.arange(at.size), at] = values[lo:lo + at.size]
        loss = loss_fn(ModelParams(params.arch, stack, params.seed))
        if np.shape(loss) != (at.size,):
            raise ValueError("loss_fn must return one loss per stacked vector")
        losses[lo:lo + at.size] = loss
    fd = (losses[:m] - losses[m:]) / (2.0 * h)
    analytic = grad[index]
    err = np.abs(fd - analytic) / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-2)
    # argmax returns the first NaN if there is one, else the first
    # maximum; when every error is 0 the report names flat position 0.
    k = int(np.argmax(err))
    worst = float(err[k])
    worst_at = index[k] if worst != 0.0 else 0
    kind, layer, at = next(blk for blk in blocks if blk[2][0] <= worst_at <= blk[2][-1])
    worst_coord = (kind, layer, int(worst_at - at[0]))
    return GradCheckResult(max_rel_error=worst, worst_coordinate=worst_coord,
                           n_checked=int(m), tolerance=tolerance)


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
    header = _MAGIC + _HEADER.pack(_VERSION, a.input_dim, a.hidden_dim,
                                   a.n_classes, params.seed)
    atomic_write_bytes(path, header + params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"not a model checkpoint: bad magic {blob[:4]!r}")
    if len(blob) < 4 + _HEADER.size:
        raise ValueError("checkpoint header is truncated")
    version, d, h, k, seed = _HEADER.unpack_from(blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    arch = Arch(input_dim=d, hidden_dim=h, n_classes=k)
    offset = 4 + _HEADER.size
    size = len(blob) - offset
    if size < arch.param_count * 8:
        raise ValueError("checkpoint is truncated")
    if size > arch.param_count * 8:
        raise ValueError("checkpoint has trailing bytes")
    flat = np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64)
    return ModelParams(arch, flat, seed)
