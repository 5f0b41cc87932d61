"""Minimal differentiable predictors with hand-derived backprop.

Two architectures: a linear softmax head (d -> K) and a one-hidden-layer
ReLU perceptron (d -> h -> K), whose forward and backward passes are one
loop over the dense layers.  The ReLU derivative at exactly 0 is taken
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
takes (n, d) rows that every run sees, or (R, n, d) rows with one (n, d)
block per run, returns (R, n, K) logits through 3-D ``np.matmul``, and
:func:`backward` an (R, P) stack of gradients, each run's bit-identical
to a solo call.  The finite-difference gradient check evaluates its
perturbed parameter vectors this way, and a group of training runs
steps on its stack of runs.  A training step puts the views of a batch
on a further leading axis: one backward over a (V, R, n, K) trace of an
(R, P) stack (or a (V, n, K) trace of one vector) gives a (V, R, P)
(or (V, P)) stack, each row bit-identical to a solo call.
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
# the 8-64-7 MLP with 32-row batches and losses from full-trace forwards,
# stacks of 16-50 took within 10% of the fastest (about 40) and stacks of
# 100 or more were slower.
_GRAD_STACK = 24
_FD_STEP = 1e-5  # central-difference step of gradient_check
_GRAD_TOLERANCE = 1e-6  # largest error a passing gradient_check reports


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
    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of each dense layer, input side first."""
        d, h, k = self.input_dim, self.hidden_dim, self.n_classes
        return [(d, h), (h, k)] if h else [(d, k)]

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
    float64 values in the layout of :attr:`Arch.layer_shapes`, or a stack
    of such vectors on leading axes (see :func:`_layer_views`): (R, P)
    for R runs, (V, R, P) for the per-view gradients of a stacked step.
    """

    def __init__(self, arch: Arch, flat: np.ndarray, seed: int = 0) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim < 1 or flat.shape[-1] != arch.param_count:
            raise ValueError(f"{arch} needs a vector of {arch.param_count} "
                             f"parameters or a stack of them, got shape {flat.shape}")
        self.arch = arch
        self.flat = flat
        self.seed = seed
        self.weights, self.biases = _layer_views(flat, arch.layer_shapes)


@dataclass
class ForwardTrace:
    """Logits of one mini-batch and the input of each dense layer (the
    rows, then the ReLU units), consumed by backward; a logits-only trace
    (see :func:`forward`) holds no layer inputs."""

    logits: np.ndarray
    layer_inputs: list[np.ndarray]


def init_params(arch: Arch, rng: Rng) -> ModelParams:
    """Zero-mean normal weights scaled by 1/sqrt(fan_in); zero biases.

    Draw order is fixed (layer by layer, row-major within a layer), so a
    seed fully determines the parameters.
    """
    parts = []
    for fan_in, fan_out in arch.layer_shapes:
        parts += [rng.normals(fan_in * fan_out) / np.sqrt(fan_in), np.zeros(fan_out)]
    return ModelParams(arch, np.concatenate(parts), rng.seed)


def _dense_pass(params: ModelParams, x: np.ndarray, outs=None):
    """(logits, layer inputs) of the rows of ``x``: every layer but the
    first takes the ReLU of the one before.  With stacked parameters every
    array but a 2-D ``x`` has a leading run axis, over which the
    (R, 1, fan_out) biases broadcast.  The biases are added and the ReLU taken in place
    (fewer arrays, the same bits).  ``outs``, one array per layer, receive
    the layers' outputs (the units of each hidden layer, then the
    logits) instead of new arrays."""
    layer_inputs, z = [], x
    for w, b, dest in zip(params.weights, params.biases, outs or [None] * len(params.weights)):
        if layer_inputs:
            np.maximum(z, 0.0, out=z)
        layer_inputs.append(z)
        z = np.matmul(z, w, out=dest)
        z += b[..., None, :]
    return z, layer_inputs


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
            logits_only: bool = False, out=None) -> ForwardTrace:
    """Batch forward pass; rows of ``inputs`` are samples.

    With stacked parameters (``params.flat`` of shape (R, P)) every array
    of the trace has a leading run axis: the logits are (R, n, K).
    ``inputs`` are then (n, d) rows that every run sees, or (R, n, d),
    one block of rows per run.

    With ``logits_only`` (for passes over a whole split) the rows go
    through in chunks of ``_CHUNK_ROWS`` and the trace keeps only the
    logits, so it cannot be passed to :func:`backward`; each row's logits
    are bit-identical to those of one unchunked pass.  Otherwise ``out``,
    if given, holds one array per layer that receives that layer's output
    (the ReLU units of each hidden layer, then the logits), so that a
    training step writes into buffers it owns.
    """
    x = np.asarray(inputs, dtype=np.float64)
    d = params.arch.input_dim
    if (x.ndim < 2 or x.shape[-1] != d
            or x.ndim > 2 and x.shape[:-2] != params.flat.shape[:-1]):
        runs = params.flat.shape[:-1]
        raise ValueError(f"inputs must be (n, {d})"
                         + (f" or ({runs[0]}, n, {d})" if runs else "") + f", got {x.shape}")
    if logits_only:
        return ForwardTrace(logits=np.concatenate(
            [_dense_pass(params, x[..., rows, :])[0] for rows in _row_chunks(x.shape[-2])],
            axis=-2), layer_inputs=[])
    return ForwardTrace(*_dense_pass(params, x, out))


def backward(params: ModelParams, trace: ForwardTrace,
             grad_logits: np.ndarray, out: ModelParams | None = None) -> np.ndarray:
    """Exact reverse-mode gradient for the supplied logit gradients.

    ``grad_logits`` must be dL/d(logits) of the scalar loss being
    differentiated (any batch-mean factor included by the caller), shaped
    like ``trace.logits``.  Returns an array in the layout of
    ``params.flat`` with one gradient per leading index of
    ``grad_logits``: a vector for (n, K) logits, and a row per run or view
    for (R, n, K) logits, each bit-identical to a solo backward.  A
    (V, n, K) trace of one parameter vector stacks its V views of a batch
    that way, and a (V, R, n, K) trace of an (R, P) stack gives a
    (V, R, P) stack.  The per-layer products are written straight into a new
    array, or into ``out.flat`` when ``out`` (parameters of that shape,
    whose layer views its owner built once) is given.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != trace.logits.shape:
        raise ValueError("grad_logits shape does not match the trace")
    ins = trace.layer_inputs
    if len(ins) != len(params.weights):
        raise ValueError("trace does not match the model architecture")
    if out is None:
        out = ModelParams(params.arch, np.empty(g.shape[:-2] + (params.arch.param_count,)))
    for layer in reversed(range(len(ins))):
        np.matmul(ins[layer].mT, g, out=out.weights[layer])
        np.add.reduce(g, axis=-2, out=out.biases[layer])
        if layer:
            # d of the layer below's pre-activations: the ReLU units are
            # > 0 exactly where their pre-activations are (NaN included).
            g = g @ params.weights[layer].mT
            g *= ins[layer] > 0.0
    return out.flat


@dataclass
class GradCheckResult:
    """Outcome of a finite-difference gradient check."""

    max_rel_error: float
    worst_coordinate: tuple[str, int, int]
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= _GRAD_TOLERANCE


def gradient_check(params: ModelParams, grad: np.ndarray, loss_fn,
                   max_coords: int | None = None,
                   rng: Rng | None = None) -> GradCheckResult:
    """Compare the analytic gradient ``grad`` at ``params`` (a vector in
    the layout of ``params.flat``) against central differences.

    ``loss_fn(stack)`` must deterministically return the R losses of a
    ``ModelParams`` whose ``flat`` is an (R, P) stack of perturbed copies
    of ``params.flat`` (see :func:`forward`).  Each copy moves one
    coordinate by +h or -h (h = ``_FD_STEP``), and a stack holds at most
    ``_GRAD_STACK`` copies; ``params`` itself is never modified.

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
    values = np.concatenate((flat[index] + _FD_STEP, flat[index] - _FD_STEP))
    losses = np.empty(2 * m)
    for lo in range(0, 2 * m, _GRAD_STACK):
        at = coords[lo:lo + _GRAD_STACK]
        stack = np.tile(flat, (at.size, 1))
        stack[np.arange(at.size), at] = values[lo:lo + at.size]
        loss = loss_fn(ModelParams(params.arch, stack, params.seed))
        if np.shape(loss) != (at.size,):
            raise ValueError("loss_fn must return one loss per stacked vector")
        losses[lo:lo + at.size] = loss
    fd = (losses[:m] - losses[m:]) / (2.0 * _FD_STEP)
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
                           n_checked=int(m))


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
