"""Deterministic numeric foundation.

Stable softmax / log-sum-exp from one core that the loss shares, and a
seedable pseudo-random source whose stream is identical on every
platform.  The generator steps in Python integers one draw at a time, or
draws a whole array of the same stream with numpy uint64 arithmetic
(shuffles, sampling without replacement, arrays of bounded integers, of
uniforms and of 64 or more normals).  Everything here is 64-bit float or
64-bit integer arithmetic; nothing depends on process state or hashing.
Also the one atomic file write that every cache, checkpoint and record
goes through.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
from pathlib import Path

import numpy as np

__all__ = [
    "softmax",
    "Rng",
    "derive_seed",
    "atomic_write_bytes",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment
_INV_2_53 = 2.0 ** -53
# Outputs per block draw.  The block table holds 256 x (_BLOCK + 4) words
# (0.5 MiB), and a power of two keeps the jump tables that a shorter last
# block needs to log2(_BLOCK).
_BLOCK = 256
# Shortest ``normals`` draw taken from blocks.  On a 2-vCPU Xeon VM the
# scalar loop took 20 us for 8 values, 103 us for 48 and 141 us for 64, the
# block path 80, 110 and 100 us (timeit medians).
_MIN_BLOCK_NORMALS = 64


def _as_finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _check_numbers(fields, kind=numbers.Real) -> None:
    """Raise ValueError naming the first (name, value) pair of ``fields``
    whose value is a bool or not a ``kind``: ``numbers.Real`` or
    ``numbers.Integral``."""
    for name, value in fields:
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{name} must be {noun}, got {value!r}")


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"cannot draw a negative number of values ({n})")


def _check_labels(labels: np.ndarray, n_classes: int, name: str = "labels") -> None:
    """Raise ValueError unless ``labels`` is an integer array (bool is not)
    whose every entry lies in [0, n_classes)."""
    if labels.dtype.kind not in "iu":
        raise ValueError(f"{name} must have an integer dtype, got {labels.dtype}")
    # Bare ufunc reductions: ndarray.min/max add a Python layer that costs
    # a one-label check (the single-sample losses) about a third more.
    if (np.minimum.reduce(labels, initial=0) < 0
            or np.maximum.reduce(labels, initial=0) >= n_classes):
        raise ValueError(f"{name} must lie in [0, {n_classes})")


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------

def _row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the last axis.

    numpy reduces a short contiguous last axis one row at a time, at a
    high cost per row: over the (2, 32, 7) logits of a training step it
    took about twice as long as this reduction over the first axis of a
    transposed copy.  A maximum does not depend on the order of its
    operands (NaN included), so both give the same values.
    """
    return np.maximum.reduce(a.T.copy(), axis=0).T


def _softmax_lse(z: np.ndarray):
    """Softmax and log-sum-exp over the last axis from one max/exp/sum.

    The package's only softmax; ``z`` must be a finite float64 array.
    """
    m = _row_max(z)
    e = z - m[..., None]
    np.exp(e, out=e)
    s = np.add.reduce(e, axis=-1)
    e /= s[..., None]
    return e, m + np.log(s)


def softmax(logits) -> np.ndarray:
    """Exp-normalized probabilities over the last axis.

    Accepts a single logit vector or a batch (rows are samples).  The
    output rows are nonnegative and sum to 1 within 1e-9.
    """
    z = _as_finite_array(logits, "logits")
    if z.shape[-1] < 2:
        raise ValueError("softmax needs at least 2 categories")
    return _softmax_lse(z)[0]


# ---------------------------------------------------------------------------
# Random source
# ---------------------------------------------------------------------------

def _mix64(x: int) -> int:
    """splitmix64 output finalizer (Steele, Lea & Flood)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master: int, tag: str) -> int:
    """Stable 64-bit seed for the named stream of a master seed.

    Defined as ``mix64(master XOR fnv1a64(tag))``, so a stream depends
    only on its tag: adding new tagged streams never perturbs existing
    ones.
    """
    return _mix64((int(master) & _MASK64) ^ _fnv1a64(tag.encode("utf-8")))


class Rng:
    """xoshiro256** generator seeded through splitmix64.

    All state updates are pure 64-bit integer arithmetic, so a given seed
    produces a byte-identical stream on every platform and Python build.

    Seeding: the four state words are the first four splitmix64 outputs of
    the seed (state += 0x9E3779B97F4A7C15, then the mix64 finalizer).

    Splitting: ``split(k)`` returns an independent child generator with
    seed ``mix64(seed XOR mix64((k + 1) * 0x9E3779B97F4A7C15))``.  Child
    streams for distinct ``k`` are decorrelated from each other and from
    the parent; parallel consumers should each own one child.

    Derived draws:
      * ``random()``   -> float64 in [0, 1): top 53 bits scaled by 2**-53.
      * ``below(n)``   -> int in [0, n): multiply-shift bounded draw
        ``(u64 * n) >> 64`` (bias below n / 2**64, negligible here).
      * ``normal()``   -> Box-Muller on two open-interval uniforms; the
        sine twin is cached and returned by the next call.

    Block draws: ``uniforms(n)``, ``belows(bounds)``, ``permutation(n)``,
    ``choice(n, size)`` and ``normals(n)`` for n >= ``_MIN_BLOCK_NORMALS``
    (64) take their outputs from one array per draw (:meth:`_words`),
    filled ``_BLOCK`` outputs at a time from tables built on first use (see
    :func:`_stream_tables`) and scrambled in one pass.  They return exactly
    what the scalar draws above would and leave the same state, so the two
    kinds of draw interleave freely.  Bounds of block draws must be below
    2**32, and a negative count is a ValueError.

    Instances are single-owner: do not share one across threads.
    """

    __slots__ = ("seed", "_s", "_gauss")

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & _MASK64
        sm = self.seed
        state = []
        for _ in range(4):
            sm = (sm + _GOLDEN) & _MASK64
            state.append(_mix64(sm))
        self._s = state
        self._gauss: float | None = None

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def split(self, k: int) -> "Rng":
        """Independent child generator number ``k`` (k >= 0)."""
        if k < 0:
            raise ValueError("split index must be nonnegative")
        child_seed = _mix64(self.seed ^ _mix64(((k + 1) * _GOLDEN) & _MASK64))
        return Rng(child_seed)

    def random(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def normal(self, scale: float = 1.0) -> float:
        """One standard-normal draw (optionally scaled)."""
        if self._gauss is not None:
            g = self._gauss
            self._gauss = None
            return scale * g
        u1 = ((self.next_u64() >> 11) + 0.5) * _INV_2_53
        u2 = ((self.next_u64() >> 11) + 0.5) * _INV_2_53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self._gauss = r * math.sin(a)
        return scale * r * math.cos(a)

    def normals(self, n: int, scale: float = 1.0) -> np.ndarray:
        """``n`` normal draws: ``[normal(scale) for _ in range(n)]``.

        From ``_MIN_BLOCK_NORMALS`` values on, the uniforms come from one
        block draw (see :meth:`_box_muller`).
        """
        _check_count(n)
        if n < _MIN_BLOCK_NORMALS:
            return np.array([self.normal(scale) for _ in range(n)], dtype=np.float64)
        pending = self._gauss is not None
        return self._box_muller(self._words((n - pending + 1) // 2 * 2), n, scale)

    def _word_normal_rows(self, count: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` rows of one raw output and ``dim`` normals, from one block draw.

        Returns what ``[(next_u64(), normals(dim)) for _ in range(count)]``
        would, as a (count,) uint64 and a (count, dim) float64 array, and
        leaves the same state.  With g = 1 when a twin is pending on entry,
        row s's word is output ``s + 2 ceil((s dim - g) / 2)`` of the draw:
        the Box-Muller pairs of the rows before it come first.  Every other
        output belongs to a pair, in order.
        """
        pending = self._gauss is not None
        n = count * dim
        words = self._words(count + (n - pending + 1) // 2 * 2)
        s = np.arange(count)
        at = s + (s * dim - pending + 1) // 2 * 2
        in_pair = np.ones(words.size, dtype=bool)
        in_pair[at] = False
        return words[at], self._box_muller(words[in_pair], n, 1.0).reshape(count, dim)

    def _box_muller(self, u: np.ndarray, n: int, scale: float) -> np.ndarray:
        """The next ``n`` ``normal(scale)`` draws, bit for bit, where ``u``
        holds the outputs that their Box-Muller pairs draw (u1, u2, u1, ...).

        numpy takes the steps that IEEE arithmetic rounds exactly: the
        uniforms, the square root and the products, in the order of
        :meth:`normal`.  ``math`` takes log, cos and sin, which numpy's
        loops may round differently in the last bit.  A pending twin is
        returned first, and a sine left over is kept pending.
        """
        m = u.size // 2
        f = ((u >> 11) + 0.5) * _INV_2_53
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, f[0::2].tolist()), np.float64, m))
        a = (2.0 * math.pi * f[1::2]).tolist()
        cos = np.fromiter(map(math.cos, a), np.float64, m)
        sin = np.fromiter(map(math.sin, a), np.float64, m)
        head = self._gauss is not None
        z = np.empty(head + 2 * m)
        if head:
            z[0] = scale * self._gauss
        np.multiply(scale * r, cos, out=z[head::2])
        np.multiply(scale, r * sin, out=z[head + 1::2])
        self._gauss = float(r[-1] * sin[-1]) if z.size > n else None
        return z[:n]

    def _words(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of :meth:`next_u64`, as one uint64 array.

        Each full block is one XOR-reduce of the state's rows of the block
        table, whose last four words are the next state; a shorter last
        block reduces the first ``m`` columns and moves the state on by the
        jump tables of m's set bits.  The state advances as ``n`` calls of
        :meth:`next_u64` would, and the scrambler runs once over the array.
        """
        _check_count(n)
        rows, jumps = _stream_tables()
        out = np.empty(n, dtype=np.uint64)
        full = n - n % _BLOCK
        for lo in range(0, full, _BLOCK):
            block = np.bitwise_xor.reduce(rows[_state_bits(self._s)], axis=0)
            out[lo:lo + _BLOCK] = block[:_BLOCK]
            self._s = block[_BLOCK:].tolist()
        m = n - full
        if m:
            np.bitwise_xor.reduce(rows[_state_bits(self._s), :m], axis=0, out=out[full:])
            for i in range(m.bit_length()):
                if m >> i & 1:
                    self._s = np.bitwise_xor.reduce(
                        jumps[i][_state_bits(self._s)], axis=0).tolist()
        # The scrambler of next_u64: rotl(s1 * 5, 7) * 9 mod 2**64.
        out *= 5
        high = out >> 57
        out <<= 7
        out |= high
        out *= 9
        return out

    def belows(self, bounds) -> np.ndarray:
        """``[below(b) for b in bounds]`` as uint64, from one block draw.

        Every bound must lie in [1, 2**32), else ValueError before the
        state moves.
        """
        bounds = np.asarray(bounds)
        # Bare ufunc reductions, as in _check_labels: a shuffle checks its
        # bounds once per epoch.
        if (np.minimum.reduce(bounds, initial=1) < 1
                or np.maximum.reduce(bounds, initial=1) >= 1 << 32):
            raise ValueError("bounds must lie in [1, 2**32)")
        u = self._words(bounds.size)
        bound = bounds.astype(np.uint64, copy=False)
        # (u * b) >> 64 from the 32-bit halves u = h 2**32 + l: it is
        # (h b + (l b >> 32)) >> 32, and no product or sum reaches 2**64
        # while b < 2**32.
        low = u & 0xFFFFFFFF
        low *= bound
        low >>= 32
        u >>= 32
        u *= bound
        u += low
        u >>= 32
        return u

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniform float64 draws in [0, 1): ``[random() for _ in range(n)]``."""
        return (self._words(n) >> 11) * _INV_2_53

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) (Fisher-Yates).

        Swap i takes ``j = below(i + 1)``; the draws are one :meth:`belows`,
        so the stream and the result are those of calling :meth:`below`
        per swap.
        """
        _check_count(n)
        swaps = self.belows(np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)

    def choice(self, n: int, size: int) -> np.ndarray:
        """``size`` distinct indices from range(n), uniformly without replacement.

        Swap i takes ``j = i + below(n - i)``, drawn as in :meth:`permutation`.
        """
        if not 0 <= size <= n:
            raise ValueError(f"cannot choose {size} from {n}")
        swaps = self.belows(np.arange(n, n - size, -1, dtype=np.uint64)).tolist()
        pool = list(range(n))
        for i, j in enumerate(swaps):
            j += i
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:size], dtype=np.int64)


def _state_bits(state) -> np.ndarray:
    """Indices of the set bits of a state; bit b is bit b % 64 of word b // 64."""
    raw = np.array(state, dtype="<u8").view(np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


@functools.cache
def _stream_tables() -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The tables of the block draw, built on first use.

    The xoshiro256** state update is linear over GF(2), so the state k
    steps on is the XOR, over the state's set bits b, of unit state b (bit
    b alone set) k steps on.  The tables run the state update of
    :meth:`Rng.next_u64` on all 256 unit states at once, as rows of a
    uint64 array:

    * ``rows[b, k]`` for k < ``_BLOCK``: word 1 (the scrambler's input)
      of unit state b after k steps; ``rows[b, _BLOCK:]``: its four
      words after ``_BLOCK`` steps;
    * ``jumps[i][b]``: the four words of unit state b after 2**i steps,
      for 2**i < ``_BLOCK``.
    """
    state = np.zeros((4, 256), dtype=np.uint64)
    one_hot = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    for word in range(4):
        state[word, 64 * word:64 * word + 64] = one_hot
    rows = np.empty((256, _BLOCK + 4), dtype=np.uint64)
    jumps = []
    for k in range(_BLOCK):
        if k and k & (k - 1) == 0:
            jumps.append(state.T.copy())
        rows[:, k] = state[1]
        t = state[1] << 17
        state[2:] ^= state[:2]      # s2 ^= s0; s3 ^= s1
        state[1::-1] ^= state[2:]   # s1 ^= s2; s0 ^= s3
        state[2] ^= t
        state[3] = state[3] << 45 | state[3] >> 19
    rows[:, _BLOCK:] = state.T
    for table in (rows, *jumps):
        table.flags.writeable = False
    return rows, tuple(jumps)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename.

    Readers see the previous file or the complete new one, never a partial
    write.  If the write fails, the temp file is removed and ``path`` is
    left as it was.  A file that already holds ``data`` is left untouched,
    so a run that changes nothing (a resume) rewrites no file.
    """
    if os.path.isfile(path) and Path(path).read_bytes() == data:
        return
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
