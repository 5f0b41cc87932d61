"""Deterministic numeric foundation.

Stable softmax / log-sum-exp from one core that the loss shares, and a
seedable pseudo-random source whose stream is identical on every
platform.  The generator steps in Python integers one draw at a time, or
draws whole blocks of the same stream with numpy uint64 arrays (shuffles,
sampling without replacement, arrays of uniforms).  Everything here is
64-bit float or 64-bit integer arithmetic; nothing depends on process
state or hashing.  Also the one atomic file write that every cache,
checkpoint and record goes through.
"""

from __future__ import annotations

import contextlib
import functools
import math
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


def _as_finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------

def _softmax_lse(z: np.ndarray):
    """Softmax and log-sum-exp over the last axis from one max/exp/sum.

    The package's only softmax; ``z`` must be a finite float64 array.
    """
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, m[..., 0] + np.log(s[..., 0])


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

    Block draws: ``uniforms(n)``, ``permutation(n)`` and ``choice(n,
    size)`` take their outputs ``_BLOCK`` at a time from tables built on
    first use (see :func:`_stream_tables`).  They return exactly what the
    scalar draws above would and leave the same state, so the two kinds
    of draw interleave freely.  Bounds of block draws must be below 2**32.

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
        """Array of ``n`` normal draws."""
        return np.array([self.normal(scale) for _ in range(n)], dtype=np.float64)

    def _blocks(self, n: int):
        """Yield ``(lo, u)`` until the next ``n`` outputs are drawn.

        ``u`` holds outputs ``lo, lo + 1, ...`` as uint64, at most
        ``_BLOCK`` of them; it is scratch that the next block overwrites.
        The state advances as ``n`` calls of :meth:`next_u64` would.
        """
        rows, jumps = _stream_tables()
        words = np.empty(_BLOCK + 4, dtype=np.uint64)
        spill = np.empty(_BLOCK, dtype=np.uint64)
        for lo in range(0, n, _BLOCK):
            m = min(_BLOCK, n - lo)
            bits = _state_bits(self._s)
            if m == _BLOCK:
                np.bitwise_xor.reduce(rows[bits], axis=0, out=words)
                self._s = words[_BLOCK:].tolist()
            else:
                np.bitwise_xor.reduce(rows[bits, :m], axis=0, out=words[:m])
                for i in range(m.bit_length()):
                    if m >> i & 1:
                        self._s = np.bitwise_xor.reduce(
                            jumps[i][_state_bits(self._s)], axis=0).tolist()
            # The scrambler of next_u64: rotl(s1 * 5, 7) * 9 mod 2**64.
            block, high = words[:m], spill[:m]
            block *= 5
            np.right_shift(block, 57, out=high)
            block <<= 7
            block |= high
            block *= 9
            yield lo, block

    def _descending_below(self, n: int, count: int) -> np.ndarray:
        """``[below(n), below(n - 1), ..., below(n - count + 1)]`` as uint64."""
        if n >= 1 << 32:
            raise ValueError("bounds must be below 2**32")
        out = np.empty(count, dtype=np.uint64)
        for lo, u in self._blocks(count):
            m = u.size
            bound = np.arange(n - lo, n - lo - m, -1, dtype=np.uint64)
            # (u * b) >> 64 from the 32-bit halves u = h 2**32 + l: it is
            # (h b + (l b >> 32)) >> 32, and no product or sum reaches 2**64
            # while b < 2**32.
            low = u & 0xFFFFFFFF
            low *= bound
            low >>= 32
            u >>= 32
            u *= bound
            u += low
            np.right_shift(u, 32, out=out[lo:lo + m])
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniform float64 draws in [0, 1): ``[random() for _ in range(n)]``."""
        out = np.empty(n, dtype=np.float64)
        for lo, u in self._blocks(n):
            u >>= 11
            np.multiply(u, _INV_2_53, out=out[lo:lo + u.size])
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) (Fisher-Yates).

        Swap i takes ``j = below(i + 1)``; the draws come from one block
        draw, so the stream and the result are those of calling
        :meth:`below` per swap.
        """
        swaps = self._descending_below(n, max(n - 1, 0)).tolist()
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
        swaps = self._descending_below(n, size).tolist()
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
