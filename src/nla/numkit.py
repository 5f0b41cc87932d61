"""Deterministic numeric foundation.

Stable softmax / log-sum-exp, tiny 2x2 linear algebra for covariance
matrices, and a seedable pseudo-random source whose stream is identical
on every platform.  Everything here is 64-bit float or 64-bit integer
arithmetic; nothing depends on process state or hashing.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "softmax",
    "log_softmax",
    "logsumexp",
    "mat2_det",
    "mat2_inverse",
    "Rng",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment
_INV_2_53 = 2.0 ** -53


class SingularMatrixError(ValueError):
    """Raised when a 2x2 matrix is too close to singular to invert."""


def _as_finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------

def logsumexp(logits) -> float | np.ndarray:
    """log(sum(exp(logits))) over the last axis, via max subtraction.

    Safe for entries with magnitude up to ~700 where a naive exp would
    overflow.
    """
    z = _as_finite_array(logits, "logits")
    m = z.max(axis=-1, keepdims=True)
    out = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def softmax(logits) -> np.ndarray:
    """Exp-normalized probabilities over the last axis.

    Accepts a single logit vector or a batch (rows are samples).  The
    output rows are nonnegative and sum to 1 within 1e-9.
    """
    z = _as_finite_array(logits, "logits")
    if z.shape[-1] < 2:
        raise ValueError("softmax needs at least 2 categories")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits) -> np.ndarray:
    """Log-probabilities computed directly from logits.

    Uses z - logsumexp(z) rather than log(softmax(z)) so that entries far
    below the maximum stay finite instead of collapsing through a zero
    probability.
    """
    z = _as_finite_array(logits, "logits")
    if z.shape[-1] < 2:
        raise ValueError("log_softmax needs at least 2 categories")
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# 2x2 linear algebra
# ---------------------------------------------------------------------------

def _as_mat2(m, name: str = "matrix") -> np.ndarray:
    arr = _as_finite_array(m, name)
    if arr.shape != (2, 2):
        raise ValueError(f"{name} must have shape (2, 2), got {arr.shape}")
    return arr


def mat2_det(m) -> float:
    """Determinant of a 2x2 matrix."""
    a = _as_mat2(m)
    return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def mat2_inverse(m) -> np.ndarray:
    """Inverse of a 2x2 matrix via the adjugate formula.

    Raises:
        SingularMatrixError: if ``|det| <= 1e-12``.
    """
    a = _as_mat2(m)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det) <= 1e-12:
        raise SingularMatrixError(f"matrix is singular within tolerance (det={det!r})")
    return np.array(
        [[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=np.float64
    ) / det


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

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """One standard-normal draw (optionally shifted and scaled)."""
        if self._gauss is not None:
            g = self._gauss
            self._gauss = None
            return loc + scale * g
        u1 = ((self.next_u64() >> 11) + 0.5) * _INV_2_53
        u2 = ((self.next_u64() >> 11) + 0.5) * _INV_2_53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self._gauss = r * math.sin(a)
        return loc + scale * r * math.cos(a)

    def normals(self, n: int, loc: float = 0.0, scale: float = 1.0) -> np.ndarray:
        """Array of ``n`` normal draws."""
        return np.array([self.normal(loc, scale) for _ in range(n)], dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) (Fisher-Yates).

        Swap i takes ``j = below(i + 1)``.  The generator update and the
        bounded draw are inlined here on local variables, so the stream
        and the result are those of calling :meth:`below` per swap.
        """
        idx = list(range(n))
        mask = _MASK64
        s0, s1, s2, s3 = self._s
        for i in range(n - 1, 0, -1):
            x = s1 * 5 & mask
            # next_u64() is rotl(x, 7) * 9 mod 2**64; below() scales it.
            j = ((x << 7 | x >> 57) * 9 & mask) * (i + 1) >> 64
            t = s1 << 17 & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & mask
            idx[i], idx[j] = idx[j], idx[i]
        self._s = [s0, s1, s2, s3]
        return np.array(idx, dtype=np.int64)

    def choice(self, n: int, size: int) -> np.ndarray:
        """``size`` distinct indices from range(n), uniformly without replacement."""
        if not 0 <= size <= n:
            raise ValueError(f"cannot choose {size} from {n}")
        pool = np.arange(n, dtype=np.int64)
        for i in range(size):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:size].copy()
