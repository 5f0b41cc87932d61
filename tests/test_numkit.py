"""Numeric foundation: softmax stability, random source, atomic file
writes."""

import builtins
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nla import numkit
from nla.data import make_synthetic, save_dataset
from nla.model import Arch, init_params, save_checkpoint
from nla.numkit import Rng, derive_seed, softmax
from nla.trainer import atomic_write_text


class TestSoftmax:
    def test_two_zeros_is_half_half(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], rtol=0, atol=0)

    @pytest.mark.parametrize("c", [-3.0, 0.0, 1.5, 100.0])
    def test_constant_logits_are_uniform(self, c):
        np.testing.assert_allclose(softmax([c, c, c]), [1 / 3] * 3, atol=1e-15)

    def test_reference_values(self):
        # Frozen from a 40-digit evaluation of exp-normalization.
        expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), expected, rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = Rng(3)
        z = rng.normals(50 * 9, scale=5.0).reshape(50, 9)
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = Rng(4)
        for _ in range(200):
            z = rng.normals(6, scale=10.0)
            shift = rng.normal(scale=50.0)
            np.testing.assert_allclose(softmax(z), softmax(z + shift), atol=1e-9)

    def test_extreme_logits_do_not_overflow(self):
        p = softmax([700.0, -700.0])
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_rejects_single_category(self):
        with pytest.raises(ValueError):
            softmax([1.0])


B = numkit._BLOCK
STREAM_SEEDS = [0, 1, 2**64 - 1, derive_seed(7, "train-base")]
STREAM_COUNTS = [0, 1, 2, B - 1, B, B + 1, 2 * B + 1, 3499, 70_000]


def fisher_yates(rng, n):
    """Reference shuffle: swap i takes below(i + 1), one scalar draw each."""
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def partial_fisher_yates(rng, n, size):
    """Reference choice: swap i takes i + below(n - i), one scalar draw each."""
    pool = list(range(n))
    for i in range(size):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:size]


class TestRng:
    def test_fixed_seed_repeats_exactly(self):
        a = Rng(123456789)
        b = Rng(123456789)
        stream_a = [a.next_u64() for _ in range(100_000)]
        stream_b = [b.next_u64() for _ in range(100_000)]
        assert stream_a == stream_b

    def test_reference_stream(self):
        # Regression vector for the documented seeding; any change to the
        # generator breaks every persisted experiment.
        r0 = Rng(0)
        assert [r0.next_u64() for _ in range(3)] == [
            11091344671253066420, 13793997310169335082, 1900383378846508768]
        r42 = Rng(42)
        assert [r42.next_u64() for _ in range(3)] == [
            1546998764402558742, 6990951692964543102, 12544586762248559009]

    def test_uniform_range(self):
        rng = Rng(9)
        draws = [rng.random() for _ in range(10_000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_below_bounds_and_coverage(self):
        rng = Rng(10)
        draws = [rng.below(7) for _ in range(10_000)]
        assert set(draws) == set(range(7))

    def test_normal_moments(self):
        rng = Rng(11)
        x = rng.normals(50_000)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02

    def test_permutation_is_a_permutation(self):
        rng = Rng(12)
        perm = rng.permutation(1000)
        assert sorted(perm.tolist()) == list(range(1000))

    @pytest.mark.parametrize("seed", [0, 12, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, B, B + 1, 929, 3500])
    def test_permutation_is_fisher_yates_on_below(self, seed, n):
        fast, ref = Rng(seed), Rng(seed)
        perm = fast.permutation(n)
        assert perm.dtype == np.int64
        assert perm.tolist() == fisher_yates(ref, n)
        assert fast.next_u64() == ref.next_u64()

    def test_choice_without_replacement(self):
        rng = Rng(13)
        picked = rng.choice(100, 40)
        assert len(set(picked.tolist())) == 40
        assert all(0 <= i < 100 for i in picked)

    @pytest.mark.parametrize("seed", [0, 13, 2**64 - 1])
    @pytest.mark.parametrize("n, size", [(0, 0), (1, 1), (5, 0), (B, 3), (B + 1, B + 1),
                                         (929, 929), (929, 400), (3500, 17)])
    def test_choice_is_partial_fisher_yates_on_below(self, seed, n, size):
        fast, ref = Rng(seed), Rng(seed)
        picked = fast.choice(n, size)
        assert picked.dtype == np.int64
        assert picked.tolist() == partial_fisher_yates(ref, n, size)
        assert fast.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", STREAM_COUNTS)
    def test_block_draw_equals_next_u64(self, seed, n):
        block, ref = Rng(seed), Rng(seed)
        words = block._words(n)
        assert words.dtype == np.uint64
        assert words.tolist() == [ref.next_u64() for _ in range(n)]
        assert block._s == ref._s

    @pytest.mark.parametrize("draw, n", [("uniforms", -1), ("normals", -3),
                                         ("normals", -numkit._MIN_BLOCK_NORMALS),
                                         ("permutation", -2), ("_words", -1)])
    def test_negative_counts_are_refused(self, draw, n):
        rng = Rng(1)
        with pytest.raises(ValueError, match="cannot draw a negative number of values"):
            getattr(rng, draw)(n)
        assert rng._s == Rng(1)._s

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", STREAM_COUNTS)
    def test_uniforms_equal_random(self, seed, n):
        block, ref = Rng(seed), Rng(seed)
        draws = block.uniforms(n)
        assert draws.dtype == np.float64
        assert draws.tolist() == [ref.random() for _ in range(n)]
        assert block._s == ref._s

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, derive_seed(7, "train-base")])
    @pytest.mark.parametrize("n", [0, 1, 7, numkit._MIN_BLOCK_NORMALS - 1,
                                   numkit._MIN_BLOCK_NORMALS,
                                   numkit._MIN_BLOCK_NORMALS + 1, 255, 256, 257, 1001])
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    @pytest.mark.parametrize("pending", [False, True])
    def test_normals_equal_normal(self, seed, n, scale, pending):
        block, ref = Rng(seed), Rng(seed)
        if pending:
            assert block.normal() == ref.normal()
        draws = block.normals(n, scale)
        assert draws.dtype == np.float64
        assert draws.tolist() == [ref.normal(scale) for _ in range(n)]
        assert block._s == ref._s
        assert block._gauss == ref._gauss

    @pytest.mark.parametrize("seed", [3, derive_seed(7, "test")])
    @pytest.mark.parametrize("count", [1, 2, 41, B + 1])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("pending", [False, True])
    def test_word_normal_rows_equal_scalar_draws(self, seed, count, dim, pending):
        block, ref = Rng(seed), Rng(seed)
        if pending:
            assert block.normal() == ref.normal()
        words, rows = block._word_normal_rows(count, dim)
        expected = [(ref.next_u64(), [ref.normal() for _ in range(dim)])
                    for _ in range(count)]
        assert words.tolist() == [w for w, _ in expected]
        assert rows.shape == (count, dim)
        assert rows.tolist() == [z for _, z in expected]
        assert block._s == ref._s
        assert block._gauss == ref._gauss

    def test_block_and_scalar_draws_interleave(self):
        mixed, ref = Rng(5), Rng(5)
        for n in [3, B + 7, 1, 2 * B, 0, 5, B - 1]:
            assert mixed.normal() == ref.normal()
            assert mixed.uniforms(n).tolist() == [ref.random() for _ in range(n)]
            assert mixed.normals(n + 60).tolist() == [ref.normal() for _ in range(n + 60)]
            assert mixed.normal() == ref.normal()
            assert mixed.permutation(n).tolist() == fisher_yates(ref, n)
            assert mixed.below(n + 1) == ref.below(n + 1)
            assert mixed.choice(n + 2, n).tolist() == partial_fisher_yates(ref, n + 2, n)
        assert mixed._s == ref._s

    def test_bounds_up_to_the_32_bit_limit_are_exact(self):
        top = 2**32 - 1
        block, ref = Rng(17), Rng(17)
        assert (block.belows(np.arange(top, top - B - 3, -1, dtype=np.uint64)).tolist()
                == [ref.below(top - t) for t in range(B + 3)])
        with pytest.raises(ValueError):
            Rng(17).belows([2**32])

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("bounds", [[], [1] * 5, [7] * (B + 1), [2**32 - 1] * 3,
                                        [1, 7, 2**32 - 1, 2, 1000, 3] * 50])
    def test_belows_equal_below(self, seed, bounds):
        block, ref = Rng(seed), Rng(seed)
        draws = block.belows(bounds)
        assert draws.dtype == np.uint64
        assert draws.tolist() == [ref.below(b) for b in bounds]
        assert block._s == ref._s

    @pytest.mark.parametrize("bounds", [[0], [3, 0, 5], [2**32], [5, 2**32, 1]])
    def test_belows_refuse_bounds_outside_the_range(self, bounds):
        rng = Rng(1)
        with pytest.raises(ValueError, match=r"bounds must lie in \[1, 2\*\*32\)"):
            rng.belows(bounds)
        assert rng._s == Rng(1)._s

    def test_tables_are_built_on_first_use(self):
        code = ("import nla, nla.cli, nla.selfcheck\n"
                "print(nla.numkit._stream_tables.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(numkit.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_split_streams_differ_from_parent_and_siblings(self):
        rng = Rng(14)
        parent = [Rng(14).next_u64() for _ in range(4)]
        kids = [rng.split(k) for k in range(3)]
        streams = [[kid.next_u64() for _ in range(4)] for kid in kids]
        assert all(s != parent for s in streams)
        assert streams[0] != streams[1] != streams[2]

    def test_split_is_deterministic(self):
        assert Rng(99).split(5).seed == Rng(99).split(5).seed

    def test_derive_seed_stable(self):
        assert derive_seed(7, "train-base") == derive_seed(7, "train-base")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")


class _HalfWriter:
    """File stand-in that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")


def _write_dataset(path, variant):
    save_dataset(make_synthetic(3, 4, 20, 0.5, Rng(variant)), path)


def _write_checkpoint(path, variant):
    save_checkpoint(init_params(Arch(8, 16, 7), Rng(variant)), path)


def _write_text(path, variant):
    atomic_write_text(path, f"run {variant}\n" * 100)


class TestAtomicWrites:
    """Caches, checkpoints and records are replaced whole or not at all."""

    @pytest.mark.parametrize("writer", [_write_dataset, _write_checkpoint, _write_text])
    def test_write_failing_partway_keeps_previous_bytes(self, writer, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "out.bin"
        writer(path, 1)
        before = path.read_bytes()
        monkeypatch.setattr(numkit, "open",
                            lambda *a, **k: _HalfWriter(builtins.open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            writer(path, 2)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("writer", [_write_dataset, _write_checkpoint, _write_text])
    def test_first_write_failing_partway_leaves_no_file(self, writer, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(numkit, "open",
                            lambda *a, **k: _HalfWriter(builtins.open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            writer(tmp_path / "out.bin", 1)
        assert list(tmp_path.iterdir()) == []
