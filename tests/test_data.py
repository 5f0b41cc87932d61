"""Dataset generation, corruption, views, ingestion, and caching."""

import hashlib
import struct

import numpy as np
import pytest

from nla.data import (Dataset, FormatError, apply_imbalance, bayes_accuracy,
                      class_centers, dataset_bytes, fingerprint, ingest_csv,
                      ingest_idx, inject_noise, load_dataset, make_synthetic,
                      mirror, save_dataset, standard_instance)
from nla.numkit import Rng


def small_train(seed=1, k=4, d=5, n_per_class=30, spread=0.8):
    return make_synthetic(k, d, n_per_class, spread, Rng(seed), split="train")


def per_sample_synthetic(n_classes, dim, n_per_class, spread, rng):
    """The generator drawn one sample at a time: below(2), then normals(dim)."""
    centers = class_centers(n_classes, dim)
    inputs, labels = [], []
    for k in range(n_classes):
        for _ in range(n_per_class):
            center = centers[k].copy()
            if rng.below(2) == 1:
                center[0] = -center[0]
            inputs.append(center + spread * np.array([rng.normal() for _ in range(dim)]))
            labels.append(k)
    return np.array(inputs), np.array(labels, dtype=np.int64)


class TestSyntheticGenerator:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("n_per_class", [1, 41, 500])
    @pytest.mark.parametrize("pending", [False, True])
    def test_equals_per_sample_draws(self, dim, n_per_class, pending):
        block, ref = Rng(dim * 1000 + n_per_class), Rng(dim * 1000 + n_per_class)
        if pending:
            assert block.normal() == ref.normal()
        ds = make_synthetic(3, dim, n_per_class, 0.7, block)
        inputs, labels = per_sample_synthetic(3, dim, n_per_class, 0.7, ref)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == labels.tolist()
        assert block._s == ref._s
        assert block._gauss == ref._gauss

    def test_same_seed_identical_datasets(self):
        a = make_synthetic(5, 6, 20, 1.0, Rng(3))
        b = make_synthetic(5, 6, 20, 1.0, Rng(3))
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("spread", [float("nan"), 1e308])
    def test_non_finite_samples_rejected(self, spread):
        with pytest.raises(ValueError, match="synthetic inputs must contain only finite"):
            make_synthetic(3, 4, 10, spread, Rng(3))

    def test_balanced_counts(self):
        ds = small_train()
        np.testing.assert_array_equal(ds.class_counts, 30)

    def test_zero_spread_collapses_to_centers(self):
        ds = make_synthetic(4, 5, 10, 0.0, Rng(4))
        centers = class_centers(4, 5)
        for i in range(ds.n):
            c = centers[ds.labels[i]]
            matches_plus = np.allclose(ds.inputs[i], c)
            mirrored = c.copy()
            mirrored[0] = -mirrored[0]
            matches_minus = np.allclose(ds.inputs[i], mirrored)
            assert matches_plus or matches_minus

    def test_zero_spread_is_linearly_separable_without_mirror_axis(self):
        # class identity lives entirely in the non-mirrored coordinates
        centers = class_centers(7, 8)
        reduced = centers[:, 1:]
        dists = np.linalg.norm(reduced[:, None, :] - reduced[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 0.5

    def test_center_set_closed_under_mirror(self):
        centers = class_centers(6, 7)
        mirrored = centers.copy()
        mirrored[:, 0] = -mirrored[:, 0]
        # mirroring maps each class's center pair onto itself
        assert centers.shape == mirrored.shape
        np.testing.assert_array_equal(np.abs(centers[:, 0]), np.abs(mirrored[:, 0]))
        np.testing.assert_array_equal(centers[:, 1:], mirrored[:, 1:])

    def test_more_spread_means_lower_bayes_accuracy(self):
        tight = make_synthetic(5, 6, 200, 0.4, Rng(5), split="test")
        loose = make_synthetic(5, 6, 200, 1.6, Rng(5), split="test")
        assert bayes_accuracy(tight) > bayes_accuracy(loose)

    def test_mirror_symmetry_of_per_class_statistics(self):
        ds = make_synthetic(4, 6, 400, 1.0, Rng(6))
        flipped = mirror(ds.inputs)
        for k in range(4):
            mask = ds.labels == k
            n = mask.sum()
            diff = flipped[mask].mean(axis=0) - ds.inputs[mask].mean(axis=0)
            tol = 3.0 * 2.0 * ds.inputs[mask].std(axis=0) / np.sqrt(n)
            assert np.all(np.abs(diff) <= tol)


class TestMirror:
    def test_involution_exact(self):
        ds = small_train()
        flipped = mirror(ds.inputs)
        np.testing.assert_array_equal(flipped[:, 0], -ds.inputs[:, 0])
        np.testing.assert_array_equal(flipped[:, 1:], ds.inputs[:, 1:])
        np.testing.assert_array_equal(mirror(flipped), ds.inputs)

    def test_zero_vector_fixed(self):
        np.testing.assert_array_equal(mirror(np.zeros((3, 4))), 0.0)

    def test_mirror_image_reverses_rows(self):
        x = np.arange(6.0)[None, :]
        np.testing.assert_array_equal(mirror(x, (2, 3))[0], [2, 1, 0, 5, 4, 3])
        np.testing.assert_array_equal(mirror(mirror(x, (2, 3)), (2, 3)), x)

    def test_returns_a_new_array(self):
        x = np.arange(6.0).reshape(2, 3)
        for shape in (None, (1, 3)):
            mirror(x, shape)[:] = 7.0
        np.testing.assert_array_equal(x, np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 0)], ids=["2x2", "3x3", "5x0"])
    def test_image_shape_must_tile_the_row(self, shape):
        with pytest.raises(ValueError, match="does not tile rows of 6 values"):
            mirror(np.zeros((2, 6)), shape)


class TestInjectNoise:
    def test_rate_zero_changes_nothing(self):
        ds = small_train()
        noisy = inject_noise(ds, 0.0, Rng(7))
        np.testing.assert_array_equal(noisy.labels, ds.labels)
        np.testing.assert_array_equal(noisy.clean_labels, ds.labels)

    def test_exact_flip_count(self):
        ds = make_synthetic(7, 8, 500, 1.0, Rng(8))
        noisy = inject_noise(ds, 0.3, Rng(9))
        assert int((noisy.labels != noisy.clean_labels).sum()) == 1050

    @pytest.mark.parametrize("rate", [0.1, 0.2, 0.3])
    def test_supported_sweep_rates(self, rate):
        ds = small_train(n_per_class=50)
        noisy = inject_noise(ds, rate, Rng(10))
        flips = int((noisy.labels != noisy.clean_labels).sum())
        assert flips == round(rate * ds.n)

    def test_flips_never_keep_the_original_label(self):
        ds = small_train(n_per_class=100)
        noisy = inject_noise(ds, 0.5, Rng(11))
        changed = noisy.labels != noisy.clean_labels
        assert np.all(noisy.labels[changed] != noisy.clean_labels[changed])
        assert noisy.labels.min() >= 0
        assert noisy.labels.max() < ds.n_classes

    def test_inputs_untouched(self):
        ds = small_train()
        noisy = inject_noise(ds, 0.25, Rng(12))
        np.testing.assert_array_equal(noisy.inputs, ds.inputs)

    def test_invalid_rate_rejected(self):
        ds = small_train()
        with pytest.raises(ValueError):
            inject_noise(ds, 0.6, Rng(13))
        with pytest.raises(ValueError):
            inject_noise(ds, -0.1, Rng(13))

    def test_test_split_rejected(self):
        ds = make_synthetic(3, 4, 10, 1.0, Rng(14), split="test")
        with pytest.raises(ValueError):
            inject_noise(ds, 0.1, Rng(15))

    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_equals_per_flip_scalar_draws(self, k, rate):
        ds = small_train(k=k, n_per_class=40)
        rng, ref = Rng(100 + k), Rng(100 + k)
        noisy = inject_noise(ds, rate, rng)
        labels = ds.labels.copy()
        for i in ref.choice(ds.n, round(rate * ds.n)):
            other = ref.below(k - 1)
            labels[i] = other + (other >= labels[i])
        assert noisy.labels.dtype == np.int64
        np.testing.assert_array_equal(noisy.labels, labels)
        assert rng._s == ref._s


class TestApplyImbalance:
    def test_factor_one_keeps_everything(self):
        ds = small_train()
        out = apply_imbalance(ds, 1.0, Rng(16))
        np.testing.assert_array_equal(out.labels, ds.labels)
        np.testing.assert_array_equal(out.inputs, ds.inputs)

    def test_profile_factor_100(self):
        ds = make_synthetic(7, 8, 500, 1.0, Rng(17))
        out = apply_imbalance(ds, 100.0, Rng(18))
        np.testing.assert_array_equal(out.class_counts,
                                      [500, 232, 108, 50, 23, 11, 5])
        ratio = out.class_counts.max() / out.class_counts.min()
        assert ratio == pytest.approx(100.0, rel=0.01)

    @pytest.mark.parametrize("factor,expected_min", [(50.0, 10), (100.0, 5),
                                                     (150.0, 3)])
    def test_supported_sweep_factors(self, factor, expected_min):
        ds = make_synthetic(7, 8, 500, 1.0, Rng(19))
        out = apply_imbalance(ds, factor, Rng(20))
        assert out.class_counts[0] == 500
        assert out.class_counts[-1] == expected_min

    def test_kept_samples_unchanged_no_duplication(self):
        ds = small_train(n_per_class=40)
        out = apply_imbalance(ds, 8.0, Rng(21))
        # every kept row exists exactly once in the source with its label
        source = {tuple(row): lab for row, lab in zip(ds.inputs, ds.labels)}
        seen = set()
        for row, lab in zip(out.inputs, out.labels):
            key = tuple(row)
            assert source[key] == lab
            assert key not in seen
            seen.add(key)

    def test_profile_uses_clean_labels_after_noise(self):
        ds = make_synthetic(5, 6, 100, 1.0, Rng(22))
        noisy = inject_noise(ds, 0.2, Rng(23))
        out = apply_imbalance(noisy, 10.0, Rng(24))
        clean_counts = np.bincount(out.clean_labels, minlength=5)
        np.testing.assert_array_equal(clean_counts, [100, 56, 32, 18, 10])

    def test_factor_exceeding_class_size_rejected(self):
        ds = small_train(n_per_class=20)
        with pytest.raises(ValueError):
            apply_imbalance(ds, 25.0, Rng(25))

    def test_unbalanced_input_rejected(self):
        ds = small_train(n_per_class=30)
        tail = apply_imbalance(ds, 5.0, Rng(26))
        with pytest.raises(ValueError):
            apply_imbalance(tail, 2.0, Rng(27))


class TestIngestIdx:
    @staticmethod
    def _write_idx(tmp_path, n=6, h=4, w=3, labels=None):
        rng = Rng(28)
        pixels = bytes(rng.below(256) for _ in range(n * h * w))
        img_path = tmp_path / "images.idx"
        img_path.write_bytes(struct.pack(">HBBIII", 0, 8, 3, n, h, w) + pixels)
        if labels is None:
            labels = [rng.below(3) for _ in range(n - 2)] + [0, 1]
        lab_path = tmp_path / "labels.idx"
        lab_path.write_bytes(struct.pack(">HBBI", 0, 8, 1, len(labels))
                             + bytes(labels))
        return img_path, lab_path, pixels, labels

    def test_round_trip_values(self, tmp_path):
        img, lab, pixels, labels = self._write_idx(tmp_path)
        ds = ingest_idx(img, lab)
        assert ds.dim == 12
        assert ds.n == 6
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_allclose(ds.inputs.ravel(),
                                   np.frombuffer(pixels, np.uint8) / 255.0)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_row_major_flattening(self, tmp_path):
        img, lab, pixels, _ = self._write_idx(tmp_path, n=2, h=4, w=3,
                                              labels=[0, 1])
        # pixel (r, c) must land at index 3 r + c
        ds = ingest_idx(img, lab)
        raw = np.frombuffer(pixels, np.uint8).reshape(2, 4, 3)
        assert ds.inputs[0, 3 * 2 + 1] == raw[0, 2, 1] / 255.0
        assert ds.inputs[1, 3 * 1 + 2] == raw[1, 1, 2] / 255.0

    def test_bad_magic_rejected(self, tmp_path):
        img, lab, _, _ = self._write_idx(tmp_path)
        blob = bytearray(img.read_bytes())
        blob[2] = 0x09
        img.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            ingest_idx(img, lab)

    def test_label_count_mismatch_rejected(self, tmp_path):
        img, lab, _, _ = self._write_idx(tmp_path)
        lab.write_bytes(struct.pack(">HBBI", 0, 8, 1, 3) + bytes([0, 1, 2]))
        with pytest.raises(FormatError):
            ingest_idx(img, lab)

    def test_truncated_pixels_rejected(self, tmp_path):
        img, lab, _, _ = self._write_idx(tmp_path)
        blob = img.read_bytes()
        img.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            ingest_idx(img, lab)
        assert err.value.offset == 16

    def test_mirror_view_assigned(self, tmp_path):
        img, lab, _, _ = self._write_idx(tmp_path)
        ds = ingest_idx(img, lab)
        shape = ds.meta["image_shape"]
        assert shape == (4, 3)
        np.testing.assert_array_equal(mirror(mirror(ds.inputs, shape), shape), ds.inputs)


class TestIngestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f0,f1,f2\n0,0.5,-1.25,3.0\n2,1.0,2.0,-0.5\n1,0,0,0\n",
                        encoding="utf-8")
        ds = ingest_csv(path)
        assert ds.n == 3 and ds.dim == 3 and ds.n_classes == 3
        np.testing.assert_array_equal(ds.labels, [0, 2, 1])
        assert ds.inputs[0, 1] == -1.25

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,x0,x1\n0,1,2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            ingest_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, token):
        path = tmp_path / "data.csv"
        path.write_text(f"label,f0,f1\n0,1,2\n1,3,{token}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="row 3 has a non-finite value"):
            ingest_csv(path)

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f0,f1\n0,1,2\n1,x,4\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"data\.csv: row 3 has a non-numeric feature"):
            ingest_csv(path)

    def test_non_integral_label_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f0,f1\n0,1,2\n1.5,3,4\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"data\.csv: row 3 has a non-integer label '1\.5'"):
            ingest_csv(path)


class TestCache:
    def test_bit_exact_round_trip(self, tmp_path):
        ds = inject_noise(small_train(n_per_class=25), 0.2, Rng(29))
        path = tmp_path / "train.ds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.inputs, ds.inputs)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.clean_labels, ds.clean_labels)
        assert loaded.split == ds.split
        assert loaded.n_classes == ds.n_classes
        assert loaded.meta["noise_rate"] == 0.2
        assert fingerprint(loaded) == fingerprint(ds)

    def test_image_shape_survives(self, tmp_path):
        ds = Dataset(inputs=np.zeros((2, 6)), labels=np.array([0, 1]),
                     n_classes=2, split="test",
                     meta={"image_shape": (2, 3)})
        path = tmp_path / "imgs.ds"
        save_dataset(ds, path)
        assert load_dataset(path).meta["image_shape"] == (2, 3)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ds"
        path.write_bytes(b"WUT?" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "train.ds"
        save_dataset(small_train(n_per_class=2), path)
        blob = path.read_bytes()
        header_end = 4 + struct.calcsize("<HBBQIIQddII")  # see "Cache format"
        for cut in range(header_end + 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as err:
                load_dataset(path)
            assert err.value.offset == (0 if cut < 4 else cut)

    @pytest.mark.parametrize("n", [9, 2**32, 2**64 - 1])
    def test_header_claiming_more_rows_rejected(self, tmp_path, n):
        path = tmp_path / "train.ds"
        save_dataset(small_train(k=2, n_per_class=4), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, 8, n)  # u64 n after magic, version, split, flags
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="header declares"):
            load_dataset(path)

    # Header fields after the magic: u8 split at byte 6, u8 flags at 7, and
    # u32 image height and width at 48 and 52.
    @pytest.mark.parametrize("offset, value", [
        (6, b"\x02"), (7, b"\x06"),
        (48, struct.pack("<II", 5, 0)), (48, struct.pack("<II", 2, 2)),
    ], ids=["split-2", "flags-6", "height-5-width-0", "2x2-image-on-d-6"])
    def test_bad_header_fields_rejected(self, tmp_path, offset, value):
        path = tmp_path / "test.ds"
        save_dataset(Dataset(inputs=np.zeros((2, 6)), labels=np.array([0, 1]),
                             n_classes=2, split="test"), path)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(value)] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bad header") as err:
            load_dataset(path)
        assert err.value.offset == 4


class TestStandardInstance:
    def test_shapes_and_balance(self):
        train, test = standard_instance(0)
        assert train.n == 7 * 500 and test.n == 7 * 200
        assert train.dim == 8
        np.testing.assert_array_equal(test.class_counts, 200)
        assert test.split == "test"

    def test_bytes_are_pinned(self):
        train, test = standard_instance(7)
        digest = hashlib.sha256(dataset_bytes(train) + dataset_bytes(test)).hexdigest()
        assert digest == "5fb8187a3eeb1a80b492ea668323abda6d5bee6788ca3d0e90fbad34245a5e1c"

    def test_deterministic(self):
        a_train, a_test = standard_instance(3)
        b_train, b_test = standard_instance(3)
        assert fingerprint(a_train) == fingerprint(b_train)
        assert fingerprint(a_test) == fingerprint(b_test)
        c_train, _ = standard_instance(4)
        assert fingerprint(a_train) != fingerprint(c_train)
