"""Dataset synthesis, corruption protocols, and ingestion.

The synthetic generator builds mirror-symmetric Gaussian class clusters so
that a fixed sign flip of one coordinate plays the role of horizontal
image flipping: :func:`mirror`, the paired view of either, is a
label-preserving involution under which the data distribution is
invariant.  Label noise and long-tailed subsampling are applied as
separate, auditable steps that keep the pre-corruption labels around.
Small image corpora in IDX files and feature tables in CSV can be
ingested as well.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .numkit import Rng, _as_finite_array, atomic_write_bytes, derive_seed

__all__ = [
    "FormatError",
    "Dataset",
    "make_synthetic",
    "class_centers",
    "bayes_accuracy",
    "inject_noise",
    "apply_imbalance",
    "mirror",
    "ingest_idx",
    "ingest_csv",
    "dataset_bytes",
    "save_dataset",
    "load_dataset",
    "fingerprint",
    "synthetic_splits",
    "STANDARD_K",
    "STANDARD_DIM",
    "STANDARD_TRAIN_PER_CLASS",
    "STANDARD_TEST_PER_CLASS",
    "STANDARD_SPREAD",
    "NOISE_RATES",
    "MIN_IMBALANCE",
    "standard_instance",
]

_MAGIC = b"NLAD"
_VERSION = 1
_HEADER = struct.Struct("<HBBQIIQddII")  # after the magic; see "Cache format"
_CENTER_RADIUS = 2.0   # class layout radius in the non-mirrored coordinates
_MIRROR_OFFSET = 1.0   # distance of each cluster pair from the mirror plane
_SAMPLE_CHUNK = 256    # synthetic samples per block draw of the random stream

# The standard benchmark instance.  The spread was calibrated by grid
# search so that the plain cross-entropy baseline at the default training
# settings lands in the 0.75..0.90 test-accuracy band (clean data; the
# Bayes ceiling is then ~0.92).  tests/test_acceptance.py verifies the
# band.
STANDARD_K = 7
STANDARD_DIM = 8
STANDARD_TRAIN_PER_CLASS = 500
STANDARD_TEST_PER_CLASS = 200
STANDARD_SPREAD = 0.5

# Noise rates (a closed range) and least imbalance factor; the runner checks these too.
NOISE_RATES = (0.0, 0.5)
MIN_IMBALANCE = 1.0


class FormatError(ValueError):
    """Malformed input file; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class Dataset:
    """Feature matrix plus labels for one split.

    ``clean_labels`` holds the pre-noise labels when label noise has been
    injected, so corruption is auditable.  ``meta`` carries protocol
    fields (seed, noise rate, imbalance factor, image shape) and, for
    synthetic data, the generating mixture.
    """

    inputs: np.ndarray
    labels: np.ndarray
    n_classes: int
    split: str
    clean_labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be (n, d) and labels (n,)")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels disagree on sample count")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


def mirror(inputs: np.ndarray, image_shape: tuple[int, int] | None = None) -> np.ndarray:
    """The paired view of each row, as a new array; applied twice it
    returns the input exactly.

    Negates coordinate 0 of each row, the mirror axis of
    :func:`class_centers`, or with an (h, w) ``image_shape`` reverses each
    pixel row of rows that are flattened h x w images.  Raises ValueError
    when the image shape does not tile the row.
    """
    x = np.array(inputs, dtype=np.float64)
    if image_shape is None:
        x[..., 0] = -x[..., 0]
        return x
    h, w = image_shape
    if h * w != x.shape[-1]:
        raise ValueError(f"a {h} x {w} image does not tile rows of {x.shape[-1]} values")
    return x.reshape(*x.shape[:-1], h, w)[..., ::-1].reshape(x.shape)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def class_centers(n_classes: int, dim: int) -> np.ndarray:
    """Deterministic cluster centers, one per class, off the mirror plane.

    Coordinate 0 is the mirrored axis and is set to +1 for every center;
    the mirrored twin of each center (coordinate 0 negated) belongs to the
    same class.  Classes are spread on a circle in coordinates (1, 2)
    when dim >= 3, or along coordinate 1 when dim == 2.
    """
    if n_classes < 2 or dim < 2:
        raise ValueError("need n_classes >= 2 and dim >= 2")
    centers = np.zeros((n_classes, dim))
    centers[:, 0] = _MIRROR_OFFSET
    if dim >= 3:
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers[:, 1] = _CENTER_RADIUS * np.cos(angles)
        centers[:, 2] = _CENTER_RADIUS * np.sin(angles)
    else:
        centers[:, 1] = np.linspace(-_CENTER_RADIUS, _CENTER_RADIUS, n_classes)
    return centers


def make_synthetic(n_classes: int, dim: int, n_per_class: int, spread: float,
                   rng: Rng, split: str = "train") -> Dataset:
    """Balanced mixture of mirror-symmetric Gaussian class clusters.

    Each class is an equal mixture of two isotropic Gaussians with
    standard deviation ``spread``, centered at a class center and at its
    mirror twin.  Larger spread means more inter-class overlap and hence
    more ambiguous samples.  Fully determined by the rng seed.  Raises
    ValueError for a sample that is not finite (a NaN spread, or one so
    large that the samples overflow).
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if spread < 0.0:
        raise ValueError("spread must be >= 0")
    centers = class_centers(n_classes, dim)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    inputs = centers[labels]
    # Sample by sample, the stream is ``below(2)`` (1 mirrors the center)
    # and then ``normals(dim)``; each chunk of samples takes its part in one
    # block draw, and below(2) is the top bit of its word.  An overflow is
    # reported below as a non-finite sample, not as a warning.
    with np.errstate(over="ignore"):
        for lo in range(0, labels.size, _SAMPLE_CHUNK):
            rows = inputs[lo:lo + _SAMPLE_CHUNK]
            words, z = rng._word_normal_rows(rows.shape[0], dim)
            twin = words >> 63 == 1
            rows[twin, 0] = -rows[twin, 0]
            rows += spread * z
    meta = {"seed": rng.seed, "spread": spread, "centers": centers}
    return Dataset(inputs=_as_finite_array(inputs, "synthetic inputs"), labels=labels,
                   n_classes=n_classes, split=split, meta=meta)


def bayes_accuracy(ds: Dataset) -> float:
    """Accuracy of the optimal classifier for the generating mixture.

    Only defined for synthetic datasets (the mixture parameters live in
    ``meta``) with a positive spread.
    """
    centers = ds.meta.get("centers")
    spread = ds.meta.get("spread")
    if centers is None or spread is None:
        raise ValueError("dataset does not carry its generating mixture")
    if spread <= 0.0:
        raise ValueError("Bayes accuracy needs a positive spread")
    mirrored = mirror(centers)
    inv_two_var = 1.0 / (2.0 * spread * spread)
    # log class-conditional density up to a shared constant
    d_plus = ((ds.inputs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    d_minus = ((ds.inputs[:, None, :] - mirrored[None, :, :]) ** 2).sum(axis=2)
    log_density = np.logaddexp(-d_plus * inv_two_var, -d_minus * inv_two_var)
    predictions = log_density.argmax(axis=1)
    return float((predictions == ds.labels).mean())


# ---------------------------------------------------------------------------
# Corruption protocols
# ---------------------------------------------------------------------------

def inject_noise(ds: Dataset, rate: float, rng: Rng) -> Dataset:
    """Flip exactly round(rate * n) labels to uniformly random other classes.

    The flipped indices are chosen uniformly without replacement; the
    original labels are kept in ``clean_labels`` for auditing, so the
    measured disagreement rate equals the requested rate at count level.
    """
    if ds.split != "train":
        raise ValueError("label noise is only injected into the train split")
    if not NOISE_RATES[0] <= rate <= NOISE_RATES[1]:
        raise ValueError(f"noise rate must lie in {list(NOISE_RATES)}, got {rate}")
    n_flips = _round_half_up(rate * ds.n)
    labels = ds.labels.copy()
    clean = (ds.clean_labels if ds.clean_labels is not None else ds.labels).copy()
    flips = rng.choice(ds.n, n_flips)
    others = rng.belows(np.full(n_flips, ds.n_classes - 1))
    labels[flips] = others + (others >= labels[flips])
    meta = dict(ds.meta)
    meta["noise_rate"] = rate
    return Dataset(inputs=ds.inputs.copy(), labels=labels,
                   n_classes=ds.n_classes, split=ds.split,
                   clean_labels=clean, meta=meta)


def apply_imbalance(ds: Dataset, factor: float, rng: Rng) -> Dataset:
    """Long-tailed subsample with an exponential per-class profile.

    Class k keeps round(n_per_class * factor ** (-k / (K - 1))) samples,
    chosen uniformly without replacement, so the largest-to-smallest count
    ratio equals ``factor`` up to rounding.  Class 0 is always the head.
    The profile is computed over the clean labels when noise has already
    been injected, which are exactly balanced by construction.
    """
    if ds.split != "train":
        raise ValueError("imbalance is only applied to the train split")
    if not factor >= MIN_IMBALANCE:
        raise ValueError(f"imbalance factor must be >= {MIN_IMBALANCE:g}, got {factor}")
    base = ds.clean_labels if ds.clean_labels is not None else ds.labels
    counts = np.bincount(base, minlength=ds.n_classes)
    if not np.all(counts == counts[0]):
        raise ValueError("imbalance requires a (clean-)balanced train split")
    n_per_class = int(counts[0])
    if factor > n_per_class:
        raise ValueError(f"factor {factor} exceeds the per-class count {n_per_class}")
    keep_mask = np.zeros(ds.n, dtype=bool)
    for k in range(ds.n_classes):
        target = _round_half_up(n_per_class * factor ** (-k / (ds.n_classes - 1)))
        class_idx = np.flatnonzero(base == k)
        keep_mask[class_idx[rng.choice(class_idx.size, target)]] = True
    keep = np.flatnonzero(keep_mask)
    meta = dict(ds.meta)
    meta["imbalance"] = factor
    return Dataset(inputs=ds.inputs[keep].copy(), labels=ds.labels[keep].copy(),
                   n_classes=ds.n_classes, split=ds.split,
                   clean_labels=None if ds.clean_labels is None else ds.clean_labels[keep].copy(),
                   meta=meta)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _read_idx(path, expected_ndim: int) -> tuple[np.ndarray, tuple[int, ...]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise FormatError(f"{path}: truncated header", offset=len(blob))
    magic = struct.unpack_from(">I", blob, 0)[0]
    dtype_code = (magic >> 8) & 0xFF
    ndim = magic & 0xFF
    if magic >> 16 != 0 or dtype_code != 0x08 or ndim != expected_ndim:
        raise FormatError(f"{path}: bad magic 0x{magic:08x}", offset=0)
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise FormatError(f"{path}: truncated dimension header", offset=len(blob))
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = int(np.prod(dims))
    if len(blob) != header_len + count:
        raise FormatError(
            f"{path}: expected {count} data bytes, found {len(blob) - header_len}",
            offset=header_len)
    data = np.frombuffer(blob, dtype=np.uint8, offset=header_len)
    return data, dims


def ingest_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Load an IDX image tensor plus its IDX label vector.

    Pixels are normalized to [0, 1] and flattened row-major, so pixel
    (r, c) of a width-W image lands at index W * r + c.
    """
    pixels, (n, height, width) = _read_idx(images_path, expected_ndim=3)
    raw_labels, (n_labels,) = _read_idx(labels_path, expected_ndim=1)
    if n_labels != n:
        raise FormatError(
            f"{labels_path}: {n_labels} labels for {n} images", offset=8)
    inputs = pixels.astype(np.float64).reshape(n, height * width) / 255.0
    labels = raw_labels.astype(np.int64)
    n_classes = int(labels.max()) + 1 if n > 0 else 0
    if n_classes < 2:
        raise FormatError(f"{labels_path}: fewer than 2 classes present", offset=8)
    return Dataset(inputs=inputs, labels=labels, n_classes=n_classes,
                   split=split, meta={"image_shape": (int(height), int(width))})


def ingest_csv(path, split: str = "train") -> Dataset:
    """Load a feature table: header ``label,f0,...,f{d-1}``, UTF-8, '.'
    decimals, finite features."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file", offset=0) from None
        expected = ["label"] + [f"f{i}" for i in range(len(header) - 1)]
        if header != expected or len(header) < 3:
            raise FormatError(f"{path}: header must be label,f0,...,f{{d-1}}", offset=0)
        rows = list(reader)
    if not rows:
        raise FormatError(f"{path}: no data rows", offset=0)
    dim = len(header) - 1
    labels = np.empty(len(rows), dtype=np.int64)
    inputs = np.empty((len(rows), dim))
    for i, row in enumerate(rows):
        if len(row) != dim + 1:
            raise FormatError(f"{path}: row {i + 2} has {len(row)} fields", offset=0)
        try:
            labels[i] = int(row[0])
        except ValueError:
            raise FormatError(f"{path}: row {i + 2} has a non-integer label "
                              f"{row[0]!r}", offset=0) from None
        try:
            inputs[i] = [float(v) for v in row[1:]]
        except ValueError:
            raise FormatError(f"{path}: row {i + 2} has a non-numeric feature",
                              offset=0) from None
        if not np.isfinite(inputs[i]).all():
            raise FormatError(f"{path}: row {i + 2} has a non-finite value", offset=0)
    if labels.min() < 0:
        raise FormatError(f"{path}: negative label", offset=0)
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise FormatError(f"{path}: fewer than 2 classes present", offset=0)
    return Dataset(inputs=inputs, labels=labels, n_classes=n_classes, split=split)


# ---------------------------------------------------------------------------
# Cache format
# ---------------------------------------------------------------------------
#
# Little-endian layout:
#   magic "NLAD" | u16 version | u8 split (0 train / 1 test) |
#   u8 flags (bit 0: clean labels present; no other bit) | u64 n | u32 d |
#   u32 K | u64 seed | f8 noise_rate | f8 imbalance | u32 image_h |
#   u32 image_w (both 0, or h * w = d) | labels int64 |
#   clean labels int64 (if flagged) | inputs float64 row-major.

def dataset_bytes(ds: Dataset) -> bytes:
    """The cache file's bytes.  Raises ValueError for an ``image_shape``
    that :func:`load_dataset` would refuse: one that does not tile the
    rows."""
    flags = 1 if ds.clean_labels is not None else 0
    h, w = (int(v) for v in ds.meta.get("image_shape", (0, 0)))
    if min(h, w) < 0 or (h == 0) != (w == 0) or h * w not in (0, ds.dim):
        raise ValueError(f"image_shape {h} x {w} does not tile rows of {ds.dim}")
    blob = bytearray()
    blob += _MAGIC
    blob += _HEADER.pack(
        _VERSION, 0 if ds.split == "train" else 1, flags,
        ds.n, ds.dim, ds.n_classes, int(ds.meta.get("seed", 0)),
        float(ds.meta.get("noise_rate", 0.0)), float(ds.meta.get("imbalance", 1.0)), h, w)
    blob += np.ascontiguousarray(ds.labels, dtype="<i8").tobytes()
    if ds.clean_labels is not None:
        blob += np.ascontiguousarray(ds.clean_labels, dtype="<i8").tobytes()
    blob += np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes()
    return bytes(blob)


def save_dataset(ds: Dataset, path) -> str:
    """Write the dataset's cache file; return the sha256 of its bytes, which
    is :func:`fingerprint` of ``ds``."""
    blob = dataset_bytes(ds)
    atomic_write_bytes(path, blob)
    return hashlib.sha256(blob).hexdigest()


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}", offset=0)
    offset = 4 + _HEADER.size
    if len(blob) < offset:
        raise FormatError(f"{path}: truncated header", offset=len(blob))
    version, split_code, flags, n, d, k, seed, noise_rate, imbalance, img_h, img_w = \
        _HEADER.unpack_from(blob, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}", offset=4)
    if (split_code > 1 or flags > 1 or (img_h == 0) != (img_w == 0)
            or img_h * img_w not in (0, d)):
        raise FormatError(f"{path}: bad header: split {split_code}, flags {flags}, "
                          f"{img_h} x {img_w} image for rows of {d}", offset=4)
    # The declared sizes are checked before any array is read, so a header
    # that lies about n or d is reported, not passed on to numpy.
    size = 8 * n * (1 + (flags & 1) + d)
    if len(blob) - offset != size:
        raise FormatError(f"{path}: header declares {size} data bytes, found "
                          f"{len(blob) - offset}", offset=offset)
    labels = np.frombuffer(blob, dtype="<i8", count=n, offset=offset).astype(np.int64)
    offset += n * 8
    clean = None
    if flags & 1:
        clean = np.frombuffer(blob, dtype="<i8", count=n, offset=offset).astype(np.int64)
        offset += n * 8
    inputs = np.frombuffer(blob, dtype="<f8", count=n * d, offset=offset)
    meta = {"seed": seed, "noise_rate": noise_rate, "imbalance": imbalance}
    if img_h:
        meta["image_shape"] = (img_h, img_w)
    return Dataset(inputs=inputs.astype(np.float64).reshape(n, d), labels=labels,
                   n_classes=k, split="train" if split_code == 0 else "test",
                   clean_labels=clean, meta=meta)


def fingerprint(ds: Dataset) -> str:
    """Content hash of the dataset in its cache serialization."""
    return hashlib.sha256(dataset_bytes(ds)).hexdigest()


def synthetic_splits(master_seed: int, n_classes: int, dim: int,
                     n_per_class: int, test_per_class: int,
                     spread: float) -> tuple[Dataset, Dataset]:
    """Clean synthetic splits from the master seed's ``"train-base"`` and
    ``"test"`` streams: the experiment runner's and :func:`standard_instance`'s."""
    train = make_synthetic(n_classes, dim, n_per_class, spread,
                           Rng(derive_seed(master_seed, "train-base")), split="train")
    test = make_synthetic(n_classes, dim, test_per_class, spread,
                          Rng(derive_seed(master_seed, "test")), split="test")
    return train, test


def standard_instance(master_seed: int) -> tuple[Dataset, Dataset]:
    """The clean standard benchmark instance: balanced train and test splits.

    Byte-identical to the runner's caches for the same master seed under
    the default dataset config.
    """
    return synthetic_splits(master_seed, STANDARD_K, STANDARD_DIM,
                            STANDARD_TRAIN_PER_CLASS, STANDARD_TEST_PER_CLASS,
                            STANDARD_SPREAD)
