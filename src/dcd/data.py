"""Dataset parsing, synthetic blobs, and deterministic batch assembly.

Binary parsers are bit-exact: CIFAR-10 records are 3073 bytes (label +
3072 RGB plane bytes), CIFAR-100 records are 3074 bytes (coarse label,
fine label, pixels), and the IDX format uses big-endian headers with
magics 0x00000803 (images) and 0x00000801 (labels).  Images are stored
float32 in [0, 1] and widened to float64 at batch assembly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, FormatError

CIFAR10_RECORD = 3073
CIFAR100_RECORD = 3074
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

AUGMENT_MODES = ("none", "flip", "flip+crop")
CROP_PAD = 4


@dataclass
class Dataset:
    images: np.ndarray  # [M, C, H, W] float32, values in [0, 1]
    labels: np.ndarray  # [M] int64
    class_count: int
    name: str

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class BatchPlan:
    batch_size: int = 256
    shuffle_seed: int = 0
    augment: str = "none"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.augment not in AUGMENT_MODES:
            raise ConfigError(f"augment must be one of {AUGMENT_MODES}, got {self.augment!r}")


@dataclass
class Batch:
    images: Tensor      # [n, C, H, W] float64, standardized
    labels: np.ndarray  # [n] int64
    index: np.ndarray   # [n] int64, the rows' positions in the dataset


def _parse_cifar(raw: bytes, record: int, label_byte: int, classes: int,
                 what: str = "label") -> Dataset:
    """``cifar{classes}`` records of ``record`` bytes: the label at
    ``label_byte`` (named ``what`` in errors), then the 3072 pixel bytes;
    earlier bytes are dropped."""
    if len(raw) % record != 0:
        raise FormatError(f"payload length {len(raw)} is not a multiple of {record}",
                          offset=len(raw) - len(raw) % record)
    m = len(raw) // record
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(m, record)
    labels = arr[:, label_byte].astype(np.int64)
    bad = np.nonzero(labels >= classes)[0]
    if bad.size:
        raise FormatError(f"{what} {labels[bad[0]]} exceeds {classes - 1}",
                          offset=int(bad[0]) * record + label_byte)
    images = arr[:, label_byte + 1:].reshape(m, 3, 32, 32).astype(np.float32) / 255.0
    return Dataset(images, labels, classes, f"cifar{classes}")


def _serialize_cifar(ds: Dataset, *prefix: np.ndarray) -> bytes:
    """One record per row: the ``prefix`` bytes, the label, then the pixels."""
    pixels = np.round(ds.images * 255.0).astype(np.uint8).reshape(len(ds), 3072)
    columns = [c.astype(np.uint8)[:, None] for c in (*prefix, ds.labels)]
    return np.concatenate([*columns, pixels], axis=1).tobytes()


def parse_cifar10(raw: bytes) -> Dataset:
    return _parse_cifar(raw, CIFAR10_RECORD, 0, 10)


def serialize_cifar10(ds: Dataset) -> bytes:
    return _serialize_cifar(ds)


def parse_cifar100(raw: bytes) -> Dataset:
    # byte 0 is the coarse label and is deliberately dropped
    return _parse_cifar(raw, CIFAR100_RECORD, 1, 100, "fine label")


def serialize_cifar100(ds: Dataset, coarse: np.ndarray | None = None) -> bytes:
    return _serialize_cifar(ds, np.zeros(len(ds), dtype=np.uint8) if coarse is None else coarse)


def parse_mnist_idx(images_bytes: bytes, labels_bytes: bytes) -> Dataset:
    if len(images_bytes) < 16:
        raise FormatError("image payload shorter than its 16-byte header", offset=len(images_bytes))
    magic, m, h, w = struct.unpack(">IIII", images_bytes[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}", offset=0)
    expected = 16 + m * h * w
    if len(images_bytes) != expected:
        raise FormatError(f"image payload has {len(images_bytes)} bytes, expected {expected}",
                          offset=min(len(images_bytes), expected))
    if len(labels_bytes) < 8:
        raise FormatError("label payload shorter than its 8-byte header", offset=len(labels_bytes))
    lmagic, lm = struct.unpack(">II", labels_bytes[:8])
    if lmagic != IDX_LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{lmagic:08x}", offset=0)
    if lm != m:
        raise FormatError(f"label count {lm} != image count {m}", offset=4)
    if len(labels_bytes) != 8 + m:
        raise FormatError(f"label payload has {len(labels_bytes)} bytes, expected {8 + m}",
                          offset=min(len(labels_bytes), 8 + m))
    images = (np.frombuffer(images_bytes, dtype=np.uint8, offset=16)
              .reshape(m, 1, h, w).astype(np.float32) / 255.0)
    labels = np.frombuffer(labels_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images, labels, 10, "mnist")


def serialize_mnist_idx(ds: Dataset) -> tuple[bytes, bytes]:
    m, _, h, w = ds.images.shape
    pixels = np.round(ds.images * 255.0).astype(np.uint8)
    images_bytes = struct.pack(">IIII", IDX_IMAGE_MAGIC, m, h, w) + pixels.tobytes()
    labels_bytes = struct.pack(">II", IDX_LABEL_MAGIC, m) + ds.labels.astype(np.uint8).tobytes()
    return images_bytes, labels_bytes


def _blob_means(classes: int, dim: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    """Class means centered at 0.5 with pairwise distance `separation`.

    Directions are orthonormalized when classes <= dim, which makes all
    pairwise mean distances exactly equal.
    """
    g = rng.normal(size=(dim, max(classes, 1)))
    if classes <= dim:
        q, _ = np.linalg.qr(g)
        dirs = q[:, :classes].T
    else:
        dirs = rng.normal(size=(classes, dim))
        dirs /= np.sqrt((dirs * dirs).sum(axis=1, keepdims=True))
    return 0.5 + (separation / np.sqrt(2.0)) * dirs


def _check_blob_args(classes: int, dim: int, std: float, separation: float,
                     **per_class: int) -> None:
    for name, value in (("classes", classes), ("dim", dim), *per_class.items()):
        if value < 1:
            raise ConfigError(f"blob {name} must be at least 1, got {value}")
    if not (math.isfinite(std) and std >= 0):
        raise ConfigError(f"blob std must be finite and non-negative, got {std}")
    if not math.isfinite(separation):
        raise ConfigError(f"blob separation must be finite, got {separation}")


def _blob_draw(means: np.ndarray, per_class: int, std: float, rng: np.random.Generator,
               name: str) -> Dataset:
    """One split: ``per_class`` rows per class around ``means``, in class order."""
    classes, dim = means.shape
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    values = means[labels] + std * rng.normal(size=(classes * per_class, dim))
    images = np.clip(values, 0.0, 1.0).astype(np.float32).reshape(-1, 1, 1, dim)
    return Dataset(images, labels, classes, name)


def synth_blobs(classes: int, per_class: int, dim: int, seed: int,
                std: float = 0.03, separation: float = 0.3) -> Dataset:
    """Gaussian clusters around equidistant means, deterministic per seed."""
    _check_blob_args(classes, dim, std, separation, per_class=per_class)
    rng = np.random.default_rng(seed)
    means = _blob_means(classes, dim, separation, rng)
    return _blob_draw(means, per_class, std, rng, f"blobs{classes}x{per_class}d{dim}")


def synth_blob_split(classes: int, train_per_class: int, test_per_class: int, dim: int,
                     seed: int, std: float = 0.03, separation: float = 0.3,
                     ) -> tuple[Dataset, Dataset]:
    """Train/test blob datasets drawn around the same class means; the
    training split equals ``synth_blobs`` with the same arguments."""
    _check_blob_args(classes, dim, std, separation, train_per_class=train_per_class,
                     test_per_class=test_per_class)
    rng = np.random.default_rng(seed)
    means = _blob_means(classes, dim, separation, rng)
    train = _blob_draw(means, train_per_class, std, rng,
                       f"blobs-train{classes}x{train_per_class}d{dim}")
    test = _blob_draw(means, test_per_class, std, rng,
                      f"blobs-test{classes}x{test_per_class}d{dim}")
    return train, test


def channel_stats(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over the training split, reused for every split."""
    flat = train.images.astype(np.float64).transpose(1, 0, 2, 3).reshape(train.images.shape[1], -1)
    mean = flat.mean(axis=1)
    std = np.maximum(flat.std(axis=1), 1e-8)
    return mean, std


def standardize(images: np.ndarray, stats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    mean, std = stats
    return (images - mean[None, :, None, None]) / std[None, :, None, None]


def _flip_horizontal(images: np.ndarray, mask: np.ndarray) -> np.ndarray:
    images[mask] = images[mask][:, :, :, ::-1]
    return images


def _pad_crop(images: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    n, c, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)))
    out = np.empty_like(images)
    for i in range(n):
        oy, ox = offsets[i]
        out[i] = padded[i, :, oy:oy + h, ox:ox + w]
    return out


def batches(dataset: Dataset, plan: BatchPlan, epoch: int,
            stats: tuple[np.ndarray, np.ndarray] | None = None):
    """Shuffled, optionally augmented, standardized batch stream for one epoch.

    The permutation, flip decisions and crop offsets all derive from the
    (shuffle_seed, epoch) stream, so a stream is bitwise reproducible.
    The last partial batch is retained.
    """
    rng = np.random.default_rng([plan.shuffle_seed, epoch])
    m = len(dataset)
    perm = rng.permutation(m)
    for start in range(0, m, plan.batch_size):
        idx = perm[start:start + plan.batch_size]
        images = dataset.images[idx].astype(np.float64)
        if plan.augment in ("flip", "flip+crop"):
            images = _flip_horizontal(images, rng.random(len(idx)) < 0.5)
        if plan.augment == "flip+crop":
            offsets = rng.integers(0, 2 * CROP_PAD + 1, size=(len(idx), 2))
            images = _pad_crop(images, offsets)
        if stats is not None:
            images = standardize(images, stats)
        yield Batch(Tensor(images), dataset.labels[idx], idx)


def eval_batches(dataset: Dataset, stats: tuple[np.ndarray, np.ndarray] | None,
                 batch_size: int = 256):
    """In-order, unaugmented batch stream for evaluation and feature export."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be at least 1, got {batch_size}")
    m = len(dataset)
    for start in range(0, m, batch_size):
        images = dataset.images[start:start + batch_size].astype(np.float64)
        if stats is not None:
            images = standardize(images, stats)
        yield Batch(Tensor(images), dataset.labels[start:start + batch_size],
                    np.arange(start, min(start + batch_size, m)))
