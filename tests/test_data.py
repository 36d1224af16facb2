"""Parsers, synthetic blobs, batching and augmentation determinism."""

import numpy as np
import pytest

from dcd.data import (BatchPlan, Dataset, batches, channel_stats, eval_batches,
                      parse_cifar10, parse_cifar100, parse_mnist_idx, serialize_cifar10,
                      serialize_cifar100, serialize_mnist_idx, standardize, synth_blobs,
                      synth_blob_split)
from dcd.errors import ConfigError, FormatError


def test_cifar10_single_record():
    raw = bytes([7]) + bytes([255] * 3072)
    ds = parse_cifar10(raw)
    assert len(ds) == 1
    assert ds.labels[0] == 7
    assert np.array_equal(ds.images, np.ones((1, 3, 32, 32), dtype=np.float32))


def test_cifar10_empty_input():
    ds = parse_cifar10(b"")
    assert len(ds) == 0


def test_cifar10_bad_length_offset():
    with pytest.raises(FormatError) as err:
        parse_cifar10(bytes(3073 + 10))
    assert err.value.offset == 3073


def test_cifar10_bad_label_offset():
    raw = bytes([1]) + bytes(3072) + bytes([11]) + bytes(3072)
    with pytest.raises(FormatError) as err:
        parse_cifar10(raw)
    assert err.value.offset == 3073


def test_cifar10_round_trip(rng):
    images = (rng.integers(0, 256, (5, 3, 32, 32)) / 255.0).astype(np.float32)
    ds = Dataset(images, rng.integers(0, 10, 5), 10, "x")
    again = parse_cifar10(serialize_cifar10(ds))
    assert np.array_equal(again.images, ds.images)
    assert np.array_equal(again.labels, ds.labels)


def test_cifar100_single_record():
    raw = bytes([3, 42]) + bytes(3072)
    ds = parse_cifar100(raw)
    assert list(ds.labels) == [42]
    assert ds.class_count == 100


def test_cifar100_coarse_byte_ignored():
    pixels = bytes(range(256)) * 12
    a = parse_cifar100(bytes([0, 9]) + pixels)
    b = parse_cifar100(bytes([19, 9]) + pixels)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_cifar100_bad_fine_label_offset():
    with pytest.raises(FormatError) as err:
        parse_cifar100(bytes([0, 100]) + bytes(3072))
    assert err.value.offset == 1


def test_cifar100_round_trip(rng):
    images = (rng.integers(0, 256, (3, 3, 32, 32)) / 255.0).astype(np.float32)
    ds = Dataset(images, rng.integers(0, 100, 3), 100, "x")
    coarse = rng.integers(0, 20, 3)
    again = parse_cifar100(serialize_cifar100(ds, coarse))
    assert np.array_equal(again.images, ds.images)
    assert np.array_equal(again.labels, ds.labels)


def test_mnist_header_only_empty():
    import struct
    images = struct.pack(">IIII", 0x803, 0, 28, 28)
    labels = struct.pack(">II", 0x801, 0)
    ds = parse_mnist_idx(images, labels)
    assert len(ds) == 0
    assert ds.images.shape == (0, 1, 28, 28)


def test_mnist_wrong_magic():
    import struct
    with pytest.raises(FormatError):
        parse_mnist_idx(struct.pack(">IIII", 0x804, 0, 28, 28), struct.pack(">II", 0x801, 0))
    with pytest.raises(FormatError):
        parse_mnist_idx(struct.pack(">IIII", 0x803, 0, 28, 28), struct.pack(">II", 0x802, 0))


def test_mnist_count_mismatch_and_truncation():
    import struct
    img = struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(2 * 784)
    with pytest.raises(FormatError):
        parse_mnist_idx(img, struct.pack(">II", 0x801, 3) + bytes(3))
    with pytest.raises(FormatError):
        parse_mnist_idx(img[:-5], struct.pack(">II", 0x801, 2) + bytes(2))


def test_mnist_bad_label_offset():
    import struct
    img = struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(3 * 4)
    with pytest.raises(FormatError, match="label 200 exceeds 9") as err:
        parse_mnist_idx(img, struct.pack(">II", 0x801, 3) + bytes([9, 200, 10]))
    assert err.value.offset == 8 + 1


def test_mnist_round_trip(rng):
    images = (rng.integers(0, 256, (2, 1, 28, 28)) / 255.0).astype(np.float32)
    ds = Dataset(images, rng.integers(0, 10, 2), 10, "x")
    again = parse_mnist_idx(*serialize_mnist_idx(ds))
    assert np.array_equal(again.images, ds.images)
    assert np.array_equal(again.labels, ds.labels)


PARSERS = {
    "cifar10": (parse_cifar10, lambda ds: (serialize_cifar10(ds),), 10, (3, 32, 32)),
    "cifar100": (parse_cifar100, lambda ds: (serialize_cifar100(ds),), 100, (3, 32, 32)),
    "mnist": (parse_mnist_idx, serialize_mnist_idx, 10, (1, 28, 28)),
}


@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_parse_rows_converts_a_prefix_after_checking_every_label(fmt, rng):
    parse, serialize, classes, shape = PARSERS[fmt]
    images = (rng.integers(0, 256, (5, *shape)) / 255.0).astype(np.float32)
    labels = rng.integers(0, classes, 5)
    payload = serialize(Dataset(images, labels, classes, "x"))
    head = parse(*payload, rows=2)
    assert head.images.tobytes() == parse(*payload).images[:2].tobytes()
    assert np.array_equal(head.labels, labels[:2])
    assert head.images.base is None  # the other rows' floats are never made
    labels[4] = classes
    with pytest.raises(FormatError, match=f"label {classes} exceeds"):
        parse(*serialize(Dataset(images, labels, classes, "x")), rows=2)


def test_blobs_deterministic():
    a = synth_blobs(3, 10, 8, seed=5)
    b = synth_blobs(3, 10, 8, seed=5)
    c = synth_blobs(3, 10, 8, seed=6)
    assert np.array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_blobs_shapes_and_ranges():
    ds = synth_blobs(4, 25, 16, seed=0)
    assert ds.images.shape == (100, 1, 1, 16)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.class_count == 4
    assert np.array_equal(np.unique(ds.labels), np.arange(4))


def test_blobs_empirical_means(rng):
    std = 0.03
    per_class = 200
    ds = synth_blobs(3, per_class, 6, seed=9, std=std)
    # recover the configured means from a second draw with the same seed:
    # means are the first rng consumers, so a huge-sample draw shares them
    big = synth_blobs(3, 20000, 6, seed=9, std=std)
    for c in range(3):
        small_mean = ds.images.reshape(-1, 6)[ds.labels == c].mean(axis=0)
        true_mean = big.images.reshape(-1, 6)[big.labels == c].mean(axis=0)
        assert np.max(np.abs(small_mean - true_mean)) < 5 * std / np.sqrt(per_class) + 1e-3


def test_blob_split_shares_means():
    train, test = synth_blob_split(3, 50, 50, 8, seed=4, std=0.01)
    for c in range(3):
        m_train = train.images.reshape(-1, 8)[train.labels == c].mean(axis=0)
        m_test = test.images.reshape(-1, 8)[test.labels == c].mean(axis=0)
        assert np.max(np.abs(m_train - m_test)) < 0.01


def test_blob_split_training_split_is_synth_blobs():
    blobs = synth_blobs(3, 12, 5, seed=13, std=0.05, separation=0.4)
    train, _ = synth_blob_split(3, 12, 7, 5, seed=13, std=0.05, separation=0.4)
    assert blobs.images.tobytes() == train.images.tobytes()
    assert blobs.labels.tobytes() == train.labels.tobytes()


def test_blobs_validation():
    for bad in ({"classes": 0}, {"per_class": 0}, {"dim": 0}, {"std": float("nan")},
                {"std": -0.1}, {"separation": float("inf")}):
        with pytest.raises(ConfigError):
            synth_blobs(**{"classes": 2, "per_class": 5, "dim": 4, "seed": 0, **bad})


def test_plan_validation():
    with pytest.raises(ConfigError):
        BatchPlan(batch_size=0)
    with pytest.raises(ConfigError):
        BatchPlan(augment="rotate")


def test_batch_stream_deterministic():
    ds = synth_blobs(3, 20, 6, seed=1)
    plan = BatchPlan(batch_size=16, shuffle_seed=7, augment="none")
    a = [(b.images.data.copy(), b.labels.copy()) for b in batches(ds, plan, epoch=2)]
    b = [(b.images.data.copy(), b.labels.copy()) for b in batches(ds, plan, epoch=2)]
    assert len(a) == len(b) == 4  # 60 rows in batches of 16, last partial kept
    for (xa, la), (xb, lb) in zip(a, b):
        assert np.array_equal(xa, xb)
        assert np.array_equal(la, lb)
    c = [b.images.data.copy() for b in batches(ds, plan, epoch=3)]
    assert not np.array_equal(a[0][0], c[0])


def test_batches_partition_each_epoch():
    ds = synth_blobs(2, 17, 4, seed=2)  # 34 rows
    plan = BatchPlan(batch_size=10, shuffle_seed=3)
    for epoch in (0, 1, 5):
        seen = []
        for batch in batches(ds, plan, epoch):
            # recover indices by matching rows (all rows unique w.p. 1)
            rows = batch.images.data.reshape(len(batch.labels), -1)
            for row, index in zip(rows, batch.index, strict=True):
                matches = np.nonzero(
                    (ds.images.reshape(34, -1) == row.astype(np.float32)).all(axis=1))[0]
                assert matches.size == 1 and matches[0] == index
                seen.append(matches[0])
        assert sorted(seen) == list(range(34))


def test_flip_is_involution(rng):
    images = rng.uniform(0, 1, (5, 3, 8, 8))
    flipped_twice = images[:, :, :, ::-1][:, :, :, ::-1]
    assert np.array_equal(images, flipped_twice)


def test_flip_augmentation_applies_per_image():
    ds = synth_blobs(2, 30, 8, seed=3)
    # blobs are [n,1,1,8]: a flip reverses the feature axis
    plan = BatchPlan(batch_size=60, shuffle_seed=1, augment="flip")
    plain = next(batches(ds, BatchPlan(batch_size=60, shuffle_seed=1), 0))
    flipped = next(batches(ds, plan, 0))
    n_changed = sum(1 for i in range(60)
                    if not np.array_equal(plain.images.data[i], flipped.images.data[i]))
    assert 10 < n_changed < 50  # about half the rows flip
    for i in range(60):
        a, f = plain.images.data[i], flipped.images.data[i]
        assert np.array_equal(f, a) or np.array_equal(f, a[:, :, ::-1])


def test_crop_augmentation_preserves_shape():
    ds = synth_blobs(2, 6, 8, seed=3)
    images = np.repeat(np.repeat(ds.images, 8, axis=1), 8, axis=2).reshape(12, 1, 8, 64)
    ds2 = Dataset(images[:, :, :, :8].copy(), ds.labels, 2, "crop-test")
    plan = BatchPlan(batch_size=4, shuffle_seed=0, augment="flip+crop")
    for batch in batches(ds2, plan, 0):
        assert batch.images.data.shape[2:] == (8, 8)


def test_standardization_uses_train_stats():
    train = synth_blobs(2, 50, 4, seed=10)
    test = synth_blobs(2, 30, 4, seed=11)
    stats = channel_stats(train)
    standardized = standardize(train.images.astype(np.float64), stats)
    assert abs(standardized.mean()) < 1e-9
    assert abs(standardized.std() - 1.0) < 1e-6
    # test split uses the same constants: its mean need not vanish
    batch = next(eval_batches(test, stats, batch_size=60))
    assert batch.images.data.shape == (60, 1, 1, 4)
    redo = standardize(test.images[:60].astype(np.float64), stats)
    assert np.array_equal(batch.images.data, redo)
    assert np.array_equal(batch.index, np.arange(60))


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (7, 3, 5, 5), (64, 1, 1, 32), (513, 3, 32, 32),
                                   (200, 3, 17, 9)])
def test_channel_stats_match_the_whole_split_formula_bitwise(shape, rng):
    """One channel at a time gives the bytes of reducing every channel's row
    of a float64 copy of the whole split."""
    images = rng.uniform(0, 1, shape).astype(np.float32)
    flat = images.astype(np.float64).transpose(1, 0, 2, 3).reshape(shape[1], -1)
    mean, std = channel_stats(Dataset(images, np.zeros(shape[0], np.int64), 2, "x"))
    assert mean.tobytes() == flat.mean(axis=1).tobytes()
    assert std.tobytes() == np.maximum(flat.std(axis=1), 1e-8).tobytes()
