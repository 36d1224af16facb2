"""Accuracy, relative improvement, correlation diagnostics, export."""

import math
import warnings

import numpy as np
import pytest

from dcd.data import synth_blob_split
from dcd import metrics
from dcd.autodiff import Tensor
from dcd.errors import ConfigError, DivergenceError, FormatError, ShapeMismatchError
from dcd.losses import cross_entropy_loss
from dcd.metrics import (AccuracyTable, CorrelationReport, export_embeddings,
                         fixture_relative_improvement, linear_probe, load_fixture_table,
                         logit_correlation_diff, negative_buffer_bytes,
                         parse_accuracy_table, read_embeddings, relative_improvement,
                         top1_accuracy)
from dcd.models import ModelSpec, ProjectionHead, init_weights
from dcd.train import OptimSpec, train_teacher
from dcd.data import BatchPlan


def test_top1_perfect():
    logits = np.eye(4) * 5
    assert top1_accuracy(logits, np.arange(4)) == 100.0


def test_top1_tie_breaks_to_lowest_index():
    logits = np.zeros((3, 5))
    assert top1_accuracy(logits, np.zeros(3, dtype=int)) == 100.0
    assert top1_accuracy(logits, np.ones(3, dtype=int)) == 0.0


def test_top1_matches_loop(rng):
    logits = rng.normal(size=(50, 7))
    labels = rng.integers(0, 7, 50)
    hits = 0
    for i in range(50):
        best = 0
        for j in range(7):
            if logits[i, j] > logits[i, best]:
                best = j
        hits += best == labels[i]
    assert top1_accuracy(logits, labels) == 100.0 * hits / 50


def test_top1_empty_rejected():
    with pytest.raises(ShapeMismatchError):
        top1_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_relative_improvement_zero_when_equal():
    assert relative_improvement([70.0, 71.0], [70.0, 71.0], [65.0, 66.0]) == 0.0


def test_relative_improvement_excludes_zero_denominators():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = relative_improvement([71.0, 99.0], [70.0, 50.0], [65.0, 50.0])
    assert len(caught) == 1 and "excluded" in str(caught[0].message)
    assert abs(got - 20.0) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConfigError):
            relative_improvement([71.0], [70.0], [70.0])


def test_relative_improvement_validation():
    with pytest.raises(ShapeMismatchError):
        relative_improvement([1.0], [1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        relative_improvement([], [], [])


def test_fixture_values_reproduce_reported_aggregates():
    assert abs(fixture_relative_improvement("DCD") - 20.31) <= 0.2
    assert abs(fixture_relative_improvement("DCD+KD") - 73.87) <= 0.2


def test_fixture_table_shape():
    table = load_fixture_table("cifar100_top1.txt")
    assert len(table.columns) == 13
    assert table.rows["Teacher"][0] == 75.61
    assert table.rows["FSP"][1] is None  # n/a preserved
    transfer = load_fixture_table("transfer_top1.txt")
    assert len(transfer.columns) == 9


def test_accuracy_table_parser_errors():
    with pytest.raises(FormatError):
        parse_accuracy_table("Teacher 75.61\n")
    with pytest.raises(FormatError):
        parse_accuracy_table("columns: a b\nTeacher 75.61\n")
    with pytest.raises(FormatError):
        parse_accuracy_table("# only comments\n")


def test_paired_rows_skips_na_columns():
    table = parse_accuracy_table("columns: c1 c2 c3\nA 1 n/a 3\nB 4 5 6\n")
    a, b = table.paired_rows("A", "B")
    assert a == [1.0, 3.0] and b == [4.0, 6.0]


def _pearson_loop(u, v):
    n = len(u)
    mu = sum(u) / n
    mv = sum(v) / n
    cov = sum((u[i] - mu) * (v[i] - mv) for i in range(n))
    su = math.sqrt(sum((x - mu) ** 2 for x in u))
    sv = math.sqrt(sum((x - mv) ** 2 for x in v))
    return cov / (su * sv)


def test_correlation_identical_models_zero(rng):
    blocks = [rng.normal(size=(10, 5)) for _ in range(5)]
    report = logit_correlation_diff(blocks, [b.copy() for b in blocks])
    assert report.mean_abs == 0.0 and report.max_abs == 0.0


def test_correlation_permutation_consistent(rng):
    t = [rng.normal(size=(8, 5)) for _ in range(5)]
    s = [rng.normal(size=(8, 5)) for _ in range(5)]
    base = logit_correlation_diff(t, s)
    perm = [4, 2, 0, 1, 3]
    permuted = logit_correlation_diff([t[i] for i in perm], [s[i] for i in perm])
    assert abs(base.mean_abs - permuted.mean_abs) < 1e-12
    assert abs(base.max_abs - permuted.max_abs) < 1e-12
    assert np.allclose(base.matrix, permuted.matrix[np.ix_(
        np.argsort(perm), np.argsort(perm))], atol=1e-12)


def test_correlation_vs_pearson_loop(rng):
    t = [rng.normal(size=(6, 5)) for _ in range(5)]
    s = [rng.normal(size=(6, 5)) for _ in range(5)]
    report = logit_correlation_diff(t, s)
    t_means = [b.mean(axis=0) for b in t]
    s_means = [b.mean(axis=0) for b in s]
    for i in range(5):
        for j in range(5):
            want = abs(_pearson_loop(list(t_means[i]), list(t_means[j]))
                       - _pearson_loop(list(s_means[i]), list(s_means[j])))
            assert abs(report.matrix[i, j] - want) < 1e-10


def test_correlation_symmetric_and_monotone_in_noise(rng):
    t = [rng.normal(size=(20, 6)) for _ in range(6)]
    means = []
    for scale in (1e-1, 1e-2, 1e-3):
        s = [b + scale * rng.normal(size=b.shape) for b in t]
        report = logit_correlation_diff(t, s)
        assert np.allclose(report.matrix, report.matrix.T, atol=1e-9)
        assert report.mean_abs <= report.max_abs
        means.append(report.mean_abs)
    assert means[0] > means[1] > means[2]


def test_correlation_excludes_degenerate_class(rng):
    t = [rng.normal(size=(6, 4)) for _ in range(4)]
    s = [b.copy() for b in t]
    t[2] = np.full((6, 4), 1.5)  # zero-variance mean vector
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = logit_correlation_diff(t, s)
    assert report.excluded == [2]
    assert any("excluded" in str(c.message) for c in caught)
    assert report.matrix.shape == (3, 3)


def test_negative_buffer_bytes():
    assert negative_buffer_bytes(256, 128) == 131072
    assert negative_buffer_bytes(1, 1) == 4
    assert negative_buffer_bytes(512, 128) == 2 * negative_buffer_bytes(256, 128)
    with pytest.raises(ConfigError):
        negative_buffer_bytes(0, 128)


@pytest.fixture(scope="module")
def trained_blob_model():
    train, test = synth_blob_split(2, 50, 40, 8, seed=21, std=0.02)
    spec = ModelSpec("mlp", (16, 16), 2, (1, 1, 8))
    ckpt, _ = train_teacher(spec, train, test, OptimSpec(lr=0.1, epochs=6, seed=0),
                            BatchPlan(32, 0))
    from dcd.train import restore_model, stats_from_metadata
    return restore_model(ckpt), stats_from_metadata(ckpt.metadata), train, test


def test_linear_probe_on_frozen_features(trained_blob_model):
    model, stats, train, test = trained_blob_model
    own_acc = 100.0  # the trained model separates these blobs perfectly
    probe_acc = linear_probe(model, train, test, stats, epochs=15, seed=0)
    assert probe_acc >= own_acc - 1.0


def test_linear_probe_deterministic(trained_blob_model):
    model, stats, train, test = trained_blob_model
    a = linear_probe(model, train, test, stats, epochs=5, seed=3)
    b = linear_probe(model, train, test, stats, epochs=5, seed=3)
    assert a == b


def test_linear_probe_divergence_names_the_global_step(monkeypatch):
    train, test = synth_blob_split(2, 50, 40, 8, seed=22, std=0.02)
    model = init_weights(ModelSpec("mlp", (16, 16), 2, (1, 1, 8)), seed=1)
    calls = []

    def nan_on_third_call(logits, labels):
        calls.append(len(labels))
        loss = cross_entropy_loss(logits, labels)
        return Tensor(np.float64("nan")) if len(calls) == 3 else loss

    monkeypatch.setattr(metrics, "cross_entropy_loss", nan_on_third_call)
    with pytest.raises(DivergenceError) as err:  # 100 rows: 2 steps per epoch
        linear_probe(model, train, test, None, epochs=3, batch_size=64, seed=0)
    assert err.value.step == 2


def test_random_frozen_features_beat_chance_on_blobs():
    train, test = synth_blob_split(2, 50, 40, 8, seed=22, std=0.02)
    model = init_weights(ModelSpec("mlp", (16, 16), 2, (1, 1, 8)), seed=1)
    acc = linear_probe(model, train, test, None, epochs=15, seed=0)
    assert acc > 60.0  # blobs are nearly linearly separable in input space


def test_export_embeddings_round_trip(tmp_path, rng):
    train, _ = synth_blob_split(3, 10, 5, 6, seed=12, std=0.05)
    model = init_weights(ModelSpec("mlp", (12,), 3, (1, 1, 6)), seed=2)
    head = ProjectionHead.create(12, 5, "student", 4)
    path = str(tmp_path / "emb.csv")
    count = export_embeddings(model, head, train, None, path)
    assert count == len(train)
    labels, vecs = read_embeddings(path)
    assert labels.shape == (30,) and vecs.shape == (30, 5)
    assert np.array_equal(labels, train.labels)
    assert np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) < 1e-6
    # recompute the projections directly and compare at print precision
    from dcd.autodiff import Tensor
    from dcd.models import project
    feats, _ = model.forward(Tensor(train.images.astype(np.float64)))
    want = project(head, feats).data
    assert np.max(np.abs(vecs - want)) < 1e-8
