"""Evaluation metrics: accuracy, transfer probes, aggregate improvement,
logit-correlation diagnostics, buffer accounting and embedding export.

The reference accuracy grids used by :func:`relative_improvement` ship
as plain-text fixtures (whitespace-separated, ``n/a`` preserved); this
module treats them strictly as data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .autodiff import Parameter, Tape, Tensor, add_rowvec, collect_grads, matmul
from .data import Dataset, eval_batches
from .errors import ConfigError, DivergenceError, FormatError, ShapeMismatchError
from .losses import cross_entropy_loss
from .models import Model, ProjectionHead, project
from .train import sgd_step


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of argmax matches; ties break to the lowest class index."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeMismatchError(f"logits {logits.shape} do not match labels {labels.shape}")
    if logits.shape[0] == 0:
        raise ShapeMismatchError("top1_accuracy of an empty batch")
    return 100.0 * float((np.argmax(logits, axis=1) == labels).mean())


def extract_features(model: Model, dataset: Dataset, stats, batch_size: int = 256,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Penultimate features over an in-order unaugmented pass (untracked)."""
    feats, labels = [], []
    for batch in eval_batches(dataset, stats, batch_size):
        f, _ = model.forward(batch.images)
        feats.append(f.data)
        labels.append(batch.labels)
    return np.concatenate(feats), np.concatenate(labels)


def linear_probe(frozen_model: Model, train: Dataset, test: Dataset, stats,
                 lr: float = 0.5, epochs: int = 40, batch_size: int = 256,
                 seed: int = 0) -> float:
    """Train a linear classifier on frozen penultimate features; test top-1 (%).

    Standardization statistics come from the model's own training data
    and are reused verbatim on the transfer splits.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"probe lr must be finite and positive, got {lr}")
    if epochs < 0:
        raise ConfigError(f"probe epochs must be non-negative, got {epochs}")
    x_train, y_train = extract_features(frozen_model, train, stats, batch_size)
    x_test, y_test = extract_features(frozen_model, test, stats, batch_size)
    dim = x_train.shape[1]
    classes = max(train.class_count, test.class_count)
    rng = np.random.default_rng(seed)
    w = Parameter(rng.normal(scale=0.01, size=(dim, classes)), name="probe.weight")
    bias = Parameter(np.zeros(classes), name="probe.bias")
    state: dict[int, np.ndarray] = {}
    n = x_train.shape[0]
    step = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            with Tape() as tape:
                logits = add_rowvec(matmul(Tensor(x_train[idx]), w.value), bias.value)
                loss = cross_entropy_loss(logits, y_train[idx])
                if not loss.is_finite():
                    raise DivergenceError("probe loss is non-finite", step)
                tape.backward(loss)
            collect_grads(tape, [w, bias])
            sgd_step([w, bias], lr, 0.9, 0.0, state)
            step += 1
    test_logits = x_test @ w.value.data + bias.value.data
    return top1_accuracy(test_logits, y_test)


def relative_improvement(acc_new: list[float], acc_kd: list[float], acc_van: list[float],
                         ) -> float:
    """Mean of (new - kd) / (kd - vanilla) across columns, as a percentage.

    Columns with a zero kd-vanilla gap are undefined and excluded with a
    warning.
    """
    if not len(acc_new) == len(acc_kd) == len(acc_van):
        raise ShapeMismatchError("accuracy lists must have equal lengths")
    if len(acc_new) == 0:
        raise ShapeMismatchError("accuracy lists must be non-empty")
    ratios = []
    for i, (a, k, v) in enumerate(zip(acc_new, acc_kd, acc_van)):
        denom = k - v
        if denom == 0.0:
            warnings.warn(f"column {i} has no kd-vanilla gap; excluded as undefined")
            continue
        ratios.append((a - k) / denom)
    if not ratios:
        raise ConfigError("every column was undefined; nothing to average")
    return 100.0 * float(np.mean(ratios))


@dataclass
class AccuracyTable:
    columns: list[str]
    rows: dict[str, list[float | None]]

    def row(self, name: str) -> list[float | None]:
        return self.rows[name]

    def paired_rows(self, *names: str) -> list[list[float]]:
        """Values of the named rows restricted to columns where all are present."""
        picked = [self.rows[n] for n in names]
        keep = [j for j in range(len(self.columns)) if all(r[j] is not None for r in picked)]
        return [[r[j] for j in keep] for r in picked]


def parse_accuracy_table(text: str) -> AccuracyTable:
    columns: list[str] | None = None
    rows: dict[str, list[float | None]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if columns is None:
            if not line.startswith("columns:"):
                raise FormatError(f"line {lineno}: expected a 'columns:' header line")
            columns = line[len("columns:"):].split()
            continue
        parts = line.split()
        name, cells = parts[0], parts[1:]
        if len(cells) != len(columns):
            raise FormatError(f"line {lineno}: row {name!r} has {len(cells)} cells, "
                              f"expected {len(columns)}")
        values = [None if c == "n/a" else float(c) for c in cells]
        for v in values:
            if v is not None and not 0.0 <= v <= 100.0:
                raise FormatError(f"line {lineno}: accuracy {v} outside [0, 100]")
        rows[name] = values
    if columns is None:
        raise FormatError("table has no 'columns:' header line")
    return AccuracyTable(columns, rows)


def load_fixture_table(name: str) -> AccuracyTable:
    text = resources.files("dcd").joinpath("fixtures").joinpath(name).read_text()
    return parse_accuracy_table(text)


def fixture_relative_improvement(method: str = "DCD") -> float:
    """Aggregate improvement of a method row over the shipped accuracy grid."""
    table = load_fixture_table("cifar100_top1.txt")
    new, kd, van = table.paired_rows(method, "KD", "Student")
    return relative_improvement(new, kd, van)


@dataclass
class CorrelationReport:
    matrix: np.ndarray  # |C_teacher - C_student|, class x class
    mean_abs: float
    max_abs: float
    excluded: list[int]


def _class_mean_logits(logits_by_class: list[np.ndarray]) -> np.ndarray:
    return np.stack([np.asarray(block, dtype=np.float64).mean(axis=0)
                     for block in logits_by_class])


def _pearson_matrix(means: np.ndarray, keep: list[int]) -> np.ndarray:
    sub = means[keep]
    centered = sub - sub.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    return (centered @ centered.T) / np.outer(norms, norms)


def logit_correlation_diff(teacher_logits_by_class: list[np.ndarray],
                           student_logits_by_class: list[np.ndarray]) -> CorrelationReport:
    """|Pearson(teacher class-mean logits) - Pearson(student ...)| summary.

    Classes whose mean logit vector has zero variance cannot enter a
    Pearson correlation; they are excluded with a warning.
    """
    if len(teacher_logits_by_class) != len(student_logits_by_class):
        raise ShapeMismatchError("teacher and student must cover the same classes")
    t_means = _class_mean_logits(teacher_logits_by_class)
    s_means = _class_mean_logits(student_logits_by_class)
    if t_means.shape != s_means.shape:
        raise ShapeMismatchError("teacher and student logit dimensions differ")
    excluded = [i for i in range(t_means.shape[0])
                if np.allclose(t_means[i], t_means[i][0]) or np.allclose(s_means[i], s_means[i][0])]
    if excluded:
        warnings.warn(f"classes {excluded} have zero-variance mean logits; excluded")
    keep = [i for i in range(t_means.shape[0]) if i not in excluded]
    if len(keep) < 2:
        raise ConfigError("need at least two usable classes for a correlation matrix")
    diff = np.abs(_pearson_matrix(t_means, keep) - _pearson_matrix(s_means, keep))
    return CorrelationReport(diff, float(diff.mean()), float(diff.max()), excluded)


def negative_buffer_bytes(batch_size: int, proj_dim: int) -> int:
    """Bytes needed to hold one batch of float32 projections (the full
    in-batch negative pool)."""
    if batch_size < 1 or proj_dim < 1:
        raise ConfigError("batch_size and proj_dim must be positive")
    return batch_size * proj_dim * 4


def export_embeddings(model: Model, head: ProjectionHead, dataset: Dataset, stats,
                      path: str, batch_size: int = 256) -> int:
    """Write label + normalized projection rows as CSV; returns the row count."""
    dim = head.weight.value.shape[1]
    with open(path, "w") as fh:
        fh.write("label," + ",".join(f"e{k}" for k in range(dim)) + "\n")
        count = 0
        for batch in eval_batches(dataset, stats, batch_size):
            feats, _ = model.forward(batch.images)
            z = project(head, feats).data
            for label, row in zip(batch.labels, z):
                fh.write(str(int(label)) + "," + ",".join(f"{v:.12g}" for v in row) + "\n")
                count += 1
    return count


def read_embeddings(path: str) -> tuple[np.ndarray, np.ndarray]:
    labels, rows = [], []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        dim = len(header) - 1
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != dim + 1:
                raise FormatError(f"embedding row has {len(parts)} fields, expected {dim + 1}")
            labels.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    return np.asarray(labels, dtype=np.int64), np.asarray(rows, dtype=np.float64)
