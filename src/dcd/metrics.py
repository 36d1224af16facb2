"""Evaluation metrics: accuracy, transfer probes, aggregate improvement,
buffer accounting and embedding export.

Model passes go through :func:`dcd.train.inference`, which raises
``DomainError`` on non-finite outputs, and the linear probe trains in
:func:`dcd.train._fit`, the one training loop.

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

from .autodiff import Parameter, Tensor, add_rowvec, matmul
from .data import BatchPlan, Dataset
from .errors import ConfigError, FormatError, ShapeMismatchError
from .models import Model, ProjectionHead, project
from .train import OptimSpec, _fit, _supervised_step, inference


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of argmax matches; ties break to the lowest class index."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeMismatchError(f"logits {logits.shape} do not match labels {labels.shape}")
    if logits.shape[0] == 0:
        raise ShapeMismatchError("top1_accuracy of an empty batch")
    return 100.0 * float((np.argmax(logits, axis=1) == labels).mean())


class _LinearProbe:
    """A linear classifier over feature rows, shaped like a model for ``_fit``."""

    def __init__(self, dim: int, classes: int, seed: int):
        rng = np.random.default_rng(seed)
        self.weight = Parameter(rng.normal(scale=0.01, size=(dim, classes)), name="probe.weight")
        self.bias = Parameter(np.zeros(classes), name="probe.bias")

    def forward(self, features: Tensor) -> tuple[Tensor, Tensor]:
        return features, add_rowvec(matmul(features, self.weight.value), self.bias.value)


def linear_probe(frozen_model: Model, train: Dataset, test: Dataset, stats,
                 lr: float = 0.5, epochs: int = 40, batch_size: int = 256,
                 seed: int = 0) -> float:
    """Train a linear classifier on frozen penultimate features; test top-1 (%).

    Standardization statistics come from the model's own training data
    and are reused verbatim on the transfer splits.  The probe trains in
    ``_fit`` with momentum 0.9, so its divergence errors are ``_fit``'s, and
    is evaluated once, after its last epoch.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"probe lr must be finite and positive, got {lr}")
    if epochs < 0:
        raise ConfigError(f"probe epochs must be non-negative, got {epochs}")
    # penultimate feature rows stand in for the images of the probe's datasets
    splits = []
    for split in (train, test):
        labels, feats = zip(*((batch.labels, f) for batch, f in inference(
            frozen_model, split, stats, batch_size, lambda f, _: f,
            "extract_features: the model's features")))
        splits.append(Dataset(np.concatenate(feats), np.concatenate(labels),
                              split.class_count, f"{split.name} features"))
    probe = _LinearProbe(splits[0].images.shape[1],
                         max(train.class_count, test.class_count), seed)
    _, final = _fit(probe, [probe.weight, probe.bias], _supervised_step(probe), *splits, None,
                    OptimSpec(lr, momentum=0.9, epochs=epochs, seed=seed),
                    BatchPlan(batch_size, seed), epoch_logs=False)
    return final["test_acc"]


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


def negative_buffer_bytes(batch_size: int, proj_dim: int) -> int:
    """Bytes needed to hold one batch of float32 projections (the full
    in-batch negative pool)."""
    if batch_size < 1 or proj_dim < 1:
        raise ConfigError("batch_size and proj_dim must be positive")
    return batch_size * proj_dim * 4


def export_embeddings(model: Model, head: ProjectionHead, dataset: Dataset, stats,
                      path: str, batch_size: int = 256) -> int:
    """Write label + normalized projection rows as CSV; returns the row count.
    Non-finite (``DomainError``) or zero-norm (``DegenerateInputError``)
    projections raise before the file is opened."""
    rows = [(batch.labels, z) for batch, z in inference(
        model, dataset, stats, batch_size, lambda f, _: project(head, f),
        "export_embeddings: the embeddings")]
    dim = head.weight.value.shape[1]
    with open(path, "w") as fh:
        fh.write("label," + ",".join(f"e{k}" for k in range(dim)) + "\n")
        for labels, z in rows:
            for label, row in zip(labels, z):
                fh.write(str(int(label)) + "," + ",".join(f"{v:.12g}" for v in row) + "\n")
    return len(dataset)


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
