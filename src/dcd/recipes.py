"""Shipped desk-scale benchmark recipes.

The blob benchmark folds 8 Gaussian sub-clusters onto 4 labels (two
sub-clusters per class), so class regions are bimodal: soft labels alone
cannot express the sub-cluster geometry, while relational consistency
over features can.  The teacher trains on a large split; students see a
small disjoint split drawn around the same means.
"""

from __future__ import annotations

import numpy as np

from .data import BatchPlan, Dataset, synth_blob_split
from .losses import DistillConfig
from .models import ModelSpec, mlp_pair
from .train import OptimSpec

BLOB_MASTER_SEED = 42
BLOB_CLUSTERS = 8
BLOB_CLASSES = 4
BLOB_DIM = 32
BLOB_STD = 0.1
BLOB_SEPARATION = 0.3
BLOB_TEACHER_PER_CLUSTER = 250
BLOB_STUDENT_PER_CLUSTER = 10
BLOB_TEST_PER_CLUSTER = 120

BLOB_TEACHER_OPTIM = OptimSpec(lr=0.1, momentum=0.9, weight_decay=0.0, epochs=15, seed=7)
BLOB_TEACHER_PLAN = BatchPlan(batch_size=64, shuffle_seed=7)
BLOB_STUDENT_EPOCHS = 120
BLOB_STUDENT_LR = 0.005
BLOB_STUDENT_WD = 1e-4
BLOB_STUDENT_BATCH = 32
BLOB_PROJ_DIM = 16


def fold_clusters(ds: Dataset, classes: int) -> Dataset:
    """Relabel a k-cluster dataset onto `classes` labels (cluster mod class)."""
    return Dataset(ds.images, ds.labels % classes, classes, f"{ds.name}-fold{classes}")


def blob_trend_datasets(master_seed: int = BLOB_MASTER_SEED,
                        ) -> tuple[Dataset, Dataset, Dataset]:
    """(teacher_train, student_train, test) for the distillation benchmark.

    The student split is carved out of the same draw as the teacher
    split (disjoint rows, identical cluster means).
    """
    per_cluster = BLOB_TEACHER_PER_CLUSTER + BLOB_STUDENT_PER_CLUSTER
    train_all, test = synth_blob_split(BLOB_CLUSTERS, per_cluster, BLOB_TEST_PER_CLUSTER,
                                       BLOB_DIM, seed=master_seed, std=BLOB_STD,
                                       separation=BLOB_SEPARATION)
    small_rows = np.concatenate([
        np.arange(c * per_cluster, c * per_cluster + BLOB_STUDENT_PER_CLUSTER)
        for c in range(BLOB_CLUSTERS)])
    big_rows = np.setdiff1d(np.arange(len(train_all)), small_rows)
    teacher_train = Dataset(train_all.images[big_rows], train_all.labels[big_rows],
                            BLOB_CLUSTERS, "blob-teacher-train")
    student_train = Dataset(train_all.images[small_rows], train_all.labels[small_rows],
                            BLOB_CLUSTERS, "blob-student-train")
    return (fold_clusters(teacher_train, BLOB_CLASSES),
            fold_clusters(student_train, BLOB_CLASSES),
            fold_clusters(test, BLOB_CLASSES))


def blob_model_pair() -> tuple[ModelSpec, ModelSpec]:
    return mlp_pair((1, 1, BLOB_DIM), BLOB_CLASSES)


def blob_student_optim(seed: int) -> OptimSpec:
    return OptimSpec(lr=BLOB_STUDENT_LR, momentum=0.9, weight_decay=BLOB_STUDENT_WD,
                     epochs=BLOB_STUDENT_EPOCHS, seed=seed)


def blob_student_plan(seed: int) -> BatchPlan:
    return BatchPlan(batch_size=BLOB_STUDENT_BATCH, shuffle_seed=seed)


def blob_distill_config(**overrides) -> DistillConfig:
    kwargs = dict(proj_dim=BLOB_PROJ_DIM)
    kwargs.update(overrides)
    return DistillConfig(**kwargs)


# DistillConfig overrides of the compared arms: cross-entropy alone, with KD,
# and with KD and the DCD contrastive term; then the beta ablation's arms.
TREND_ARMS = {"vanilla": dict(beta=0.0, lambda_kl=0.0), "kd": dict(beta=0.0, lambda_kl=1.0),
              "dcd_kd": dict(beta=1.0, lambda_kl=1.0)}
BETA_ARMS = {"beta_1": dict(beta=1.0), "beta_100": dict(beta=100.0)}


# CIFAR-10 desk recipe: a 10k-image training subset with the shipped
# ConvNet pair; used when the binary batches are available on disk.
CIFAR_TRAIN_LIMIT = 10000
CIFAR_TEACHER_OPTIM = OptimSpec(lr=0.05, momentum=0.9, weight_decay=5e-4, epochs=20,
                                schedule=((12, 0.1), (17, 0.1)), seed=7)
CIFAR_STUDENT_EPOCHS = 15
CIFAR_STUDENT_LR = 0.02
CIFAR_STUDENT_WD = 5e-4
CIFAR_BATCH = 128
