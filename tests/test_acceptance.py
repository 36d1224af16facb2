"""Acceptance criteria, one test per criterion, each printing a pass line.

Criteria 1-5 and 8 call the checks of :mod:`dcd.verify`, the same ones
``dcd verify`` runs, and assert their results.  Criterion 6's image-data
variant needs the CIFAR-10 binary batches on disk (env var
DCD_CIFAR10_DIR or ./data/cifar-10-batches-bin); it skips when the files
are absent.  The blob fallback always runs.
"""

import os
import time

import numpy as np
import pytest

from dcd import cli, recipes, verify
from dcd.data import BatchPlan
from dcd.losses import DistillConfig
from dcd.models import convnet_pair
from dcd.train import OptimSpec, distill, train_teacher


def report(num, name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {num} PASS ({elapsed:.1f}s): {name}")


def passed(check):
    """Run one verify check, assert it passed and return its result."""
    result = check()
    assert result.ok, f"{result.name}: {result.detail}"
    return result


def test_criterion_1_oracle_equivalence():
    started = time.time()
    assert verify.LOSS_TOL == 1e-12
    result = passed(verify.check_oracle_equivalence)
    report(1, f"vectorized losses match loop oracles on {result.detail}", started, 10)


def test_criterion_2_full_gradient_check():
    started = time.time()
    assert verify.GRAD_TOL == 1e-4
    result = passed(verify.check_gradient_correctness)
    report(2, f"total-loss gradient matches finite differences on {result.detail}",
           started, 60)


def test_criterion_3_fixture_relative_improvement():
    started = time.time()
    print(f"\n{passed(verify.check_fixture_reproduction).detail}")
    report(3, "accuracy-grid fixture reproduces 20.31% and 73.87%", started, 1)


def test_criterion_4_memory_arithmetic():
    started = time.time()
    passed(verify.check_memory_arithmetic)
    report(4, "in-batch negative buffer is 131072 bytes (~0.13 MB)", started, 1)


def test_criterion_5_invariant_suite():
    started = time.time()
    passed(verify.check_invariants)
    passed(verify.check_training_invariants)
    report(5, "row-stochastic, non-negative, equivariant, clamped, frozen, deterministic",
           started, 120)


def _trend_arms(student_run, arms, seeds=(0, 1, 2)):
    means = {}
    for name, overrides in arms.items():
        accs = []
        for seed in seeds:
            ckpt, _ = student_run(recipes.blob_distill_config(**overrides), seed)
            accs.append(ckpt.metadata["final_metrics"]["test_acc"])
        means[name] = float(np.mean(accs))
    return means


def test_criterion_6_blob_distillation_trend(blob_recipe_student):
    started = time.time()
    means = _trend_arms(blob_recipe_student, recipes.TREND_ARMS)
    print(f"\nblob trend means: vanilla={means['vanilla']:.2f} kd={means['kd']:.2f} "
          f"dcd_kd={means['dcd_kd']:.2f}")
    assert means["dcd_kd"] >= means["kd"] >= means["vanilla"]
    assert means["dcd_kd"] - means["vanilla"] >= 0.5
    report(6, "blob fallback: dcd+kd >= kd >= vanilla with >= 0.5 point gain",
           started, 300)


def _cifar10_dir():
    candidates = [os.environ.get("DCD_CIFAR10_DIR", ""),
                  os.path.join(os.path.dirname(__file__), "..", "data",
                               "cifar-10-batches-bin")]
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "data_batch_1.bin")):
            return cand
    return None


@pytest.mark.skipif(_cifar10_dir() is None,
                    reason="CIFAR-10 binary batches not on disk (set DCD_CIFAR10_DIR)")
def test_criterion_6_cifar_distillation_trend():
    started = time.time()
    train, test = cli.load_datasets(cli.resolve_config(None, {
        "dataset": "cifar10", "data_dir": _cifar10_dir(),
        "train_limit": str(recipes.CIFAR_TRAIN_LIMIT)}))
    teacher_spec, student_spec = convnet_pair((3, 32, 32), 10)
    plan = BatchPlan(batch_size=recipes.CIFAR_BATCH, shuffle_seed=7, augment="flip+crop")
    t_ckpt, _ = train_teacher(teacher_spec, train, test, recipes.CIFAR_TEACHER_OPTIM, plan)
    means = {}
    for name, overrides in recipes.TREND_ARMS.items():
        accs = []
        for seed in (0, 1, 2):
            cfg = DistillConfig(**overrides)
            optim = OptimSpec(lr=recipes.CIFAR_STUDENT_LR, momentum=0.9,
                              weight_decay=recipes.CIFAR_STUDENT_WD,
                              epochs=recipes.CIFAR_STUDENT_EPOCHS, seed=seed)
            ckpt, _ = distill(t_ckpt, student_spec, train, test, cfg, optim,
                              BatchPlan(batch_size=recipes.CIFAR_BATCH, shuffle_seed=seed,
                                        augment="flip+crop"))
            accs.append(ckpt.metadata["final_metrics"]["test_acc"])
        means[name] = float(np.mean(accs))
    print(f"\ncifar trend means: {means}")
    assert means["dcd_kd"] >= means["kd"] >= means["vanilla"]
    assert means["dcd_kd"] - means["vanilla"] >= 0.5
    report(6, "cifar-10 subset: dcd+kd >= kd >= vanilla with >= 0.5 point gain",
           started, 3600)


def test_criterion_7_beta_ablation_monotonicity(blob_recipe_student):
    started = time.time()
    means = _trend_arms(blob_recipe_student, recipes.BETA_ARMS)
    print(f"\nbeta ablation means: beta=1 {means['beta_1']:.2f}, "
          f"beta=100 {means['beta_100']:.2f}")
    assert means["beta_100"] < means["beta_1"]
    report(7, "beta=100 strictly degrades accuracy relative to beta=1", started, 600)


def test_criterion_8_format_round_trips():
    started = time.time()
    passed(verify.check_round_trips)
    passed(verify.check_embedding_export)
    report(8, "checkpoint bitwise, parser and embedding-CSV round-trips", started, 10)
