"""Shared numerical helpers and fixtures for the test suite."""

import numpy as np
import pytest

from dcd import recipes
from dcd.train import distill, train_teacher
from dcd.verify import loss_close, unit_rows  # noqa: F401  re-exported for the test modules


def rel_err(a, b, floor=1e-6):
    """Max elementwise relative error with a denominator floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def central_difference(f, arrays, step=1e-5):
    """Central finite differences of the scalar callable ``f`` wrt each array.

    ``f`` takes no arguments and must read the (mutated in place) arrays
    on every call; this keeps it independent of the autodiff path under
    test.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def blob_recipe_teacher():
    """The shipped blob recipe's teacher checkpoint and epoch logs, trained once."""
    teacher_train, _, test = recipes.blob_trend_datasets()
    teacher_spec, _ = recipes.blob_model_pair()
    return train_teacher(teacher_spec, teacher_train, test,
                         recipes.BLOB_TEACHER_OPTIM, recipes.BLOB_TEACHER_PLAN)


@pytest.fixture(scope="session")
def blob_recipe_student(blob_recipe_teacher):
    """``run(cfg, seed)``: the shipped blob recipe's student checkpoint and epoch
    logs under the ``DistillConfig`` ``cfg`` at ``seed``, each distinct run
    distilled once per session (criteria 6 and 7 and the monotone sanity
    test share the dcd_kd runs)."""
    _, student_train, test = recipes.blob_trend_datasets()
    _, student_spec = recipes.blob_model_pair()
    runs = {}

    def run(cfg, seed):
        if (cfg, seed) not in runs:
            runs[cfg, seed] = distill(blob_recipe_teacher[0], student_spec, student_train, test,
                                      cfg, recipes.blob_student_optim(seed),
                                      recipes.blob_student_plan(seed))
        return runs[cfg, seed]
    return run
