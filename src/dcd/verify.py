"""Built-in verification suite: oracle equivalence, gradient checks,
structural invariants, fixture reproduction and format round-trips.

These checks are the one implementation of acceptance criteria 1-5 and
8: ``dcd verify`` prints one line per check and exits nonzero if any
failed, and ``tests/test_acceptance.py`` asserts the same results.
Every check runs fixed seeds, takes no arguments and returns a result
record; ``run_all`` counts a check that raises as failed.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import oracle
from .autodiff import Tape, Tensor, collect_grads
from .data import (Batch, BatchPlan, Dataset, parse_cifar10, parse_cifar100, parse_mnist_idx,
                   serialize_cifar10, serialize_cifar100, serialize_mnist_idx,
                   synth_blob_split, synth_blobs)
from .losses import (DistillConfig, EmbeddingPair, consistency_loss, contrastive_loss,
                     cross_entropy_loss, kd_kl_loss, student_distribution,
                     teacher_distribution, temperature_parameters)
from .metrics import (fixture_relative_improvement, negative_buffer_bytes,
                      read_embeddings, export_embeddings)
from .models import ModelSpec, ProjectionHead, init_weights, project
from .train import (Checkpoint, OptimSpec, _distill_step, _supervised_step, _teacher_forward,
                    distill, load_checkpoint, save_checkpoint, train_teacher)

LOSS_TOL = 1e-12          # absolute for O(1) values, relative above that
GRAD_TOL = 1e-4
STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


class _Failed(Exception):
    """A check's condition did not hold; the message is the result detail."""


def _require(ok, detail: str) -> None:
    if not ok:
        raise _Failed(detail)


def _check(name: str):
    """Make a check named ``name`` from a body that returns its pass detail
    or calls :func:`_require`."""
    def wrap(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            try:
                return CheckResult(name, True, body())
            except _Failed as exc:
                return CheckResult(name, False, str(exc))
        check.name = name
        return check
    return wrap


def loss_close(a: float, b: float, tol: float = LOSS_TOL) -> bool:
    """Absolute tolerance for O(1) losses, relative above that scale."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def unit_rows(rng, n, d):
    """Random row-normalized matrix with rows kept away from zero."""
    while True:
        z = rng.uniform(-2.0, 2.0, (n, d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        if norms.min() > 1e-3:
            return z / norms


@_check("oracle_equivalence")
def check_oracle_equivalence() -> str:
    """The four vectorized losses against their loop oracles."""
    rng = np.random.default_rng(20240601)
    trials, worst = 100, 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        zs, zt = unit_rows(rng, n, d), unit_rows(rng, n, d)
        tau = float(rng.uniform(0.0, 10.0))
        b = float(rng.uniform(-1.0, 1.0))
        pair = EmbeddingPair(Tensor(zs), Tensor(zt))
        c = int(rng.integers(2, 13))
        s_logits = rng.uniform(-4, 4, (n, c))
        t_logits = rng.uniform(-4, 4, (n, c))
        labels = rng.integers(0, c, n)
        for name, got, want in (
                ("contrastive", contrastive_loss(pair, tau, b),
                 oracle.oracle_contrastive(zs, zt, tau, b)),
                ("consistency", consistency_loss(pair, tau, b),
                 oracle.oracle_consistency(zs, zt, tau, b)),
                ("kd_kl", kd_kl_loss(Tensor(s_logits), Tensor(t_logits), 4.0),
                 oracle.oracle_kd_kl(s_logits, t_logits, 4.0)),
                ("cross_entropy", cross_entropy_loss(Tensor(s_logits), labels),
                 oracle.oracle_cross_entropy(s_logits, labels))):
            got, want = got.item(), want.value
            worst = max(worst, abs(got - want) / max(1.0, abs(got), abs(want)))
            _require(loss_close(got, want), f"{name}: {got!r} vs oracle {want!r}")
    return f"{trials} instances, worst {worst:.2e}"


def _finite_difference_errors(step_loss, batch, params) -> list[float]:
    """Relative error of one backward pass of the training step
    ``step_loss(batch, 0)`` against central differences, for every scalar
    of ``params``."""
    with Tape() as tape:
        tape.backward(step_loss(batch, 0).total)
    collect_grads(tape, params)
    errors = []
    for p in params:
        _require(p.grad is not None and p.grad.shape == p.value.shape,
                 f"bad gradient for {p.name}")
        flat = p.value.data.reshape(-1)
        for i, grad in enumerate(p.grad.reshape(-1)):
            orig = flat[i]
            flat[i] = orig + STEP
            fp = step_loss(batch, 0).total.item()
            flat[i] = orig - STEP
            fm = step_loss(batch, 0).total.item()
            flat[i] = orig
            fd = (fp - fm) / (2 * STEP)
            rel = abs(fd - grad) / max(abs(fd), abs(grad), 1e-4)
            _require(rel < GRAD_TOL, f"{p.name}[{i}]: rel err {rel:.2e}")
            errors.append(rel)
    return errors


@_check("gradient_correctness")
def check_gradient_correctness() -> str:
    """Central differences against one backward pass of the steps that
    training runs: the distillation step (:func:`dcd.train._distill_step`)
    for every scalar of a 2-layer MLP student, both heads, tau and b, and
    the cross-entropy step (:func:`dcd.train._supervised_step`) for every
    kernel and classifier scalar of a two-block ConvNet, whose second pool
    drops a row and a column."""
    rng = np.random.default_rng(7)
    student = init_weights(ModelSpec("mlp", (8, 8), 3, (1, 1, 6)), 1)
    teacher = init_weights(ModelSpec("mlp", (12, 12), 3, (1, 1, 6)), 2)
    cfg = DistillConfig(proj_dim=5)
    s_head = ProjectionHead.create(8, 5, "student", [1, 2])
    t_head = ProjectionHead.create(12, 5, "teacher", [1, 1])
    tau, b = temperature_parameters(cfg)
    batch = Batch(Tensor(rng.uniform(0, 1, (4, 1, 1, 6))), rng.integers(0, 3, 4), np.arange(4))
    step = _distill_step(student, lambda bt, i: _teacher_forward(teacher, bt.images, i),
                         s_head, t_head, tau, b, cfg)
    mlp = _finite_difference_errors(
        step, batch, student.parameters() + [s_head.weight, t_head.weight, tau, b])
    _require(len(mlp) > 100, f"only {len(mlp)} MLP scalars checked")

    convnet = init_weights(ModelSpec("convnet", (2, 3), 3, (2, 6, 6)), 3)
    conv_batch = Batch(Tensor(rng.uniform(0, 1, (4, 2, 6, 6))), rng.integers(0, 3, 4),
                       np.arange(4))
    conv = _finite_difference_errors(_supervised_step(convnet), conv_batch,
                                     convnet.parameters())
    return (f"{len(mlp)} MLP and {len(conv)} ConvNet scalars, "
            f"worst rel err {max(mlp + conv):.2e}")


@_check("invariants")
def check_invariants() -> str:
    """Row-stochastic similarity distributions, non-negative losses,
    permutation equivariance and the degenerate N=1 and self cases."""
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        pair = EmbeddingPair(Tensor(unit_rows(rng, n, 8)), Tensor(unit_rows(rng, n, 8)))
        tau = float(rng.uniform(0, 10))
        b = float(rng.uniform(-1, 1))
        for fn in (student_distribution, teacher_distribution):
            p = fn(pair, tau, b).data
            _require(np.max(np.abs(p.sum(axis=1) - 1.0)) < LOSS_TOL,
                     f"{fn.__name__} is not row-stochastic")
            # entries are strictly positive where float64 can represent it:
            # beyond exp(tau) ~ 371 logit gaps pass ~745 and entries underflow
            _require(tau > 5.9 or p.min() > 0.0, f"{fn.__name__} has a zero entry")
        _require(contrastive_loss(pair, tau, b).item() >= 0.0, "negative contrastive loss")
        _require(consistency_loss(pair, tau, b).item() >= -LOSS_TOL,
                 "negative consistency loss")
    pair = EmbeddingPair(Tensor(unit_rows(rng, 6, 8)), Tensor(unit_rows(rng, 6, 8)))
    perm = rng.permutation(6)
    permuted = EmbeddingPair(Tensor(pair.zs.data[perm]), Tensor(pair.zt.data[perm]))
    for fn in (contrastive_loss, consistency_loss):
        _require(abs(fn(pair, 1.3, 0.1).item() - fn(permuted, 1.3, 0.1).item()) < 1e-10,
                 f"{fn.__name__} is not permutation-equivariant")
    single = EmbeddingPair(Tensor(unit_rows(rng, 1, 8)), Tensor(unit_rows(rng, 1, 8)))
    _require(contrastive_loss(single, 2.0, 0.5).item() == 0.0, "N=1 contrastive loss nonzero")
    z = unit_rows(rng, 5, 8)
    same = EmbeddingPair(Tensor(z), Tensor(z.copy()))
    _require(abs(consistency_loss(same, 1.7, 0.3).item()) < LOSS_TOL,
             "self consistency loss nonzero")
    return "row-stochastic, non-negative, equivariant"


@_check("fixture_relative_improvement")
def check_fixture_reproduction() -> str:
    dcd_value = fixture_relative_improvement("DCD")
    dcdkd_value = fixture_relative_improvement("DCD+KD")
    detail = f"relative_improvement: {dcd_value:.2f} (combined {dcdkd_value:.2f})"
    _require(abs(dcd_value - 20.31) <= 0.2 and abs(dcdkd_value - 73.87) <= 0.2, detail)
    return detail


@_check("memory_arithmetic")
def check_memory_arithmetic() -> str:
    got = negative_buffer_bytes(256, 128)
    _require(got == 131072, f"256x128x4 = {got} bytes, expected 131072")
    return f"256x128x4 = {got} bytes (~{got / 1e6:.2f} MB)"


@_check("round_trips")
def check_round_trips() -> str:
    """Checkpoint tensors, dtypes and metadata bitwise; parser labels and pixels."""
    rng = np.random.default_rng(88)
    ckpt = Checkpoint({"w": rng.normal(size=(6, 4)), "tau": np.asarray(2.65926),
                       "counts": rng.integers(0, 9, 5).astype(np.int64)},
                      {"kind": "test", "stats": [0.5, 0.25]})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.ckpt")
        save_checkpoint(ckpt, path)
        again = load_checkpoint(path)
    for name, arr in ckpt.tensors.items():
        got = again.tensors[name]
        _require(got.dtype == arr.dtype and np.array_equal(got, arr),
                 f"checkpoint tensor {name}")
    _require(again.metadata == ckpt.metadata, "checkpoint metadata")
    images = (rng.integers(0, 256, (4, 3, 32, 32)) / 255.0).astype(np.float32)
    ds10 = Dataset(images, rng.integers(0, 10, 4), 10, "x")
    ds100 = Dataset(images, rng.integers(0, 100, 4), 100, "x")
    coarse = rng.integers(0, 20, 4)
    mnist = Dataset((rng.integers(0, 256, (3, 1, 28, 28)) / 255.0).astype(np.float32),
                    rng.integers(0, 10, 3), 10, "x")
    for fmt, want, back in (
            ("cifar10", ds10, parse_cifar10(serialize_cifar10(ds10))),
            ("cifar100", ds100, parse_cifar100(serialize_cifar100(ds100, coarse))),
            ("mnist", mnist, parse_mnist_idx(*serialize_mnist_idx(mnist)))):
        _require(np.array_equal(back.images, want.images), f"{fmt} pixels")
        _require(np.array_equal(back.labels, want.labels), f"{fmt} labels")
    return "checkpoint, cifar10, cifar100, mnist"


@_check("training_invariants")
def check_training_invariants() -> str:
    """Short end-to-end run: determinism, tau clamp, frozen teacher."""
    train, test = synth_blob_split(3, 40, 20, 8, seed=6, std=0.05)
    t_spec = ModelSpec("mlp", (32, 32), 3, (1, 1, 8))
    s_spec = ModelSpec("mlp", (16, 16), 3, (1, 1, 8))
    t_optim = OptimSpec(lr=0.1, epochs=3, seed=4)
    t_ckpt, _ = train_teacher(t_spec, train, test, t_optim, BatchPlan(16, 4))
    frozen_before = {k: v.copy() for k, v in t_ckpt.tensors.items()}
    cfg = DistillConfig(proj_dim=6)
    s_optim = OptimSpec(lr=0.02, epochs=3, seed=5)
    ck1, logs1 = distill(t_ckpt, s_spec, train, test, cfg, s_optim, BatchPlan(16, 5))
    ck2, logs2 = distill(t_ckpt, s_spec, train, test, cfg, s_optim, BatchPlan(16, 5))
    for name in ck1.tensors:
        _require(np.array_equal(ck1.tensors[name], ck2.tensors[name]),
                 f"nondeterministic {name}")
    _require([l.row() for l in logs1] == [l.row() for l in logs2],
             "epoch logs differ across runs")
    tau = float(ck1.tensors["temperature.tau"])
    _require(0.0 <= tau <= cfg.tau_max, f"tau {tau} escaped clamp")
    for name, arr in frozen_before.items():
        _require(np.array_equal(t_ckpt.tensors[name], arr), "teacher tensors changed")
    return "deterministic, clamped, frozen teacher"


@_check("embedding_export")
def check_embedding_export() -> str:
    """Exported CSV rows: count, labels, unit norm and values of project()."""
    blobs = synth_blobs(2, 10, 6, seed=3, std=0.05)
    model = init_weights(ModelSpec("mlp", (9,), 2, (1, 1, 6)), 4)
    head = ProjectionHead.create(9, 4, "student", 5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.csv")
        count = export_embeddings(model, head, blobs, None, path)
        labels, vecs = read_embeddings(path)
    _require(count == len(blobs) == labels.shape[0], "row count mismatch")
    _require(np.array_equal(labels, blobs.labels), "labels differ")
    feats, _ = model.forward(Tensor(blobs.images.astype(np.float64)))
    _require(np.max(np.abs(vecs - project(head, feats).data)) < 1e-8,
             "values differ from project() by 1e-8 or more")
    _require(np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) <= 1e-6,
             "rows not unit norm")
    return f"{count} rows, unit-norm, within 1e-8 of project()"


ALL_CHECKS = (
    check_oracle_equivalence,
    check_gradient_correctness,
    check_invariants,
    check_fixture_reproduction,
    check_memory_arithmetic,
    check_round_trips,
    check_training_invariants,
    check_embedding_export,
)


def run_all(verbose: bool = True) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        try:
            result = check()
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(check.name, False, f"{type(exc).__name__}: {exc}")
        results.append(result)
        if verbose:
            mark = "pass" if result.ok else "FAIL"
            print(f"[{mark}] {result.name}: {result.detail}")
    return results
