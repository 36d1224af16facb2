"""The two benchmark workloads, driven through the public API of ``dcd``.

A workload object does its set-up (data generation, model specs) in its
constructor and one timed repetition in ``run``.  Every training,
distillation or ablation-cell call and every checkpoint round trip is one
operation; an operation that raises or fails the gate counts as failed.
Gate work runs outside the timed calls and with tracing paused.  Calls
into ``dcd`` go through module attributes (``train.distill``) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import nullcontext

import numpy as np

from dcd import cli, recipes, train
from dcd.data import BatchPlan, Dataset
from dcd.losses import DistillConfig
from dcd.models import convnet_pair
from dcd.train import OptimSpec

import gate


class Rep:
    """Timings, row counts and operation outcomes of one repetition."""

    def __init__(self, workdir: str, corrupt: bool = False, tracer=None):
        self.workdir = workdir
        self.corrupt = corrupt
        self.tracer = tracer
        self.teacher_s = 0.0
        self.distill_s = 0.0
        self.rows = 0
        self.test_accs: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, fn):
        """Run one operation; returns its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure is counted, none ends the run
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def timed(self, phase: str, fn):
        """Call ``fn`` and add its wall time to ``teacher_s`` or ``distill_s``."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            attr = f"{phase}_s"
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)

    def untraced(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def round_trip(self, name: str, ckpt) -> None:
        self.op(f"round-trip {name}",
                lambda: gate.round_trip(ckpt, self.path(f"{name}.ckpt"), self.corrupt))

    def train_teacher(self, spec, train_set: Dataset, test: Dataset, optim: OptimSpec,
                      plan: BatchPlan):
        def call():
            ckpt, logs = self.timed("teacher", lambda: train.train_teacher(
                spec, train_set, test, optim, plan))
            self.rows += optim.epochs * len(train_set)
            with self.untraced():
                gate.check_epochs(gate.epoch_rows(logs))
            return ckpt

        ckpt = self.op("train-teacher", call)
        self.round_trip("teacher", ckpt)
        return ckpt

    def distill(self, name: str, teacher, spec, train_set: Dataset, test: Dataset,
                cfg: DistillConfig, optim: OptimSpec, plan: BatchPlan) -> None:
        def call():
            before = gate.fingerprint(teacher)
            ckpt, logs = self.timed("distill", lambda: train.distill(
                teacher, spec, train_set, test, cfg, optim, plan))
            self.rows += optim.epochs * len(train_set)
            self.test_accs.append(ckpt.metadata["final_metrics"]["test_acc"])
            with self.untraced():
                gate.check_epochs(gate.epoch_rows(logs), cfg.tau_max)
                if gate.fingerprint(teacher) != before:
                    raise gate.GateError("the frozen teacher changed during distill")
                gate.check_student(ckpt, teacher, test)
            return ckpt

        ckpt = self.op(f"distill {name}", call)
        self.round_trip(name, ckpt)


def synthetic_images(count: int, seed: int, classes: int = 10,
                     shape: tuple[int, int, int] = (3, 32, 32)) -> Dataset:
    """CIFAR-shaped float32 images: a smooth per-class template plus pixel noise."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    coarse = rng.uniform(-1.0, 1.0, size=(classes, c, 4, 4))
    templates = np.kron(coarse, np.ones((1, 1, h // 4, w // 4)))
    labels = rng.permutation(np.arange(count) % classes).astype(np.int64)
    values = 0.5 + 0.1 * templates[labels] + 0.2 * rng.normal(size=(count, c, h, w))
    images = np.clip(values, 0.0, 1.0).astype(np.float32)
    return Dataset(images, labels, classes, f"synthetic{c}x{h}x{w}")


class ConvnetDistill:
    """One ConvNet teacher epoch and one distill epoch on CIFAR-shaped tensors.

    The learning rate is below the CIFAR recipe's: at the recipe's rates,
    four steps on these tensors can drive a feature row to exactly zero,
    and the projection head then rejects it.  Step cost does not depend on
    the rate.  192 training rows (a step of 128 and one of 64) keep one
    repetition near 5 s, so that a run holds five or more.
    """

    TRAIN_ROWS = 192
    TEST_ROWS = 64
    LR = 0.005

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        train_rows, test_rows = (32, 32) if tiny else (self.TRAIN_ROWS, self.TEST_ROWS)
        full = synthetic_images(train_rows + test_rows, seed)
        self.train = Dataset(full.images[:train_rows], full.labels[:train_rows], 10, "train")
        self.test = Dataset(full.images[train_rows:], full.labels[train_rows:], 10, "test")
        self.teacher_spec, self.student_spec = convnet_pair((3, 32, 32), 10)
        self.plan = BatchPlan(batch_size=recipes.CIFAR_BATCH, shuffle_seed=seed,
                              augment="flip+crop")

    def run(self, rep: Rep) -> None:
        optim = dataclasses.replace(recipes.CIFAR_TEACHER_OPTIM, lr=self.LR, epochs=1,
                                    schedule=(), seed=self.seed)
        teacher = rep.train_teacher(self.teacher_spec, self.train, self.test, optim, self.plan)
        student_optim = OptimSpec(lr=self.LR, momentum=0.9,
                                  weight_decay=recipes.CIFAR_STUDENT_WD, epochs=1,
                                  seed=self.seed)
        rep.distill("student", teacher, self.student_spec, self.train, self.test,
                    DistillConfig(), student_optim, self.plan)


class AblateSweep:
    """``dcd train-teacher`` then ``dcd ablate`` over a 2x2 grid with two jobs."""

    GRID = "alpha=0.1,0.5|beta=0,1"
    JOBS = 2

    def __init__(self, seed: int, tiny: bool):
        self.common = ["--seed", str(seed), "--set", f"data_seed={seed}"]
        if tiny:
            self.common += ["--set", "epochs=1"]
        self.cfg = cli.resolve_config(None, {"data_seed": str(seed)})
        self.epochs = 1 if tiny else self.cfg["epochs"]
        self.train, self.test = cli.load_datasets(self.cfg)

    def _cli(self, argv: list[str]) -> None:
        code = cli.main(argv + self.common)
        if code != cli.EXIT_OK:
            raise gate.GateError(f"dcd {argv[0]} exited with code {code}")

    def _sweep(self, rep: Rep, out: str, jobs: int) -> None:
        self._cli(["ablate", "--teacher", rep.path("teacher/teacher.ckpt"), "--out",
                   rep.path(out), "--grid", self.GRID, "--seeds", "1", "--jobs", str(jobs)])

    def run(self, rep: Rep) -> None:
        teacher_path = rep.path("teacher/teacher.ckpt")

        def teach():
            rep.timed("teacher", lambda: self._cli(["train-teacher", "--out",
                                                    rep.path("teacher")]))
            rep.rows += self.epochs * len(self.train)
            with rep.untraced():
                gate.check_epochs(gate.read_epoch_csv(rep.path("teacher/epochs.csv")))
            return train.load_checkpoint(teacher_path)

        teacher = rep.op("train-teacher", teach)
        rep.round_trip("teacher", teacher)

        digest = gate.file_digest(teacher_path) if teacher is not None else None
        rep.op("ablate", lambda: rep.timed("distill", lambda: self._sweep(rep, "ablate",
                                                                          self.JOBS)))
        for index in range(len(cli.parse_grid(self.GRID))):
            run_dir = rep.path(f"ablate/cell{index}-seed0")
            if os.path.exists(os.path.join(run_dir, "DONE")):
                rep.rows += self.epochs * len(self.train)
            ckpt = rep.op(f"ablate cell{index}",
                          lambda: self._check_cell(rep, run_dir, teacher, digest))
            rep.round_trip(f"cell{index}", ckpt)

    def reference_sweep(self, rep: Rep) -> float:
        """Wall time of the same sweep with one job, for comparison with ``JOBS``."""
        t0 = time.perf_counter()
        self._sweep(rep, "ablate-jobs1", 1)
        return time.perf_counter() - t0

    def _check_cell(self, rep: Rep, run_dir: str, teacher, digest):
        with rep.untraced():
            if not os.path.exists(os.path.join(run_dir, "DONE")):
                raise gate.GateError(f"{run_dir} has no DONE marker")
            ckpt = train.load_checkpoint(os.path.join(run_dir, "student.ckpt"))
            rep.test_accs.append(ckpt.metadata["final_metrics"]["test_acc"])
            gate.check_epochs(gate.read_epoch_csv(os.path.join(run_dir, "epochs.csv")),
                              ckpt.metadata["distill_config"]["tau_max"])
            if gate.file_digest(rep.path("teacher/teacher.ckpt")) != digest:
                raise gate.GateError("the teacher checkpoint changed during ablate")
            gate.check_student(ckpt, teacher, self.test)
        return ckpt


WORKLOADS = {
    "convnet-distill": ConvnetDistill,
    "ablate-sweep": AblateSweep,
}
