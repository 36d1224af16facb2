"""The benchmark's tracer looks up ``dcd`` names by attribute; keep them there."""

import os
import subprocess
import sys

import dcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_current_package():
    """Deleting or renaming a name that ``perfbench/tracing.py`` or
    ``perfbench/workloads.py`` looks up (an ``OPS`` op, ``train.evaluate``,
    ``cli.cmd_ablate``, ...) makes this install fail."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcd.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r}); "
            "import workloads, tracing; tracing.Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_gate_reads_training_outputs():
    """``perfbench/gate.py`` reads ``EPOCH_CSV_COLUMNS``, ``EpochLog.row()``,
    checkpoint metadata and ``restore_model``/``stats_from_metadata``; a tiny
    blob teacher and student must pass its epoch, student and round-trip checks.
    Its ``LOSS_COLUMNS`` are the terms of a ``LossBreakdown``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcd.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"""
import os, sys, tempfile
sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})
import gate
from dataclasses import fields
from dcd.data import BatchPlan, synth_blob_split
from dcd.losses import DistillConfig, LossBreakdown
from dcd.models import ModelSpec
from dcd.train import OptimSpec, distill, train_teacher

assert tuple(f.name for f in fields(LossBreakdown)) == gate.LOSS_COLUMNS
train, test = synth_blob_split(2, 20, 10, 8, seed=3, std=0.05)
teacher, logs = train_teacher(ModelSpec("mlp", (16,), 2, (1, 1, 8)), train, test,
                              OptimSpec(lr=0.1, epochs=2, seed=1), BatchPlan(16, 1))
gate.check_epochs(gate.epoch_rows(logs))
cfg = DistillConfig(proj_dim=4)
student, logs = distill(teacher, ModelSpec("mlp", (8,), 2, (1, 1, 8)), train, test, cfg,
                        OptimSpec(lr=0.05, epochs=2, seed=2), BatchPlan(16, 2))
gate.check_epochs(gate.epoch_rows(logs), cfg.tau_max)
gate.check_student(student, teacher, test)
with tempfile.TemporaryDirectory() as tmp:
    for name, ckpt in (("teacher", teacher), ("student", student)):
        gate.round_trip(ckpt, os.path.join(tmp, name + ".ckpt"))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
