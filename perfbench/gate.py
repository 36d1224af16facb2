"""Correctness gate run on every benchmark repetition.

Each check raises :class:`GateError`; the workload counts the operation
it belongs to as failed.  The checks use only the public API of ``dcd``
and its loop oracles, so they hold the program to the contracts it
documents: bitwise checkpoint round trips, finite epoch losses, a
temperature inside its clamp interval, a frozen teacher, and losses that
match the oracles to 1e-12.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from dcd import oracle, train
from dcd.autodiff import Parameter
from dcd.data import Dataset, eval_batches
from dcd.losses import EmbeddingPair, consistency_loss, contrastive_loss
from dcd.models import ProjectionHead, project
from dcd.train import EPOCH_CSV_COLUMNS, Checkpoint, restore_model, stats_from_metadata

ORACLE_ROWS = 16
ORACLE_TOL = 1e-12
LOSS_COLUMNS = ("sup", "distill_kl", "contrast", "consist", "total")


class GateError(Exception):
    """A program output broke one of the contracts the gate checks."""


def fingerprint(ckpt: Checkpoint) -> str:
    """SHA-256 over every tensor's name, dtype, shape and bytes, plus the metadata."""
    h = hashlib.sha256()
    h.update(json.dumps(ckpt.metadata, sort_keys=True).encode())
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name])
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def flip_last_byte(path: str) -> None:
    """Corrupt one payload byte; used by the self-test to prove the gate bites."""
    with open(path, "r+b") as fh:
        fh.seek(-1, 2)
        last = fh.read(1)
        fh.seek(-1, 2)
        fh.write(bytes([last[0] ^ 0x01]))


def round_trip(ckpt: Checkpoint, path: str, corrupt: bool = False) -> None:
    """save_checkpoint -> load_checkpoint must reproduce ``ckpt`` bitwise.

    Both calls go through the ``dcd.train`` module so the tracer sees them.
    """
    train.save_checkpoint(ckpt, path)
    if corrupt:
        flip_last_byte(path)
    back = train.load_checkpoint(path)
    if fingerprint(back) != fingerprint(ckpt):
        raise GateError(f"checkpoint {path} changed in a save/load round trip")


def epoch_rows(logs) -> list[dict[str, float]]:
    return [dict(zip(EPOCH_CSV_COLUMNS, log.row())) for log in logs]


def read_epoch_csv(path: str) -> list[dict[str, float]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, (float(v) for v in line.strip().split(","))))
                for line in fh if line.strip()]


def check_epochs(rows: list[dict[str, float]], tau_max: float | None = None) -> None:
    """Every logged loss is finite; with ``tau_max`` the logged tau lies in [0, tau_max]."""
    if not rows:
        raise GateError("no epochs were logged")
    for row in rows:
        for column in LOSS_COLUMNS:
            if not math.isfinite(row[column]):
                raise GateError(f"epoch {row['epoch']:g}: {column} = {row[column]}")
        if tau_max is not None and not 0.0 <= row["tau"] <= tau_max:
            raise GateError(f"epoch {row['epoch']:g}: tau {row['tau']} outside [0, {tau_max}]")


def check_student(student: Checkpoint, teacher: Checkpoint, test: Dataset) -> None:
    """Final tau in its interval, and both feature losses match the loop oracles.

    The losses are evaluated on the final student/teacher projections of
    the first ``ORACLE_ROWS`` test rows.
    """
    cfg = student.metadata["distill_config"]
    tau = float(student.tensors["temperature.tau"])
    b = float(student.tensors["temperature.b"])
    if not 0.0 <= tau <= cfg["tau_max"]:
        raise GateError(f"final tau {tau} outside [0, {cfg['tau_max']}]")
    rows = min(ORACLE_ROWS, len(test))
    head = Dataset(test.images[:rows], test.labels[:rows], test.class_count, test.name)
    batch = next(eval_batches(head, stats_from_metadata(student.metadata), rows))
    s_feats, _ = restore_model(student).forward(batch.images)
    t_feats, _ = restore_model(teacher).forward(batch.images)
    zs = project(ProjectionHead(Parameter(student.tensors["head.student.weight"]), "student"),
                 s_feats)
    zt = project(ProjectionHead(Parameter(student.tensors["head.teacher.weight"]), "teacher"),
                 t_feats)
    pair = EmbeddingPair(zs, zt)
    zs_rows, zt_rows = zs.data.tolist(), zt.data.tolist()
    for name, got, want in (
            ("contrastive", contrastive_loss(pair, tau, b).item(),
             oracle.oracle_contrastive(zs_rows, zt_rows, tau, b).value),
            ("consistency", consistency_loss(pair, tau, b).item(),
             oracle.oracle_consistency(zs_rows, zt_rows, tau, b).value)):
        if not abs(got - want) <= ORACLE_TOL * max(1.0, abs(want)):
            raise GateError(f"{name} loss {got!r} differs from the oracle {want!r}")
