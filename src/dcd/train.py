"""Training orchestration: teacher pretraining, distillation, SGD, checkpoints.

Checkpoint files start with the magic ``DCDC`` and a little-endian
version word, followed by a JSON metadata block and named float64/
float32/int64 tensors with little-endian payloads.  Writes are atomic
(temp file + rename) and loads round-trip every tensor bitwise.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Parameter, Tape, Tensor, collect_grads
from .data import BatchPlan, Dataset, batches, channel_stats, eval_batches, standardize
from .errors import CheckpointFormatError, ConfigError, DegenerateInputError, DivergenceError, \
    DomainError
from .losses import DistillConfig, EmbeddingPair, LossBreakdown, cross_entropy_loss, \
    temperature_parameters, total_loss
from .models import Model, ModelSpec, ProjectionHead, init_weights, project

CHECKPOINT_MAGIC = b"DCDC"
CHECKPOINT_VERSION = 1

_DTYPE_TAGS = {0: "<f8", 1: "<f4", 2: "<i8"}
_TAG_FOR_KIND = {"f8": 0, "f4": 1, "i8": 2}

EPOCH_CSV_COLUMNS = ("epoch", "sup", "distill_kl", "contrast", "consist", "total",
                     "tau", "b", "train_acc", "test_acc")


@dataclass(frozen=True)
class OptimSpec:
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    schedule: tuple[tuple[int, float], ...] = ()
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and non-negative, "
                              f"got {self.weight_decay}")
        if not all(math.isfinite(mult) and mult >= 0 for _, mult in self.schedule):
            raise ConfigError("schedule multipliers must be finite and non-negative")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        marks = [e for e, _ in self.schedule]
        if marks != sorted(set(marks)):
            raise ConfigError("schedule epochs must be strictly increasing")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for mark, mult in self.schedule:
            if epoch >= mark:
                lr *= mult
        return lr

    def to_dict(self) -> dict:
        return {"lr": self.lr, "momentum": self.momentum, "weight_decay": self.weight_decay,
                "schedule": [list(s) for s in self.schedule], "epochs": self.epochs,
                "seed": self.seed}


def sgd_step(params: list[Parameter], lr: float, momentum: float, weight_decay: float,
             state: dict[int, np.ndarray]) -> None:
    """v <- momentum*v + g + wd*p; p <- p - lr*v; then clamp where bounds exist.

    Parameters flagged ``decay=False`` (the temperature scalars) skip
    weight decay.  Parameters without a gradient are left untouched.
    """
    for p in params:
        if p.grad is None:
            continue
        g = p.grad
        if weight_decay != 0.0 and p.decay:
            g = g + weight_decay * p.value.data
        v = state.get(id(p))
        v = g if v is None else momentum * v + g
        state[id(p)] = v
        p.value.data -= lr * v
        p.clamp()


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    metadata: dict
    version: int = CHECKPOINT_VERSION


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", ckpt.version)
    meta = json.dumps(ckpt.metadata, sort_keys=True).encode("utf-8")
    blob += struct.pack("<Q", len(meta))
    blob += meta
    blob += struct.pack("<I", len(ckpt.tensors))
    for name, arr in ckpt.tensors.items():
        arr = np.asarray(arr)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        kind = {"float64": "f8", "float32": "f4", "int64": "i8"}.get(arr.dtype.name)
        if kind is None:
            raise ConfigError(f"unsupported checkpoint dtype {arr.dtype} for {name!r}")
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<BB", _TAG_FOR_KIND[kind], arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
        blob += arr.astype(_DTYPE_TAGS[_TAG_FOR_KIND[kind]]).tobytes()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    os.replace(tmp, path)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointFormatError("truncated checkpoint", offset=self.pos)
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        start = self.pos
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{what} is not UTF-8",
                                        offset=start + exc.start) from exc


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    r = _Reader(raw)
    magic = r.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}", offset=0)
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version {version}", offset=4)
    (meta_len,) = r.unpack("<Q")
    meta_start = r.pos
    meta_text = r.text(meta_len, "metadata")
    try:
        metadata = json.loads(meta_text)
    except json.JSONDecodeError as exc:
        offset = meta_start + len(meta_text[:exc.pos].encode("utf-8"))
        raise CheckpointFormatError(f"metadata is not valid JSON: {exc.msg}",
                                    offset=offset) from exc
    (count,) = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "tensor name")
        tag, ndim = r.unpack("<BB")
        if tag not in _DTYPE_TAGS:
            raise CheckpointFormatError(f"unknown dtype tag {tag}", offset=r.pos - 2)
        shape = tuple(r.unpack("<" + "I" * ndim)) if ndim else ()
        dtype = np.dtype(_DTYPE_TAGS[tag])
        payload = r.take(int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize)
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    if r.pos != len(raw):
        raise CheckpointFormatError("trailing bytes after final tensor", offset=r.pos)
    return Checkpoint(tensors, metadata, version)


def model_tensors(model: Model) -> dict[str, np.ndarray]:
    return {p.name: p.value.data.copy() for p in model.parameters()}


def restore_model(ckpt: Checkpoint, spec_key: str = "model_spec") -> Model:
    spec = ModelSpec.from_dict(ckpt.metadata[spec_key])
    model = init_weights(spec, int(ckpt.metadata.get("seed", 0)))
    for p in model.parameters():
        stored = ckpt.tensors.get(p.name)
        if stored is None:
            raise CheckpointFormatError(f"checkpoint is missing tensor {p.name!r}")
        if stored.shape != p.value.shape:
            raise CheckpointFormatError(
                f"tensor {p.name!r} has shape {stored.shape}, expected {p.value.shape}")
        p.value.data[...] = stored
    return model


def stats_from_metadata(metadata: dict) -> tuple[np.ndarray, np.ndarray]:
    return (np.asarray(metadata["channel_mean"], dtype=np.float64),
            np.asarray(metadata["channel_std"], dtype=np.float64))


@dataclass
class EpochLog:
    epoch: int
    sup: float = 0.0
    distill_kl: float = 0.0
    contrast: float = 0.0
    consist: float = 0.0
    total: float = 0.0
    tau: float = 0.0
    b: float = 0.0
    train_acc: float = 0.0
    test_acc: float = 0.0

    def row(self) -> list:
        return [self.epoch, self.sup, self.distill_kl, self.contrast, self.consist,
                self.total, self.tau, self.b, self.train_acc, self.test_acc]


def write_epoch_csv(logs: list[EpochLog], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(EPOCH_CSV_COLUMNS) + "\n")
        for log in logs:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                              for v in log.row()) + "\n")


def evaluate(model: Model, dataset: Dataset, stats, batch_size: int = 256) -> float:
    """Top-1 accuracy (%) over an in-order unaugmented pass."""
    hits = 0
    for batch in eval_batches(dataset, stats, batch_size):
        _, logits = model.forward(batch.images)
        hits += int((np.argmax(logits.data, axis=1) == batch.labels).sum())
    return 100.0 * hits / len(dataset)


def _fit(model: Model, params: list[Parameter], step_loss, train: Dataset, test: Dataset,
         stats, optim: OptimSpec, plan: BatchPlan, frozen=None,
         temperature: tuple[Parameter, ...] = ()) -> tuple[list[EpochLog], dict]:
    """The one SGD loop: ``optim.epochs`` epochs over ``batches()``, each
    followed by an evaluation of ``model`` on both splits.

    ``step_loss(batch, targets, step)`` builds the step's
    :class:`LossBreakdown` on the open tape, where ``targets`` is
    ``frozen(batch)`` (None without ``frozen``).  ``frozen`` runs before
    the tape opens, so the frozen teacher's forward pass records no nodes
    and backward stops at its outputs.  ``temperature`` is the ``(tau, b)``
    pair that the epoch logs and final metrics report.  Returns the epoch
    logs and the final metrics; a run of zero epochs evaluates its initial
    weights once.
    """
    def accuracies() -> dict:
        return {"train_acc": evaluate(model, train, stats, plan.batch_size),
                "test_acc": evaluate(model, test, stats, plan.batch_size)}

    state: dict[int, np.ndarray] = {}
    logs: list[EpochLog] = []
    step = 0
    for epoch in range(optim.epochs):
        lr = optim.lr_at(epoch)
        sums = np.zeros(5)
        seen = 0
        for batch in batches(train, plan, epoch, stats):
            targets = frozen(batch) if frozen else None
            with Tape() as tape:
                try:
                    bd = step_loss(batch, targets, step)
                except DomainError as exc:
                    raise DivergenceError(f"training loss: {exc}", step) from exc
                if not bd.total.is_finite():
                    raise DivergenceError("training loss is non-finite", step)
                tape.backward(bd.total)
            collect_grads(tape, params)
            sgd_step(params, lr, optim.momentum, optim.weight_decay, state)
            if temperature:  # np.clip lets a NaN tau through
                tau = temperature[0]
                assert tau.bounds[0] <= float(tau.value.data) <= tau.bounds[1], \
                    "temperature escaped its clamp interval"
            n = len(batch.labels)
            f = bd.as_floats()
            sums += n * np.array([f["sup"], f["distill_kl"], f["contrast"], f["consist"],
                                  f["total"]])
            seen += n
            step += 1
        logs.append(EpochLog(epoch, *(sums / max(seen, 1)),
                             *(float(p.value.data) for p in temperature), **accuracies()))
    # the last epoch already measured the final weights
    final = ({"train_acc": logs[-1].train_acc, "test_acc": logs[-1].test_acc} if logs
             else accuracies())
    final.update(zip(("tau", "b"), (float(p.value.data) for p in temperature)))
    return logs, final


def _checkpoint(tensors: dict, kind: str, spec: ModelSpec, optim: OptimSpec, stats,
                final: dict, **extra) -> Checkpoint:
    """A trained run's checkpoint; ``extra`` adds kind-specific metadata keys."""
    return Checkpoint(tensors, {
        "kind": kind, "model_spec": spec.to_dict(), "optim": optim.to_dict(),
        "seed": optim.seed, "channel_mean": [float(v) for v in stats[0]],
        "channel_std": [float(v) for v in stats[1]], "final_metrics": final, **extra})


def train_teacher(spec: ModelSpec, train: Dataset, test: Dataset, optim: OptimSpec,
                  plan: BatchPlan | None = None) -> tuple[Checkpoint, list[EpochLog]]:
    """Supervised cross-entropy training; deterministic per (seed, config, data)."""
    plan = plan or BatchPlan(batch_size=128, shuffle_seed=optim.seed)
    model = init_weights(spec, optim.seed)
    stats = channel_stats(train)

    def step_loss(batch, _targets, _step) -> LossBreakdown:
        _, logits = model.forward(batch.images)
        ce = cross_entropy_loss(logits, batch.labels)
        zero = Tensor(0.0)
        return LossBreakdown(ce, zero, zero, zero, zero, ce)

    logs, final = _fit(model, model.parameters(), step_loss, train, test, stats, optim, plan)
    return _checkpoint(model_tensors(model), "teacher", spec, optim, stats, final), logs


def _project(head: ProjectionHead, features, step: int):
    try:
        return project(head, features)
    except DegenerateInputError as exc:
        raise DivergenceError(f"{head.owner} projection head: {exc}", step) from exc


def _frozen_teacher_outputs(teacher: Model, train: Dataset, stats, plan: BatchPlan,
                            epochs: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The frozen teacher's features and logits for every training row, or
    None when the plan augments (each step then sees new pixels) or there
    are no epochs to serve.

    The teacher runs over windows of exactly ``min(batch_size, rows)``
    rows, the last one ending at the final row and overlapping the one
    before it, so every row goes through matmuls of the row count a full
    training batch has: BLAS may pick its kernel by row count, and a row
    computed in a window of another size can differ in the last bits.
    Where BLAS also rounds a row by its position in the matmul (seen for
    narrow logits, e.g. 2 classes), the outputs are one fixed rounding of
    each row and the per-step outputs may differ from them by an ulp.
    """
    if plan.augment != "none" or epochs == 0:
        return None
    m = len(train)
    bs = min(plan.batch_size, m)
    feats = np.empty((m, teacher.spec.feature_dim))
    logits = np.empty((m, teacher.spec.num_classes))
    for start in range(0, m, plan.batch_size):
        start = min(start, m - bs)  # the last window ends at the final row
        rows = slice(start, start + bs)
        images = standardize(train.images[rows].astype(np.float64), stats)
        f, z = teacher.forward(Tensor(images))
        feats[rows], logits[rows] = f.data, z.data
    return feats, logits


def distill(teacher_ckpt: Checkpoint, student_spec: ModelSpec, train: Dataset, test: Dataset,
            cfg: DistillConfig, optim: OptimSpec, plan: BatchPlan | None = None,
            ) -> tuple[Checkpoint, list[EpochLog]]:
    """Optimize the student, both projection heads, tau and b under the
    combined objective; the teacher backbone stays frozen.

    Without augmentation the teacher runs over the training split once,
    before the first epoch (:func:`_frozen_teacher_outputs`), and every
    full batch gathers its rows from those outputs; only a short last
    batch runs the teacher again.  With augmentation it runs on every
    batch.
    """
    plan = plan or BatchPlan(batch_size=128, shuffle_seed=optim.seed)
    teacher = restore_model(teacher_ckpt)
    if "channel_mean" in teacher_ckpt.metadata:
        stats = stats_from_metadata(teacher_ckpt.metadata)
    else:
        stats = channel_stats(train)
    student = init_weights(student_spec, optim.seed)
    t_head = ProjectionHead.create(teacher.spec.feature_dim, cfg.proj_dim, "teacher",
                                   [optim.seed, 1])
    s_head = ProjectionHead.create(student_spec.feature_dim, cfg.proj_dim, "student",
                                   [optim.seed, 2])
    tau, b = temperature_parameters(cfg)
    params = student.parameters() + [t_head.weight, s_head.weight]
    if cfg.learn_temperature:
        params += [tau, b]
    cached = _frozen_teacher_outputs(teacher, train, stats, plan, optim.epochs)
    full_batch = min(plan.batch_size, len(train))

    def teacher_outputs(batch):  # runs before the step's tape opens: no teacher nodes
        if cached is not None and len(batch.index) == full_batch:
            return tuple(Tensor(out[batch.index]) for out in cached)
        return teacher.forward(batch.images)

    def step_loss(batch, targets, step) -> LossBreakdown:
        t_feats, t_logits = targets
        s_feats, s_logits = student.forward(batch.images)
        # the projection pipeline is unused at beta=0; skipping it
        # keeps the reduced objectives exact and robust
        pair = None
        if cfg.beta != 0.0:
            pair = EmbeddingPair(_project(s_head, s_feats, step),
                                 _project(t_head, t_feats, step))
        return total_loss(s_logits, t_logits, batch.labels, pair, tau, b, cfg)

    logs, final = _fit(student, params, step_loss, train, test, stats, optim, plan,
                       frozen=teacher_outputs, temperature=(tau, b))
    tensors = model_tensors(student)
    tensors.update((p.name, p.value.data.copy()) for p in (s_head.weight, t_head.weight, tau, b))
    return _checkpoint(tensors, "student", student_spec, optim, stats, final,
                       teacher_spec=teacher.spec.to_dict(), distill_config=asdict(cfg)), logs


def restore_student_head(ckpt: Checkpoint) -> ProjectionHead:
    w = ckpt.tensors.get("head.student.weight")
    if w is None:
        raise CheckpointFormatError("checkpoint has no student projection head")
    head = ProjectionHead(Parameter(w.copy(), name="head.student.weight"), "student")
    return head
