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
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .autodiff import Parameter, Tape, Tensor, collect_grads
from .data import BatchPlan, Dataset, batches, channel_stats, eval_batches, standardize
from .errors import CheckpointFormatError, ConfigError, DegenerateInputError, DivergenceError, \
    DomainError
from .losses import DistillConfig, EmbeddingPair, LossBreakdown, cross_entropy_loss, \
    temperature_parameters, total_loss
from .models import Model, ModelSpec, ProjectionHead, init_weights

CHECKPOINT_MAGIC = b"DCDC"
CHECKPOINT_VERSION = 1

# a tensor's dtype tag -> its payload's dtype
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4"), 2: np.dtype("<i8")}


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
        if v is None:
            # a copy: g may be the tape's array, or a numpy scalar that the
            # in-place update below would rebind instead of update
            state[id(p)] = v = np.array(g, dtype=np.float64)
        else:
            v *= momentum
            v += g
        p.value.data -= lr * v
        p.clamp()


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    metadata: dict


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    meta = json.dumps(ckpt.metadata, sort_keys=True).encode("utf-8")
    blob = bytearray(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(meta)) + meta
                     + struct.pack("<I", len(ckpt.tensors)))
    for name, arr in ckpt.tensors.items():
        arr = np.asarray(arr)
        tag = next((t for t, dtype in _DTYPES.items() if dtype.name == arr.dtype.name), None)
        if tag is None:
            raise ConfigError(f"unsupported checkpoint dtype {arr.dtype} for {name!r}")
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack(f"<BB{arr.ndim}I", tag, arr.ndim, *arr.shape)
        blob += arr.astype(_DTYPES[tag]).tobytes()  # C order, whatever the layout
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
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
    if not isinstance(metadata, dict):
        raise CheckpointFormatError("metadata is not a JSON object", offset=meta_start)
    (count,) = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "tensor name")
        tag, ndim = r.unpack("<BB")
        if tag not in _DTYPES:
            raise CheckpointFormatError(f"unknown dtype tag {tag}", offset=r.pos - 2)
        shape = r.unpack("<" + "I" * ndim)
        # Python integers: a product of header dims can overflow int64
        payload = r.take(math.prod(shape) * _DTYPES[tag].itemsize)
        tensors[name] = np.frombuffer(payload, dtype=_DTYPES[tag]).reshape(shape).copy()
    if r.pos != len(raw):
        raise CheckpointFormatError("trailing bytes after final tensor", offset=r.pos)
    return Checkpoint(tensors, metadata)


def _from_metadata(metadata: dict, key: str, parse):
    """``parse(metadata[key])``, or a :class:`CheckpointFormatError` naming ``key``."""
    try:
        return parse(metadata[key])
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise CheckpointFormatError(f"metadata {key!r} is missing or malformed: "
                                    f"{type(exc).__name__}: {exc}") from exc


def _spec(metadata: dict) -> ModelSpec:
    return _from_metadata(metadata, "model_spec", ModelSpec.from_dict)


def restore_model(ckpt: Checkpoint) -> Model:
    # every parameter is overwritten below, so the init seed does not matter
    model = init_weights(_spec(ckpt.metadata), 0)
    for p in model.parameters():
        stored = ckpt.tensors.get(p.name)
        if stored is None:
            raise CheckpointFormatError(f"checkpoint is missing tensor {p.name!r}")
        if stored.shape != p.value.shape:
            raise CheckpointFormatError(
                f"tensor {p.name!r} has shape {stored.shape}, expected {p.value.shape}")
        p.value.data[...] = stored
    return model


def check_class_count(spec: ModelSpec, dataset: Dataset, what: str) -> None:
    """A :class:`ConfigError` naming both counts unless ``dataset`` has the
    ``spec``'s number of classes."""
    if dataset.class_count != spec.num_classes:
        raise ConfigError(f"{what} has {spec.num_classes} classes, but {dataset.name!r} has "
                          f"{dataset.class_count}")


def stats_from_metadata(metadata: dict) -> tuple[np.ndarray, np.ndarray]:
    """The standardization statistics of a checkpoint: one finite mean and
    one finite, positive std per input channel of its ``model_spec``."""
    channels = _spec(metadata).in_shape[0]
    mean, std = (_from_metadata(metadata, key, lambda v: np.asarray(v, dtype=np.float64))
                 for key in ("channel_mean", "channel_std"))
    if not (mean.shape == std.shape == (channels,) and np.isfinite(mean).all()
            and np.isfinite(std).all() and (std > 0).all()):
        raise CheckpointFormatError(f"metadata 'channel_mean' and 'channel_std' must hold one "
                                    f"finite mean and positive std per input channel "
                                    f"({channels}), got {mean} and {std}")
    return mean, std


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
        return list(astuple(self))


EPOCH_CSV_COLUMNS = tuple(f.name for f in fields(EpochLog))
# the epoch columns that average a LossBreakdown term over the epoch
_LOSS_COLUMNS = tuple(c for c in EPOCH_CSV_COLUMNS if c in {f.name for f in fields(LossBreakdown)})


def write_epoch_csv(logs: list[EpochLog], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(EPOCH_CSV_COLUMNS) + "\n")
        for log in logs:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                              for v in log.row()) + "\n")


# numpy's floating-point warnings are muted where the values they warn about
# are checked: an overflow ends in non-finite values, which raise typed errors
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def inference(model: Model, dataset: Dataset, stats, batch_size: int, output, what: str):
    """The one inference pass: each batch of an in-order, unaugmented, untaped
    pass with ``output(features, logits)`` as an array, computed with numpy's
    warnings muted; a non-finite output raises :class:`DomainError` naming ``what``.
    """
    for batch in eval_batches(dataset, stats, batch_size):
        with np.errstate(**_QUIET):
            out = output(*model.forward(batch.images)).data
        if not np.isfinite(out).all():
            raise DomainError(f"{what} on {dataset.name!r} are non-finite")
        yield batch, out


def evaluate(model: Model, dataset: Dataset, stats, batch_size: int = 256) -> float:
    """Top-1 accuracy (%) over :func:`inference`, so non-finite logits raise
    :class:`DomainError` (``argmax`` would pick class 0 for a NaN row)."""
    hits = 0
    for batch, logits in inference(model, dataset, stats, batch_size, lambda _, z: z,
                                   "evaluate: the model's logits"):
        hits += int((np.argmax(logits, axis=1) == batch.labels).sum())
    return 100.0 * hits / len(dataset)


def _fit(model: Model, params: list[Parameter], step_loss, train: Dataset, test: Dataset,
         stats, optim: OptimSpec, plan: BatchPlan, temperature: tuple[Parameter, ...] = (),
         epoch_logs: bool = True) -> tuple[list[EpochLog], dict]:
    """The one SGD loop: ``optim.epochs`` epochs over ``batches()``, each
    followed by an evaluation of ``model`` on both splits unless
    ``epoch_logs`` is false, which skips the epoch logs and their evaluations.

    ``step_loss(batch, step)`` builds the step's :class:`LossBreakdown` on
    a tape that differentiates only ``params``: it records no op whose
    inputs are all untracked, so a frozen teacher's forward pass inside the
    step adds no nodes, and no step computes a gradient for its input
    images or the teacher's outputs.  ``temperature`` is the ``(tau, b)``
    pair that the epoch logs and final metrics report.  Returns the epoch
    logs and the final metrics, which measure the final weights; a run of
    zero epochs evaluates its initial weights once.
    """
    def temperatures() -> dict:
        return dict(zip(("tau", "b"), (float(p.value.data) for p in temperature)))

    def accuracies() -> dict:
        try:
            return {"train_acc": evaluate(model, train, stats, plan.batch_size),
                    "test_acc": evaluate(model, test, stats, plan.batch_size)}
        except DomainError as exc:
            raise DivergenceError(str(exc), max(step - 1, 0)) from exc

    leaves = [p.value for p in params]
    state: dict[int, np.ndarray] = {}
    logs: list[EpochLog] = []
    step = 0
    with np.errstate(**_QUIET):
        for epoch in range(optim.epochs):
            lr = optim.lr_at(epoch)
            sums = np.zeros(len(_LOSS_COLUMNS))
            seen = 0
            for batch in batches(train, plan, epoch, stats):
                with Tape(leaves) as tape:
                    try:
                        bd = step_loss(batch, step)
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
                sums += n * np.array([f[c] for c in _LOSS_COLUMNS])
                seen += n
                step += 1
            if epoch_logs:
                logs.append(EpochLog(epoch, **dict(zip(_LOSS_COLUMNS, sums / max(seen, 1))),
                                     **temperatures(), **accuracies()))
        # the last epoch log already measured the final weights
        final = ({"train_acc": logs[-1].train_acc, "test_acc": logs[-1].test_acc} if logs
                 else accuracies())
    return logs, {**final, **temperatures()}


def _checkpoint(params: list[Parameter], kind: str, spec: ModelSpec, optim: OptimSpec, stats,
                final: dict, **extra) -> Checkpoint:
    """A trained run's checkpoint of ``params`` in order; ``extra`` adds
    kind-specific metadata keys."""
    return Checkpoint({p.name: p.value.data.copy() for p in params}, {
        "kind": kind, "model_spec": asdict(spec), "optim": asdict(optim),
        "seed": optim.seed, "channel_mean": [float(v) for v in stats[0]],
        "channel_std": [float(v) for v in stats[1]], "final_metrics": final, **extra})


def _supervised_step(model):
    """The step loss of plain cross-entropy training on ``model``'s logits."""
    def step_loss(batch, _step) -> LossBreakdown:
        _, logits = model.forward(batch.images)
        ce = cross_entropy_loss(logits, batch.labels)
        zero = Tensor(0.0)
        return LossBreakdown(ce, zero, zero, zero, zero, ce)
    return step_loss


def _distill_step(student: Model, teacher_targets, s_head: ProjectionHead,
                  t_head: ProjectionHead, tau: Parameter, b: Parameter, cfg: DistillConfig):
    """The step loss of distillation: :func:`total_loss` of ``student`` against
    ``teacher_targets(batch, step)``, the frozen teacher's ``(features,
    logits)``, with the heads' unnormalized outputs as the embedding pair,
    which beta=0 skips to keep the reduced objectives exact and robust."""
    def step_loss(batch, step) -> LossBreakdown:
        t_feats, t_logits = teacher_targets(batch, step)
        s_feats, s_logits = student.forward(batch.images)
        pair = None if cfg.beta == 0.0 else EmbeddingPair(s_head(s_feats), t_head(t_feats))
        try:
            return total_loss(s_logits, t_logits, batch.labels, pair, tau, b, cfg)
        except DegenerateInputError as exc:  # only a zero teacher projection raises it
            raise DivergenceError(f"teacher projection head: {exc}", step) from exc
    return step_loss


def train_teacher(spec: ModelSpec, train: Dataset, test: Dataset, optim: OptimSpec,
                  plan: BatchPlan | None = None) -> tuple[Checkpoint, list[EpochLog]]:
    """Supervised cross-entropy training; deterministic per (seed, config, data)."""
    plan = plan or BatchPlan(batch_size=128, shuffle_seed=optim.seed)
    model = init_weights(spec, optim.seed)
    stats = channel_stats(train)
    params = model.parameters()
    logs, final = _fit(model, params, _supervised_step(model), train, test, stats, optim, plan)
    return _checkpoint(params, "teacher", spec, optim, stats, final), logs


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
        f, z = _teacher_forward(teacher, Tensor(images), 0)
        feats[rows], logits[rows] = f.data, z.data
    return feats, logits


def _teacher_forward(teacher: Model, images: Tensor, step: int) -> tuple[Tensor, Tensor]:
    """The frozen teacher's outputs, with numpy's warnings muted; non-finite ones
    raise :class:`DivergenceError` naming the teacher, not the student's loss."""
    with np.errstate(**_QUIET):
        feats, logits = teacher.forward(images)
    if not (feats.is_finite() and logits.is_finite()):
        raise DivergenceError("frozen teacher: its features or logits are non-finite", step)
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
    batch.  The step (:func:`_distill_step`) reads these targets itself, on
    a tape that records none of the teacher's ops.  Non-finite teacher
    outputs end the run in a :class:`DivergenceError` naming the teacher.

    The heads' unnormalized outputs go to the loss, which normalizes each
    side once.  A dead student row (every feature zero after the ReLU) is
    clamped, not a divergence: its zero features add nothing to the head's
    gradient, and the ReLU passes none back.  A zero teacher row ends the
    run in a :class:`DivergenceError` naming the teacher projection head.
    """
    plan = plan or BatchPlan(batch_size=128, shuffle_seed=optim.seed)
    teacher = restore_model(teacher_ckpt)
    check_class_count(teacher.spec, train, "the teacher checkpoint")
    stats = stats_from_metadata(teacher_ckpt.metadata)
    student = init_weights(student_spec, optim.seed)
    t_head = ProjectionHead.create(teacher.spec.feature_dim, cfg.proj_dim, "teacher",
                                   [optim.seed, 1])
    s_head = ProjectionHead.create(student_spec.feature_dim, cfg.proj_dim, "student",
                                   [optim.seed, 2])
    tau, b = temperature_parameters(cfg)
    saved = student.parameters() + [s_head.weight, t_head.weight, tau, b]
    params = saved if cfg.learn_temperature else saved[:-2]
    cached = _frozen_teacher_outputs(teacher, train, stats, plan, optim.epochs)
    full_batch = min(plan.batch_size, len(train))

    def teacher_targets(batch, step):
        if cached is not None and len(batch.index) == full_batch:
            return tuple(Tensor(out[batch.index]) for out in cached)
        return _teacher_forward(teacher, batch.images, step)

    step_loss = _distill_step(student, teacher_targets, s_head, t_head, tau, b, cfg)
    logs, final = _fit(student, params, step_loss, train, test, stats, optim, plan,
                       temperature=(tau, b))
    return _checkpoint(saved, "student", student_spec, optim, stats, final,
                       teacher_spec=asdict(teacher.spec), distill_config=asdict(cfg)), logs


def restore_student_head(ckpt: Checkpoint) -> ProjectionHead:
    """The student projection head: a 2-D tensor with one row per feature
    of the checkpoint's model."""
    w = ckpt.tensors.get("head.student.weight")
    rows = _spec(ckpt.metadata).feature_dim
    if w is None or w.ndim != 2 or w.shape[0] != rows:
        raise CheckpointFormatError(f"checkpoint has no student projection head of shape ({rows}, "
                                    f"proj_dim): 'head.student.weight' is "
                                    f"{'missing' if w is None else w.shape}")
    return ProjectionHead(Parameter(w.copy(), name="head.student.weight"), "student")
