"""SGD semantics, training determinism, checkpoint format, frozen-teacher."""

import os
import struct

import numpy as np
import pytest

from dcd import autodiff as ad
from dcd.autodiff import Parameter, Tape, Tensor, collect_grads
from dcd.data import BatchPlan, Dataset, batches, synth_blob_split
from dcd.errors import CheckpointFormatError, ConfigError, DivergenceError
from dcd.losses import DistillConfig
from dcd.metrics import linear_probe
from dcd.models import ModelSpec, init_weights, mlp_pair
from dcd import train as train_mod
from dcd.cli import EXIT_CHECKPOINT, main
from dcd.train import (Checkpoint, OptimSpec, distill, evaluate, load_checkpoint,
                       restore_model, save_checkpoint, sgd_step, stats_from_metadata,
                       train_teacher, write_epoch_csv)


def test_optim_spec_validation():
    with pytest.raises(ConfigError):
        OptimSpec(lr=0.0)
    with pytest.raises(ConfigError):
        OptimSpec(lr=0.1, momentum=1.0)
    with pytest.raises(ConfigError):
        OptimSpec(lr=0.1, schedule=((5, 0.1), (5, 0.1)))
    spec = OptimSpec(lr=0.1, schedule=((2, 0.1), (4, 0.5)))
    assert spec.lr_at(0) == 0.1
    assert abs(spec.lr_at(2) - 0.01) < 1e-15
    assert abs(spec.lr_at(4) - 0.005) < 1e-15


def test_sgd_plain_step():
    p = Parameter(np.asarray([1.0, 2.0]), name="p")
    p.grad = np.asarray([0.5, -0.5])
    sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.0, state={})
    assert np.allclose(p.value.data, [0.95, 2.05], atol=1e-15)


def test_sgd_no_grad_no_motion():
    p = Parameter(np.asarray([1.0]), name="p")
    p.grad = None
    state = {}
    sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0, state=state)
    assert np.array_equal(p.value.data, [1.0])
    assert state == {}


def test_sgd_two_steps_match_hand_unroll():
    lr, mom, wd = 0.1, 0.9, 0.01
    p = Parameter(np.asarray([2.0]), name="p")
    state = {}
    g1, g2 = np.asarray([0.3]), np.asarray([-0.2])

    p.grad = g1.copy()
    sgd_step([p], lr, mom, wd, state)
    p.grad = g2.copy()
    sgd_step([p], lr, mom, wd, state)

    # hand recurrence: v <- mom*v + g + wd*p; p <- p - lr*v
    ph, v = 2.0, 0.0
    for g in (g1[0], g2[0]):
        v = mom * v + g + wd * ph
        ph = ph - lr * v
    assert abs(p.value.data[0] - ph) < 1e-15


def test_sgd_momentum_state_follows_numpy_scalar_gradients():
    # exp of a 0-d array returns a numpy scalar, as the tau/b gradients can be
    mom, lr = 0.9, 0.1
    g1, g2 = np.exp(np.asarray(0.3)), np.exp(np.asarray(-1.1))
    assert not isinstance(g1, np.ndarray)
    p = Parameter(np.asarray(0.5), name="tau", decay=False)
    state = {}
    for g in (g1, g2):
        p.grad = g
        sgd_step([p], lr, mom, 0.0, state)
    v = mom * g1 + g2
    assert state[id(p)].tobytes() == np.float64(v).tobytes()
    assert p.value.data.tobytes() == np.float64(0.5 - lr * g1 - lr * v).tobytes()


def test_sgd_momentum_state_does_not_alias_the_gradient():
    g1, g2 = np.asarray([0.3, -0.4]), np.asarray([-0.2, 0.1])
    kept = g1.copy()
    p = Parameter(np.asarray([2.0, 1.0]), name="p")
    state = {}
    for g in (g1, g2):
        p.grad = g
        sgd_step([p], 0.1, 0.9, 0.0, state)
    assert np.array_equal(g1, kept)
    assert state[id(p)].tobytes() == (0.9 * kept + g2).tobytes()


def test_sgd_skips_decay_for_flagged_params():
    p = Parameter(np.asarray([1.0]), name="tau", decay=False)
    p.grad = np.asarray([0.0])
    sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.5, state={})
    assert np.array_equal(p.value.data, [1.0])


def test_sgd_clamps_bounded_params():
    p = Parameter(np.asarray(9.99), name="tau", bounds=(0.0, 10.0), decay=False)
    p.grad = np.asarray(-100.0)
    sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.0, state={})
    assert float(p.value.data) == 10.0


@pytest.fixture(scope="module")
def blob_env():
    train, test = synth_blob_split(2, 60, 40, 8, seed=17, std=0.02, separation=0.3)
    teacher_spec = ModelSpec("mlp", (32, 32), 2, (1, 1, 8))
    student_spec = ModelSpec("mlp", (16, 16), 2, (1, 1, 8))
    return train, test, teacher_spec, student_spec


def test_teacher_reaches_full_accuracy_on_separable_blobs(blob_env):
    train, test, teacher_spec, _ = blob_env
    optim = OptimSpec(lr=0.1, epochs=8, seed=0)
    ckpt, logs = train_teacher(teacher_spec, train, test, optim, BatchPlan(32, 0))
    assert ckpt.metadata["final_metrics"]["test_acc"] == 100.0
    assert len(logs) == 8
    assert logs[-1].total < logs[0].total


def test_zero_epochs_returns_initialized_weights(blob_env):
    train, test, teacher_spec, _ = blob_env
    optim = OptimSpec(lr=0.1, epochs=0, seed=0)
    ckpt, logs = train_teacher(teacher_spec, train, test, optim, BatchPlan(32, 0))
    assert logs == []
    acc = ckpt.metadata["final_metrics"]["test_acc"]
    assert 20.0 <= acc <= 80.0  # near-chance for 2 classes
    from dcd.models import init_weights
    fresh = init_weights(teacher_spec, 0)
    for p in fresh.parameters():
        assert np.array_equal(ckpt.tensors[p.name], p.value.data)


def test_teacher_training_deterministic_bytes(blob_env, tmp_path):
    train, test, teacher_spec, _ = blob_env
    optim = OptimSpec(lr=0.1, epochs=3, seed=9)
    paths = []
    for i in range(2):
        ckpt, _ = train_teacher(teacher_spec, train, test, optim, BatchPlan(32, 9))
        path = tmp_path / f"t{i}.ckpt"
        save_checkpoint(ckpt, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_distill_beta_lambda_zero_equals_vanilla_training(blob_env):
    """beta=0, lambda=0 must reproduce plain supervised training bitwise."""
    train, test, teacher_spec, student_spec = blob_env
    t_optim = OptimSpec(lr=0.1, epochs=3, seed=1)
    t_ckpt, _ = train_teacher(teacher_spec, train, test, t_optim, BatchPlan(32, 1))
    s_optim = OptimSpec(lr=0.05, epochs=3, seed=2)
    cfg = DistillConfig(beta=0.0, lambda_kl=0.0, proj_dim=4)
    via_distill, logs = distill(t_ckpt, student_spec, train, test, cfg, s_optim,
                                BatchPlan(32, 2))
    direct, _ = train_teacher(student_spec, train, test, s_optim, BatchPlan(32, 2))
    for p_name in direct.tensors:
        assert np.array_equal(via_distill.tensors[p_name], direct.tensors[p_name]), p_name
    for log in logs:
        assert log.contrast == 0.0 and log.consist == 0.0
        assert log.total == log.sup


def test_distill_trains_temperature_and_freezes_teacher(blob_env):
    train, test, teacher_spec, student_spec = blob_env
    t_ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=3, seed=1),
                              BatchPlan(32, 1))
    frozen = {k: v.copy() for k, v in t_ckpt.tensors.items()}
    cfg = DistillConfig(proj_dim=4)
    ckpt, logs = distill(t_ckpt, student_spec, train, test, cfg,
                         OptimSpec(lr=0.02, epochs=3, seed=3), BatchPlan(32, 3))
    tau = float(ckpt.tensors["temperature.tau"])
    assert 0.0 <= tau <= cfg.tau_max
    assert tau != cfg.tau_init  # it moved
    for name, arr in frozen.items():
        assert np.array_equal(t_ckpt.tensors[name], arr)
    assert {"head.student.weight", "head.teacher.weight"} <= set(ckpt.tensors)
    assert all(np.isfinite(log.total) for log in logs)


def test_distill_fixed_temperature_mode(blob_env):
    train, test, teacher_spec, student_spec = blob_env
    t_ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=2, seed=1),
                              BatchPlan(32, 1))
    cfg = DistillConfig(proj_dim=4, learn_temperature=False, tau_init=float(np.log(1 / 0.07)))
    ckpt, _ = distill(t_ckpt, student_spec, train, test, cfg,
                      OptimSpec(lr=0.02, epochs=2, seed=3), BatchPlan(32, 3))
    assert float(ckpt.tensors["temperature.tau"]) == cfg.tau_init
    assert float(ckpt.tensors["temperature.b"]) == 0.0


def test_checkpoint_round_trip_bitwise(tmp_path, rng):
    tensors = {
        "w": rng.normal(size=(4, 5)),
        "scalar": np.asarray(3.25),
        "ints": rng.integers(-5, 5, 7).astype(np.int64),
        "f32": rng.normal(size=(2, 3)).astype(np.float32),
    }
    ckpt = Checkpoint(tensors, {"nested": {"a": [1, 2]}, "x": "y"})
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(ckpt, path)
    again = load_checkpoint(path)
    assert again.metadata == ckpt.metadata
    assert list(again.tensors) == list(ckpt.tensors)
    for name, arr in tensors.items():
        assert again.tensors[name].dtype == arr.dtype
        assert np.array_equal(again.tensors[name], arr)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(str(path))
    assert err.value.offset == 0


def test_checkpoint_truncation_offset(tmp_path, rng):
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(Checkpoint({"w": rng.normal(size=(8, 8))}, {}), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    cut = len(raw) - 16
    with open(path, "wb") as fh:
        fh.write(raw[:cut])
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert err.value.offset is not None and err.value.offset <= cut


@pytest.mark.parametrize("old,new,at", [(b'{"a": 1}', b'{"a"; 1}', 4),  # invalid JSON
                                         (b"wx", b"w\xff", 1)])         # name not UTF-8
def test_checkpoint_bad_text_offset(old, new, at, tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint({"wx": np.zeros(2)}, {"a": 1}), str(path))
    raw = path.read_bytes()
    start = raw.index(old)
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(str(path))
    assert err.value.offset == start + at
    assert main(["eval", "--ckpt", str(path)]) == EXIT_CHECKPOINT


@pytest.mark.parametrize("dim", [2**16, 2**31])
def test_checkpoint_header_whose_size_overflows_int64_is_truncated(dim, tmp_path):
    """Four dims of ``dim`` hold 2**64 or more elements, which an int64 product
    wraps to 0 payload bytes; the payload must be sized without wrapping."""
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint({"w": np.zeros((1, 1, 1, 1))}, {}), str(path))
    # replace the four dims and the 8-byte payload that ends the file
    raw = path.read_bytes()[:-24] + struct.pack("<4I", *[dim] * 4)
    path.write_bytes(raw)
    with pytest.raises(CheckpointFormatError, match="truncated checkpoint") as err:
        load_checkpoint(str(path))
    assert err.value.offset == len(raw)
    assert main(["eval", "--ckpt", str(path)]) == EXIT_CHECKPOINT


def test_checkpoint_repeating_a_tensor_name_is_rejected_at_the_name(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint({"v": np.zeros(2), "w": np.ones(2)}, {}), str(path))
    raw = path.read_bytes().replace(b"\x01\x00v", b"\x01\x00w")  # rename v to w
    path.write_bytes(raw)
    with pytest.raises(CheckpointFormatError, match="duplicate tensor name 'w'") as err:
        load_checkpoint(str(path))
    assert err.value.offset == raw.rindex(b"\x01\x00w") + 2
    assert main(["eval", "--ckpt", str(path)]) == EXIT_CHECKPOINT


@pytest.mark.parametrize("meta", [b"[" * 100_000 + b"]" * 100_000,  # RecursionError
                                  b'{"a": ' + b"9" * 5000 + b"}"],  # over 4300 digits
                         ids=["nested", "long-integer"])
def test_checkpoint_metadata_json_cannot_decode_is_rejected_at_its_start(meta, tmp_path,
                                                                         capsys):
    """Well-formed JSON that ``json.loads`` still refuses; ``json.dumps``
    writes neither, so the checkpoint is built from raw bytes."""
    path = tmp_path / "c.ckpt"
    path.write_bytes(train_mod.CHECKPOINT_MAGIC
                     + struct.pack("<IQ", train_mod.CHECKPOINT_VERSION, len(meta)) + meta
                     + struct.pack("<I", 0))
    with pytest.raises(CheckpointFormatError, match="^metadata cannot be read: ") as err:
        load_checkpoint(str(path))
    assert err.value.offset == 16  # magic, version and length
    assert main(["eval", "--ckpt", str(path)]) == EXIT_CHECKPOINT
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith("checkpoint error: metadata cannot be read: ")
    assert line.endswith("(byte offset 16)")


def test_checkpoint_empty_tensor_with_a_huge_dim_round_trips(tmp_path):
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(Checkpoint({"w": np.zeros((0, 2**32 - 1))}, {}), path)
    assert load_checkpoint(path).tensors["w"].shape == (0, 2**32 - 1)


def test_final_metrics_reuse_last_epoch(blob_env, monkeypatch):
    train, test, teacher_spec, student_spec = blob_env
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(train_mod, "evaluate", counting)
    optim = OptimSpec(lr=0.1, epochs=2, seed=4)
    t_ckpt, t_logs = train_teacher(teacher_spec, train, test, optim, BatchPlan(32, 4))
    s_ckpt, s_logs = distill(t_ckpt, student_spec, train, test, DistillConfig(proj_dim=4),
                             optim, BatchPlan(32, 4))
    assert len(calls) == 2 * 2 * optim.epochs  # train and test, once per epoch
    for ckpt, logs in ((t_ckpt, t_logs), (s_ckpt, s_logs)):
        final = ckpt.metadata["final_metrics"]
        assert (final["train_acc"], final["test_acc"]) == (logs[-1].train_acc,
                                                           logs[-1].test_acc)
        model = restore_model(ckpt)
        assert final["test_acc"] == evaluate(model, test, stats_from_metadata(ckpt.metadata),
                                             32)


@pytest.fixture(scope="module")
def blob_teacher(blob_env):
    train, test, teacher_spec, _ = blob_env
    ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=2, seed=1),
                            BatchPlan(32, 1))
    return ckpt


@pytest.fixture(scope="module")
def cli_blob_env():
    """The CLI's blob shapes (4 classes, 32 dims, the shipped MLP pair) on 80 rows."""
    train, test = synth_blob_split(4, 20, 10, 32, seed=42, std=0.1, separation=0.3)
    teacher_spec, student_spec = mlp_pair((1, 1, 32), 4)
    t_ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.05, epochs=2, seed=1),
                              BatchPlan(32, 1))
    return train, test, t_ckpt, student_spec


def _distill_both_ways(monkeypatch, tmp_path, *args):
    """Checkpoint bytes and epoch rows of ``distill(*args)``, first with the
    teacher's outputs precomputed, then with the teacher run on every batch."""
    out = []
    for name in ("precomputed", "per_step"):
        if name == "per_step":
            monkeypatch.setattr(train_mod, "_frozen_teacher_outputs", lambda *a: None)
        ckpt, logs = distill(*args)
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(ckpt, str(path))
        out.append((path.read_bytes(), [log.row() for log in logs]))
    return out


@pytest.mark.parametrize("batch_size", [33, 40, 128])  # 80 rows: tails 14, 0, none
def test_precomputed_teacher_outputs_match_per_step_forward(batch_size, cli_blob_env,
                                                            monkeypatch, tmp_path):
    train, test, t_ckpt, student_spec = cli_blob_env
    precomputed, per_step = _distill_both_ways(
        monkeypatch, tmp_path, t_ckpt, student_spec, train, test, DistillConfig(proj_dim=16),
        OptimSpec(lr=0.05, epochs=3, seed=3), BatchPlan(batch_size, 3))
    assert precomputed == per_step


def test_precomputed_convnet_teacher_outputs_match_per_step_forward(rng, monkeypatch,
                                                                    tmp_path):
    from dcd.data import Dataset
    images = rng.uniform(0, 1, (28, 2, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 2, 28)
    train = Dataset(images[:20], labels[:20], 2, "synthimg-train")
    test = Dataset(images[20:], labels[20:], 2, "synthimg-test")
    t_ckpt, _ = train_teacher(ModelSpec("convnet", (6, 8), 2, (2, 8, 8)), train, test,
                              OptimSpec(lr=0.1, epochs=1, seed=0), BatchPlan(8, 0))
    precomputed, per_step = _distill_both_ways(
        monkeypatch, tmp_path, t_ckpt, ModelSpec("convnet", (3, 4), 2, (2, 8, 8)), train,
        test, DistillConfig(proj_dim=4), OptimSpec(lr=0.05, epochs=2, seed=1),
        BatchPlan(8, 1))
    assert precomputed == per_step


def _assert_within_rounding_of_per_step_forward(monkeypatch, *args):
    """The precomputed teacher outputs of every training row lie within
    1e-13 of a step's live forward, and ``distill(*args)`` with them
    within 1e-12 of a run that calls the teacher on every batch."""
    t_ckpt, _, train, _, _, _, plan = args
    teacher = restore_model(t_ckpt)
    stats = stats_from_metadata(t_ckpt.metadata)
    feats, logits = train_mod._frozen_teacher_outputs(teacher, train, stats,
                                                      plan.batch_size)
    for batch in batches(train, plan, 0, stats):
        f, z = teacher.forward(batch.images)
        assert np.allclose(f.data, feats[batch.index], rtol=0, atol=1e-13)
        assert np.allclose(z.data, logits[batch.index], rtol=0, atol=1e-13)
    precomputed, _ = distill(*args)
    with monkeypatch.context() as patched:
        patched.setattr(train_mod, "_frozen_teacher_outputs", lambda *a: None)
        per_step, _ = distill(*args)
    for name, arr in per_step.tensors.items():
        assert np.allclose(precomputed.tensors[name], arr, rtol=0, atol=1e-12), name


def test_precomputed_teacher_outputs_within_rounding_of_per_step_forward(
        blob_env, blob_teacher, monkeypatch):
    """Some BLAS builds round a row of a narrow matmul (here the 2-class
    logits) differently by the row's position in a 17-row batch, so the
    per-step teacher outputs of a row can differ by an ulp from step to
    step; the precomputed outputs are one fixed rounding of each row."""
    train, test, _, student_spec = blob_env
    _assert_within_rounding_of_per_step_forward(
        monkeypatch, blob_teacher, student_spec, train, test, DistillConfig(proj_dim=4),
        OptimSpec(lr=0.02, epochs=3, seed=3), BatchPlan(17, 3))


def test_precomputed_teacher_outputs_within_rounding_of_per_step_forward_at_one_row_tail(
        cli_blob_env, monkeypatch):
    """At batch size 79 the CLI blob env's 80 rows leave a 1-row tail.  A
    step runs it through 1-row matmuls, but its row was precomputed in a
    79-row window, and BLAS may pick its kernel by row count, so the
    outputs can differ in the last bits."""
    train, test, t_ckpt, student_spec = cli_blob_env
    _assert_within_rounding_of_per_step_forward(
        monkeypatch, t_ckpt, student_spec, train, test, DistillConfig(proj_dim=16),
        OptimSpec(lr=0.05, epochs=3, seed=3), BatchPlan(79, 3))


@pytest.mark.parametrize("augment,epochs,batch_size,rows", [
    ("none", 3, 17, 120),  # one pass over the 120 rows, whatever the batch size
    ("none", 3, 53, 120),
    ("none", 3, 40, 120),
    ("none", 3, 128, 120),
    ("flip", 3, 17, 3 * 120),
    ("none", 0, 17, 0),
])
def test_teacher_forward_rows(augment, epochs, batch_size, rows, blob_env, blob_teacher,
                              monkeypatch):
    train, test, _, student_spec = blob_env
    seen = []

    def counting_restore(ckpt):
        teacher = restore_model(ckpt)
        forward = teacher.forward

        def counted(images):
            seen.append(images.shape[0])
            return forward(images)
        teacher.forward = counted
        return teacher

    monkeypatch.setattr(train_mod, "restore_model", counting_restore)
    distill(blob_teacher, student_spec, train, test, DistillConfig(proj_dim=4),
            OptimSpec(lr=0.02, epochs=epochs, seed=3), BatchPlan(batch_size, 3, augment))
    assert sum(seen) == rows


def test_teacher_forward_stays_off_the_tape(blob_env, blob_teacher, monkeypatch):
    """Cached rows, a short tail's included, and an augmented batch's teacher
    forward both leave the step's tape with the same node count, for an MLP
    and a ConvNet teacher."""
    train, test, _, student_spec = blob_env
    rng = np.random.default_rng(7)
    images = rng.uniform(0, 1, (28, 2, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 2, 28)
    img_train = Dataset(images[:20], labels[:20], 2, "synthimg-train")
    img_test = Dataset(images[20:], labels[20:], 2, "synthimg-test")
    conv_teacher, _ = train_teacher(ModelSpec("convnet", (6, 8), 2, (2, 8, 8)), img_train,
                                    img_test, OptimSpec(lr=0.1, epochs=1, seed=0),
                                    BatchPlan(8, 0))
    nodes = []

    def recording(tape, params):
        nodes[-1].append(len(tape.nodes))
        collect_grads(tape, params)

    monkeypatch.setattr(train_mod, "collect_grads", recording)
    # 120 rows in batches of 50 and 20 rows in batches of 8: a short tail each
    for teacher, spec, splits, batch_size in (
            (blob_teacher, student_spec, (train, test), 50),
            (conv_teacher, ModelSpec("convnet", (3, 4), 2, (2, 8, 8)), (img_train, img_test), 8)):
        nodes.append([])
        for augment in ("none", "flip"):
            distill(teacher, spec, *splits, DistillConfig(proj_dim=4),
                    OptimSpec(lr=0.02, epochs=1, seed=3), BatchPlan(batch_size, 3, augment))
        assert len(nodes[-1]) == 2 * 3
        assert len(set(nodes[-1])) == 1, nodes


def test_distill_zero_epochs_returns_initialized_student(blob_env, blob_teacher,
                                                          monkeypatch):
    train, test, _, student_spec = blob_env
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(train_mod, "evaluate", counting)
    cfg = DistillConfig(proj_dim=4, tau_init=1.5)
    ckpt, logs = distill(blob_teacher, student_spec, train, test, cfg,
                         OptimSpec(lr=0.02, epochs=0, seed=3), BatchPlan(32, 3))
    assert logs == []
    assert len(calls) == 2
    fresh = init_weights(student_spec, 3)
    stats = stats_from_metadata(blob_teacher.metadata)
    final = ckpt.metadata["final_metrics"]
    assert final["train_acc"] == evaluate(fresh, train, stats, 32)
    assert final["test_acc"] == evaluate(fresh, test, stats, 32)
    assert final["tau"] == cfg.tau_init and "b" not in final
    assert float(ckpt.tensors["temperature.tau"]) == cfg.tau_init
    assert float(ckpt.tensors["temperature.b"]) == 0.0


@pytest.mark.parametrize("learn_temperature", [True, False])
def test_distill_hands_sgd_step_no_bias(blob_env, blob_teacher, monkeypatch, learn_temperature):
    """The optimizer sees tau only when it is learned, and never ``temperature.b``,
    which the checkpoint stores as the constant 0.0 the loss adds."""
    train, test, _, student_spec = blob_env
    names = set()

    def recording(params, *args):
        names.update(p.name for p in params)
        return sgd_step(params, *args)

    monkeypatch.setattr(train_mod, "sgd_step", recording)
    ckpt, _ = distill(blob_teacher, student_spec, train, test,
                      DistillConfig(proj_dim=4, learn_temperature=learn_temperature),
                      OptimSpec(lr=0.02, epochs=1, seed=3), BatchPlan(32, 3))
    trained = {n for n in ckpt.tensors if n.startswith(("model.", "head."))}
    assert names == trained | ({"temperature.tau"} if learn_temperature else set())
    assert ckpt.tensors["temperature.b"].shape == () and ckpt.tensors["temperature.b"] == 0.0


def test_dead_student_row_is_clamped_not_a_divergence(blob_env, blob_teacher):
    """A student row whose features are all zero projects to zero; training
    clamps it, as torch's F.normalize does, and finishes with finite tensors."""
    train, test, _, student_spec = blob_env
    # stats (0, 1) keep an all-zero image at zero through standardization
    teacher = Checkpoint(blob_teacher.tensors,
                         {**blob_teacher.metadata, "channel_mean": [0.0], "channel_std": [1.0]})
    images = train.images.copy()
    images[0] = 0.0
    dead = Dataset(images, train.labels, train.class_count, "dead-row")
    optim = OptimSpec(lr=0.05, epochs=2, seed=3)
    # zero input and zero initial biases: row 0's first-step features are all zero
    feats, _ = init_weights(student_spec, optim.seed).forward(Tensor(images[:1]))
    assert not feats.data.any()
    ckpt, logs = distill(teacher, student_spec, dead, test, DistillConfig(proj_dim=4), optim,
                         BatchPlan(len(dead), 3))  # one batch: row 0 is in step 0
    assert len(logs) == 2
    assert all(np.isfinite(t).all() for t in ckpt.tensors.values())


def test_dcd_kd_step_records_25_tape_nodes(cli_blob_env, monkeypatch):
    """One DCD+KD step on the CLI blob shapes: 8 student-forward nodes (the
    reshape of the constant input images records none), 2 for the two
    heads' matmuls and 15 for the loss, whose embedding terms are one node
    that does the step's only normalization."""
    counts = []

    class CountingTape(train_mod.Tape):
        def backward(self, root):
            counts.append(len(self.nodes))
            assert not any(node.op == "l2_normalize_rows" for node in self.nodes)
            return super().backward(root)

    monkeypatch.setattr(train_mod, "Tape", CountingTape)
    train, test, t_ckpt, student_spec = cli_blob_env
    distill(t_ckpt, student_spec, train, test, DistillConfig(),
            OptimSpec(lr=0.05, epochs=1, seed=0), BatchPlan(32, 0))
    assert counts == [25] * 3


@pytest.mark.parametrize("family", ["mlp", "convnet"])
def test_loop_tape_gives_the_parameter_gradients_of_a_full_tape(family, cli_blob_env,
                                                                 monkeypatch):
    """The loop's tape tracks only the parameters; every DCD+KD step's
    parameter gradients equal, bit for bit, those of a tape tracking every
    tensor, which also differentiates the input images and teacher outputs."""
    if family == "mlp":
        train, test, t_ckpt, student_spec = cli_blob_env
        plan = BatchPlan(32, 0)
    else:
        rng = np.random.default_rng(7)
        images = rng.uniform(0, 1, (28, 2, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 2, 28)
        train = Dataset(images[:20], labels[:20], 2, "synthimg-train")
        test = Dataset(images[20:], labels[20:], 2, "synthimg-test")
        t_ckpt, _ = train_teacher(ModelSpec("convnet", (6, 8), 2, (2, 8, 8)), train, test,
                                  OptimSpec(lr=0.1, epochs=1, seed=0), BatchPlan(8, 0))
        student_spec = ModelSpec("convnet", (3, 4), 2, (2, 8, 8))
        plan = BatchPlan(8, 1, "flip")
    runs = []

    def recording(tape, params):
        collect_grads(tape, params)
        runs[-1].append([p.grad.copy() for p in params])

    monkeypatch.setattr(train_mod, "collect_grads", recording)
    for tape in (train_mod.Tape, lambda leaves: Tape()):
        monkeypatch.setattr(train_mod, "Tape", tape)
        runs.append([])
        distill(t_ckpt, student_spec, train, test, DistillConfig(proj_dim=4),
                OptimSpec(lr=0.05, epochs=1, seed=0), plan)
    leaves, full = runs
    assert len(leaves) == len(full) == 3
    for step_leaves, step_full in zip(leaves, full):
        assert len(step_leaves) == len(step_full)
        for a, b in zip(step_leaves, step_full):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_checkpoint_feeds_distill_like_memory_handoff(blob_env, tmp_path):
    train, test, teacher_spec, student_spec = blob_env
    t_ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=2, seed=5),
                              BatchPlan(32, 5))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(t_ckpt, path)
    reloaded = load_checkpoint(path)
    cfg = DistillConfig(proj_dim=4)
    optim = OptimSpec(lr=0.02, epochs=2, seed=6)
    a, _ = distill(t_ckpt, student_spec, train, test, cfg, optim, BatchPlan(32, 6))
    b, _ = distill(reloaded, student_spec, train, test, cfg, optim, BatchPlan(32, 6))
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_restore_model_round_trip(blob_env, tmp_path):
    train, test, teacher_spec, _ = blob_env
    ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=1, seed=2),
                            BatchPlan(32, 2))
    model = restore_model(ckpt)
    for p in model.parameters():
        assert np.array_equal(p.value.data, ckpt.tensors[p.name])


@pytest.mark.parametrize("spec", [ModelSpec("mlp", (5, 4), 3, (1, 1, 6)),
                                  ModelSpec("convnet", (2, 3), 3, (2, 8, 8))])
def test_restore_model_draws_nothing(spec, monkeypatch):
    """Each parameter is a copy of its stored tensor; no generator is made."""
    from dataclasses import asdict
    ckpt = Checkpoint({p.name: p.value.data for p in init_weights(spec, 3).parameters()},
                      {"model_spec": asdict(spec)})

    def no_rng(*args, **kwargs):
        raise AssertionError("restore_model asked for a random generator")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    model = restore_model(ckpt)
    assert [p.name for p in model.parameters()] == list(ckpt.tensors)
    for p in model.parameters():
        assert np.array_equal(p.value.data, ckpt.tensors[p.name])
        assert not np.shares_memory(p.value.data, ckpt.tensors[p.name])


def test_restore_model_missing_tensor(blob_env):
    train, test, teacher_spec, _ = blob_env
    ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=0, seed=2),
                            BatchPlan(32, 2))
    del ckpt.tensors["model.classifier.bias"]
    with pytest.raises(CheckpointFormatError):
        restore_model(ckpt)


def test_convnet_distillation_end_to_end(rng):
    """Tiny image pipeline: conv teacher/student, augmentation, projections."""
    from dcd.data import Dataset
    images = rng.uniform(0, 1, (48, 2, 8, 8)).astype(np.float32)
    # class 0: bright top half; class 1: bright bottom half
    labels = rng.integers(0, 2, 48)
    images[labels == 0, :, :4, :] += 1.0
    images[labels == 1, :, 4:, :] += 1.0
    images = np.clip(images, 0, 2) / 2.0
    train = Dataset(images[:32], labels[:32], 2, "synthimg-train")
    test = Dataset(images[32:], labels[32:], 2, "synthimg-test")
    teacher_spec = ModelSpec("convnet", (6, 8), 2, (2, 8, 8))
    student_spec = ModelSpec("convnet", (3, 4), 2, (2, 8, 8))
    t_ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=4, seed=0),
                              BatchPlan(16, 0, augment="flip+crop"))
    cfg = DistillConfig(proj_dim=4)
    ckpt, logs = distill(t_ckpt, student_spec, train, test, cfg,
                         OptimSpec(lr=0.05, epochs=4, seed=1),
                         BatchPlan(16, 1, augment="flip"))
    assert all(np.isfinite(log.total) for log in logs)
    assert logs[-1].total < logs[0].total
    assert ckpt.metadata["final_metrics"]["test_acc"] >= 50.0
    assert 0.0 <= float(ckpt.tensors["temperature.tau"]) <= cfg.tau_max


def test_distill_monotone_sanity_on_shipped_blob_recipe(blob_recipe_teacher,
                                                       blob_recipe_student):
    from dcd import recipes
    _, t_logs = blob_recipe_teacher
    assert t_logs[-1].total < t_logs[0].total
    ckpt, logs = blob_recipe_student(recipes.blob_distill_config(), 0)
    assert logs[-1].total < logs[0].total


def test_epoch_csv_schema(tmp_path, blob_env):
    train, test, teacher_spec, _ = blob_env
    _, logs = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=2, seed=2),
                            BatchPlan(32, 2))
    path = str(tmp_path / "epochs.csv")
    write_epoch_csv(logs, path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "epoch,sup,distill_kl,contrast,consist,total,tau,train_acc,test_acc"
    assert len(lines) == 3


@pytest.fixture
def blas_sets(monkeypatch):
    """Each thread count training sets on OpenBLAS, in order, and the count
    it started with."""
    control = ad._blas()
    if not control:
        pytest.skip("numpy's BLAS has no OpenBLAS thread control")
    get, put = control
    sets = []
    monkeypatch.setattr(ad, "_BLAS", (get, lambda n: sets.append(n) or put(n)))
    return sets, ad.blas_threads()


def tiny_convnet_data(rng):
    images = rng.uniform(0, 1, (48, 2, 8, 8)).astype(np.float32)
    labels = np.arange(48, dtype=np.int64) % 2
    return Dataset(images[:32], labels[:32], 2, "train"), Dataset(images[32:], labels[32:], 2, "test")


def test_convnet_training_pins_blas_to_one_thread_and_restores_it(blas_sets, rng, monkeypatch):
    sets, start = blas_sets
    train, test = tiny_convnet_data(rng)
    spec = ModelSpec("convnet", (3, 4), 2, (2, 8, 8))
    optim = OptimSpec(lr=0.1, epochs=1, seed=0)
    seen = []
    loss = train_mod.cross_entropy_loss

    def observed(logits, labels):
        seen.append(ad.blas_threads())
        return loss(logits, labels)

    monkeypatch.setattr(train_mod, "cross_entropy_loss", observed)
    train_teacher(spec, train, test, optim, BatchPlan(16, 0))
    assert seen == [1, 1]  # one pin spans the whole fit and its evaluations
    assert sets == [1, start] and ad.blas_threads() == start

    def nan_on_second_step(logits, labels):
        return Tensor(np.float64("nan")) if len(seen) == 3 else observed(logits, labels)

    sets.clear()
    monkeypatch.setattr(train_mod, "cross_entropy_loss", nan_on_second_step)
    with pytest.raises(DivergenceError):
        train_teacher(spec, train, test, optim, BatchPlan(16, 0))
    assert sets == [1, start] and ad.blas_threads() == start


def test_mlp_fit_and_linear_probe_never_pin_blas(blas_sets, blob_env):
    sets, start = blas_sets
    train, test, teacher_spec, _ = blob_env
    ckpt, _ = train_teacher(teacher_spec, train, test, OptimSpec(lr=0.1, epochs=1, seed=0),
                            BatchPlan(32, 0))
    linear_probe(restore_model(ckpt), train, test, stats_from_metadata(ckpt.metadata),
                 epochs=1, seed=0)
    assert sets == [] and ad.blas_threads() == start
