"""CLI subcommands: config precedence, run artifacts, exit codes."""

import concurrent.futures
import csv
import dataclasses
import os
import shutil
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from dcd import autodiff as ad
from dcd import cli, models
from dcd.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, main,
                     parse_grid, resolve_config)
from dcd.errors import ConfigError, FormatError
from dcd.losses import DistillConfig
from dcd.train import OptimSpec, load_checkpoint, save_checkpoint

FAST = ["--set", "epochs=2", "--set", "blob_train_per_class=40",
        "--set", "blob_test_per_class=30", "--set", "blob_dim=8",
        "--set", "blob_std=0.02", "--set", "batch_size=32",
        "--set", "teacher_widths=32,32", "--set", "student_widths=16,16",
        "--set", "proj_dim=4", "--set", "lr=0.05", "--set", "schedule=",
        "--set", "blob_classes=2"]


def run_dir_complete(path):
    return all(os.path.exists(os.path.join(path, f))
               for f in ("config.txt", "epochs.csv", "DONE"))


@pytest.fixture(scope="module")
def teacher_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs") / "teacher")
    code = main(["train-teacher", "--out", out, "--seed", "1"] + FAST)
    assert code == EXIT_OK
    return out


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nalpha=0.9\nlr=0.2\n")
    cfg = resolve_config(str(cfg_file), {"lr": "0.3"})
    assert cfg["alpha"] == 0.9   # file value survives
    assert cfg["lr"] == 0.3      # flag override wins
    assert cfg["beta"] == 1.0    # default


def test_unknown_key_rejected_by_name(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("warp_speed=9\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(str(cfg_file), {})
    assert "warp_speed" in str(err.value)


def test_unknown_set_key_exits_config(tmp_path):
    out = str(tmp_path / "x")
    code = main(["train-teacher", "--out", out, "--set", "bogus=1"])
    assert code == EXIT_CONFIG
    code = main(["train-teacher", "--out", out, "--config", str(tmp_path / "missing.cfg")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("key,value", [("epochs", "abc"), ("schedule", "5"),
                                       ("learn_temperature", "maybe"), ("seed", "-1"),
                                       ("data_seed", "-1"), ("train_limit", "-5")])
def test_bad_set_value_exits_config_naming_key(key, value, tmp_path, capsys):
    code = main(["train-teacher", "--out", str(tmp_path / "x"), "--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err


def test_negative_seed_flag_exits_config_naming_key(tmp_path, capsys):
    code = main(["train-teacher", "--out", str(tmp_path / "x"), "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert "'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["train-teacher", "--seed", "abc"], "bad value 'abc' for 'seed'"),
    (["train-teacher", "--set", "seed=abc"], "bad value 'abc' for 'seed'"),
    (["distill", "--teacher", "t.ckpt", "--alpha", "x"], "bad value 'x' for 'alpha'"),
    (["distill", "--teacher", "t.ckpt", "--lambda", "x"], "bad value 'x' for 'lambda_kl'"),
    (["distill", "--teacher", "t.ckpt", "--fixed-tau", "x"], "argument --fixed-tau"),
    (["ablate", "--teacher", "t.ckpt", "--grid", "beta=1", "--jobs", "two"],
     "argument --jobs: invalid int value: 'two'"),
    (["distill"], "the following arguments are required: --teacher"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
], ids=["seed-flag", "seed-set", "alpha", "lambda", "fixed-tau", "jobs", "missing-flag",
        "unknown-command", "no-command"])
def test_usage_error_exits_config_with_one_line_and_writes_nothing(argv, message, tmp_path,
                                                                   monkeypatch):
    """argparse's usage errors exit 1 like every other config error, with one
    ``config error:`` line and no usage text; a config flag's value is parsed
    by its config key alone, so ``--seed abc`` fails as ``--set seed=abc`` does."""
    monkeypatch.chdir(tmp_path)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dcd.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and message in lines[0], \
        proc.stderr
    assert os.listdir(tmp_path) == []


def test_help_still_exits_ok(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distill", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--fixed-tau" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [("blob_std", "nan"), ("blob_std", "inf"),
                                       ("blob_std", "-0.1"), ("blob_separation", "nan"),
                                       ("blob_dim", "0"), ("blob_classes", "0"),
                                       ("blob_train_per_class", "0"),
                                       ("blob_test_per_class", "0")])
def test_bad_blob_value_exits_config(key, value, tmp_path, capsys):
    code = main(["train-teacher", "--out", str(tmp_path / "x")] + FAST
                + ["--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    assert "config error: blob" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x" / "teacher.ckpt")


def test_train_limit_on_blobs_exits_config(tmp_path, capsys):
    code = main(["train-teacher", "--out", str(tmp_path / "x")] + FAST
                + ["--set", "train_limit=5"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "train_limit" in err and "blob_train_per_class" in err
    assert not os.path.exists(tmp_path / "x" / "teacher.ckpt")


@pytest.mark.parametrize("key,value", [("probe_lr", "nan"), ("probe_lr", "-1"),
                                       ("probe_lr", "0"), ("probe_epochs", "-3")])
def test_bad_probe_value_exits_config(key, value, teacher_run, capsys):
    ckpt = os.path.join(teacher_run, "teacher.ckpt")
    code = main(["transfer", "--ckpt", ckpt] + FAST + ["--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    assert "config error: probe" in capsys.readouterr().err


def test_teacher_run_artifacts(teacher_run):
    assert run_dir_complete(teacher_run)
    assert os.path.exists(os.path.join(teacher_run, "teacher.ckpt"))
    with open(os.path.join(teacher_run, "config.txt")) as fh:
        echoed = fh.read()
    assert "seed=1" in echoed and "epochs=2" in echoed


def test_missing_data_path_exits_data(tmp_path):
    out = str(tmp_path / "x")
    code = main(["train-teacher", "--out", out, "--set", "dataset=cifar10",
                 "--data", str(tmp_path / "nowhere")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("case", ["config-not-utf8", "config-directory", "teacher-directory",
                                  "ckpt-directory", "out-under-file", "out-is-file",
                                  "cifar-batch-directory"])
def test_unusable_path_exits_with_one_typed_line(case, tmp_path, capsys):
    """A path the run cannot read or write exits 1 (the config file) or 2
    (any other path) with one message line naming it, never a traceback."""
    a_file = tmp_path / "a-file"
    a_file.write_bytes(b"alpha=\xff\n")  # not UTF-8
    a_dir = tmp_path / "a-dir"
    (a_dir / "data_batch_1.bin").mkdir(parents=True)
    out = str(tmp_path / "out")
    argv, bad, code = {
        "config-not-utf8": (["train-teacher", "--out", out, "--config", str(a_file)],
                            a_file, EXIT_CONFIG),
        "config-directory": (["train-teacher", "--out", out, "--config", str(a_dir)],
                             a_dir, EXIT_CONFIG),
        "teacher-directory": (["distill", "--teacher", str(a_dir), "--out", out], a_dir,
                              EXIT_DATA),
        "ckpt-directory": (["eval", "--ckpt", str(a_dir)], a_dir, EXIT_DATA),
        "out-under-file": (["train-teacher", "--out", str(a_file / "run")], a_file, EXIT_DATA),
        "out-is-file": (["train-teacher", "--out", str(a_file)], a_file, EXIT_DATA),
        "cifar-batch-directory": (["train-teacher", "--out", out, "--set", "dataset=cifar10",
                                   "--data", str(a_dir)], a_dir, EXIT_DATA),
    }[case]
    assert main(argv + FAST) == code
    lines = capsys.readouterr().err.splitlines()
    prefix = "config error: " if code == EXIT_CONFIG else "data error: "
    assert len(lines) == 1 and lines[0].startswith(prefix) and str(bad) in lines[0], lines


def test_mnist_label_above_9_exits_data_naming_its_offset(tmp_path, capsys):
    from dcd.data import Dataset, serialize_mnist_idx
    images = np.zeros((4, 1, 4, 4), np.float32)
    for prefix, labels in (("train", [0, 1, 200, 3]), ("t10k", [0, 1, 2, 3])):
        image_bytes, label_bytes = serialize_mnist_idx(Dataset(images, np.array(labels), 10, "x"))
        (tmp_path / f"{prefix}-images-idx3-ubyte").write_bytes(image_bytes)
        (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(label_bytes)
    out = tmp_path / "run"
    assert main(["train-teacher", "--out", str(out), "--data", str(tmp_path),
                 "--set", "dataset=mnist", "--set", "epochs=1"]) == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: label 200 exceeds 9 (byte offset 10)"]
    assert not (out / "teacher.ckpt").exists()


def test_out_of_memory_exits_config_with_one_line(teacher_run, tmp_path, capsys, monkeypatch):
    """An array too large for the machine, its size set by a config value, ends
    in one ``config error:`` line; the huge allocation itself is simulated."""
    kaiming = models._kaiming_uniform

    def refuse_huge(rng, shape, fan_in):
        if max(shape) >= 10 ** 8:
            raise MemoryError(f"Unable to allocate 381. GiB for an array with shape {shape} "
                              f"and data type float64")
        return kaiming(rng, shape, fan_in)
    monkeypatch.setattr(models, "_kaiming_uniform", refuse_huge)
    argv = ["distill", "--teacher", os.path.join(teacher_run, "teacher.ckpt"),
            "--out", str(tmp_path / "run")] + FAST + ["--set", "proj_dim=100000000"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: out of memory: Unable to allocate 381. GiB for an array with shape "
        "(32, 100000000) and data type float64"]


@pytest.mark.parametrize("empty", ["training", "test"])
def test_empty_split_exits_data_naming_split(empty, tmp_path, capsys):
    from dcd.data import Dataset, serialize_cifar10
    rows = (np.zeros((4, 3, 32, 32), np.float32), np.zeros(4, np.int64))
    record = serialize_cifar10(Dataset(*rows, 10, "x"))
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(b"" if empty == "training" else record)
    (tmp_path / "test_batch.bin").write_bytes(b"" if empty == "test" else record)
    out = tmp_path / "x"
    code = main(["train-teacher", "--out", str(out), "--data", str(tmp_path),
                 "--set", "dataset=cifar10", "--set", "epochs=1"])
    assert code == EXIT_DATA
    assert f"{empty} split" in capsys.readouterr().err
    assert not (out / "teacher.ckpt").exists()


def test_teacher_determinism_same_seed(tmp_path):
    logs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["train-teacher", "--out", out, "--seed", "5"] + FAST) == EXIT_OK
        with open(os.path.join(out, "epochs.csv")) as fh:
            logs.append(fh.read())
    assert logs[0] == logs[1]


def test_distill_and_eval_and_transfer(teacher_run, tmp_path):
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out = str(tmp_path / "student")
    code = main(["distill", "--teacher", teacher_ckpt, "--out", out, "--seed", "2",
                 "--alpha", "0.5", "--beta", "1.0", "--lambda", "1.0"] + FAST)
    assert code == EXIT_OK
    assert run_dir_complete(out)
    student_ckpt = os.path.join(out, "student.ckpt")
    assert main(["eval", "--ckpt", student_ckpt] + FAST) == EXIT_OK
    assert main(["transfer", "--ckpt", student_ckpt, "--set", "probe_epochs=3"] + FAST) \
        == EXIT_OK


def test_distill_fixed_tau_mode(teacher_run, tmp_path):
    from dcd.train import load_checkpoint
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out = str(tmp_path / "fixed")
    code = main(["distill", "--teacher", teacher_ckpt, "--out", out, "--seed", "2",
                 "--fixed-tau", "0.07"] + FAST)
    assert code == EXIT_OK
    ckpt = load_checkpoint(os.path.join(out, "student.ckpt"))
    assert abs(float(ckpt.tensors["temperature.tau"]) - np.log(1 / 0.07)) < 1e-12
    assert float(ckpt.tensors["temperature.b"]) == 0.0


@pytest.mark.parametrize("fixed_tau", ["2", "nan", "0"])
def test_fixed_tau_outside_unit_interval_exits_config_naming_flag(fixed_tau, teacher_run,
                                                                  tmp_path, capsys):
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    code = main(["distill", "--teacher", teacher_ckpt, "--out", str(tmp_path / "run"),
                 "--fixed-tau", fixed_tau] + FAST)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--fixed-tau" in err and str(float(fixed_tau)) in err and "tau_init" not in err, err
    assert not (tmp_path / "run").exists()


def test_default_config_gives_the_default_distill_config():
    assert cli._distill_config(resolve_config(None, {})) == DistillConfig()


# the keys whose CLI default is not the library's: the CLI steps the rate down at
# epochs 15 and 23, while a library OptimSpec keeps it constant
CLI_ONLY_DEFAULTS = {"schedule"}


@pytest.mark.parametrize("cls", [DistillConfig, OptimSpec])
def test_every_config_dataclass_field_is_a_config_key_with_its_default(cls):
    for field in dataclasses.fields(cls):
        assert field.name in cli.CONFIG_KEYS, field.name
        if field.default is not dataclasses.MISSING and field.name not in CLI_ONLY_DEFAULTS:
            assert cli.CONFIG_KEYS[field.name][1] == field.default, field.name


@pytest.mark.parametrize("fixed_tau", [[], ["--fixed-tau", "0.07"]], ids=["learned", "fixed"])
def test_distill_prints_no_bias_and_stores_it_as_zero(fixed_tau, teacher_run, tmp_path,
                                                       capsys):
    out = tmp_path / "student"
    assert main(["distill", "--teacher", os.path.join(teacher_run, "teacher.ckpt"),
                 "--out", str(out), "--seed", "2"] + fixed_tau + FAST) == EXIT_OK
    printed = capsys.readouterr().out
    assert "tau=" in printed and "b=" not in printed
    ckpt = load_checkpoint(str(out / "student.ckpt"))
    assert float(ckpt.tensors["temperature.b"]) == 0.0
    assert "b" not in ckpt.metadata["final_metrics"]
    with open(out / "epochs.csv") as fh:
        assert "b" not in fh.readline().strip().split(",")


def test_b_init_is_an_unknown_config_key(teacher_run, tmp_path, capsys):
    out = tmp_path / "student"
    assert main(["distill", "--teacher", os.path.join(teacher_run, "teacher.ckpt"),
                 "--out", str(out)] + FAST + ["--set", "b_init=0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown configuration key 'b_init'\n"
    assert not out.exists()


def test_student_with_a_nonzero_stored_bias_still_loads_evaluates_and_exports(
        student_run, tmp_path, capsys):
    """A checkpoint from before the bias left training: ``temperature.b`` is
    0.25 (``b_init=0.25``), and its metadata holds that key and the old name
    of ``detach_consistency``."""
    ckpt = load_checkpoint(os.path.join(student_run, "student.ckpt"))
    ckpt.tensors["temperature.b"] = np.asarray(0.25)
    cfg = ckpt.metadata["distill_config"]
    cfg["b_init"] = 0.25
    cfg["detach_consistency_target"] = cfg.pop("detach_consistency")
    ckpt.metadata["final_metrics"]["b"] = 0.25
    old = str(tmp_path / "old.ckpt")
    save_checkpoint(ckpt, old)
    assert float(load_checkpoint(old).tensors["temperature.b"]) == 0.25
    csv_path = tmp_path / "emb.csv"
    assert main(["eval", "--ckpt", old] + FAST) == EXIT_OK
    assert main(["export-embeddings", "--ckpt", old, "--csv", str(csv_path)] + FAST) == EXIT_OK
    out = capsys.readouterr().out
    assert "top1_accuracy: " in out and f"to {csv_path}" in out
    assert csv_path.stat().st_size > 0


def test_distill_bad_checkpoint_exits_4(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    out = str(tmp_path / "student")
    code = main(["distill", "--teacher", str(bad), "--out", out] + FAST)
    assert code == EXIT_CHECKPOINT


def test_zero_teacher_features_exit_divergence(teacher_run, tmp_path, capsys):
    ckpt = load_checkpoint(os.path.join(teacher_run, "teacher.ckpt"))
    for arr in ckpt.tensors.values():
        arr[...] = 0.0
    zeroed = str(tmp_path / "zeroed.ckpt")
    save_checkpoint(ckpt, zeroed)
    code = main(["distill", "--teacher", zeroed, "--out", str(tmp_path / "s")] + FAST)
    assert code == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert "teacher projection head" in err and "(step 0)" in err


@pytest.mark.parametrize("command", ["eval", "distill", "ablate"])
def test_class_count_mismatch_exits_config_naming_both(command, teacher_run, tmp_path,
                                                       capsys):
    teacher = os.path.join(teacher_run, "teacher.ckpt")  # a 2-class teacher
    argv = {"eval": ["eval", "--ckpt", teacher],
            "distill": ["distill", "--teacher", teacher, "--out", str(tmp_path / "run")],
            "ablate": ["ablate", "--teacher", teacher, "--out", str(tmp_path / "run"),
                       "--grid", "beta=0,1"]}[command]
    assert main(argv + FAST + ["--set", "blob_classes=4"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "has 2 classes" in err and "has 4" in err
    assert not os.path.exists(tmp_path / "run" / "DONE")
    assert not os.path.exists(tmp_path / "run" / "summary.csv")


def test_transfer_dimension_mismatch_message(teacher_run, tmp_path, capsys):
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    code = main(["transfer", "--ckpt", teacher_ckpt] + FAST
                + ["--set", "blob_dim=6"])
    assert code == EXIT_CONFIG
    assert "shape" in capsys.readouterr().err


@pytest.fixture(scope="module")
def flat_student_and_mnist(tmp_path_factory):
    """A 10-class MLP student trained on (1, 1, 784) blobs, and an MNIST
    directory of (1, 28, 28) images: as many pixels, another shape."""
    from dcd.data import Dataset, serialize_mnist_idx
    root = tmp_path_factory.mktemp("flat")
    blobs = FAST + ["--set", "blob_classes=10", "--set", "blob_dim=784", "--set", "lr=0.01"]
    assert main(["train-teacher", "--out", str(root / "teacher")] + blobs) == EXIT_OK
    assert main(["distill", "--teacher", str(root / "teacher" / "teacher.ckpt"),
                 "--out", str(root / "student")] + blobs) == EXIT_OK
    rng = np.random.default_rng(6)
    for prefix, rows in (("train", 20), ("t10k", 10)):
        images = (rng.integers(0, 256, (rows, 1, 28, 28)) / 255.0).astype(np.float32)
        files = serialize_mnist_idx(Dataset(images, rng.integers(0, 10, rows), 10, "x"))
        (root / f"{prefix}-images-idx3-ubyte").write_bytes(files[0])
        (root / f"{prefix}-labels-idx1-ubyte").write_bytes(files[1])
    return str(root / "student" / "student.ckpt"), root


@pytest.mark.parametrize("command", ["eval", "transfer", "export-embeddings"])
def test_mlp_on_images_of_another_shape_exits_config_naming_both(
        command, flat_student_and_mnist, tmp_path, capsys):
    """Every command that runs a checkpoint checks the input shape alike,
    also where the pixel counts agree."""
    ckpt, mnist = flat_student_and_mnist
    csv_path = tmp_path / "emb.csv"
    argv = [command, "--ckpt", ckpt, "--set", "dataset=mnist", "--data", str(mnist)]
    if command == "export-embeddings":
        argv += ["--csv", str(csv_path)]
    assert main(argv) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert "(1, 1, 784)" in lines[0] and "(1, 28, 28)" in lines[0], lines
    assert not csv_path.exists()


def test_parse_grid():
    cells = parse_grid("alpha=0.1,0.5|beta=1,100")
    assert len(cells) == 4
    assert {"alpha": 0.1, "beta": 1.0} in cells
    with pytest.raises(ConfigError):
        parse_grid("gamma=1")
    assert parse_grid("beta=1") == [{"beta": 1.0}]
    for bad in ("alpha=abc", "alpha=", "alpha=1|alpha=2"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


# b_init is no longer a config key, so a non-finite value for it now fails as an
# unknown key: still exit 1, naming the key, before anything is written
@pytest.mark.parametrize("key", ["lr", "weight_decay", "alpha", "beta", "lambda_kl",
                                 "tau_max", "kd_temperature", "b_init"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_hyperparameter_exits_config(key, value, teacher_run, tmp_path, capsys):
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    code = main(["distill", "--teacher", teacher_ckpt, "--out", str(tmp_path / "s")] + FAST
                + ["--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "s", "student.ckpt"))


def test_nan_lr_or_schedule_rejected_before_teacher_training(tmp_path):
    for setting in ("lr=nan", "schedule=1:nan"):
        out = str(tmp_path / setting.split("=")[0])
        assert main(["train-teacher", "--out", out] + FAST + ["--set", setting]) == EXIT_CONFIG
        assert not os.path.exists(os.path.join(out, "teacher.ckpt"))


DIVERGE = ["--set", "lr=1e200", "--set", "epochs=3"]
# a diverging step overflows the forward pass before its loss turns non-finite
OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered:RuntimeWarning")


@OVERFLOWS
@pytest.mark.parametrize("command", [["train-teacher"], ["distill", "--beta", "0"],
                                     ["distill", "--beta", "1"]])
def test_diverging_loss_exits_divergence_without_checkpoint(command, teacher_run, tmp_path,
                                                            capsys):
    if command[0] == "distill":
        command = command + ["--teacher", os.path.join(teacher_run, "teacher.ckpt")]
    out = tmp_path / "run"
    assert main(command + ["--out", str(out)] + FAST + DIVERGE) == EXIT_DIVERGENCE
    assert "divergence:" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["config.txt"]  # no checkpoint, epochs.csv or DONE


@OVERFLOWS
def test_diverging_ablate_cells_record_divergence(teacher_run, tmp_path):
    out = tmp_path / "abl"
    code = main(["ablate", "--teacher", os.path.join(teacher_run, "teacher.ckpt"),
                 "--out", str(out), "--grid", "beta=0,1"] + FAST + DIVERGE)
    assert code == EXIT_DIVERGENCE
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(row["error"].startswith("DivergenceError: ") for row in rows), rows


# one step leaves finite weights near 1e200, whose eval logits overflow
HUGE_STEP = ["--set", "lr=1e200", "--set", "epochs=1", "--set", "blob_train_per_class=20",
             "--set", "blob_test_per_class=5"]


def test_non_finite_eval_logits_exit_divergence_without_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train-teacher", "--out", str(out)] + HUGE_STEP) == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert "evaluate:" in err and "non-finite" in err and "(step 0)" in err
    assert sorted(os.listdir(out)) == ["config.txt"]


def test_non_finite_eval_logits_fail_every_ablate_cell(tmp_path):
    teacher = tmp_path / "teacher"
    assert main(["train-teacher", "--out", str(teacher)] + HUGE_STEP[2:]) == EXIT_OK
    out = tmp_path / "abl"
    code = main(["ablate", "--teacher", str(teacher / "teacher.ckpt"), "--out", str(out),
                 "--grid", "beta=0,1"] + HUGE_STEP)
    assert code == EXIT_DIVERGENCE
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["test_acc"] for row in rows] == ["nan", "nan"]
    assert all(row["error"].startswith("DivergenceError: evaluate:") for row in rows), rows
    for cell in ("cell0-seed0", "cell1-seed0"):
        assert sorted(os.listdir(out / cell)) == ["config.txt"]


def test_eval_of_checkpoint_with_non_finite_logits_exits_divergence(teacher_run, tmp_path,
                                                                     capsys):
    ckpt = load_checkpoint(os.path.join(teacher_run, "teacher.ckpt"))
    for arr in ckpt.tensors.values():
        arr *= 1e200
    huge = str(tmp_path / "huge.ckpt")
    save_checkpoint(ckpt, huge)
    assert main(["eval", "--ckpt", huge] + FAST) == EXIT_DIVERGENCE
    captured = capsys.readouterr()
    assert "top1_accuracy" not in captured.out
    assert captured.err.startswith(f"divergence: checkpoint {huge!r}: evaluate:")


@pytest.mark.parametrize("command", [["train-teacher"], ["distill", "--beta", "0"],
                                     ["distill", "--beta", "1"]])
def test_diverging_run_prints_only_the_divergence_line(command, teacher_run, tmp_path):
    if command[0] == "distill":
        command = command + ["--teacher", os.path.join(teacher_run, "teacher.ckpt")]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dcd.cli"] + command
                          + ["--out", str(tmp_path / "run")] + FAST + DIVERGE,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_DIVERGENCE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("divergence: "), proc.stderr


@pytest.mark.parametrize("command,code,artifact", [
    (["train-teacher"], EXIT_OK, "DONE"),
    (["ablate", "--grid", "beta=0,1", "--jobs", "2"], EXIT_DIVERGENCE, "summary.csv"),
], ids=["train-teacher", "ablate"])
def test_closed_stdout_ends_the_output_not_the_run(command, code, artifact, teacher_run,
                                                   tmp_path):
    """A reader that closes stdout before the run prints (``dcd ... | head -0``)
    changes nothing but the output: the run writes its files and exits with
    its own code, and stderr holds no broken-pipe line.  Unbuffered, the
    pipe fails at the first write; buffered, at the flush that ends ``main``."""
    extra = FAST
    if command[0] == "ablate":  # every cell diverges, so the sweep exits 3
        command = command + ["--teacher", os.path.join(teacher_run, "teacher.ckpt")]
        extra = FAST + DIVERGE
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        out = tmp_path / f"run{len(unbuffered)}"
        proc = subprocess.Popen([sys.executable, "-m", "dcd.cli"] + command
                                + ["--out", str(out)] + extra, env={**env, **unbuffered},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == code, (unbuffered, err)
        assert "Broken pipe" not in err and "Exception ignored" not in err, (unbuffered, err)
        assert (out / artifact).exists()


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("args", [["--grid", "alpha=abc"], ["--grid", "alpha="],
                                  ["--grid", "alpha=nan"], ["--grid", "beta=0,inf"],
                                  ["--grid", "beta=1", "--seeds", "0"],
                                  ["--grid", "beta=1", "--jobs", "0"],
                                  ["--grid", "beta=1,1.0"], ["--grid", "beta=0,,1"]])
def test_bad_sweep_exits_config_before_any_run(args, teacher_run, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _NoPool)
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out = tmp_path / "abl"
    argv = ["ablate", "--teacher", teacher_ckpt, "--out", str(out), "--jobs", "2"] + args
    assert main(argv + FAST) == EXIT_CONFIG
    assert not out.exists()


def test_ablate_summary_rows(teacher_run, tmp_path):
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out = str(tmp_path / "abl")
    code = main(["ablate", "--teacher", teacher_ckpt, "--out", out,
                 "--grid", "beta=0.5,1", "--seeds", "2", "--jobs", "2"] + FAST)
    assert code == EXIT_OK
    with open(os.path.join(out, "summary.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("cell,alpha,beta,lambda_kl,seed,test_acc")
    assert len(lines) - 1 == 2 * 2  # |grid| x seeds
    for cell in ("cell0-seed0", "cell0-seed1", "cell1-seed0", "cell1-seed1"):
        assert run_dir_complete(os.path.join(out, cell))


def test_ablate_jobs_do_not_change_results(teacher_run, tmp_path, monkeypatch):
    """Workers run with fewer BLAS threads on the inputs this process checked,
    even when the teacher file is gone before they start; every run's files
    stay byte-identical."""
    sweep_inputs = cli._sweep_inputs

    def load_then_delete_teacher(cfg, teacher_path):
        shared = sweep_inputs(cfg, teacher_path)
        os.remove(teacher_path)
        return shared

    monkeypatch.setattr(cli, "_sweep_inputs", load_then_delete_teacher)
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        teacher_ckpt = tmp_path / f"teacher{jobs}.ckpt"
        shutil.copyfile(os.path.join(teacher_run, "teacher.ckpt"), teacher_ckpt)
        assert main(["ablate", "--teacher", str(teacher_ckpt), "--out", str(outs[jobs]),
                     "--grid", "beta=0,1", "--seeds", "2", "--jobs", jobs] + FAST) == EXIT_OK
        assert not teacher_ckpt.exists()
    for run in ("cell0-seed0", "cell0-seed1", "cell1-seed0", "cell1-seed1"):
        for name in ("student.ckpt", "epochs.csv"):
            assert (outs["1"] / run / name).read_bytes() == (outs["2"] / run / name).read_bytes()
    assert (outs["1"] / "summary.csv").read_text() == (outs["2"] / "summary.csv").read_text()


def test_sweep_workers_split_blas_threads_and_lanes(monkeypatch):
    """Each of two workers gets half the CPUs this process may run on as
    BLAS threads and as many conv lanes; this process keeps its own.  A
    forked worker runs the ``_ablation_run`` patched here, which reports
    them.  Under an affinity mask narrower than the machine (``taskset``, a
    cpuset) the mask is what is split, not ``cpu_count``."""
    if ad.blas_threads() is None:
        pytest.skip("numpy's OpenBLAS offers no thread control")
    before = (ad.blas_threads(), ad._LANES)
    monkeypatch.setattr(cli, "_ablation_run", lambda shared, task: (
        task[0], task[1], ad.blas_threads(), ad._LANES))
    tasks = [(cell, 0, None, DistillConfig(), None, None) for cell in range(4)]
    want = max(1, len(os.sched_getaffinity(0)) // 2)
    assert cli._run_in_workers(None, tasks, 2) == [(cell, 0, want, want) for cell in range(4)]
    assert (ad.blas_threads(), ad._LANES) == before
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli._run_in_workers(None, tasks, 2) == [(cell, 0, 1, 1) for cell in range(4)]
    assert (ad.blas_threads(), ad._LANES) == before


class _BreakingPool:
    """Runs the first ``ok`` tasks in this process, then breaks like a pool whose
    worker died: the next task's future fails and later submits raise."""

    ok = 0

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.shared, _threads = initargs
        self.broken = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        if self.broken:
            raise BrokenProcessPool("a worker died, pool unusable")
        future = concurrent.futures.Future()
        if self.ok > 0:
            self.ok -= 1
            future.set_result(cli._ablation_run(self.shared, task))
        else:
            self.broken = True
            future.set_exception(BrokenProcessPool("a worker died, pool unusable"))
        return future


@pytest.mark.parametrize("ok,expected", [(0, EXIT_DIVERGENCE), (1, EXIT_OK)])
def test_dead_worker_gives_failed_rows(ok, expected, teacher_run, tmp_path, monkeypatch):
    monkeypatch.setattr(_BreakingPool, "ok", ok)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _BreakingPool)
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out = tmp_path / "abl"
    code = main(["ablate", "--teacher", teacher_ckpt, "--out", str(out),
                 "--grid", "beta=0,1", "--seeds", "2", "--jobs", "2"] + FAST)
    assert code == expected
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    dispatched = [2, 3, 0, 1]  # the beta=1 rows go first
    for index, row in enumerate(rows):
        if index in dispatched[:ok]:
            assert row["error"] == ""
        else:
            assert row["error"] == "BrokenProcessPool: a worker died, pool unusable"
            assert row["test_acc"] == "nan"


class _RecordingPool(_BreakingPool):
    """Runs every task in this process and records the (cell, seed) of each
    submitted task in submission order."""

    ok = 100
    submitted: list = []

    def submit(self, fn, task):
        self.submitted.append(tuple(task[:2]))
        return super().submit(fn, task)


def test_sweep_submits_runs_with_projections_first(teacher_run, tmp_path, monkeypatch):
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out = tmp_path / "abl"
    assert main(["ablate", "--teacher", teacher_ckpt, "--out", str(out),
                 "--grid", "beta=0,1,0.5", "--seeds", "2", "--jobs", "2"] + FAST) == EXIT_OK
    # beta > 0 first, each group in grid order, then seed order
    assert _RecordingPool.submitted == [(1, 0), (1, 1), (2, 0), (2, 1), (0, 0), (0, 1)]
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["cell"], row["beta"], row["seed"], row["error"]) for row in rows] == [
        ("0", "0.0", "0", ""), ("0", "0.0", "1", ""), ("1", "1.0", "0", ""),
        ("1", "1.0", "1", ""), ("2", "0.5", "0", ""), ("2", "0.5", "1", "")]


class _SizedPool(_BreakingPool):
    """Runs every task in this process and records each pool's worker count
    and the BLAS threads each worker would get."""

    ok = 100
    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        super().__init__(max_workers, mp_context, initializer, initargs)
        self.sizes.append((max_workers, initargs[1]))


def test_sweep_forks_no_more_workers_than_cpus(teacher_run, tmp_path, monkeypatch):
    """The pool forks every worker at its first submit, so ``--jobs`` is
    capped at the CPUs of the affinity mask, as well as at the run count."""
    monkeypatch.setattr(_SizedPool, "sizes", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _SizedPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    for grid, seeds in (("beta=0,1", "2"), ("beta=1", "1")):
        assert main(["ablate", "--teacher", teacher_ckpt, "--out", str(tmp_path / grid),
                     "--grid", grid, "--seeds", seeds, "--jobs", "64"] + FAST) == EXIT_OK
    assert _SizedPool.sizes == [(2, 1), (1, 2)]


# A script calling the CLI with the beta != 0 runs' batch plans replaced by an
# object that kills the worker process unpickling it; those runs are submitted
# first, so the first worker dies on its first task: the tasks are pickled to
# the forked workers.  The script needs no ``__main__`` guard, since no worker
# imports it.
_CRASHING_SWEEP = """
import os, sys
from dcd import cli

class Crash:
    def __reduce__(self):
        return (os._exit, (7,))

plan = cli._plan
cli._plan = lambda cfg: Crash() if cfg["beta"] != 0.0 else plan(cfg)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_killed_worker_gives_failed_rows_without_hanging(tmp_path):
    # A teacher of about 0.5 MB: more than a pipe buffer holds.
    wide = FAST + ["--set", "teacher_widths=256,256"]
    assert main(["train-teacher", "--out", str(tmp_path / "t"), "--seed", "1"] + wide) == EXIT_OK
    teacher_ckpt = str(tmp_path / "t" / "teacher.ckpt")
    script = tmp_path / "crashing_sweep.py"
    script.write_text(_CRASHING_SWEEP)
    out = tmp_path / "abl"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(script), "ablate", "--teacher", teacher_ckpt,
                           "--out", str(out), "--grid", "beta=0,1", "--seeds", "2",
                           "--jobs", "2"] + wide,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (EXIT_OK, EXIT_DIVERGENCE), proc.stderr
    assert "Traceback" not in proc.stderr
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and all(None not in row for row in rows)  # no extra fields
    errors = [row["error"] for row in rows]
    assert all(error == "" or error.startswith("BrokenProcessPool: ") for error in errors[:2])
    assert all(error.startswith("BrokenProcessPool: ") for error in errors[2:])


def test_single_cell_grid_matches_plain_distill(teacher_run, tmp_path):
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out_abl = str(tmp_path / "abl1")
    assert main(["ablate", "--teacher", teacher_ckpt, "--out", out_abl,
                 "--grid", "beta=1.0", "--seeds", "1", "--seed", "3"] + FAST) == EXIT_OK
    out_plain = str(tmp_path / "plain")
    assert main(["distill", "--teacher", teacher_ckpt, "--out", out_plain,
                 "--seed", "3", "--beta", "1.0"] + FAST) == EXIT_OK
    with open(os.path.join(out_abl, "cell0-seed0", "epochs.csv")) as fh:
        abl_csv = fh.read()
    with open(os.path.join(out_plain, "epochs.csv")) as fh:
        plain_csv = fh.read()
    assert abl_csv == plain_csv


def test_export_embeddings_cmd(teacher_run, tmp_path):
    teacher_ckpt = os.path.join(teacher_run, "teacher.ckpt")
    out = str(tmp_path / "student")
    assert main(["distill", "--teacher", teacher_ckpt, "--out", out,
                 "--seed", "2"] + FAST) == EXIT_OK
    csv_path = str(tmp_path / "emb.csv")
    code = main(["export-embeddings", "--ckpt", os.path.join(out, "student.ckpt"),
                 "--csv", csv_path] + FAST)
    assert code == EXIT_OK
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("label,e0")
    assert len(lines) - 1 == 60  # test split row count


def test_cifar10_cli_path_with_constructed_binaries(tmp_path):
    """Full CLI run over the cifar10 loader using synthetic binary batches."""
    from dcd.data import Dataset, serialize_cifar10
    rng = np.random.default_rng(0)
    data_dir = tmp_path / "cifar"
    data_dir.mkdir()
    for i in range(1, 6):
        images = (rng.integers(0, 256, (8, 3, 32, 32)) / 255.0).astype(np.float32)
        ds = Dataset(images, rng.integers(0, 10, 8), 10, "x")
        (data_dir / f"data_batch_{i}.bin").write_bytes(serialize_cifar10(ds))
    test_images = (rng.integers(0, 256, (8, 3, 32, 32)) / 255.0).astype(np.float32)
    (data_dir / "test_batch.bin").write_bytes(
        serialize_cifar10(Dataset(test_images, rng.integers(0, 10, 8), 10, "x")))
    out = str(tmp_path / "teacher")
    code = main(["train-teacher", "--out", out, "--data", str(data_dir), "--seed", "1",
                 "--set", "dataset=cifar10", "--set", "teacher_family=convnet",
                 "--set", "teacher_widths=2,3", "--set", "epochs=1",
                 "--set", "batch_size=16", "--set", "train_limit=24",
                 "--set", "lr=0.01", "--set", "schedule=", "--set", "augment=flip+crop"])
    assert code == EXIT_OK
    assert run_dir_complete(out)


def test_train_limit_keeps_only_the_first_training_rows(tmp_path):
    from dcd.data import Dataset, serialize_cifar10
    rng = np.random.default_rng(0)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        images = (rng.integers(0, 256, (4, 3, 32, 32)) / 255.0).astype(np.float32)
        (tmp_path / name).write_bytes(
            serialize_cifar10(Dataset(images, rng.integers(0, 10, 4), 10, "x")))
    cfg = cli.resolve_config(None, {"dataset": "cifar10", "data_dir": str(tmp_path),
                                    "train_limit": "6"})
    train, test = cli.load_datasets(cfg)
    whole, _ = cli.load_datasets({**cfg, "train_limit": 0})
    assert (len(train), len(whole), len(test), train.name) == (6, 20, 4, "cifar10[:6]")
    assert train.images.tobytes() == whole.images[:6].tobytes()
    assert np.array_equal(train.labels, whole.labels[:6])
    assert train.images.base is None  # no view holding every row's floats


def test_verify_command_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "relative_improvement: 20.31" in out
    assert "[FAIL]" not in out


@pytest.fixture(scope="module")
def student_run(teacher_run, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs") / "student")
    assert main(["distill", "--teacher", os.path.join(teacher_run, "teacher.ckpt"),
                 "--out", out, "--seed", "2"] + FAST) == EXIT_OK
    return out


def _broken_copy(src, dst, how):
    """A copy of a checkpoint whose model gives non-finite features
    (``huge``: every model tensor times 1e200), all-zero features
    (``dead``: the last hidden layer outputs relu(-1) for every row) or, with
    a finite model, non-finite projections (``nan-head``: a NaN in the
    student projection head)."""
    ckpt = load_checkpoint(src)
    if how == "huge":
        for name, arr in ckpt.tensors.items():
            if name.startswith("model."):
                arr *= 1e200
    elif how == "nan-head":
        ckpt.tensors["head.student.weight"][0, 0] = np.nan
    else:
        ckpt.tensors["model.layer1.weight"][...] = 0.0
        ckpt.tensors["model.layer1.bias"][...] = -1.0
    save_checkpoint(ckpt, str(dst))
    return str(dst)


def _only_error_line(argv, code=EXIT_DIVERGENCE, prefix="divergence: "):
    """Run ``python -m dcd.cli`` and return its one stderr line, which must
    start with ``prefix``, with exit ``code`` (by default a ``divergence:``
    message with exit 3)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dcd.cli"] + argv + FAST,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr
    return lines[0]


@pytest.mark.parametrize("how,command", [("huge", "transfer"), ("huge", "export-embeddings"),
                                         ("dead", "export-embeddings"),
                                         ("nan-head", "export-embeddings")])
def test_pass_over_broken_checkpoint_exits_divergence(how, command, student_run, tmp_path):
    ckpt = _broken_copy(os.path.join(student_run, "student.ckpt"), tmp_path / "s.ckpt", how)
    csv_path = tmp_path / "emb.csv"
    argv = [command, "--ckpt", ckpt]
    if command == "export-embeddings":
        argv += ["--csv", str(csv_path)]
    assert _only_error_line(argv).startswith(f"divergence: checkpoint {ckpt!r}: ")
    assert sorted(os.listdir(tmp_path)) == ["s.ckpt"]  # no embeddings CSV


@pytest.mark.parametrize("batch_size", ["0", "-1"])
@pytest.mark.parametrize("command", ["eval", "transfer", "export-embeddings"])
def test_non_positive_batch_size_exits_config_before_any_file(command, batch_size, student_run,
                                                               tmp_path, capsys):
    argv = [command, "--ckpt", os.path.join(student_run, "student.ckpt")]
    if command == "export-embeddings":
        argv += ["--csv", str(tmp_path / "emb.csv")]
    assert main(argv + FAST + ["--set", f"batch_size={batch_size}"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "batch_size" in err and out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("augment", ["none", "flip"])
def test_distill_from_non_finite_teacher_names_the_teacher(augment, teacher_run, tmp_path):
    teacher = _broken_copy(os.path.join(teacher_run, "teacher.ckpt"), tmp_path / "t.ckpt",
                           "huge")
    out = tmp_path / "run"
    line = _only_error_line(["distill", "--teacher", teacher, "--out", str(out),
                             "--set", f"augment={augment}"])
    assert line.startswith("divergence: frozen teacher: "), line
    assert sorted(os.listdir(out)) == ["config.txt"]  # no student.ckpt, epochs.csv or DONE


def _set_metadata(ckpt, value):
    ckpt.metadata = value


def _drop_stats(ckpt):
    del ckpt.metadata["channel_mean"], ckpt.metadata["channel_std"]


# name -> (command, the run whose checkpoint it reads, the edit to that checkpoint)
CHECKPOINT_FAULTS = {
    "empty-metadata": ("eval", "teacher", lambda c: c.metadata.clear()),
    "list-metadata": ("eval", "teacher", lambda c: _set_metadata(c, [1, 2])),
    "text-widths": ("eval", "teacher", lambda c: c.metadata["model_spec"].update(widths="ab")),
    "one-class": ("eval", "teacher", lambda c: c.metadata["model_spec"].update(num_classes=1)),
    "text-std": ("eval", "teacher", lambda c: c.metadata.update(channel_std=["x"])),
    "two-means": ("eval", "teacher", lambda c: c.metadata.update(channel_mean=[0.0, 0.0])),
    "head-shape": ("export-embeddings", "student",
                   lambda c: c.tensors.update({"head.student.weight": np.ones((3, 5))})),
    "head-no-columns": ("export-embeddings", "student",
                        lambda c: c.tensors.update({"head.student.weight": np.ones((16, 0))})),
    "no-stats": ("eval", "teacher", _drop_stats),
    "no-stats-distill": ("distill", "teacher", _drop_stats),
    "no-stats-ablate": ("ablate", "teacher", _drop_stats),
}


def test_checkpoint_spec_asking_for_huge_layers_exits_4_naming_the_tensor(
        teacher_run, tmp_path, capsys, monkeypatch):
    """The restore checks each stored tensor's shape and draws no weights, so
    a spec far larger than its tensors allocates nothing before exit 4."""
    def refuse(*args):
        raise AssertionError("the restore drew weights")
    monkeypatch.setattr(models, "_kaiming_uniform", refuse)
    ckpt = load_checkpoint(os.path.join(teacher_run, "teacher.ckpt"))
    ckpt.metadata["model_spec"]["widths"] = [200_000_000, 32]
    path = str(tmp_path / "huge.ckpt")
    save_checkpoint(ckpt, path)
    assert main(["eval", "--ckpt", path] + FAST) == EXIT_CHECKPOINT
    assert capsys.readouterr().err.splitlines() == [
        "checkpoint error: tensor 'model.layer0.weight' has shape (8, 32), "
        "expected (8, 200000000)"]


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_malformed_checkpoint_exits_4_with_one_line(fault, teacher_run, student_run, tmp_path):
    command, run, edit = CHECKPOINT_FAULTS[fault]
    ckpt = load_checkpoint(os.path.join(teacher_run if run == "teacher" else student_run,
                                        f"{run}.ckpt"))
    edit(ckpt)
    path = str(tmp_path / "edited.ckpt")
    save_checkpoint(ckpt, path)
    argv = {"eval": ["eval", "--ckpt", path],
            "distill": ["distill", "--teacher", path, "--out", str(tmp_path / "run")],
            "ablate": ["ablate", "--teacher", path, "--out", str(tmp_path / "run"),
                       "--grid", "beta=0,1"],
            "export-embeddings": ["export-embeddings", "--ckpt", path,
                                  "--csv", str(tmp_path / "emb.csv")]}[command]
    _only_error_line(argv, EXIT_CHECKPOINT, "checkpoint error: ")
    assert not os.path.exists(tmp_path / "emb.csv")
    assert not os.path.exists(tmp_path / "run" / "DONE")
    assert not os.path.exists(tmp_path / "run" / "summary.csv")


# each subcommand with its required flags
COMMANDS = {
    "train-teacher": [],
    "distill": ["--teacher", "t.ckpt"],
    "eval": ["--ckpt", "c.ckpt"],
    "transfer": ["--ckpt", "c.ckpt"],
    "export-embeddings": ["--ckpt", "c.ckpt", "--csv", "e.csv"],
    "ablate": ["--teacher", "t.ckpt", "--grid", "beta=1"],
    "verify": [],
}


def _subparsers():
    return cli.build_parser()._subparsers._group_actions[0].choices


def test_every_subcommand_parses_to_its_handler():
    assert sorted(_subparsers()) == sorted(COMMANDS)
    for name, flags in COMMANDS.items():
        args = cli.build_parser().parse_args([name] + flags)
        assert callable(args.run)
        assert args.run is getattr(cli, "cmd_" + name.replace("-", "_"))


# flag -> (its config key, a value, another value)
CONFIG_FLAGS = {
    "--data": ("data_dir", "some/data", "other/data"),
    "--out": ("out_dir", "some/run", "other/run"),
    "--seed": ("seed", "7", "9"),
    "--alpha": ("alpha", "0.25", "0.75"),
    "--beta": ("beta", "3", "5"),
    "--lambda": ("lambda_kl", "0.5", "2"),
}


def _resolved(argv):
    args = cli.build_parser().parse_args(["distill", "--teacher", "t.ckpt"] + argv)
    return resolve_config(args.config, cli._overrides_from_args(args))


def test_config_flags_are_the_parsers_flags_named_after_config_keys():
    found = {}
    for sub in _subparsers().values():
        for action in sub._actions:
            if action.dest in cli.CONFIG_KEYS:
                found.update({option: action.dest for option in action.option_strings})
    assert found == {flag: key for flag, (key, _, _) in CONFIG_FLAGS.items()}


@pytest.mark.parametrize("flag", sorted(CONFIG_FLAGS))
def test_config_flag_resolves_like_its_set_twin(flag):
    key, value, other = CONFIG_FLAGS[flag]
    cfg = _resolved(["--set", f"{key}={value}"])
    assert cfg[key] != cli.CONFIG_KEYS[key][1]
    assert _resolved([flag, value]) == cfg
    assert _resolved(["--set", f"{key}={other}", flag, value]) == cfg  # the flag wins


def test_grid_keys_name_the_summary_columns_and_the_grid_error(teacher_run, tmp_path):
    with pytest.raises(ConfigError, match="^grid key must be alpha, beta or lambda_kl, "
                                          "got 'gamma'$"):
        parse_grid("gamma=1")
    out = tmp_path / "abl"
    assert main(["ablate", "--teacher", os.path.join(teacher_run, "teacher.ckpt"),
                 "--out", str(out), "--grid", "lambda_kl=0.5", "--set", "alpha=0.25"]
                + FAST) == EXIT_OK
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["cell", "alpha", "beta", "lambda_kl", "seed"]
    assert rows[1][:5] == ["0", "0.25", "1.0", "0.5", "0"]


def test_empty_out_exits_data_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train-teacher", "--out", ""] + FAST) == EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines
    assert os.listdir(tmp_path) == []  # no runs/run


@pytest.fixture(scope="module")
def mnist_student(tmp_path_factory):
    """An MNIST directory, a copy of its ``t10k`` files alone, and the path
    of a student distilled on it."""
    from dcd.data import Dataset, serialize_mnist_idx
    root = tmp_path_factory.mktemp("mnist")
    full, t10k = root / "full", root / "t10k"
    full.mkdir()
    t10k.mkdir()
    rng = np.random.default_rng(5)
    for prefix, rows, dirs in (("train", 40, [full]), ("t10k", 20, [full, t10k])):
        images = (rng.integers(0, 256, (rows, 1, 8, 8)) / 255.0).astype(np.float32)
        files = serialize_mnist_idx(Dataset(images, rng.integers(0, 10, rows), 10, "x"))
        for d in dirs:
            (d / f"{prefix}-images-idx3-ubyte").write_bytes(files[0])
            (d / f"{prefix}-labels-idx1-ubyte").write_bytes(files[1])
    common = FAST + ["--set", "dataset=mnist", "--data", str(full)]
    assert main(["train-teacher", "--out", str(root / "teacher")] + common) == EXIT_OK
    assert main(["distill", "--teacher", str(root / "teacher" / "teacher.ckpt"),
                 "--out", str(root / "student")] + common) == EXIT_OK
    return full, t10k, str(root / "student" / "student.ckpt")


def test_eval_and_export_read_only_the_test_files(mnist_student, tmp_path, capsys):
    full, t10k, ckpt = mnist_student
    outputs = []
    for data_dir in (full, t10k):
        csv_path = tmp_path / f"{data_dir.name}.csv"
        common = ["--ckpt", ckpt, "--set", "dataset=mnist", "--data", str(data_dir)]
        assert main(["eval"] + common) == EXIT_OK
        assert main(["export-embeddings", "--csv", str(csv_path)] + common) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("top1_accuracy: ")
        outputs.append((out.splitlines()[0], csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


def _cifar10_dir(path, rows_per_file):
    from dcd.data import Dataset, serialize_cifar10
    rng = np.random.default_rng(0)
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    for name, rows in zip(names, rows_per_file):
        images = (rng.integers(0, 256, (rows, 3, 32, 32)) / 255.0).astype(np.float32)
        (path / name).write_bytes(
            serialize_cifar10(Dataset(images, rng.integers(0, 10, rows), 10, "x")))
    return names


def _cifar100_dir(path, rows_per_file):
    from dcd.data import Dataset, serialize_cifar100
    rng = np.random.default_rng(1)
    names = ["train.bin", "test.bin"]
    for name, rows in zip(names, rows_per_file):
        images = (rng.integers(0, 256, (rows, 3, 32, 32)) / 255.0).astype(np.float32)
        ds = Dataset(images, rng.integers(0, 100, rows), 100, "x")
        (path / name).write_bytes(serialize_cifar100(ds, rng.integers(0, 20, rows)))
    return names


def _mnist_dir(path, rows_per_file):
    from dcd.data import Dataset, serialize_mnist_idx
    rng = np.random.default_rng(2)
    names = []
    for prefix, rows in zip(("train", "t10k"), rows_per_file):
        images = (rng.integers(0, 256, (rows, 1, 8, 8)) / 255.0).astype(np.float32)
        files = serialize_mnist_idx(Dataset(images, rng.integers(0, 10, rows), 10, "x"))
        for kind, raw in zip(("images-idx3", "labels-idx1"), files):
            names.append(f"{prefix}-{kind}-ubyte")
            (path / names[-1]).write_bytes(raw)
    return names


def test_cifar100_load_equals_the_one_buffer_parse(tmp_path):
    """Both splits load as the parse of their file's bytes, also at a
    train_limit inside the file, and a bad fine label has the offset the
    one-buffer parse gives it."""
    from dcd.data import parse_cifar100
    names = _cifar100_dir(tmp_path, [9, 4])
    raw = [(tmp_path / name).read_bytes() for name in names]
    cfg = cli.resolve_config(None, {"dataset": "cifar100", "data_dir": str(tmp_path)})
    for limit in (0, 5):
        loaded = cli.load_datasets({**cfg, "train_limit": limit})
        parsed = (parse_cifar100(raw[0], rows=limit or None), parse_cifar100(raw[1]))
        for ds, whole in zip(loaded, parsed):
            assert ds.images.tobytes() == whole.images.tobytes()
            assert np.array_equal(ds.labels, whole.labels)
            assert (ds.images.dtype, ds.labels.dtype) == (np.float32, np.int64)
            assert ds.class_count == 100
    assert len(loaded[0]) == 5

    bad = bytearray(raw[0])
    bad[6 * 3074 + 1] = 100  # the fine label of the seventh record, past the limit
    (tmp_path / names[0]).write_bytes(bytes(bad))
    with pytest.raises(FormatError) as parsed_error:
        parse_cifar100(bytes(bad))
    with pytest.raises(FormatError) as loaded_error:
        cli.load_datasets({**cfg, "train_limit": 5})
    assert str(loaded_error.value) == str(parsed_error.value)
    assert loaded_error.value.offset == parsed_error.value.offset == 6 * 3074 + 1


def test_cifar10_batches_load_as_their_join(tmp_path):
    """The split, read one file at a time, equals the parse of the joined
    files, also at a train_limit inside file 2, and a bad label in file 4
    has its offset in the join."""
    from dcd.data import parse_cifar10
    names = _cifar10_dir(tmp_path, [3, 4, 5, 6, 7, 2])
    joined = b"".join((tmp_path / name).read_bytes() for name in names[:5])
    cfg = cli.resolve_config(None, {"dataset": "cifar10", "data_dir": str(tmp_path)})
    for limit in (0, 5):
        train, _ = cli.load_datasets({**cfg, "train_limit": limit})
        whole = parse_cifar10(joined, rows=limit or None)
        assert train.images.tobytes() == whole.images.tobytes()
        assert np.array_equal(train.labels, whole.labels)
        assert (train.images.dtype, train.labels.dtype) == (np.float32, np.int64)

    fourth = tmp_path / names[3]
    raw = bytearray(fourth.read_bytes())
    raw[2 * 3073] = 10  # the label of file 4's third record
    fourth.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as joined_error:
        parse_cifar10(b"".join((tmp_path / name).read_bytes() for name in names[:5]))
    with pytest.raises(FormatError) as loaded_error:
        cli.load_datasets({**cfg, "train_limit": 5})
    assert loaded_error.value.offset == joined_error.value.offset == (3 + 4 + 5 + 2) * 3073


def test_cifar10_load_holds_one_batch_file_and_the_kept_rows(tmp_path):
    names = _cifar10_dir(tmp_path, [200] * 5 + [1])
    limit = 300  # inside file 2
    file_bytes = (tmp_path / names[0]).stat().st_size
    kept_bytes = limit * 3072 * 4  # float32 pixels
    cfg = cli.resolve_config(None, {"dataset": "cifar10", "data_dir": str(tmp_path),
                                    "train_limit": str(limit)})
    tracemalloc.start()
    try:
        train, = cli.load_datasets(cfg, ("training",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(train) == limit
    assert peak < 1.1 * (file_bytes + kept_bytes), f"peak {peak / 1e6:.2f} MB"


DATA_DIRS = {"cifar10": lambda path: _cifar10_dir(path, [1] * 6),
             "cifar100": lambda path: _cifar100_dir(path, [1, 1]),
             "mnist": lambda path: _mnist_dir(path, [1, 1])}


@pytest.mark.parametrize("dataset,delta", [
    pytest.param("cifar10", -1, id="-1"), pytest.param("cifar10", 1, id="1"),
    *[(dataset, delta) for dataset in ("cifar100", "mnist") for delta in (-1, 1)]])
def test_data_file_changing_size_while_read_exits_data(dataset, delta, tmp_path, monkeypatch,
                                                       capsys):
    """A file longer or shorter than its size when it was opened."""
    names = DATA_DIRS[dataset](tmp_path)
    fstat = os.fstat
    monkeypatch.setattr(cli.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + delta))
    assert main(["train-teacher", "--out", str(tmp_path / "run"), "--data", str(tmp_path),
                 "--set", f"dataset={dataset}"]) == EXIT_DATA
    path = os.path.join(str(tmp_path), names[0])
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {path!r} changed size while it was read"]
