"""Print the bitwise reproduction table of the shipped runs.

Each row is a run, then the first 16 hex digits of three SHA-256
digests: of its checkpoint file, of the checkpoint's tensors alone (each
tensor's name, dtype, shape and bytes in name order, as
``perfbench/gate.fingerprint`` hashes them, without the metadata) and of
its ``epochs.csv``.  A change that edits only checkpoint metadata or the
epoch-log header moves the first and third digests but not the second.
Each CLI run also has a row for its ``config.txt``, so the table shows
that the flags resolve to the same config.  The runs, made in a temporary
directory that is removed afterwards and named by paths relative to it,
so that the echoed ``out_dir`` is the same on every call:

- ``dcd train-teacher --seed 0 --set data_seed=0``;
- ``dcd ablate --grid "alpha=0.1,0.5|beta=0,1" --seeds 1 --seed 0 --set
  data_seed=0`` from that teacher, at ``--jobs 1`` and at ``--jobs 2``, each
  with a row for its ``summary.csv`` and one for its own ``config.txt``;
- ``dcd eval`` and ``dcd transfer`` of that teacher and of the ``--jobs 1``
  sweep's cell-0 student, each row the line the command prints, and the
  digest of the CSV that ``dcd export-embeddings`` writes for that student;
- ``dcd verify``, a row for each line it prints, so the table covers the
  gradient check of a distillation step;
- the blob-recipe teacher and its vanilla, kd, dcd_kd and beta_100 student
  arms at seeds 0 and 1, with the overrides of ``recipes.TREND_ARMS`` and
  ``recipes.BETA_ARMS`` that ``tests/test_acceptance.py`` uses too;
- a ConvNet teacher and a DCD+KD ConvNet student trained with
  ``augment=flip+crop`` on small seeded 3x8x8 images, so the table covers
  ``autodiff.conv_block`` and the frozen teacher's per-batch forward pass,
  each with a row for the logits ``train.inference`` returns on the test
  images, which shows the untaped pool's bits at full precision;
- a narrow ConvNet teacher, widths (16, 8), on 64 seeded 3x24x24 images
  in one batch: its blocks run over several chunks of samples, and
  OpenBLAS would split its second block's kernel-gradient GEMM across
  threads.

Then one row per split that ``cli.load_datasets`` returns from seeded
CIFAR-10, CIFAR-100 and MNIST directories written with
``data.serialize_*``, each at every training row and at a ``train_limit``
(for CIFAR-10, five batch files and a limit inside file 2): the digests
of the split's ``images`` and ``labels`` arrays, each of its dtype, shape
and bytes.  These rows call only ``cli.load_datasets``, so the table of
one tree's ``src`` compares with another's even where the loaders differ.

A change that keeps every run's bits prints the same table as its parent:

    python tools/sha_table.py --against HEAD~1

extracts that revision with ``git archive`` into a temporary directory,
makes this table from its ``src`` and from the working tree's, each in
its own process, prints only the rows that differ (``-`` the
revision's, ``+`` the working tree's) and exits 1 if any do.

The table takes about 20 s on 2 vCPUs, so ``--against`` about 40 s.  It
is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from dcd import cli, recipes  # noqa: E402
from dcd.data import (BatchPlan, Dataset, serialize_cifar10, serialize_cifar100,  # noqa: E402
                      serialize_mnist_idx)
from dcd.losses import DistillConfig  # noqa: E402
from dcd.models import ModelSpec  # noqa: E402
from dcd.train import (OptimSpec, distill, inference, load_checkpoint,  # noqa: E402
                       restore_model, save_checkpoint, stats_from_metadata, train_teacher,
                       write_epoch_csv)

CLI_COMMON = ["--seed", "0", "--set", "data_seed=0"]
GRID = "alpha=0.1,0.5|beta=0,1"
BLOB_ARMS = {**recipes.TREND_ARMS, "beta_100": recipes.BETA_ARMS["beta_100"]}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def tensor_digest(path: str) -> str:
    h = hashlib.sha256()
    tensors = load_checkpoint(path).tensors
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def array_digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}|{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def run_digests(run_dir: str, ckpt_name: str) -> str:
    ckpt = os.path.join(run_dir, ckpt_name)
    return f"{digest(ckpt)} {tensor_digest(ckpt)} {digest(os.path.join(run_dir, 'epochs.csv'))}"


def dcd(argv: list[str], common: list[str] = CLI_COMMON) -> str:
    """``dcd argv common`` in this process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + common)
    if code != cli.EXIT_OK:
        raise SystemExit(f"dcd {argv[0]} exited with code {code}")
    return out.getvalue().strip()


def cli_rows() -> list[tuple[str, str]]:
    """The CLI runs' rows; the runs go under the working directory."""
    def run_rows(name: str, run_dir: str, ckpt_name: str) -> list[tuple[str, str]]:
        return [(name, run_digests(run_dir, ckpt_name)),
                (f"{name} config.txt", digest(os.path.join(run_dir, "config.txt")))]

    dcd(["train-teacher", "--out", "teacher"])
    rows = run_rows("train-teacher", "teacher", "teacher.ckpt")
    for jobs in (1, 2):
        out = f"ablate-jobs{jobs}"
        dcd(["ablate", "--teacher", os.path.join("teacher", "teacher.ckpt"), "--out", out,
             "--grid", GRID, "--seeds", "1", "--jobs", str(jobs)])
        for cell in range(len(cli.parse_grid(GRID))):
            rows += run_rows(f"ablate --jobs {jobs} cell{cell}",
                             os.path.join(out, f"cell{cell}-seed0"), "student.ckpt")
        rows.append((f"ablate --jobs {jobs} summary.csv",
                     digest(os.path.join(out, "summary.csv"))))
        rows.append((f"ablate --jobs {jobs} config.txt", digest(os.path.join(out, "config.txt"))))
    student = os.path.join("ablate-jobs1", "cell0-seed0", "student.ckpt")
    for name, ckpt in (("teacher", os.path.join("teacher", "teacher.ckpt")),
                       ("ablate cell0 student", student)):
        rows += [(f"{command} {name}", dcd([command, "--ckpt", ckpt]))
                 for command in ("eval", "transfer")]
    dcd(["export-embeddings", "--ckpt", student, "--csv", "embeddings.csv"])
    rows.append(("export-embeddings ablate cell0 student csv", digest("embeddings.csv")))
    # verify takes neither --seed nor --set
    rows += [(f"verify line{i}", line)
             for i, line in enumerate(dcd(["verify"], common=[]).splitlines())]
    return rows


def saved(work: str, name: str, ckpt, logs) -> tuple[str, str]:
    """The row of a run trained in this process, written under ``work``."""
    run_dir = os.path.join(work, name)
    os.makedirs(run_dir)
    save_checkpoint(ckpt, os.path.join(run_dir, "model.ckpt"))
    write_epoch_csv(logs, os.path.join(run_dir, "epochs.csv"))
    return name, run_digests(run_dir, "model.ckpt")


def blob_rows(work: str) -> list[tuple[str, str]]:
    teacher_train, student_train, test = recipes.blob_trend_datasets()
    teacher_spec, student_spec = recipes.blob_model_pair()
    t_ckpt, t_logs = train_teacher(teacher_spec, teacher_train, test,
                                   recipes.BLOB_TEACHER_OPTIM, recipes.BLOB_TEACHER_PLAN)
    rows = [saved(work, "blob teacher", t_ckpt, t_logs)]
    for arm, overrides in BLOB_ARMS.items():
        for seed in (0, 1):
            rows.append(saved(work, f"blob {arm} seed{seed}", *distill(
                t_ckpt, student_spec, student_train, test,
                recipes.blob_distill_config(**overrides), recipes.blob_student_optim(seed),
                recipes.blob_student_plan(seed))))
    return rows


def convnet_rows(work: str) -> list[tuple[str, str]]:
    """Two classes of 3x8x8 images: uniform noise, with the class in the
    first channel's brightness; then ten classes of 3x24x24 noise."""
    rng = np.random.default_rng(2024)
    images = rng.uniform(0.0, 0.5, (64, 3, 8, 8)).astype(np.float32)
    labels = np.arange(64) % 2
    images[:, 0] += 0.5 * labels[:, None, None]
    train = Dataset(images[:48], labels[:48], 2, "images-train")
    test = Dataset(images[48:], labels[48:], 2, "images-test")
    t_ckpt, t_logs = train_teacher(ModelSpec("convnet", (4, 8), 2, (3, 8, 8)), train, test,
                                   OptimSpec(lr=0.05, epochs=2, seed=3),
                                   BatchPlan(16, 3, "flip+crop"))
    s_ckpt, s_logs = distill(t_ckpt, ModelSpec("convnet", (2, 4), 2, (3, 8, 8)), train, test,
                             DistillConfig(proj_dim=4), OptimSpec(lr=0.05, epochs=3, seed=4),
                             BatchPlan(16, 4, "flip+crop"))
    rows = [saved(work, "convnet teacher", t_ckpt, t_logs),
            saved(work, "convnet dcd_kd", s_ckpt, s_logs)]
    for name, ckpt in (("convnet teacher", t_ckpt), ("convnet dcd_kd", s_ckpt)):
        logits = [z for _, z in inference(restore_model(ckpt), test,
                                          stats_from_metadata(ckpt.metadata), 16,
                                          lambda _, z: z, "the logits")]
        rows.append((f"{name} inference logits", array_digest(np.concatenate(logits))))
    images = rng.uniform(0.0, 1.0, (80, 3, 24, 24)).astype(np.float32)
    labels = np.arange(80) % 10
    train = Dataset(images[:64], labels[:64], 10, "images24-train")
    test = Dataset(images[64:], labels[64:], 10, "images24-test")
    rows.append(saved(work, "convnet narrow teacher", *train_teacher(
        ModelSpec("convnet", (16, 8), 10, (3, 24, 24)), train, test,
        OptimSpec(lr=0.01, epochs=1, seed=3), BatchPlan(64, 3))))
    return rows


def _random_rows(rng: np.random.Generator, rows: int, shape: tuple[int, ...],
                 classes: int) -> Dataset:
    images = (rng.integers(0, 256, (rows, *shape)) / 255.0).astype(np.float32)
    return Dataset(images, rng.integers(0, classes, rows), classes, "x")


def load_rows(work: str) -> list[tuple[str, str]]:
    """Seeded data directories under ``work`` and the rows of their loads."""
    rng = np.random.default_rng(2025)
    files = {"cifar10": {f"data_batch_{i}.bin": serialize_cifar10(
                 _random_rows(rng, 6, (3, 32, 32), 10)) for i in range(1, 6)}}
    files["cifar10"]["test_batch.bin"] = serialize_cifar10(_random_rows(rng, 5, (3, 32, 32), 10))
    files["cifar100"] = {name: serialize_cifar100(_random_rows(rng, rows, (3, 32, 32), 100),
                                                  rng.integers(0, 20, rows))
                         for name, rows in (("train.bin", 12), ("test.bin", 5))}
    files["mnist"] = {}
    for prefix, rows in (("train", 12), ("t10k", 5)):
        images, labels = serialize_mnist_idx(_random_rows(rng, rows, (1, 28, 28), 10))
        files["mnist"][f"{prefix}-images-idx3-ubyte"] = images
        files["mnist"][f"{prefix}-labels-idx1-ubyte"] = labels
    rows = []
    for kind, limit in (("cifar10", 8), ("cifar100", 7), ("mnist", 7)):
        data_dir = os.path.join(work, f"data-{kind}")
        os.makedirs(data_dir)
        for name, raw in files[kind].items():
            with open(os.path.join(data_dir, name), "wb") as fh:
                fh.write(raw)
        for train_limit, splits in ((0, ("training", "test")), (limit, ("training",))):
            cfg = cli.resolve_config(None, {"dataset": kind, "data_dir": data_dir,
                                            "train_limit": str(train_limit)})
            for split, ds in zip(splits, cli.load_datasets(cfg, splits)):
                rows.append((f"load {ds.name} {split}",
                             f"{array_digest(ds.images)} {array_digest(ds.labels)}"))
    return rows


def table_rows() -> list[tuple[str, str]]:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="sha-table-") as work:
        os.chdir(work)
        try:
            return cli_rows() + blob_rows(work) + convnet_rows(work) + load_rows(work)
        finally:
            os.chdir(cwd)


def script_rows(script: str) -> dict[str, str]:
    """The rows that ``python script`` prints, by name."""
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{script} failed:\n{proc.stderr}")
    rows = (line.rsplit("  ", 1) for line in proc.stdout.splitlines())
    return {name.rstrip(): digests for name, digests in rows}


def against(rev: str) -> int:
    """Print the rows of ``rev``'s ``src`` and of the working tree that differ;
    1 if any do."""
    import ab  # the committed-tree extraction that tools/ab.py runs its sides from
    with tempfile.TemporaryDirectory(prefix="sha-table-rev-") as tree:
        ab.extract(rev, tree)
        script = os.path.join(tree, "tools", os.path.basename(__file__))
        os.makedirs(os.path.dirname(script), exist_ok=True)
        shutil.copyfile(os.path.abspath(__file__), script)
        before = script_rows(script)
    after = script_rows(os.path.abspath(__file__))
    moved = [name for name in {**before, **after} if before.get(name) != after.get(name)]
    for name in moved:
        print(f"-{name}  {before.get(name)}")
        print(f"+{name}  {after.get(name)}")
    return int(bool(moved))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV",
                        help="print only the rows that differ from REV's src")
    args = parser.parse_args()
    if args.against:
        return against(args.against)
    rows = table_rows()
    width = max(len(name) for name, _ in rows)
    for name, digests in rows:
        print(f"{name:<{width}}  {digests}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
