"""Print the bitwise reproduction table of the shipped runs.

Each row is a run, then the first 16 hex digits of the SHA-256 of its
checkpoint and of its ``epochs.csv``; each CLI run also has a row for its
``config.txt``, so the table shows that the flags resolve to the same
config.  The runs, made in a temporary directory that is removed
afterwards and named by paths relative to it, so that the echoed
``out_dir`` is the same on every call:

- ``dcd train-teacher --seed 0 --set data_seed=0``;
- ``dcd ablate --grid "alpha=0.1,0.5|beta=0,1" --seeds 1 --seed 0 --set
  data_seed=0`` from that teacher, at ``--jobs 1`` and at ``--jobs 2``, each
  with a row for its ``summary.csv`` and one for its own ``config.txt``;
- the blob-recipe teacher and its vanilla, kd, dcd_kd and beta_100 student
  arms at seeds 0 and 1, with the overrides of ``recipes.TREND_ARMS`` and
  ``recipes.BETA_ARMS`` that ``tests/test_acceptance.py`` uses too.

A change that keeps every run's bits prints the same table as its parent:

    python tools/sha_table.py > after.txt   # likewise in the parent's checkout
    diff before.txt after.txt

The table takes about 20 s on 2 vCPUs.  It is not part of the test
suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from dcd import cli, recipes  # noqa: E402
from dcd.train import distill, save_checkpoint, train_teacher, write_epoch_csv  # noqa: E402

CLI_COMMON = ["--seed", "0", "--set", "data_seed=0"]
GRID = "alpha=0.1,0.5|beta=0,1"
BLOB_ARMS = {**recipes.TREND_ARMS, "beta_100": recipes.BETA_ARMS["beta_100"]}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def run_digests(run_dir: str, ckpt_name: str) -> str:
    return (f"{digest(os.path.join(run_dir, ckpt_name))} "
            f"{digest(os.path.join(run_dir, 'epochs.csv'))}")


def dcd(argv: list[str]) -> None:
    """``dcd argv`` in this process, its stdout sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv + CLI_COMMON)
    if code != cli.EXIT_OK:
        raise SystemExit(f"dcd {argv[0]} exited with code {code}")


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
    return rows


def blob_rows(work: str) -> list[tuple[str, str]]:
    teacher_train, student_train, test = recipes.blob_trend_datasets()
    teacher_spec, student_spec = recipes.blob_model_pair()

    def saved(name: str, ckpt, logs) -> tuple[str, str]:
        run_dir = os.path.join(work, name)
        os.makedirs(run_dir)
        save_checkpoint(ckpt, os.path.join(run_dir, "model.ckpt"))
        write_epoch_csv(logs, os.path.join(run_dir, "epochs.csv"))
        return name, run_digests(run_dir, "model.ckpt")

    t_ckpt, t_logs = train_teacher(teacher_spec, teacher_train, test,
                                   recipes.BLOB_TEACHER_OPTIM, recipes.BLOB_TEACHER_PLAN)
    rows = [saved("blob teacher", t_ckpt, t_logs)]
    for arm, overrides in BLOB_ARMS.items():
        for seed in (0, 1):
            rows.append(saved(f"blob {arm} seed{seed}", *distill(
                t_ckpt, student_spec, student_train, test,
                recipes.blob_distill_config(**overrides), recipes.blob_student_optim(seed),
                recipes.blob_student_plan(seed))))
    return rows


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="sha-table-") as work:
        os.chdir(work)
        try:
            rows = cli_rows() + blob_rows(work)
        finally:
            os.chdir(cwd)
    width = max(len(name) for name, _ in rows)
    for name, digests in rows:
        print(f"{name:<{width}}  {digests}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
