"""Command-line interface: training, distillation, evaluation, transfer,
ablation sweeps and the verification suite.

Configuration is a flat ``key=value`` file (one pair per line, ``#``
comments) merged with flag overrides; flags always win.  Every run
directory receives the fully-resolved config echo, the epoch CSV, the
checkpoint, and a ``DONE`` completion marker.  Exit codes: 0 success,
1 config error, 2 data error, 3 divergence, 4 checkpoint-format error.
An unreadable config file is a config error, any other unusable path a data error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import itertools
import os
import pickle
import sys
import tempfile

import numpy as np

from .data import (BatchPlan, Dataset, parse_cifar10, parse_cifar100, parse_mnist_idx,
                   synth_blob_split)
from .errors import (CheckpointFormatError, ConfigError, DegenerateInputError, DivergenceError,
                     DomainError, FormatError, ShapeMismatchError)
from .losses import TAU_INIT_DEFAULT, DistillConfig
from .metrics import export_embeddings, linear_probe
from .models import ModelSpec
from .recipes import fold_clusters
from .train import (OptimSpec, check_class_count, distill, evaluate, load_checkpoint,
                    restore_model, restore_student_head, save_checkpoint,
                    stats_from_metadata, train_teacher, write_epoch_csv)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3
EXIT_CHECKPOINT = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


def _parse_widths(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _parse_schedule(text: str) -> tuple[tuple[int, float], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        epoch, mult = part.split(":")
        out.append((int(epoch), float(mult)))
    return tuple(out)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# key -> (parser, default)
CONFIG_KEYS: dict = {
    "dataset": (str, "blobs"),
    "data_dir": (str, ""),
    "out_dir": (str, "runs/run"),
    "seed": (_parse_count, 0),
    "data_seed": (_parse_count, 42),   # blob generation only; training uses `seed`
    "train_limit": (_parse_count, 0),  # 0 = use everything
    "teacher_family": (str, "mlp"),
    "teacher_widths": (_parse_widths, (512, 512)),
    "student_family": (str, "mlp"),
    "student_widths": (_parse_widths, (128, 128)),
    "alpha": (float, 0.5),
    "beta": (float, 1.0),
    "lambda_kl": (float, 1.0),
    "tau_init": (float, TAU_INIT_DEFAULT),
    "b_init": (float, 0.0),
    "tau_max": (float, 10.0),
    "kd_temperature": (float, 4.0),
    "proj_dim": (int, 128),
    "learn_temperature": (_parse_bool, True),
    "detach_consistency": (_parse_bool, False),
    "lr": (float, 0.05),
    "momentum": (float, 0.9),
    "weight_decay": (float, 0.0),
    "epochs": (int, 30),
    "schedule": (_parse_schedule, ((15, 0.1), (23, 0.1))),
    "batch_size": (int, 128),
    "augment": (str, "none"),
    "blob_classes": (int, 4),
    "blob_clusters_per_class": (int, 1),
    "blob_dim": (int, 32),
    "blob_std": (float, 0.1),
    "blob_separation": (float, 0.3),
    "blob_train_per_class": (int, 100),
    "blob_test_per_class": (int, 100),
    "probe_lr": (float, 0.5),
    "probe_epochs": (int, 40),
}


def parse_config_file(path: str) -> dict[str, str]:
    """A config file's ``key=value`` pairs; :class:`ConfigError` unless it is UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} cannot be read: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def resolve_config(file_path: str | None, overrides: dict[str, str]) -> dict:
    resolved = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    layers = []
    if file_path:
        layers.append(parse_config_file(file_path))
    layers.append(overrides)
    for layer in layers:
        for key, raw in layer.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            parser, _ = CONFIG_KEYS[key]
            try:
                resolved[key] = parser(raw) if isinstance(raw, str) else raw
            except ValueError as exc:
                raise ConfigError(f"bad value {raw!r} for {key!r}: {exc}") from exc
    return resolved


def echo_config(cfg: dict, out_dir: str) -> None:
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, tuple):
            if value and isinstance(value[0], tuple):
                value = ",".join(f"{e}:{m}" for e, m in value)
            else:
                value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def load_datasets(cfg: dict) -> tuple[Dataset, Dataset]:
    kind = cfg["dataset"]
    data_dir = cfg["data_dir"]
    if kind == "blobs":
        if cfg["train_limit"]:
            # blob rows come in class order, so a prefix would drop whole classes
            raise ConfigError("train_limit does not apply to dataset=blobs; "
                              "set blob_train_per_class instead")
        cpc = cfg["blob_clusters_per_class"]
        clusters = cfg["blob_classes"] * cpc
        train, test = synth_blob_split(
            clusters, cfg["blob_train_per_class"], cfg["blob_test_per_class"],
            cfg["blob_dim"], seed=cfg["data_seed"], std=cfg["blob_std"],
            separation=cfg["blob_separation"])
        if cpc > 1:
            train = fold_clusters(train, cfg["blob_classes"])
            test = fold_clusters(test, cfg["blob_classes"])
        return train, test
    if kind == "cifar10":
        parts = [_read_file(os.path.join(data_dir, f"data_batch_{i}.bin"))
                 for i in range(1, 6)]
        train = parse_cifar10(b"".join(parts))
        test = parse_cifar10(_read_file(os.path.join(data_dir, "test_batch.bin")))
    elif kind == "cifar100":
        train = parse_cifar100(_read_file(os.path.join(data_dir, "train.bin")))
        test = parse_cifar100(_read_file(os.path.join(data_dir, "test.bin")))
    elif kind == "mnist":
        train = parse_mnist_idx(
            _read_file(os.path.join(data_dir, "train-images-idx3-ubyte")),
            _read_file(os.path.join(data_dir, "train-labels-idx1-ubyte")))
        test = parse_mnist_idx(
            _read_file(os.path.join(data_dir, "t10k-images-idx3-ubyte")),
            _read_file(os.path.join(data_dir, "t10k-labels-idx1-ubyte")))
    else:
        raise ConfigError(f"unknown dataset {kind!r}")
    limit = cfg["train_limit"]
    if limit:
        train = Dataset(train.images[:limit], train.labels[:limit],
                        train.class_count, f"{train.name}[:{limit}]")
    for split, ds in (("training", train), ("test", test)):
        if len(ds) == 0:
            raise FormatError(f"the {kind} {split} split in {data_dir!r} has no rows")
    return train, test


def _spec_and_data(cfg: dict, role: str) -> tuple[ModelSpec, Dataset, Dataset]:
    """The ``role`` model's spec and the (train, test) splits that shape it."""
    train, test = load_datasets(cfg)
    c, h, w = train.images.shape[1:]
    return (ModelSpec(cfg[f"{role}_family"], cfg[f"{role}_widths"], train.class_count,
                      (int(c), int(h), int(w))), train, test)


def _optim(cfg: dict) -> OptimSpec:
    return OptimSpec(lr=cfg["lr"], momentum=cfg["momentum"],
                     weight_decay=cfg["weight_decay"], schedule=cfg["schedule"],
                     epochs=cfg["epochs"], seed=cfg["seed"])


def _plan(cfg: dict) -> BatchPlan:
    return BatchPlan(batch_size=cfg["batch_size"], shuffle_seed=cfg["seed"],
                     augment=cfg["augment"])


def _distill_config(cfg: dict) -> DistillConfig:
    return DistillConfig(alpha=cfg["alpha"], beta=cfg["beta"], lambda_kl=cfg["lambda_kl"],
                         tau_init=cfg["tau_init"], b_init=cfg["b_init"],
                         tau_max=cfg["tau_max"], kd_temperature=cfg["kd_temperature"],
                         proj_dim=cfg["proj_dim"],
                         learn_temperature=cfg["learn_temperature"],
                         detach_consistency_target=cfg["detach_consistency"])


def _train_run(run_cfg: dict, out_dir: str, name: str, fit) -> dict:
    """Make ``out_dir``, echo ``run_cfg`` into it, run ``fit()`` for the
    ``(checkpoint, epoch logs)`` pair, then write the checkpoint as ``name``,
    ``epochs.csv`` and the ``DONE`` marker, in that order; returns the final metrics."""
    os.makedirs(out_dir, exist_ok=True)
    echo_config(run_cfg, out_dir)
    ckpt, logs = fit()
    save_checkpoint(ckpt, os.path.join(out_dir, name))
    write_epoch_csv(logs, os.path.join(out_dir, "epochs.csv"))
    with open(os.path.join(out_dir, "DONE"), "w") as fh:
        fh.write("ok\n")
    return ckpt.metadata["final_metrics"]


def cmd_train_teacher(cfg: dict) -> int:
    metrics = _train_run(cfg, cfg["out_dir"], "teacher.ckpt", lambda: train_teacher(
        *_spec_and_data(cfg, "teacher"), _optim(cfg), _plan(cfg)))
    print(f"teacher: train_acc={metrics['train_acc']:.2f} test_acc={metrics['test_acc']:.2f}")
    return EXIT_OK


def cmd_distill(cfg: dict, teacher_path: str) -> int:
    # the teacher checkpoint is read before the data
    metrics = _train_run(cfg, cfg["out_dir"], "student.ckpt", lambda: distill(
        load_checkpoint(teacher_path), *_spec_and_data(cfg, "student"), _distill_config(cfg),
        _optim(cfg), _plan(cfg)))
    print(f"student: train_acc={metrics['train_acc']:.2f} test_acc={metrics['test_acc']:.2f} "
          f"tau={metrics['tau']:.4f} b={metrics['b']:.4f}")
    return EXIT_OK


@contextlib.contextmanager
def _restored(ckpt_path: str):
    """The checkpoint, its model and its statistics; a ``DomainError`` or
    ``DegenerateInputError`` from the model's outputs in the block becomes a
    ``DivergenceError`` naming the checkpoint (exit 3)."""
    ckpt = load_checkpoint(ckpt_path)
    model = restore_model(ckpt)
    try:
        yield ckpt, model, stats_from_metadata(ckpt.metadata)
    except (DomainError, DegenerateInputError) as exc:
        raise DivergenceError(f"checkpoint {ckpt_path!r}: {exc}") from exc


def cmd_eval(cfg: dict, ckpt_path: str) -> int:
    with _restored(ckpt_path) as (_, model, stats):
        _, test = load_datasets(cfg)
        check_class_count(model.spec, test, "the checkpoint")
        acc = evaluate(model, test, stats, cfg["batch_size"])
    print(f"top1_accuracy: {acc:.2f}")
    return EXIT_OK


def cmd_transfer(cfg: dict, ckpt_path: str) -> int:
    with _restored(ckpt_path) as (_, model, stats):
        train, test = load_datasets(cfg)
        got = tuple(int(v) for v in train.images.shape[1:])
        if got != model.spec.in_shape:
            raise ConfigError(f"transfer data shape {got} does not match "
                              f"the checkpoint's input shape {model.spec.in_shape}")
        acc = linear_probe(model, train, test, stats, lr=cfg["probe_lr"],
                           epochs=cfg["probe_epochs"], batch_size=cfg["batch_size"],
                           seed=cfg["seed"])
    print(f"transfer_top1_accuracy: {acc:.2f}")
    return EXIT_OK


def cmd_export_embeddings(cfg: dict, ckpt_path: str, out_path: str) -> int:
    with _restored(ckpt_path) as (ckpt, model, stats):
        head = restore_student_head(ckpt)
        _, test = load_datasets(cfg)
        count = export_embeddings(model, head, test, stats, out_path, cfg["batch_size"])
    print(f"exported {count} embeddings to {out_path}")
    return EXIT_OK


def parse_grid(expr: str) -> list[dict[str, float]]:
    """'alpha=0.1,0.5|beta=1,100' -> cartesian product of value choices."""
    axes: dict[str, list[float]] = {}
    for axis in expr.split("|"):
        if "=" not in axis:
            raise ConfigError(f"grid axis {axis!r} is not key=v1,v2,...")
        key, values = axis.split("=", 1)
        key = key.strip()
        if key not in ("alpha", "beta", "lambda_kl"):
            raise ConfigError(f"grid key must be alpha, beta or lambda_kl, got {key!r}")
        if key in axes:
            raise ConfigError(f"grid key {key!r} appears twice")
        items = [v.strip() for v in values.split(",")]
        if not any(items):
            raise ConfigError(f"grid axis {key!r} has no values")
        if not all(items):
            raise ConfigError(f"grid axis {key!r} has an empty value in {values!r}")
        try:
            axes[key] = [float(v) for v in items]
        except ValueError as exc:
            raise ConfigError(f"bad grid value for {key!r}: {exc}") from exc
        if len(set(axes[key])) < len(items):  # 1 and 1.0 would run one cell twice
            raise ConfigError(f"grid axis {key!r} repeats a value in {values!r}")
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _ablation_run(shared: tuple, task: tuple) -> tuple[int, int, float, str]:
    """Distill one (cell, seed) of a sweep into its run directory.

    Returns ``(cell_index, seed_index, test_acc, error)``; a failed run
    gives a NaN accuracy and the error text.
    """
    teacher_ckpt, spec, train, test, out_dir = shared
    cell_index, seed_index, run_cfg, distill_cfg, optim, plan = task
    run_dir = os.path.join(out_dir, f"cell{cell_index}-seed{seed_index}")
    try:
        metrics = _train_run(run_cfg, run_dir, "student.ckpt", lambda: distill(
            teacher_ckpt, spec, train, test, distill_cfg, optim, plan))
        return (cell_index, seed_index, metrics["test_acc"], "")
    except Exception as exc:
        return (cell_index, seed_index, float("nan"), f"{type(exc).__name__}: {exc}")


# The sweep inputs every run shares, loaded once per worker process by the
# pool initializer.
_worker_shared: tuple | None = None


def _init_ablation_worker(shared_path: str, start) -> None:
    """Wait until the parent closes ``start``, then load the shared inputs."""
    global _worker_shared
    start.poll(None)  # end of file: every worker has been started
    with open(shared_path, "rb") as fh:
        _worker_shared = pickle.load(fh)


def _ablation_worker_run(task: tuple) -> tuple[int, int, float, str]:
    return _ablation_run(_worker_shared, task)


@contextlib.contextmanager
def _blas_threads(count: int):
    """Set the BLAS thread count that processes started inside inherit."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update({var: str(count) for var in BLAS_THREAD_VARS})
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


def _submit(pool, task: tuple) -> concurrent.futures.Future:
    """Submit one sweep task; a pool already broken gives a failed future."""
    try:
        return pool.submit(_ablation_worker_run, task)
    except concurrent.futures.BrokenExecutor as exc:
        future = concurrent.futures.Future()
        future.set_exception(exc)
        return future


def _run_in_workers(shared: tuple, tasks: list[tuple], jobs: int, out_dir: str) -> list[tuple]:
    """Run sweep tasks in spawned processes; rows come back in task order.

    Tasks are submitted longest first: those with ``beta != 0``, whose
    runs build the projection pipeline and take about twice as long, then
    the rest, each group in task order.  In task order the last long run
    can start when the other workers have nothing left to take.

    The CPUs are split between the workers: each gets
    ``cpu_count // workers`` BLAS threads (at least one), so the workers'
    BLAS pools do not oversubscribe the machine.  The shared inputs are
    pickled once to a file under ``out_dir`` that each worker's
    initializer loads.  No worker takes a task before the pool has
    started every worker: the pool can lose track of a worker it is
    still starting when another one dies, and then waits for it forever.
    A task whose worker died gets a failed row carrying the error text.
    """
    # Imported here so that commands without worker processes do not pay for it.
    import multiprocessing

    workers = min(jobs, len(tasks))
    context = multiprocessing.get_context("spawn")
    start_reader, start_writer = context.Pipe(duplex=False)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        # A small process object lets the workers start side by side; with
        # the inputs inside it, starting each one waits on the one before.
        shared_path = os.path.join(tmp, "shared.pickle")
        with open(shared_path, "wb") as fh:
            pickle.dump(shared, fh, protocol=pickle.HIGHEST_PROTOCOL)
        with start_reader, concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=context, initializer=_init_ablation_worker,
                initargs=(shared_path, start_reader)) as pool:
            futures: list = [None] * len(tasks)
            # Workers start on submit and read the BLAS variables at start-up.
            with start_writer, _blas_threads(max(1, (os.cpu_count() or 1) // workers)):
                for index in sorted(range(len(tasks)), key=lambda i: tasks[i][3].beta == 0.0):
                    futures[index] = _submit(pool, tasks[index])
            rows = []
            for (cell_index, seed_index, *_), future in zip(tasks, futures):
                try:
                    rows.append(future.result())
                except concurrent.futures.BrokenExecutor as exc:
                    rows.append((cell_index, seed_index, float("nan"),
                                 f"{type(exc).__name__}: {exc}"))
    return rows


def cmd_ablate(cfg: dict, teacher_path: str, grid_expr: str, seeds: int, jobs: int) -> int:
    """Distill every grid cell at ``seeds`` seeds and write ``summary.csv``.

    Every run's configuration is built and checked before any run starts.
    With ``jobs > 1`` the runs go to up to ``jobs`` worker processes
    started with the spawn method, runs with ``beta != 0`` first (see
    :func:`_run_in_workers`); each worker receives the teacher and the
    datasets once and holds its own copy of them.  Either way the rows of
    ``summary.csv`` stay in grid order, then seed order.  Spawned workers
    import the caller's main module again, so a script that calls
    :func:`main` with ``--jobs`` above 1 must do so under an
    ``if __name__ == "__main__":`` guard.  Exit code 3 when every run
    failed.
    """
    if seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {seeds}")
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    out_dir = cfg["out_dir"]
    cells = parse_grid(grid_expr)
    tasks = []
    for cell_index, cell in enumerate(cells):
        for seed_index in range(seeds):
            run_cfg = {**cfg, **cell, "seed": cfg["seed"] + seed_index}
            tasks.append((cell_index, seed_index, run_cfg, _distill_config(run_cfg),
                          _optim(run_cfg), _plan(run_cfg)))
    os.makedirs(out_dir, exist_ok=True)
    echo_config(cfg, out_dir)
    # a malformed teacher, or one for another class count, stops the sweep
    with _restored(teacher_path) as (teacher_ckpt, teacher, _):
        spec, train, test = _spec_and_data(cfg, "student")
        check_class_count(teacher.spec, train, "the teacher checkpoint")
    shared = (teacher_ckpt, spec, train, test, out_dir)
    if jobs > 1:
        rows = _run_in_workers(shared, tasks, jobs, out_dir)
    else:
        rows = [_ablation_run(shared, task) for task in tasks]

    by_cell: dict[int, list[float]] = {}
    for cell_index, _, acc, _ in rows:
        by_cell.setdefault(cell_index, []).append(acc)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes error texts holding commas
        writer.writerow(["cell", "alpha", "beta", "lambda_kl", "seed", "test_acc", "cell_mean",
                         "cell_std", "error"])
        for cell_index, seed_index, acc, error in rows:
            cell = cells[cell_index]
            accs = np.asarray(by_cell[cell_index], dtype=np.float64)
            valid = accs[np.isfinite(accs)]
            mean = float(valid.mean()) if valid.size else float("nan")
            std = float(valid.std()) if valid.size else float("nan")
            writer.writerow([cell_index, cell.get("alpha", cfg["alpha"]),
                             cell.get("beta", cfg["beta"]),
                             cell.get("lambda_kl", cfg["lambda_kl"]), cfg["seed"] + seed_index,
                             f"{acc:.4f}", f"{mean:.4f}", f"{std:.4f}", error])
    print(f"ablation summary: {summary_path} ({len(rows)} rows)")
    failures = sum(1 for _, _, acc, _ in rows if not np.isfinite(acc))
    if failures == len(rows):
        print("every ablation run failed", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_verify() -> int:
    from .verify import run_all
    results = run_all(verbose=True)
    failed = [r for r in results if not r.ok]
    if failed:
        print("failed checks: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--data", help="dataset directory (overrides data_dir)")
        p.add_argument("--out", help="run directory (overrides out_dir)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")

    p = sub.add_parser("train-teacher", help="supervised teacher pretraining")
    add_common(p)

    p = sub.add_parser("distill", help="train a student under the combined objective")
    add_common(p)
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda", dest="lambda_kl", type=float)
    p.add_argument("--fixed-tau", type=float, metavar="T",
                   help="freeze the temperature at divisor value T (and the bias at 0)")

    p = sub.add_parser("eval", help="top-1 accuracy of a checkpoint on the test split")
    add_common(p)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("transfer", help="linear probe on frozen features")
    add_common(p)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("export-embeddings", help="write projected embeddings as CSV")
    add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--csv", required=True, help="output CSV path")

    p = sub.add_parser("ablate", help="cartesian hyperparameter sweep")
    add_common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--grid", required=True, help="e.g. alpha=0.1,0.5|beta=1,100")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)

    sub.add_parser("verify", help="run the built-in verification suite")
    return parser


def _overrides_from_args(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in getattr(args, "set", []) or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    if getattr(args, "data", None):
        overrides["data_dir"] = args.data
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    for key in ("alpha", "beta", "lambda_kl"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    fixed_tau = getattr(args, "fixed_tau", None)
    if fixed_tau is not None:
        if fixed_tau <= 0:
            raise ConfigError("--fixed-tau must be positive")
        overrides["tau_init"] = str(float(np.log(1.0 / fixed_tau)))
        overrides["b_init"] = "0.0"
        overrides["learn_temperature"] = "false"
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify()
        cfg = resolve_config(args.config, _overrides_from_args(args))
        if args.command == "train-teacher":
            return cmd_train_teacher(cfg)
        if args.command == "distill":
            return cmd_distill(cfg, args.teacher)
        if args.command == "eval":
            return cmd_eval(cfg, args.ckpt)
        if args.command == "transfer":
            return cmd_transfer(cfg, args.ckpt)
        if args.command == "export-embeddings":
            return cmd_export_embeddings(cfg, args.ckpt, args.csv)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.teacher, args.grid, args.seeds, args.jobs)
        raise ConfigError(f"unknown command {args.command!r}")
    except CheckpointFormatError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ShapeMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
