"""Command-line interface: training, distillation, evaluation, transfer,
ablation sweeps and the verification suite.

Configuration is a flat ``key=value`` file (one pair per line, ``#``
comments) merged with flag overrides; flags always win.  Every run
directory receives the fully-resolved config echo, the epoch CSV, the
checkpoint, and a ``DONE`` completion marker.  Exit codes: 0 success, 1 config
or usage error, 2 data error, 3 divergence, 4 checkpoint-format error.
An unreadable config file is a config error, any other unusable path a data error.
A closed stdout ends the output, not the run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import itertools
import os
import sys

import numpy as np

from .autodiff import set_blas_threads
from .data import BatchPlan, Dataset, load_split, synth_blob_split
from .errors import (CheckpointFormatError, ConfigError, DegenerateInputError, DivergenceError,
                     DomainError, FormatError, ShapeMismatchError)
from .losses import DistillConfig
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
    "alpha": (float, DistillConfig.alpha),
    "beta": (float, DistillConfig.beta),
    "lambda_kl": (float, DistillConfig.lambda_kl),
    "tau_init": (float, DistillConfig.tau_init),
    "tau_max": (float, DistillConfig.tau_max),
    "kd_temperature": (float, DistillConfig.kd_temperature),
    "proj_dim": (int, DistillConfig.proj_dim),
    "learn_temperature": (_parse_bool, DistillConfig.learn_temperature),
    "detach_consistency": (_parse_bool, DistillConfig.detach_consistency),
    "lr": (float, 0.05),
    "momentum": (float, OptimSpec.momentum),
    "weight_decay": (float, OptimSpec.weight_decay),
    "epochs": (int, OptimSpec.epochs),
    "schedule": (_parse_schedule, ((15, 0.1), (23, 0.1))),
    "batch_size": (int, 128),
    "augment": (str, BatchPlan.augment),
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


def load_datasets(cfg: dict, splits: tuple[str, ...] = ("training", "test")
                  ) -> tuple[Dataset, ...]:
    """The dataset's ``splits``, by default ``(train, test)``.  A file dataset
    reads only those splits' files, one file at a time (:func:`data.load_split`),
    and converts only the first ``train_limit`` training rows to float."""
    kind, data_dir = cfg["dataset"], cfg["data_dir"]
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
        return tuple({"training": train, "test": test}[split] for split in splits)
    loaded = []
    for split in splits:
        limit = (cfg["train_limit"] or None) if split == "training" else None
        ds = load_split(kind, split, data_dir, limit)
        if limit:
            ds = Dataset(ds.images, ds.labels, ds.class_count, f"{ds.name}[:{limit}]")
        if len(ds) == 0:
            raise FormatError(f"the {kind} {split} split in {data_dir!r} has no rows")
        loaded.append(ds)
    return tuple(loaded)


def _spec_and_data(cfg: dict, role: str) -> tuple[ModelSpec, Dataset, Dataset]:
    """The ``role`` model's spec and the (train, test) splits that shape it."""
    train, test = load_datasets(cfg)
    c, h, w = train.images.shape[1:]
    return (ModelSpec(cfg[f"{role}_family"], cfg[f"{role}_widths"], train.class_count,
                      (int(c), int(h), int(w))), train, test)


def _from_config(cls, cfg: dict):
    """A ``cls`` whose every field is the config value of that name."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})


_optim = functools.partial(_from_config, OptimSpec)
_distill_config = functools.partial(_from_config, DistillConfig)


def _plan(cfg: dict) -> BatchPlan:
    return BatchPlan(batch_size=cfg["batch_size"], shuffle_seed=cfg["seed"],
                     augment=cfg["augment"])


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


def cmd_train_teacher(cfg: dict, args) -> int:
    metrics = _train_run(cfg, cfg["out_dir"], "teacher.ckpt", lambda: train_teacher(
        *_spec_and_data(cfg, "teacher"), _optim(cfg), _plan(cfg)))
    print(f"teacher: train_acc={metrics['train_acc']:.2f} test_acc={metrics['test_acc']:.2f}")
    return EXIT_OK


def cmd_distill(cfg: dict, args) -> int:
    # the teacher checkpoint is read before the data
    metrics = _train_run(cfg, cfg["out_dir"], "student.ckpt", lambda: distill(
        load_checkpoint(args.teacher), *_spec_and_data(cfg, "student"), _distill_config(cfg),
        _optim(cfg), _plan(cfg)))
    print(f"student: train_acc={metrics['train_acc']:.2f} test_acc={metrics['test_acc']:.2f} "
          f"tau={metrics['tau']:.4f}")
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


def cmd_eval(cfg: dict, args) -> int:
    with _restored(args.ckpt) as (_, model, stats):
        (test,) = load_datasets(cfg, ("test",))
        check_class_count(model.spec, test, "the checkpoint")
        acc = evaluate(model, test, stats, cfg["batch_size"])
    print(f"top1_accuracy: {acc:.2f}")
    return EXIT_OK


def cmd_transfer(cfg: dict, args) -> int:
    with _restored(args.ckpt) as (_, model, stats):
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


def cmd_export_embeddings(cfg: dict, args) -> int:
    with _restored(args.ckpt) as (ckpt, model, stats):
        head = restore_student_head(ckpt)
        (test,) = load_datasets(cfg, ("test",))
        count = export_embeddings(model, head, test, stats, args.csv, cfg["batch_size"])
    print(f"exported {count} embeddings to {args.csv}")
    return EXIT_OK


# the config keys a sweep grid may vary, in the order of the summary.csv columns
GRID_KEYS = ("alpha", "beta", "lambda_kl")


def parse_grid(expr: str) -> list[dict[str, float]]:
    """'alpha=0.1,0.5|beta=1,100' -> cartesian product of value choices."""
    axes: dict[str, list[float]] = {}
    for axis in expr.split("|"):
        if "=" not in axis:
            raise ConfigError(f"grid axis {axis!r} is not key=v1,v2,...")
        key, values = axis.split("=", 1)
        key = key.strip()
        if key not in GRID_KEYS:
            raise ConfigError(f"grid key must be {', '.join(GRID_KEYS[:-1])} or "
                              f"{GRID_KEYS[-1]}, got {key!r}")
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


def _sweep_inputs(cfg: dict, teacher_path: str) -> tuple:
    """A sweep's shared ``(teacher checkpoint, student spec, train, test, out_dir)``;
    a malformed teacher, or one for another class count, stops the sweep."""
    with _restored(teacher_path) as (teacher_ckpt, teacher, _):
        spec, train, test = _spec_and_data(cfg, "student")
        check_class_count(teacher.spec, train, "the teacher checkpoint")
    return teacher_ckpt, spec, train, test, cfg["out_dir"]


# The sweep inputs every run shares, set in each worker process by the pool
# initializer.
_worker_shared: tuple | None = None


def _init_ablation_worker(shared: tuple, threads: int) -> None:
    """Keep the inherited ``shared`` inputs and give this worker ``threads``
    BLAS threads and conv lanes."""
    global _worker_shared
    _worker_shared = shared
    set_blas_threads(threads)


def _ablation_worker_run(task: tuple) -> tuple[int, int, float, str]:
    return _ablation_run(_worker_shared, task)


def _submit(pool, task: tuple) -> concurrent.futures.Future:
    """Submit one sweep task; a pool already broken gives a failed future."""
    try:
        return pool.submit(_ablation_worker_run, task)
    except concurrent.futures.BrokenExecutor as exc:
        future = concurrent.futures.Future()
        future.set_exception(exc)
        return future


def _run_in_workers(shared: tuple, tasks: list[tuple], jobs: int) -> list[tuple]:
    """Run sweep tasks in forked worker processes; rows come back in task order.

    Tasks are submitted longest first: those with ``beta != 0``, whose
    runs build the projection pipeline and take about twice as long, then
    the rest, each group in task order.  In task order the last long run
    can start when the other workers have nothing left to take.

    Each worker is forked from this process, so it inherits the imports
    and ``shared``, the inputs :func:`_sweep_inputs` loaded and checked
    here; only the tasks and their rows are pickled.  No conv lane thread
    is alive here to be forked: lanes live only inside a BLAS pin.  Under
    fork the pool starts every worker at the first submit, before its
    manager thread hands out a task, so it cannot lose track of a worker
    it is still starting when another one dies; so there are at most as
    many workers as tasks and as CPUs this process may run on (its
    affinity mask, which ``taskset`` or a cpuset narrows).  Where numpy's
    OpenBLAS thread control is found, those CPUs are split between the
    workers: each gets ``cpus // workers`` BLAS threads and conv lanes, so
    the workers do not oversubscribe them; this process keeps its own.
    Without it (MKL, or an OpenBLAS this module cannot reach) each worker
    keeps this process's BLAS threads and one lane.  A task whose worker
    died gets a failed row carrying the error text.
    """
    # Imported here so that commands without worker processes do not pay for it.
    import multiprocessing

    cpus = len(os.sched_getaffinity(0))
    workers = min(jobs, len(tasks), cpus)
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_ablation_worker,
            initargs=(shared, cpus // workers)) as pool:
        futures: list = [None] * len(tasks)
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


def cmd_ablate(cfg: dict, args) -> int:
    """Distill every ``--grid`` cell at ``--seeds`` seeds and write ``summary.csv``.

    Every run's configuration is built and checked before any run starts.
    With ``--jobs`` above 1 the runs go to up to that many worker processes,
    and no more than the CPUs this process may run on, forked from this
    one, runs with ``beta != 0`` first (see :func:`_run_in_workers`); each
    worker inherits the teacher and the datasets this process loaded and
    checked, and reads no file of them again.  Either way the rows of ``summary.csv`` stay in grid order, then
    seed order.  Exit code 3 when every run failed.
    """
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    out_dir = cfg["out_dir"]
    cells = parse_grid(args.grid)
    tasks = []
    for cell_index, cell in enumerate(cells):
        for seed_index in range(args.seeds):
            run_cfg = {**cfg, **cell, "seed": cfg["seed"] + seed_index}
            tasks.append((cell_index, seed_index, run_cfg, _distill_config(run_cfg),
                          _optim(run_cfg), _plan(run_cfg)))
    os.makedirs(out_dir, exist_ok=True)
    echo_config(cfg, out_dir)
    shared = _sweep_inputs(cfg, args.teacher)
    if args.jobs > 1:
        rows = _run_in_workers(shared, tasks, args.jobs)
    else:
        rows = [_ablation_run(shared, task) for task in tasks]

    by_cell: dict[int, list[float]] = {}
    for cell_index, _, acc, _ in rows:
        by_cell.setdefault(cell_index, []).append(acc)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes error texts holding commas
        writer.writerow(["cell", *GRID_KEYS, "seed", "test_acc", "cell_mean", "cell_std",
                         "error"])
        for cell_index, seed_index, acc, error in rows:
            cell = cells[cell_index]
            accs = np.asarray(by_cell[cell_index], dtype=np.float64)
            valid = accs[np.isfinite(accs)]
            mean = float(valid.mean()) if valid.size else float("nan")
            std = float(valid.std()) if valid.size else float("nan")
            writer.writerow([cell_index, *(cell.get(key, cfg[key]) for key in GRID_KEYS),
                             cfg["seed"] + seed_index, f"{acc:.4f}", f"{mean:.4f}", f"{std:.4f}",
                             error])
    print(f"ablation summary: {summary_path} ({len(rows)} rows)")
    failures = sum(1 for _, _, acc, _ in rows if not np.isfinite(acc))
    if failures == len(rows):
        print("every ablation run failed", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_verify(cfg: dict, args) -> int:
    from .verify import run_all
    results = run_all(verbose=True)
    failed = [r for r in results if not r.ok]
    if failed:
        print("failed checks: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is a config error (exit 1)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's ``run`` takes the resolved config and the parsed
    arguments; a flag whose ``dest`` is a :data:`CONFIG_KEYS` name spells that
    key, and only :func:`resolve_config` parses its value."""
    parser = _Parser(prog="dcd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--data", dest="data_dir", help="dataset directory")
        p.add_argument("--out", dest="out_dir", help="run directory")
        p.add_argument("--seed", help="seed override")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")
        return p

    command("train-teacher", cmd_train_teacher, "supervised teacher pretraining")

    p = command("distill", cmd_distill, "train a student under the combined objective")
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--lambda", dest="lambda_kl")
    p.add_argument("--fixed-tau", type=float, metavar="T",
                   help="freeze the temperature at divisor value T")

    p = command("eval", cmd_eval, "top-1 accuracy of a checkpoint on the test split")
    p.add_argument("--ckpt", required=True)

    p = command("transfer", cmd_transfer, "linear probe on frozen features")
    p.add_argument("--ckpt", required=True)

    p = command("export-embeddings", cmd_export_embeddings,
                "write projected embeddings as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--csv", required=True, help="output CSV path")

    p = command("ablate", cmd_ablate, "cartesian hyperparameter sweep")
    p.add_argument("--teacher", required=True)
    p.add_argument("--grid", required=True, help="e.g. alpha=0.1,0.5|beta=1,100")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)

    sub.add_parser("verify", help="run the built-in verification suite").set_defaults(
        run=cmd_verify)
    return parser


def _overrides_from_args(args) -> dict[str, str]:
    """The ``--set`` pairs, then every flag named after a config key, which wins."""
    overrides: dict[str, str] = {}
    for pair in getattr(args, "set", []):
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    fixed_tau = getattr(args, "fixed_tau", None)
    if fixed_tau is not None:
        if not 0 < fixed_tau <= 1:  # T > 1 would need tau < 0; NaN fails too
            raise ConfigError(f"--fixed-tau must lie in (0, 1], got {fixed_tau}")
        overrides["tau_init"] = str(float(np.log(1.0 / fixed_tau)))
        overrides["learn_temperature"] = "false"
    return overrides


class _Stdout:
    """``sys.stdout`` for one :func:`main` call: the first write or flush that
    finds the pipe's reader gone points the stream's file descriptor at the
    null device, so the rest of the output, the exit flush's included, is
    dropped and the run goes on to its own exit code."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def _guarded(self, op, *args):
        try:
            return op(*args)
        except BrokenPipeError:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, self.stream.fileno())
            os.close(null)

    def write(self, text: str):
        return self._guarded(self.stream.write, text)

    def flush(self) -> None:
        self._guarded(self.stream.flush)


def main(argv: list[str] | None = None) -> int:
    sys.stdout = out = _Stdout(sys.stdout)
    try:
        return _run(argv)
    finally:
        out.flush()  # a closed pipe is met here, not in the exit flush
        sys.stdout = out.stream


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(resolve_config(getattr(args, "config", None),
                                       _overrides_from_args(args)), args)
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
    except MemoryError as exc:  # array sizes follow from the config and the files it names
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
