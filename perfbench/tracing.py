"""Per-layer tracing of ``dcd`` from outside the package.

:meth:`Tracer.install` replaces public functions of ``dcd.autodiff``,
``dcd.losses``, ``dcd.models``, ``dcd.data``, ``dcd.train`` and
``dcd.cli`` with timing wrappers, in every ``dcd`` module namespace that
holds them, so calls made through ``from .x import f`` names are seen
too.  Nothing under ``src/dcd`` changes.

Each wrapper is a span.  Spans nest per thread: a span's inclusive time
(``<name>_s``) covers its children, and its self time (``<name>.self_s``)
is the inclusive time minus what child spans cover.  Op forwards are
spans; when an op records a tape node, its backward closure is replaced
by a timed one, so op backwards are spans inside ``Tape.backward``.
Counts (calls, rows, steps, computed flops and bytes) are recorded at the
same boundaries.  Statistics are per thread and merged at the end, so
``ablate --jobs`` threads need no lock on the hot path.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from dcd import autodiff, cli, data, losses, models, train
from dcd.errors import DivergenceError

F8 = 8  # bytes per float64

# Every differentiable op is wrapped so Tape.backward's self time is exact;
# the benchmark reports the ops named in BENCHMARK.json.
OPS = ("add", "sub", "mul", "div", "exp", "log", "relu", "scale", "tsum", "tmean",
       "gather_rows", "transpose", "reshape", "add_rowvec", "matmul", "l2_normalize_rows",
       "log_softmax_rows", "conv2d", "maxpool2d", "avgpool2d")
LOSSES = ("total_loss", "contrastive_loss", "consistency_loss", "kd_kl_loss",
          "cross_entropy_loss", "similarity_logits")


def _matmul_cost(args, out):
    (m, k), n = args[0].shape, args[1].shape[1]
    io = m * k + k * n + m * n
    return 2 * m * k * n, F8 * io, 4 * m * k * n, 2 * F8 * io


def _conv2d_cost(args, out):
    x, kern = args[0], args[1]
    n, f, ho, wo = out.shape
    patch = kern.size // f  # c * kh * kw
    cols = n * patch * ho * wo
    fwd_bytes = F8 * (x.size + 2 * cols + kern.size + out.size)
    bwd_bytes = F8 * (out.size + 2 * cols + 2 * kern.size + x.size)
    macs = n * f * patch * ho * wo
    return 2 * macs, fwd_bytes, 4 * macs, bwd_bytes


COSTS = {"matmul": _matmul_cost, "conv2d": _conv2d_cost}


class Tracer:
    """Installs the wrappers and collects per-thread span and count totals."""

    def __init__(self):
        self._local = threading.local()
        self._shards: list[defaultdict] = []
        self._lock = threading.Lock()
        self._paused = False

    # -- span bookkeeping --------------------------------------------------

    def _thread(self):
        loc = self._local
        try:
            return loc.stats, loc.stack
        except AttributeError:
            loc.stats, loc.stack = defaultdict(float), []
            with self._lock:
                self._shards.append(loc.stats)
            return loc.stats, loc.stack

    @staticmethod
    def _close(stats, stack, name: str, dt: float) -> None:
        child = stack.pop()
        stats["trace.spans"] += 1
        stats[name + "_s"] += dt
        stats[name + ".self_s"] += dt - child
        if stack:
            stack[-1] += dt

    def _call(self, name: str, fn, args, kwargs):
        stats, stack = self._thread()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(stats, stack, name, time.perf_counter() - t0)

    @contextmanager
    def paused(self):
        """Run the body with every wrapper passing straight through."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def totals(self) -> dict[str, float]:
        merged: defaultdict = defaultdict(float)
        with self._lock:
            for shard in self._shards:
                for key, value in shard.items():
                    merged[key] += value
        return dict(merged)

    # -- installation ------------------------------------------------------

    @staticmethod
    def _replace(orig, wrapped) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "dcd" or name.startswith("dcd."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name: str, orig, after=None):
        """``orig`` as span ``name``; ``after(stats, args, result)`` adds counts."""
        def wrapper(*args, **kwargs):
            if self._paused:
                return orig(*args, **kwargs)
            result = self._call(name, orig, args, kwargs)
            stats, _ = self._thread()
            stats[name + ".calls"] += 1
            if after is not None:
                after(stats, args, result)
            return result
        return wrapper

    def _span(self, name: str, orig, after=None):
        self._replace(orig, self._wrap(name, orig, after))

    def _op(self, op: str, orig):
        key = f"autodiff.{op}"
        cost = COSTS.get(op)

        def timed_backward(bwd, extra):
            def run(g):
                stats, stack = self._thread()
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    return bwd(g)
                finally:
                    self._close(stats, stack, key + ".bwd", time.perf_counter() - t0)
                    if extra is not None:
                        stats[key + ".flops"] += extra[0]
                        stats[key + ".bytes"] += extra[1]
            return run

        def wrapper(*args, **kwargs):
            if self._paused:
                return orig(*args, **kwargs)
            out = self._call(key + ".fwd", orig, args, kwargs)
            stats, _ = self._thread()
            stats[key + ".calls"] += 1
            extra = None
            if cost is not None:
                fwd_flops, fwd_bytes, bwd_flops, bwd_bytes = cost(args, out)
                stats[key + ".flops"] += fwd_flops
                stats[key + ".bytes"] += fwd_bytes
                extra = (bwd_flops, bwd_bytes)
            tape = autodiff.active_tape()
            if tape is not None and tape.nodes and tape.nodes[-1].out_id == out.id:
                node = tape.nodes[-1]
                node.backward = timed_backward(node.backward, extra)
            return out

        self._replace(orig, wrapper)

    def _generator(self, name: str, orig):
        """Time each ``next`` of a batch stream: the wait a step has for its data."""
        def wrapper(*args, **kwargs):
            if self._paused:
                yield from orig(*args, **kwargs)
                return
            stream = orig(*args, **kwargs)
            while True:
                stats, stack = self._thread()
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    batch = next(stream)
                except StopIteration:
                    return
                finally:
                    self._close(stats, stack, name, time.perf_counter() - t0)
                stats[name + ".rows"] += len(batch.labels)
                yield batch
        self._replace(orig, wrapper)

    def install(self) -> "Tracer":
        for op in OPS:
            self._op(op, getattr(autodiff, op))

        def tape_backward(orig):
            def wrapper(tape, root):
                if self._paused:
                    return orig(tape, root)
                stats, _ = self._thread()
                stats["autodiff.tape_nodes"] += len(tape.nodes)
                return self._call("autodiff.Tape.backward", orig, (tape, root), {})
            return wrapper
        autodiff.Tape.backward = tape_backward(autodiff.Tape.backward)

        for name in LOSSES:
            self._span(f"losses.{name}", getattr(losses, name))

        for cls in (models.Mlp, models.ConvNet):
            cls.forward = self._forward(cls.forward)
        self._span("models.project", models.project)

        def count(key, measure):
            def after(stats, args, result):
                stats[key] += measure(args, result)
            return after

        self._span("train.evaluate", train.evaluate,
                   count("train.evaluate.rows", lambda a, r: len(a[1])))
        self._span("train.sgd_step", train.sgd_step)
        self._span("train.collect_grads", train.collect_grads)
        self._span("train.save_checkpoint", train.save_checkpoint,
                   count("train.checkpoint_bytes", lambda a, r: os.path.getsize(a[1])))
        self._span("train.load_checkpoint", train.load_checkpoint)
        for name in ("train_teacher", "distill"):
            self._span(f"train.{name}", self._count_divergence(getattr(train, name)))
        self._generator("data.batches", data.batches)
        self._generator("data.eval_batches", data.eval_batches)
        self._span("cli.ablate", cli.cmd_ablate, self._ablate_outcome)
        return self

    def span_cost(self, ops: int = 2000, repeats: int = 15) -> float:
        """Seconds the installed wrappers add per span.

        A tape of ``ops`` tiny ``autodiff.scale`` calls and its backward runs
        ``repeats`` times traced and paused, alternately and with the garbage
        collector off; the difference of the fastest of each is divided by
        the spans one traced run closes.  Those spans land in the totals, so
        read the totals first.
        """
        x = autodiff.constant(np.ones((1, 1)))

        def chain() -> float:
            t0 = time.perf_counter()
            with autodiff.Tape() as tape:
                y = x
                for _ in range(ops):
                    y = autodiff.scale(y, 1.0)
                tape.backward(autodiff.tsum(y))
            return time.perf_counter() - t0

        before = self.totals().get("trace.spans", 0.0)
        traced, bare = [], []
        gc.disable()
        try:
            for _ in range(repeats):
                traced.append(chain())
                with self.paused():
                    bare.append(chain())
        finally:
            gc.enable()
        spans = (self.totals()["trace.spans"] - before) / repeats
        return max(0.0, min(traced) - min(bare)) / spans

    def _forward(self, orig):
        def forward(model, images):
            if self._paused:
                return orig(model, images)
            tracked = autodiff.active_tape() is not None
            name = "models.forward_tracked" if tracked else "models.forward_untracked"
            result = self._call(name, orig, (model, images), {})
            stats, _ = self._thread()
            stats["models.forward.rows"] += images.shape[0]
            return result
        return forward

    def _count_divergence(self, orig):
        def wrapper(*args, **kwargs):
            try:
                return orig(*args, **kwargs)
            except DivergenceError:
                stats, _ = self._thread()
                stats["train.divergence_errors"] += 1
                raise
        self._replace(orig, wrapper)
        return wrapper

    @staticmethod
    def _ablate_outcome(stats, args, result) -> None:
        """Runs and failed runs, read back from the sweep's summary.csv."""
        with open(os.path.join(args[0]["out_dir"], "summary.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        stats["cli.ablate.runs"] += len(rows)
        stats["cli.ablate.failed_runs"] += sum(1 for row in rows if row.rsplit(",", 1)[1])


def layer_metrics(totals: dict[str, float], cost_per_span: float) -> dict[str, float]:
    """Span and count totals plus the derived figures the benchmark reports.

    ``trace.overhead_s`` is computed, not timed: the number of spans times
    ``cost_per_span`` (:meth:`Tracer.span_cost`).  A traced run minus an
    untraced one would be smaller than the run-to-run noise of either.
    """
    out = dict(totals)
    out["trace.overhead_s"] = totals.get("trace.spans", 0.0) * cost_per_span
    out["cli.ablate.busy_s"] = totals.get("cli.ablate_s", 0.0)
    out["train.steps"] = totals.get("train.sgd_step.calls", 0.0)
    train_rows = totals.get("data.batches.rows", 0.0)
    out["train.eval_rows_per_train_row"] = (
        totals.get("train.evaluate.rows", 0.0) / train_rows if train_rows else 0.0)
    return out
