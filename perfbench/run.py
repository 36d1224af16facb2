"""Benchmark for dcd: two distillation workloads timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload convnet-distill --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table

Each repetition runs in a fresh interpreter (``worker.py``), one at a
time, and reports its own set-up time.  With ``--trace 0`` the run
repeats the workload while the next repetition still fits in
``--seconds`` and reports the median over repetitions of every
end-to-end metric in BENCHMARK.json.  With
``--trace 1`` it runs the workload once untraced and once with the
per-layer tracer (``tracing.py``) and reports the per-layer metrics.
Every repetition passes the correctness gate (``gate.py``); a failed
operation makes the run exit 1.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Two workloads, so that every run can last close to a minute: on a shared
# 2-vCPU host the speed drifts over minutes, and shorter runs spread past
# the bounds.  convnet-distill covers conv/pool/relu; ablate-sweep covers
# the CLI and the MLP per-op path.
WORKLOADS = ("convnet-distill", "ablate-sweep")
RUN_LIMIT_S = 170.0  # a whole run, every repetition included
OUT_DIR = os.path.join(ROOT, ".perfbench")


class BenchError(Exception):
    """A worker crashed, timed out or printed no result."""


def spawn(workload: str, seed: int, workdir: str, deadline: float, *extra: str) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {exc.timeout:.0f} s") from exc
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def failures(reps: list[dict]) -> list[str]:
    return [msg for rep in reps for msg in rep.get("failures", [])]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med([r["setup_s"] for r in reps]),
        "teacher_s": med([r["teacher_s"] for r in reps]),
        "distill_s": med([r["distill_s"] for r in reps]),
        "train_rows_per_s": med([r["rows"] / (r["teacher_s"] + r["distill_s"]) for r in reps]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in reps]),
        "test_acc": med([statistics.fmean(r["test_accs"]) if r["test_accs"] else 0.0
                         for r in reps]),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, flags: list[str]):
    """Run one workload; returns (metrics, reps)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    try:
        if trace:
            jobs1 = ["--jobs1"] if workload == "ablate-sweep" else []
            base = spawn(workload, seed, os.path.join(workdir, "base"), limit, *jobs1, *flags)
            traced = spawn(workload, seed, os.path.join(workdir, "traced"), limit,
                           "--trace", "1", *flags)
            layers = dict(traced["layers"])
            layers["cli.ablate.jobs1_s"] = base.get("jobs1_s", 0.0)
            layers["process.cpu_user_s"] = base["cpu_user_s"]
            layers["process.cpu_sys_s"] = base["cpu_sys_s"]
            return layers, [base, traced]
        deadline = start + seconds
        reps: list[dict] = []
        while not reps or time.monotonic() + reps[-1]["wall_s"] <= deadline:
            reps.append(spawn(workload, seed, os.path.join(workdir, f"rep{len(reps)}"), limit,
                              *flags))
        metrics = end_to_end(reps)
        total = sum(r["attempted"] for r in reps)
        metrics["error_rate"] = len(failures(reps)) / total
        return metrics, reps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload: str, seed: int, trace: bool, spec: dict, flags: list[str],
           seconds: float) -> dict:
    metrics, reps = measure(workload, seed, seconds, trace, flags)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    chosen = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
              for m in declared}
    failed = failures(reps)
    result = {"correct": not failed, "attempted": sum(r["attempted"] for r in reps),
              "failed": len(failed), "metrics": chosen}
    print(f"{workload} (seed {seed}, trace {int(trace)}): {len(reps)} repetitions")
    for name, entry in chosen.items():
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        print(f"  {'test_acc':<40} {metrics['test_acc']:.6g} %")
        print(f"  {'error_rate':<40} {metrics['error_rate']:.6g} "
              f"({len(failed)} of {result['attempted']} operations failed)")
    for msg in failed:
        print(f"  FAILED {msg}", file=sys.stderr)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "repeat_count": len(reps), "meta": reps[0]["meta"], "result": result, "all_metrics": metrics,
              "repetitions": reps}
    print("  meta " + json.dumps(record["meta"], sort_keys=True))
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes, one repetition")
    p.add_argument("--corrupt-checkpoint", action="store_true",
                   help="flip a byte of every saved checkpoint (gate self-test)")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # running worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "dcd", "__init__.py")):
        print(f"error: no dcd sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    flags = [f for f, on in (("--tiny", args.tiny),
                             ("--corrupt-checkpoint", args.corrupt_checkpoint)) if on]
    seconds = 0.0 if args.tiny else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: report(w, args.seed, bool(args.trace), spec, flags, seconds)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
