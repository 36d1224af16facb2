"""Alternating parent/change pairs of one benchmark workload.

    python tools/ab.py PARENT CHANGE --workload W --pairs N --seed S --out BENCH_<pr>.json

PARENT and CHANGE are git revisions of this repository.  Pair i runs
``python3 perfbench/run.py --workload W --seed S+i --trace 0`` once on
each side, for the run length ``run.py`` itself sets, the parent first
in even pairs and the change first in odd ones.  Before each run the side's tree is extracted with ``git
archive`` into the same directory, and removed after it, so both sides
run from one path: the checkout's path alone moves end-to-end times by
up to 15%.  ``perfbench/run.py`` is each side's own, called unchanged.
Pick seeds that were not used while the change was written.

The record goes to ``--out`` under ``workloads[W]``, next to any other
workload already in that file: the per-pair values of every end-to-end
metric in the change's BENCHMARK.json (plus ``error_rate``), each side's
median and quartiles, and for each metric the count of pairs the change
wins, loses and ties by the metric's ``better`` direction.  It also
holds the revisions and their ``src`` trees, the seeds, each run's
repetition count and failed operations, the machine, Python, numpy
and BLAS versions that ``perfbench/worker.py`` reports, and the
``environment`` both sides inherit from this process: each variable of
``ENVIRONMENT`` with its value, or ``unset``.  With
``PYTHONDONTWRITEBYTECODE`` set, a freshly extracted tree has no cached
bytecode, so every worker compiles ``dcd`` and ``perfbench`` from source
and ``setup_s`` includes that.

Each metric also gets a verdict, printed at the end, by its relative
``bound`` in BENCHMARK.json:

- ``gain``: the change wins at least nine tenths of the pairs (a tie
  counts for neither side) and its median beats the parent's by more
  than the parent's IQR;
- ``worse``: the change's median is worse than the parent's by more than
  the bound times the parent's median; for a metric without a bound
  (``error_rate``), worse at all;
- ``unresolved``: neither, and either side's IQR exceeds the bound times
  its median, unless every change run beats every parent run;
- ``unchanged``: otherwise.

The tool is not part of the test suite; ``tests/test_ab.py`` checks
``summarize``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the variables that move readings without a change to the code
ENVIRONMENT = ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED", "OPENBLAS_NUM_THREADS",
               "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(sha: str, tree: str) -> None:
    """The committed files of ``sha``, and nothing else, at ``tree``."""
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha)), mode="r:") as tar:
        tar.extractall(tree, filter="data")


def run_side(sha: str, tree: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run of ``sha`` from ``tree``: its metric values,
    repetition count, failed operations and run metadata."""
    extract(sha, tree)
    try:
        proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--trace", "0"],
                              cwd=tree, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"{sha[:12]} seed {seed}: perfbench printed nothing "
                             f"(exit {proc.returncode}):\n{proc.stderr}")
        final = json.loads(lines[-1])
        with open(os.path.join(tree, ".perfbench", "results",
                               f"{workload}-seed{seed}-trace0.json")) as fh:
            record = json.load(fh)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    values = {name: entry["value"] for name, entry in final["metrics"].items()}
    values["error_rate"] = record["all_metrics"]["error_rate"]
    return {"values": values, "repeat_count": record["repeat_count"],
            "attempted": final["attempted"], "failed": final["failed"], "meta": record["meta"]}


def environment() -> dict[str, str]:
    """Each variable of ``ENVIRONMENT`` with its value here, or ``unset``."""
    return {name: os.environ.get(name, "unset") for name in ENVIRONMENT}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float | None]) -> dict:
    """Each metric's spread on both sides, pair counts and verdict."""
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["values"][name] for p in pairs]
        change = [p["change"]["values"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        diffs = [sign * (c - p) for p, c in zip(parent, change)]
        p_stats, c_stats = spread(parent), spread(change)
        gap = sign * (c_stats["median"] - p_stats["median"])
        wins = sum(d > 0 for d in diffs)
        bound = bounds.get(name)
        every_run_better = min(sign * v for v in change) > max(sign * v for v in parent)
        if wins >= 0.9 * len(pairs) and gap > p_stats["iqr"]:
            verdict = "gain"
        elif gap < -(0.0 if bound is None else bound * abs(p_stats["median"])):
            verdict = "worse"
        elif (bound is not None and not every_run_better
              and any(s["iqr"] > bound * abs(s["median"]) for s in (p_stats, c_stats))):
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        out[name] = {
            "better": direction, "parent": p_stats, "change": c_stats,
            "median_change": (c_stats["median"] / p_stats["median"] - 1.0
                              if p_stats["median"] else None),
            "change_wins": wins, "change_loses": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "gap_exceeds_parent_iqr": gap > p_stats["iqr"],
            "bound": bound, "verdict": verdict,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed+i")
    p.add_argument("--out", required=True, help="JSON record to write or extend")
    args = p.parse_args(argv)

    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    spec = json.loads(git("show", f"{shas['change']}:BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["error_rate"] = "lower"
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    scratch = tempfile.mkdtemp(prefix="ab-")
    tree = os.path.join(scratch, "tree")  # both sides, every run
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(shas[side], tree, args.workload, seed)
            pairs.append(pair)
            print(f"pair {i} seed {seed} ({order[0]} first): " + ", ".join(
                f"{name} {pair['parent']['values'][name]:.4g}/"
                f"{pair['change']['values'][name]:.4g}" for name in better), file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    meta = pairs[0]["parent"]["meta"]
    record = {
        "parent": shas["parent"], "change": shas["change"],
        # the trees outlive a rewritten commit
        "src_trees": {side: git("rev-parse", f"{sha}:src").decode().strip()
                      for side, sha in shas.items()},
        "seeds": [pair["seed"] for pair in pairs],
        "machine": {key: meta.get(key) for key in ("cpu_model", "nproc", "cpu_affinity",
                                                   "python", "numpy", "blas_vendor",
                                                   "blas_threads")},
        "environment": environment(),
        "metrics": summarize(pairs, better, bounds),
        "pairs": [{"seed": pair["seed"], "first": pair["first"],
                   **{side: {key: pair[side][key] for key in
                             ("values", "repeat_count", "attempted", "failed")}
                      for side in ("parent", "change")}}
                  for pair in pairs],
    }
    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["workloads"][args.workload] = record
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name}: {m['verdict']}, {m['parent']['median']:.6g} -> "
              f"{m['change']['median']:.6g}, change better in {m['change_wins']}/{len(pairs)}, "
              f"worse in {m['change_loses']}, IQR {m['parent']['iqr']:.4g} / "
              f"{m['change']['iqr']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
