"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints every metric BENCHMARK.json names, with its unit, and passes
its gate.  It then shows that the gate is not vacuous (a corrupted
checkpoint byte counts as a failed operation and the run exits non-zero),
that traced counts repeat exactly for one seed, that every per-layer
metric says what it should move in ``layers.json``, and that the
benchmark refuses to run where the ``dcd`` sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, WORKLOADS  # noqa: E402

SEED = 3


def bench(*args: str, root: str = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           "--seed", str(SEED), *args],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        moves = json.load(fh)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists exactly the workloads run.py runs")
    check(all(m["name"] in moves for m in spec["per_layer"]),
          "every per-layer metric names what it should move in layers.json")

    traced = {}
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = bench("--workload", workload, "--tiny", "--trace", str(trace))
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: exit 0, gate passed")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: every declared metric, with its unit")
            if trace:
                traced[workload] = result["metrics"]

    code, again = bench("--workload", "ablate-sweep", "--tiny", "--trace", "1")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in ("s", "s_computed")]
    check(code == 0 and all(again["metrics"][k] == traced["ablate-sweep"][k] for k in counts),
          "traced counts repeat exactly for one seed (ablate-sweep, two jobs)")

    code, result = bench("--workload", "convnet-distill", "--tiny", "--corrupt-checkpoint")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1, "a corrupted checkpoint byte fails the gate and the run")

    os.makedirs(OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("--workload", "convnet-distill", "--trace", "0", root=bare)
        check(code != 0 and result is None, "without the dcd sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
