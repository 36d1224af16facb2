"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and reads the JSON
object it prints as its last line.  ``--t0`` is the parent's monotonic
clock just before the spawn, so ``setup_s`` covers interpreter start,
imports, data generation and model construction up to the first training
call.  The object also carries the run metadata.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, when numpy ships one."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs1", action="store_true",
                   help="after an ablate-sweep repetition, time the sweep with one job")
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--corrupt-checkpoint", action="store_true",
                   help="flip a byte of every saved checkpoint (gate self-test)")
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    setup_s = time.monotonic() - args.t0
    os.makedirs(args.workdir, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    rep = workloads.Rep(args.workdir, args.corrupt_checkpoint, tracer)
    wl.run(rep)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "setup_s": setup_s,
        "teacher_s": rep.teacher_s,
        "distill_s": rep.distill_s,
        "rows": rep.rows,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "test_accs": rep.test_accs,
        "attempted": rep.attempted,
        "failures": rep.failures,
        "meta": metadata(),
    }
    if tracer is not None:
        totals = tracer.totals()
        out["layers"] = tracing.layer_metrics(totals, tracer.span_cost())
    if args.jobs1:
        out["jobs1_s"] = wl.reference_sweep(rep)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
