"""The benchmark's tracer looks up ``dcd`` names by attribute; keep them there."""

import os
import subprocess
import sys

import dcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_current_package():
    """Deleting or renaming a name that ``perfbench/tracing.py`` or
    ``perfbench/workloads.py`` looks up (an ``OPS`` op, ``train.evaluate``,
    ``cli.cmd_ablate``, ...) makes this install fail."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcd.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r}); "
            "import workloads, tracing; tracing.Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
