"""The public surface: exported names and what the benchmark imports."""

import os
import subprocess
import sys
from pathlib import Path

import flipdist

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in flipdist.__all__ if not hasattr(flipdist, name)]
    assert missing == []


def test_benchmark_modules_import():
    # the benchmark imports package names at module level, so an API
    # deletion that breaks it fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing, workloads"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
