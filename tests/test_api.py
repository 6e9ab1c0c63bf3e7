"""The public surface: exported names and what the benchmark imports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import flipdist

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in flipdist.__all__ if not hasattr(flipdist, name)]
    assert missing == []


# the attributes the traced benchmark patches by name, the stats fields it
# reads, and its microbenchmarks (apply_flip, admissible_edges,
# legal_actions) on one square
BENCH_CALLS = """
import tracing, workloads
from flipdist import SolverStats, Triangulation
tracing.Patches(tracing.Tracer(), tracing.REQUEST_TARGETS + tracing.SETUP_TARGETS)
tracing._decide_attrs({"stats": SolverStats()}, None)
square = Triangulation.build([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
tracing.microbench([square], 0.001)
"""


def test_benchmark_modules_import():
    # the benchmark imports package names at module level and reads stats
    # fields by name, so an API change that breaks it fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_CALLS],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# exported names with no caller yet; ROADMAP item 1 gives
# enumerate_triangulations one (the slack strata enumerate convex polygons)
NOT_YET_CALLED = {"enumerate_triangulations"}


def test_every_exported_name_has_a_caller():
    # an exported name must be used by the library itself or by the
    # benchmark; one that only the tests call belongs in tests/
    sources = [
        p.read_text() for p in (ROOT / "src" / "flipdist").glob("*.py") if p.name != "__init__.py"
    ] + [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    unused = []
    for name in flipdist.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^(?:class|def) {re.escape(name)}\b|^{re.escape(name)}\s*[:=]", re.M)
        uses = sum(len(word.findall(src)) - len(definition.findall(src)) for src in sources)
        if uses == 0:
            unused.append(name)
    assert sorted(set(unused) - NOT_YET_CALLED) == []
