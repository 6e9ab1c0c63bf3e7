"""The public surface: exported names and what the benchmark imports."""

import ast
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


def _defined_names(tree: ast.Module) -> set[str]:
    """Module-level names, methods and __slots__ entries a module defines,
    dunders left out (the language reads those)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif _is_slots(item):
                    names.update(c.value for c in item.value.elts)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _is_slots(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
    )


def _read_names(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names and attributes, imported names,
    and identifier strings (the benchmark patches attributes by name);
    definitions, assignments and __slots__ entries are not reads."""
    slots = {id(c) for node in ast.walk(tree) if _is_slots(node) for c in node.value.elts}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and id(node) not in slots:
            if isinstance(node.value, str) and node.value.isidentifier():
                reads.add(node.value)
    return reads


def test_every_library_name_has_a_reader():
    # a module-level name, method or slot of the library must be read by
    # the library itself or by the benchmark; anything else is dead state
    # or belongs in tests/ (__init__.py only re-exports, so it is no reader)
    library = [
        ast.parse(p.read_text())
        for p in sorted((ROOT / "src" / "flipdist").glob("*.py"))
        if p.name != "__init__.py"
    ]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    reads = set().union(*map(_read_names, library + bench))
    unread = set().union(*map(_defined_names, library)) - reads
    assert sorted(unread - NOT_YET_CALLED) == []
