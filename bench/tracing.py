"""Spans at flipdist's layer boundaries, recorded from outside the package.

For a traced call, `Patches.applied` swaps the public functions that the CLI
reaches (`parse_instance`, `PointSet`, `hull_boundary_chain`,
`Triangulation.build`, `bfs_distance`, `decide_flip_distance_eq`,
`exists_solution_with_exactly_k_flips`, `apply_sequence`, `build_dag`) on
the module attributes through which they are looked up, for wrappers that
record a span, and restores them on exit.  So a traced request runs the
real `flipdist.cli.main` and makes exactly its calls in its order, and
nothing in the package changes.  Spans stay in memory until `write_spans`.

A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import flipdist.cli as cli
import flipdist.fpt_solver as fpt_solver
import flipdist.instances as instances
import flipdist.triangulation as triangulation
from flipdist import MachineState, Triangulation, legal_actions

MAX_K = 4  # the largest distance any workload decides; fpt.exists_ms.k0..k4


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "attrs")

    def __init__(self, id: int, parent: int | None, request: int, name: str):
        self.id, self.parent, self.request, self.name = id, parent, request, name
        self.start = perf_counter()
        self.end = self.start
        self.attrs: dict = {}


class Tracer:
    """Collects spans; `request` tags each span with the current request id
    (-1 outside requests, e.g. during setup)."""

    ROOT = "cli.main"  # the span around one whole request

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.request, name)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        sig = inspect.signature(fn) if attrs else None

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs:
                span.attrs = attrs(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _oracle_attrs(bound: dict, result: object) -> dict:
    stats = bound.get("stats")
    return {"states": stats.nodes_visited if stats else 0}


def _decide_attrs(bound: dict, result: object) -> dict:
    stats = bound.get("stats")
    fields = ("states_expanded", "actions_generated", "compositions_tried", "iterations_run")
    return {f: getattr(stats, f) for f in fields} if stats else {}


def _exists_attrs(bound: dict, result: object) -> dict:
    return {"k": bound["k"], "accepted": result}


REQUEST_TARGETS = (
    (cli, "parse_instance", "instances.parse", None),
    (instances, "PointSet", "triangulation.pointset", None),
    (triangulation, "hull_boundary_chain", "geometry.hull_chain", None),
    (Triangulation, "build", "triangulation.build", None),
    (cli, "bfs_distance", "oracle.bfs", _oracle_attrs),
    (cli, "decide_flip_distance_eq", "fpt.decide", _decide_attrs),
    (fpt_solver, "exists_solution_with_exactly_k_flips", "fpt.exists", _exists_attrs),
    (cli, "apply_sequence", "flip_dag.apply_sequence", None),
    (cli, "build_dag", "flip_dag.build_dag", None),
)
SETUP_TARGETS = (
    (instances, "generate_instance", "instances.generate", None),
    (instances, "scan_triangulation", "instances.scan", None),
)


class Patches:
    """Wrapped versions of `targets`, swapped in only while `applied`."""

    def __init__(self, tracer: Tracer, targets) -> None:
        self._swaps = []
        for owner, attr, name, attrs in targets:
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                wrapped = classmethod(tracer.wrap(name, orig.__func__, attrs))
            else:
                wrapped = tracer.wrap(name, orig, attrs)
            self._swaps.append((owner, attr, orig, wrapped))

    @contextmanager
    def applied(self) -> Iterator[None]:
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, orig, _ in self._swaps:
                setattr(owner, attr, orig)


def layer_metrics(spans: list[Span], changed_of_request: list[int], setups: int) -> dict[str, float]:
    """Per-layer metrics from the spans of traced requests and setups.

    `_ms` request metrics are self time per traced request, except
    `fpt.decide_ms`, which includes its `fpt.exists` children (broken down
    by k, and by k below or at least the pair's changed-edge count).
    `instances.*_ms` are inclusive time per setup.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    exists_k: dict[int, float] = defaultdict(float)
    split = {"lt_ce": 0.0, "ge_ce": 0.0}
    counts: Counter = Counter()
    for s in spans:
        dur = s.end - s.start
        total[s.name] += dur
        own[s.name] += dur - child_time[s.id]
        if s.name == "fpt.exists":
            exists_k[s.attrs["k"]] += dur
            split["lt_ce" if s.attrs["k"] < changed_of_request[s.request] else "ge_ce"] += dur
        elif s.name in ("fpt.decide", "oracle.bfs"):
            counts.update(s.attrs)
    requests = sum(1 for s in spans if s.name == Tracer.ROOT)

    def per_request_ms(seconds: float) -> float:
        return 1000 * seconds / requests if requests else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "cli.overhead_ms": per_request_ms(own[Tracer.ROOT]),
        "trace.request_ms": per_request_ms(total[Tracer.ROOT]),
        "instances.generate_ms": 1000 * total["instances.generate"] / setups,
        "instances.scan_ms": 1000 * total["instances.scan"] / setups,
        "fpt.decide_ms": per_request_ms(total["fpt.decide"]),
        "oracle.states": ratio(counts["states"], requests),
        "oracle.states_per_s": ratio(counts["states"], total["oracle.bfs"]),
        "fpt.states_per_s": ratio(counts["states_expanded"], total["fpt.exists"]),
        "fpt.actions_per_state": ratio(counts["actions_generated"], counts["states_expanded"]),
        "fpt.iteration_ms": 1000 * ratio(total["fpt.exists"], counts["iterations_run"]),
    }
    for name in (
        "instances.parse",
        "triangulation.pointset",
        "geometry.hull_chain",
        "triangulation.build",
        "oracle.bfs",
        "flip_dag.apply_sequence",
        "flip_dag.build_dag",
    ):
        out[f"{name}_ms"] = per_request_ms(own[name])
    for k in range(MAX_K + 1):
        out[f"fpt.exists_ms.k{k}"] = per_request_ms(exists_k[k])
    for key, seconds in split.items():
        out[f"fpt.exists_ms.{key}"] = per_request_ms(seconds)
    for f in ("states_expanded", "actions_generated", "compositions_tried", "iterations_run"):
        out[f"fpt.{f}"] = ratio(counts[f], requests)
    return out


# layers whose per-request times add up to trace.request_ms
ACCOUNTING = (
    "cli.overhead_ms",
    "instances.parse_ms",
    "triangulation.pointset_ms",
    "geometry.hull_chain_ms",
    "triangulation.build_ms",
    "oracle.bfs_ms",
    "fpt.decide_ms",
    "flip_dag.apply_sequence_ms",
    "flip_dag.build_dag_ms",
)


def _us_per_call(calls: list[Callable], budget: float) -> float:
    """Mean microseconds per call, cycling through `calls` for at least
    `budget` seconds and at least once."""
    done = 0
    started = perf_counter()
    while True:
        for call in calls:
            call()
        done += len(calls)
        elapsed = perf_counter() - started
        if elapsed >= budget:
            return 1e6 * elapsed / done


def microbench(tris: list[Triangulation], budget: float = 0.3) -> dict[str, float]:
    """Single-operation costs on the workload's own start triangulations."""
    flips = [partial(t.apply_flip, e) for t in tris for e in t.admissible_edges()[:16]]
    states = [partial(legal_actions, MachineState(t, e, (), 0, 0)) for t in tris for e in t.edges()[:16]]
    return {
        "triangulation.apply_flip_us": _us_per_call(flips, budget),
        "triangulation.admissible_edges_us": _us_per_call([t.admissible_edges for t in tris], budget),
        "fpt.legal_actions_us": _us_per_call(states, budget),
    }


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON object per span; times in seconds from the first span."""
    t0 = spans[0].start if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            rec = {"id": s.id, "parent": s.parent, "request": s.request, "name": s.name,
                   "start": s.start - t0, "end": s.end - t0, **s.attrs}
            fh.write(json.dumps(rec) + "\n")
