"""Exhaustive search over the flip graph: exact distances and geodesics.

Only meant for small point sets; everything here walks the implicit
graph whose vertices are triangulations and whose edges are single
admissible flips, deduplicating states by their edge-set fingerprint.
Each successor is judged on the edge mask Triangulation.flips() gives
it (O(1)); only the successors a search keeps are built, which costs
O(n) each.  bfs_distance, the geodesic labels and enumerate_triangulations
come from one breadth-first walk, _bfs; astar_distance is a best-first
search guided by the count of goal-absent edges, and bfs_distance is its
reference.  Every search raises SearchBudgetExceeded past NODE_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .flip_dag import FlipSequence, apply_sequence
from .triangulation import Edge, Triangulation, ensure_same_points

DEFAULT_CAP = 10
# read at call time, so it can be lowered for a test
NODE_BUDGET = 1_000_000


class SearchBudgetExceeded(RuntimeError):
    """The search visited more triangulations than the node budget allows."""


@dataclass
class OracleStats:
    nodes_visited: int = 0


def _bfs(
    root: Triangulation, max_depth: int, what: str
) -> Iterator[tuple[int, int, Triangulation | None, Edge | None]]:
    """Yield (depth, edge mask, parent, flipped edge) for every
    triangulation within `max_depth` flips of root, each once, level by
    level; the root comes first, with parent and edge None.

    A new state is built only when its level is expanded, so the last
    level is never built, and not at all if a caller sends it, built, in
    reply to its yield.  Each state is yielded before the budget check,
    so a goal is found even on the state that exceeds NODE_BUDGET.
    """
    yield 0, root.edge_mask, None, None
    visited = {root.edge_mask}
    frontier: Iterable[Triangulation] = [root]
    for depth in range(1, max_depth + 1):
        nxt = []
        for tri in frontier:
            for e, m in tri.flips():
                if m in visited:
                    continue
                visited.add(m)
                built = yield depth, m, tri, e
                if len(visited) > NODE_BUDGET:
                    raise SearchBudgetExceeded(f"{what} exceeded {NODE_BUDGET} triangulations")
                nxt.append((tri, e) if built is None else (built, None))
        if not nxt:
            return
        frontier = (t if e is None else t.apply_flip(e)[0] for t, e in nxt)


def bfs_distance(
    start: Triangulation,
    goal: Triangulation,
    cap: int = DEFAULT_CAP,
    stats: OracleStats | None = None,
) -> int | None:
    """Exact flip distance by breadth-first search, or None when it exceeds `cap`.

    Raises SearchBudgetExceeded after visiting more than NODE_BUDGET
    distinct triangulations.
    """
    ensure_same_points(start, goal)
    goal_mask = goal.edge_mask
    visited = 0
    for depth, m, _, _ in _bfs(start, cap, "flip-graph BFS"):
        visited += 1
        if m == goal_mask:
            break
    else:
        depth = None
    if stats:
        stats.nodes_visited += visited
    return depth


def astar_distance(
    start: Triangulation,
    goal: Triangulation,
    cap: int = DEFAULT_CAP,
    stats: OracleStats | None = None,
) -> int | None:
    """Exact flip distance by best-first (A*) search, or None when it exceeds `cap`.

    The priority of a state reached in g flips is f = g + h, where h is
    the number of its edges absent from the goal.  A flip removes one edge
    and adds one, so h changes by -1, 0 or +1 per flip: h is consistent,
    f never decreases along a path, and h is 0 only at the goal (both
    triangulations have the same number of edges).  States are popped from
    integer f-buckets in increasing order, so the first goal popped is at
    its distance (Hart, Nilsson and Raphael 1968).  Within a bucket the
    last state queued goes first, so deeper states are tried first.

    Every path through a state costs at least its f, so a successor with
    f > cap is dropped, and None still means "distance exceeds cap".  The
    buckets grow with the f values actually reached (at most h(start) + 2g),
    never with `cap`.

    An open state is kept as (g, mask, parent, flipped edge) and built only
    when popped; successors are judged on the masks flips() gives.  A
    best-g map keyed by mask drops a successor whose g is no better and a
    stale pop.  Same contract as bfs_distance: raises SearchBudgetExceeded
    once more than NODE_BUDGET distinct triangulations have been
    generated, and adds their count to `stats.nodes_visited`.
    """
    ensure_same_points(start, goal)
    goal_mask = goal.edge_mask
    absent = ~goal_mask
    h0 = (start.edge_mask & absent).bit_count()
    room = cap - h0  # the largest bucket index a successor may take
    best = {start.edge_mask: 0}
    # buckets[i] holds the open states of f = h0 + i; f never decreases,
    # so the scan over i never goes back
    buckets = [[(0, start.edge_mask, None, None)]]
    depth = None
    i = 0
    while i < len(buckets):
        if not buckets[i]:
            i += 1
            continue
        g, m, parent, e = buckets[i].pop()
        if g > best[m]:
            continue  # queued again later with a smaller g
        if m == goal_mask:
            depth = g
            break
        tri = start if parent is None else parent.apply_flip(e)[0]
        g += 1
        for e2, m2 in tri.flips():
            if best.get(m2, g + 1) <= g:
                continue
            i2 = g + (m2 & absent).bit_count() - h0
            if i2 > room:
                continue
            best[m2] = g
            if len(best) > NODE_BUDGET:
                raise SearchBudgetExceeded(f"flip-graph A* exceeded {NODE_BUDGET} triangulations")
            while len(buckets) <= i2:
                buckets.append([])
            buckets[i2].append((g, m2, tri, e2))
    if stats:
        stats.nodes_visited += len(best)
    return depth


def enumerate_minimal_solutions(
    start: Triangulation,
    goal: Triangulation,
    distance: int,
    limit: int = 20,
) -> list[FlipSequence]:
    """Up to `limit` shortest flip sequences from start to goal, in
    lexicographic order of their edge lists.

    `distance` must be the exact flip distance (bfs_distance).  Works by
    labelling every triangulation within distance-1 of the goal with its
    distance to the goal, then walking label-descending paths from start.
    """
    ensure_same_points(start, goal)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    labels = {m: d for d, m, _, _ in _bfs(goal, distance - 1, "geodesic labelling")}
    found: list[list[Edge]] = []

    # walk is entered only while fewer than `limit` sequences are found
    def walk(tri: Triangulation, remaining: int, prefix: list[Edge]) -> None:
        if remaining == 0:
            if tri.edge_mask == goal.edge_mask:
                found.append(list(prefix))
            return
        for e, m in tri.flips():
            if labels.get(m) == remaining - 1:
                prefix.append(e)
                walk(tri.apply_flip(e)[0], remaining - 1, prefix)
                prefix.pop()
                if len(found) >= limit:
                    return

    walk(start, distance, [])
    if not found:
        raise ValueError("no geodesics found; `distance` does not match the pair")
    return [apply_sequence(start, edges) for edges in found]


def enumerate_triangulations(seed: Triangulation) -> list[Triangulation]:
    """Every triangulation reachable from `seed` by flips, sorted by key.

    Flip graphs of planar point sets are connected, so this is every
    triangulation of the point set.  Each level of _bfs adds a new
    state, so a walk NODE_BUDGET deep reaches every one the budget allows.
    """
    walk = _bfs(seed, NODE_BUDGET, "triangulation enumeration")
    next(walk)  # the seed; the walk drops what is sent in reply to it
    out = [seed]
    for _, _, t, e in iter(lambda: walk.send(out[-1]), None):  # no second build
        out.append(t.apply_flip(e)[0])
    return sorted(out, key=Triangulation.canonical_key)
