"""Shared fixtures: small hand-checked point sets, walk helpers, the
unpruned reference for the FPT search, and the checks the tests make on
flip sequences and their dependency DAGs."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Sequence

import pytest

from flipdist import (
    FlipDag,
    FlipSequence,
    InadmissibleFlip,
    Point,
    PointSet,
    SolverStats,
    Triangulation,
    apply_sequence,
    bfs_distance,
    changed_edges,
    enumerate_triangulations,
    fpt_solver,
    generate_instance,
    make_edge,
)
from flipdist.geometry import convex_hull, cross
from flipdist.oracle import _bfs

SQUARE_POINTS = [(0, 0), (1, 0), (1, 1), (0, 1)]
# convex, no three collinear
PENTAGON_POINTS = [(0, 0), (4, 0), (5, 3), (2, 6), (-1, 3)]
# convex hexagon whose triangulation below allows two independent flips
HEXAGON_POINTS = [(0, 0), (2, 0), (3, 2), (2, 4), (0, 4), (-1, 2)]
# triangle with one interior point: every interior edge is inadmissible
PINWHEEL_POINTS = [(0, 0), (4, 0), (2, 3), (2, 1)]


def square_triangulation() -> Triangulation:
    return Triangulation.build(SQUARE_POINTS, [(0, 1, 2), (0, 2, 3)])


def pentagon_fan(ps: PointSet, apex: int) -> Triangulation:
    tris = [
        (apex, u, (u + 1) % 5)
        for u in range(5)
        if apex not in (u, (u + 1) % 5)
    ]
    return Triangulation.build(ps, tris)


def polygon_fans(n: int = 20) -> tuple[Triangulation, Triangulation]:
    """The fans at vertex 0 and at vertex n // 2 of a convex n-gon whose
    vertices lie on the parabola y = x^2; they differ in n - 4 edges."""
    ps = PointSet([(i, i * i) for i in range(n)])

    def fan(apex: int) -> Triangulation:
        sides = [(u, (u + 1) % n) for u in range(n)]
        return Triangulation.build(ps, [(apex, u, v) for u, v in sides if apex not in (u, v)])

    return fan(0), fan(n // 2)


def machine_steps(tri: Triangulation, at, stack) -> list[tuple[str, tuple[int, int], tuple]]:
    """Every legal step of the FPT machine from (tri, at, stack) as
    (kind, target edge, stack after), in kind order and then target order.

    Written from the five action kinds in the fpt_solver module docstring,
    sharing no code with fpt_solver._steps: the edges sharing a triangle
    with `at` come from the triangle set, `at` flips where apply_flip
    accepts it, and a jump lands on the stack's top when that edge is in
    the flipped triangulation.
    """
    sides = sorted(
        {make_edge(u, v) for t in tri.triangles if set(at) <= set(t) for u, v in itertools.combinations(t, 2)}
        - {at}
    )
    steps = [("move", e, stack) for e in sides]
    try:
        flipped, created = tri.apply_flip(at)
    except InadmissibleFlip:
        return steps
    # the flip keeps the four sides of the quadrilateral around `at`
    steps += [("flip_move", e, stack) for e in sides]
    steps += [("flip_push_move", e, stack + (created,)) for e in sides]
    if stack and stack[-1] in flipped:
        steps += [("flip_jump", stack[-1], stack), ("flip_jump_pop", stack[-1], stack[:-1])]
    return steps


def raw_iteration_outcomes(tri: Triangulation, start, part: int, stats: SolverStats):
    """The outcomes of one machine iteration from (tri, start): exactly
    `part` flips within at most 2*part actions, on an empty stack.

    The unpruned reference for fpt_solver._node_search, sharing only the
    step rules of fpt_solver._steps: a lazy depth-first walk of the raw
    choice tree, with no dedup and no cut, that yields each outcome mask
    once and builds a flip only for a successor it keeps.  It counts
    states, actions and branching into `stats` as the library does.
    """
    emitted = set()
    todo = [(tri, start, (), 0, 0)]
    while todo:
        cur, at, stack, flips, acts = todo.pop()
        created, mask = cur.flip_preview(at) or (None, None)
        groups = list(fpt_solver._steps(cur, at, stack, created))
        branching = sum(len(targets) for _, targets, _ in groups)
        stats.states_expanded += 1
        stats.actions_generated += branching
        stats.max_branching = max(stats.max_branching, branching)
        acts += 1
        flipped = None
        for kind, targets, stk in groups:
            move = kind == fpt_solver.MOVE
            f = flips + (not move)
            done = f == part  # the part's last flip; no state follows it
            if done and (acts > 2 * part or mask in emitted):
                continue
            if not done and acts > part + f:  # each flip still due needs an action
                continue
            if not move and flipped is None:
                flipped = cur.apply_flip(at)[0]
            if done:
                emitted.add(mask)
                yield flipped
            else:
                todo.extend((cur if move else flipped, e, stk, f, acts) for e in targets)


def raw_exists(
    start: Triangulation, goal: Triangulation, k: int, stats=None, iteration=raw_iteration_outcomes
) -> bool:
    """exists_solution_with_exactly_k_flips without its pruning: the same
    composition tree, with one `iteration(tri, edge, part, stats)` per
    node and part, and no memo or cut.  Its iterations_run counts the
    parts each node reads (1..the accepting part, else all 1..rest), and
    its compositions_tried the nodes whose last part is read."""
    stats = SolverStats() if stats is None else stats
    order = sorted(changed_edges(start, goal))

    def attempt(tri: Triangulation, cursor: int, rest: int) -> bool:
        if rest == 0:
            return tri.edge_mask == goal.edge_mask
        while cursor < len(order) and order[cursor] not in tri:
            cursor += 1
        if cursor == len(order):
            return False
        for part in range(1, rest + 1):
            for outcome in iteration(tri, order[cursor], part, stats):
                if attempt(outcome, cursor + 1, rest - part):
                    stats.iterations_run += part
                    stats.compositions_tried += part == rest
                    return True
        stats.iterations_run += rest
        stats.compositions_tried += 1
        return False

    return attempt(start, 0, k)


def raw_distance(start: Triangulation, goal: Triangulation, cap: int, stats=None) -> int | None:
    """fpt_distance over raw_exists: the first k from |changed edges| to
    `cap` that accepts, else None."""
    for k in range(len(changed_edges(start, goal)), cap + 1):
        if raw_exists(start, goal, k, stats):
            return k
    return None


def iteration_outcomes(tri: Triangulation, start, part: int, stats=None, goal_mask=-1, rest: int = 0):
    """The outcomes of one pruned iteration of `part` flips: the part-`part`
    outcomes of fpt_solver._node_search, with `rest` flips left for the
    run after it to reach `goal_mask` (by default -1, which has no
    goal-absent edge and so cuts nothing)."""
    stats = SolverStats() if stats is None else stats
    search = fpt_solver._node_search(tri, start, part + rest, goal_mask, stats, float("inf"))
    return (outcome for p, outcome in search if p == part)


def searched_compositions(start: Triangulation, goal: Triangulation, k: int):
    """The part sequences raw_exists walks, in search order.

    Every iteration is one that yields its input unchanged, so no run
    reaches the goal, the whole composition tree is walked and the cursor
    of an iteration is its depth.  The sequences are rebuilt from the
    recorded (cursor, part) calls.
    """
    order = sorted(changed_edges(start, goal))
    calls = []

    def unchanged(tri, edge, part, stats):
        calls.append((order.index(edge), part))
        yield tri

    assert not raw_exists(start, goal, k, iteration=unchanged)
    seqs, prefix = [], []
    for cursor, part in calls:
        del prefix[cursor:]
        prefix.append(part)
        if sum(prefix) == k:
            seqs.append(tuple(prefix))
    return seqs


def count_builds(monkeypatch) -> list[int]:
    """Count the flipped triangulations built from here on: every
    Triangulation._flipped call, which apply_flip and the searches'
    builds from a preview in hand all make; the count is the single
    entry of the returned list."""
    calls = [0]
    real = Triangulation._flipped

    def counted(self, e, created, mask):
        calls[0] += 1
        return real(self, e, created, mask)

    monkeypatch.setattr(Triangulation, "_flipped", counted)
    return calls


def random_walk(
    tri: Triangulation, steps: int, rng: random.Random
) -> list[tuple[Triangulation, tuple[int, int]]]:
    """Up to `steps` random admissible flips; returns (state, flipped edge) pairs."""
    out = []
    cur = tri
    for _ in range(steps):
        choices = cur.admissible_edges()
        if not choices:
            break
        e = rng.choice(choices)
        out.append((cur, e))
        cur, _ = cur.apply_flip(e)
    return out


def random_pair(n: int, scramble: int, seed: int) -> tuple[Triangulation, Triangulation]:
    inst = generate_instance(n, "random", scramble, seed)
    return inst.triangulations()


def convex_slack_strata(n: int) -> tuple[Triangulation, list[tuple[int, int, Triangulation]]]:
    """The scanned start of generate_instance(n, "convex", 0, seed=1) and
    (slack, distance, goal) for every triangulation of that n-gon, in
    canonical order.  Slack is the distance minus the start's goal-absent
    edge count; the distances come from one BFS."""
    start, _ = generate_instance(n, "convex", 0, 1).triangulations()
    depth = {m: d for d, m, _, _ in _bfs(start, 4 * n, "slack strata")}
    strata = []
    for goal in enumerate_triangulations(start):
        d = depth[goal.edge_mask]
        strata.append((d - (start.edge_mask & ~goal.edge_mask).bit_count(), d, goal))
    return start, strata


def _hull_cycle_from_zero(points: Sequence[Point]) -> list[int]:
    """Ids of the hull corners in ccw order, starting at vertex 0."""
    cycle = convex_hull(points)
    i = cycle.index(0)
    return cycle[i:] + cycle[:i]


def convex_gadget(n: int) -> tuple[Triangulation, Triangulation]:
    """The n-scaling gadget: the last (slack 3, distance 10) pair of
    convex_slack_strata(10), relabelled by hull position from vertex 0
    and placed on the first ten hull corners, counted from vertex 0, of
    generate_instance(n, "convex", 0, 1, span=10**6); the rest of that
    n-gon is fanned from the first of the ten.  Its distance is 10 at
    every n >= 10."""
    start, strata = convex_slack_strata(10)
    goal = [g for slack, d, g in strata if (slack, d) == (3, 10)][-1]
    ps = PointSet(generate_instance(n, "convex", 0, 1, span=10**6).points)
    order = _hull_cycle_from_zero(ps.points)
    place = dict(zip(_hull_cycle_from_zero(start.ps.points), order))
    fan = [(order[0], order[i], order[i + 1]) for i in range(9, n - 1)]

    def placed(tri: Triangulation) -> Triangulation:
        return Triangulation.build(ps, [tuple(place[v] for v in t) for t in tri.triangles] + fan)

    return placed(start), placed(goal)


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff open segments ab and cd share an interior point.

    Proper crossings only: touching at an endpoint, T-junctions and
    collinear overlap all report False.
    """
    return cross(a, b, c) * cross(a, b, d) < 0 and cross(c, d, a) * cross(c, d, b) < 0


def strictly_convex_quad(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Reference for flip_preview's convexity test: a, b, c, d in this
    cyclic order form a strictly convex quadrilateral iff all four
    consecutive turns have one nonzero sign (a collinear triple fails)."""
    ring = (a, b, c, d)
    turns = [cross(ring[i], ring[(i + 1) % 4], ring[(i + 2) % 4]) for i in range(4)]
    return all(t > 0 for t in turns) or all(t < 0 for t in turns)


def share_triangle(tri: Triangulation, e1, e2) -> bool:
    """True iff distinct edges e1 and e2 are sides of one common triangle."""
    return e1 in tri and e2 in tri and e2 in tri.edges_sharing_triangle(e1)


def states(seq: FlipSequence) -> list[Triangulation]:
    """states(seq)[i] is the triangulation after the first i flips of seq."""
    out = [seq.base]
    for rec in seq.records:
        out.append(out[-1].apply_flip(rec.removed)[0])
    return out


def replay(seq: FlipSequence, order: Sequence[int]) -> Triangulation:
    """The recorded flips of seq applied in the order of their 1-based positions."""
    return apply_sequence(seq.base, [seq.records[i - 1].removed for i in order]).final


def indegrees(dag: FlipDag) -> Counter:
    return Counter(j for _, j in dag.arcs)


def is_topological_sort(dag: FlipDag, order: Sequence[int]) -> bool:
    """True iff `order` is a permutation of the nodes respecting every arc."""
    if sorted(order) != list(dag.nodes()):
        raise ValueError("order is not a permutation of the DAG nodes")
    pos = {node: idx for idx, node in enumerate(order)}
    return all(pos[i] < pos[j] for i, j in dag.arcs)


def path_exists(dag: FlipDag, i: int, j: int) -> bool:
    """True iff there is a directed path from i to j (trivially when i == j).

    Arcs are sorted and go forward, so every arc into a node comes before
    the arcs out of it.
    """
    for node in (i, j):
        if not 1 <= node <= dag.node_count:
            raise ValueError(f"node {node} is not in the DAG")
    reached = {i}
    for a, b in dag.arcs:
        if a in reached:
            reached.add(b)
    return j in reached


def _kahn(dag: FlipDag, choose) -> list[int]:
    indeg = indegrees(dag)
    ready = sorted(i for i in dag.nodes() if indeg[i] == 0)
    out = []
    while ready:
        node = choose(ready)
        ready.remove(node)
        out.append(node)
        for a, b in dag.arcs:
            if a == node:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    return out


def sample_topological_sorts(
    dag: FlipDag, rng: random.Random | None = None, samples: int = 3
) -> list[list[int]]:
    """Topological sorts to test with: lexicographically smallest, largest,
    and `samples` random-tie-break draws."""
    rng = rng or random.Random(0)
    sorts = [_kahn(dag, min), _kahn(dag, max)]
    for _ in range(samples):
        sorts.append(_kahn(dag, rng.choice))
    return sorts


@pytest.fixture(scope="session")
def pool() -> list[tuple[Triangulation, Triangulation, int]]:
    """The acceptance pool: >=100 random instances, n in [5,8], stratified
    by exact distance 0..4."""
    quotas = {0: 4, 1: 30, 2: 32, 3: 28, 4: 18}
    out = []
    seed = 0
    while any(quotas.values()):
        seed += 1
        n = 5 + seed % 4
        scramble = seed % 9
        if all(v == 0 for d, v in quotas.items() if d < 4):
            # only the deepest stratum left: n=5 flip graphs are too small
            # to reach distance 4, so draw from larger, busier instances
            n = 6 + seed % 3
            scramble = 5 + seed % 4
        inst = generate_instance(n, "random", scramble, seed)
        start, goal = inst.triangulations()
        d = bfs_distance(start, goal, cap=4)
        if d is None or quotas.get(d, 0) == 0:
            continue
        quotas[d] -= 1
        out.append((start, goal, d))
    assert len(out) >= 100
    return out


@pytest.fixture
def square() -> Triangulation:
    return square_triangulation()


@pytest.fixture
def pentagon_ps() -> PointSet:
    return PointSet(PENTAGON_POINTS)


@pytest.fixture
def fans(pentagon_ps) -> list[Triangulation]:
    return [pentagon_fan(pentagon_ps, i) for i in range(5)]


@pytest.fixture
def hexagon() -> Triangulation:
    return Triangulation.build(HEXAGON_POINTS, [(0, 1, 5), (1, 4, 5), (1, 2, 4), (2, 3, 4)])


@pytest.fixture
def pinwheel() -> Triangulation:
    return Triangulation.build(PINWHEEL_POINTS, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])
