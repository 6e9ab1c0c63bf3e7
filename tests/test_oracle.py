import random

import pytest

from conftest import convex_gadget, count_builds, random_pair
from flipdist import (
    SearchBudgetExceeded,
    astar_distance,
    bfs_distance,
    enumerate_minimal_solutions,
    enumerate_triangulations,
    generate_instance,
)
from flipdist import oracle
from flipdist.oracle import OracleStats, _bfs


def test_distance_zero(square):
    assert bfs_distance(square, square) == 0


def test_distance_one(square):
    flipped, _ = square.apply_flip((0, 2))
    assert bfs_distance(square, flipped) == 1


def test_pentagon_has_five_triangulations(fans):
    all_tris = enumerate_triangulations(fans[0])
    assert len(all_tris) == 5
    assert {t.canonical_key() for t in all_tris} == {f.canonical_key() for f in fans}


def test_enumeration_builds_each_triangulation_once(monkeypatch):
    # the walk expands the states enumerate_triangulations builds and
    # sends back, so every triangulation but the seed takes one build
    seed, _ = generate_instance(10, "convex", 0, 1).triangulations()
    built = count_builds(monkeypatch)
    assert len(enumerate_triangulations(seed)) == 1430
    assert built[0] == 1429


def test_pentagon_flip_graph_is_a_five_cycle(fans):
    # each fan is one flip away from the fans two steps around the hull
    for i in range(5):
        nbr_ids = set()
        for e in fans[i].admissible_edges():
            flipped, _ = fans[i].apply_flip(e)
            nbr_ids.update(j for j in range(5) if flipped == fans[j])
        assert nbr_ids == {(i + 2) % 5, (i + 3) % 5}


def test_pentagon_distances(fans):
    assert bfs_distance(fans[0], fans[2]) == 1
    assert bfs_distance(fans[0], fans[3]) == 1
    assert bfs_distance(fans[0], fans[1]) == 2
    assert bfs_distance(fans[0], fans[4]) == 2


def test_distance_symmetry_and_triangle_inequality():
    rng = random.Random(21)
    seed_tri, _ = random_pair(6, 0, 3001)
    world = enumerate_triangulations(seed_tri)
    for _ in range(60):
        a, b, c = (rng.choice(world) for _ in range(3))
        dab = bfs_distance(a, b)
        assert dab == bfs_distance(b, a)
        assert dab <= bfs_distance(a, c) + bfs_distance(c, b)


def test_cap_returns_none(fans):
    assert bfs_distance(fans[0], fans[1], cap=1) is None
    assert bfs_distance(fans[0], fans[1], cap=2) == 2


def test_node_budget_exceeded(fans, monkeypatch):
    # first expansion inserts a non-goal neighbor, blowing a budget of 1
    monkeypatch.setattr(oracle, "NODE_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded):
        bfs_distance(fans[0], fans[1])


# (search, the last node budget that raises, the result one above it).
# bfs_distance, the geodesic labelling and enumerate_triangulations walk
# the flip graph through _bfs; astar_distance previews only the edges of
# the operator class a pop expands; bfs_distance finds its goal before the
# budget check of the goal's own state, and astar_distance counts every
# state it queues, the goal included.
BUDGET_BOUNDARIES = [
    ("bfs_distance", 17, 4),
    ("astar_distance", 8, 4),
    ("enumerate_minimal_solutions", 19, 4),
    ("enumerate_triangulations", 13, 14),
]


def _run_search(search: str, node_budget: int, monkeypatch) -> int:
    monkeypatch.setattr(oracle, "NODE_BUDGET", node_budget)
    a, b = generate_instance(7, "random", 4, 51).triangulations()
    if search == "bfs_distance":
        return bfs_distance(a, b)
    if search == "astar_distance":
        return astar_distance(a, b)
    if search == "enumerate_minimal_solutions":
        return len(enumerate_minimal_solutions(a, b, 4))
    hexagon, _ = generate_instance(6, "convex", 0, 1).triangulations()
    return len(enumerate_triangulations(hexagon))


@pytest.mark.parametrize("search, last_raising, result", BUDGET_BOUNDARIES)
def test_node_budget_boundary(search, last_raising, result, monkeypatch):
    with pytest.raises(SearchBudgetExceeded):
        _run_search(search, last_raising, monkeypatch)
    assert _run_search(search, last_raising + 1, monkeypatch) == result


def test_stats_counts_nodes(square):
    flipped, _ = square.apply_flip((0, 2))
    stats = OracleStats()
    bfs_distance(square, flipped, stats=stats)
    assert stats.nodes_visited >= 2


def test_astar_matches_bfs_on_acceptance_pool(pool):
    # the pool's distances are bfs_distance's
    for start, goal, d in pool:
        assert astar_distance(start, goal) == d
        assert astar_distance(start, goal, cap=d) == d
        if d > 0:
            assert astar_distance(start, goal, cap=d - 1) is None


def test_astar_matches_bfs_on_every_pair_of_a_convex_octagon():
    seed_tri, _ = generate_instance(8, "convex", 0, 1).triangulations()
    world = enumerate_triangulations(seed_tri)
    assert len(world) == 132
    for start in world:
        # one BFS from start gives its distance to every goal
        depth = {m: d for d, m, _, _ in _bfs(start, 100, "reference")}
        assert [astar_distance(start, goal, cap=100) for goal in world] == [
            depth[goal.edge_mask] for goal in world
        ]


def test_astar_start_over_cap_stops_after_one_state():
    # h(start) alone exceeds the cap: every successor has f > cap, so the
    # start is the only state counted
    a, b = random_pair(7, 4, 51)
    h0 = (a.edge_mask & ~b.edge_mask).bit_count()
    assert h0 == 3
    stats = OracleStats()
    assert astar_distance(a, b, cap=h0 - 1, stats=stats) is None
    assert stats.nodes_visited == 1


def test_astar_huge_cap_allocates_nothing_cap_sized():
    a, b = generate_instance(7, "random", 4, 51).triangulations()
    assert astar_distance(a, b, cap=10**12) == 4
    assert bfs_distance(a, b, cap=10**12) == 4


# distinct triangulations astar_distance generates (OracleStats.nodes_visited)
# against bfs_distance's, on pairs of distance 4, 4, 4, 4 and 6
ASTAR_VISITED = {
    (6, 4, 103): (7, 9),
    (6, 4, 132): (7, 9),
    (6, 4, 166): (6, 6),
    (7, 4, 51): (9, 19),
    (14, 8, 2): (20, 11534),
}


@pytest.mark.parametrize("pair", list(ASTAR_VISITED))
def test_astar_stats_count_generated_states(pair):
    astar_visited, bfs_visited = ASTAR_VISITED[pair]
    a, b = generate_instance(pair[0], "random", pair[1], pair[2]).triangulations()
    astar, bfs = OracleStats(), OracleStats()
    d = bfs_distance(a, b, stats=bfs)
    assert astar_distance(a, b, stats=astar) == d
    assert (astar.nodes_visited, bfs.nodes_visited) == (astar_visited, bfs_visited)
    # the counter accumulates across calls
    astar_distance(a, b, stats=astar)
    assert astar.nodes_visited == 2 * astar_visited


def test_astar_partial_expansion_on_the_convex_gadget_at_n_50():
    # no answer shows which pop flips goal edges, nor whether any does;
    # the count does: 3,909 states when every pop flips every admissible
    # edge, 3,044 when the first pop flips goal edges too, 228 with no
    # late pop at all
    a, b = convex_gadget(50)
    stats = OracleStats()
    assert astar_distance(a, b, cap=40, stats=stats) == 10
    assert stats.nodes_visited == 2_029


def test_minimal_solutions_distance_zero(square):
    sols = enumerate_minimal_solutions(square, square, 0)
    assert len(sols) == 1 and len(sols[0]) == 0


def test_minimal_solutions_square(square):
    flipped, _ = square.apply_flip((0, 2))
    sols = enumerate_minimal_solutions(square, flipped, 1)
    assert len(sols) == 1
    assert sols[0].edges() == [(0, 2)]


def test_minimal_solutions_pentagon_unique_geodesic(fans):
    sols = enumerate_minimal_solutions(fans[0], fans[1], 2)
    assert [s.edges() for s in sols] == [[(0, 2), (0, 3)]]


def test_minimal_solutions_are_valid_geodesics():
    for seed in range(10):
        a, b = random_pair(7, 3, 3200 + seed)
        d = bfs_distance(a, b)
        sols = enumerate_minimal_solutions(a, b, d, limit=20)
        assert 1 <= len(sols) <= 20
        keys = {tuple(s.edges()) for s in sols}
        assert len(keys) == len(sols)
        for sol in sols:
            assert len(sol) == d
            assert sol.base == a and sol.final == b


def test_minimal_solutions_respect_limit(hexagon):
    # two independent flips give one geodesic per order
    final = hexagon.apply_flip((1, 5))[0].apply_flip((2, 4))[0]
    sols = enumerate_minimal_solutions(hexagon, final, 2)
    assert {tuple(s.edges()) for s in sols} == {((1, 5), (2, 4)), ((2, 4), (1, 5))}
    assert len(enumerate_minimal_solutions(hexagon, final, 2, limit=1)) == 1


@pytest.mark.parametrize("limit", [0, -1])
def test_minimal_solutions_limit_below_one_rejected(limit):
    # the distance is right, so only the limit can be at fault
    a, b = generate_instance(7, "random", 4, 51).triangulations()
    assert bfs_distance(a, b) == 4
    with pytest.raises(ValueError, match="limit must be at least 1"):
        enumerate_minimal_solutions(a, b, 4, limit=limit)


def test_minimal_solutions_wrong_distance_rejected(square):
    flipped, _ = square.apply_flip((0, 2))
    with pytest.raises(ValueError):
        enumerate_minimal_solutions(square, flipped, 0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_minimal_solutions_distance_above_true_rejected(seed):
    # a start nearer than `distance` has label-descending walks of that
    # length (seed 0: d = 3, three 4-flip walks), but none is a geodesic
    a, b = generate_instance(7, "random", 3, seed).triangulations()
    d = bfs_distance(a, b)
    assert enumerate_minimal_solutions(a, b, d)
    for wrong in (d + 1, d + 2):
        with pytest.raises(ValueError, match="does not match"):
            enumerate_minimal_solutions(a, b, wrong)
