import itertools
import random
from dataclasses import astuple

import pytest

from conftest import (
    convex_gadget,
    convex_slack_strata,
    count_builds,
    iteration_outcomes,
    machine_steps,
    pentagon_fan,
    polygon_fans,
    random_pair,
    random_walk,
    raw_distance,
    raw_exists,
    raw_iteration_outcomes,
    searched_compositions,
)
from flipdist import (
    MachineState,
    SearchBudgetExceeded,
    SolverStats,
    Triangulation,
    astar_distance,
    bfs_distance,
    changed_edges,
    decide_flip_distance_eq,
    enumerate_triangulations,
    exists_solution_with_exactly_k_flips,
    fpt_distance,
    fpt_solver,
    generate_instance,
    legal_actions,
    oracle,
)
from flipdist.fpt_solver import (
    FLIP_JUMP,
    FLIP_JUMP_POP,
    FLIP_MOVE,
    FLIP_PUSH_MOVE,
    MOVE,
)
from flipdist.oracle import OracleStats, _bfs


@pytest.fixture(scope="module")
def far_fans():
    a, b = polygon_fans(20)
    assert len(changed_edges(a, b)) == 16
    return a, b


def test_compositions_base_cases(far_fans):
    a, b = far_fans
    # k = 0 is the empty composition: no iteration, only the goal test
    assert searched_compositions(a, b, 0) == []
    assert raw_exists(a, a, 0)
    assert searched_compositions(a, b, 1) == [(1,)]
    assert searched_compositions(a, b, 2) == [(1, 1), (2,)]
    assert searched_compositions(a, b, 3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_compositions_counts_and_order(far_fans):
    for k in range(1, 11):
        comps = searched_compositions(*far_fans, k)
        assert len(comps) == 2 ** (k - 1)
        assert all(sum(c) == k and min(c) >= 1 for c in comps)
        assert comps == sorted(comps)
        assert len(set(comps)) == len(comps)


def test_compositions_rejects_negative(far_fans):
    with pytest.raises(ValueError):
        exists_solution_with_exactly_k_flips(*far_fans, -1)


def _kinds(pairs):
    counts = {}
    for kind, _ in pairs:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def test_legal_actions_at_square_diagonal(square):
    pairs = legal_actions(MachineState(square, (0, 2), (), 0, 0))
    assert len(pairs) == 12
    assert _kinds(pairs) == {MOVE: 4, FLIP_MOVE: 4, FLIP_PUSH_MOVE: 4}
    # move targets are the four quadrilateral sides, in canonical order
    moves = [s.at for kind, s in pairs if kind == MOVE]
    assert moves == [(0, 1), (0, 3), (1, 2), (2, 3)]
    # flip-bearing successors flipped exactly once
    for kind, succ in pairs:
        if kind == MOVE:
            assert succ.flips_done == 0 and succ.tri is square
        else:
            assert succ.flips_done == 1 and (1, 3) in succ.tri
        assert succ.actions_done == 1


def test_legal_actions_at_boundary_edge(square):
    # a boundary edge cannot flip: only its 2 co-triangle moves remain
    pairs = legal_actions(MachineState(square, (0, 1), (), 0, 0))
    assert len(pairs) == 2
    assert _kinds(pairs) == {MOVE: 2}


def test_legal_actions_with_live_stack_top_hits_maximum(square):
    pairs = legal_actions(MachineState(square, (0, 2), ((0, 1),), 0, 0))
    assert len(pairs) == 14
    assert _kinds(pairs) == {MOVE: 4, FLIP_MOVE: 4, FLIP_PUSH_MOVE: 4, FLIP_JUMP: 1, FLIP_JUMP_POP: 1}
    jump = [s for kind, s in pairs if kind == FLIP_JUMP][0]
    jump_pop = [s for kind, s in pairs if kind == FLIP_JUMP_POP][0]
    assert jump.at == (0, 1) and jump.stack == ((0, 1),)
    assert jump_pop.at == (0, 1) and jump_pop.stack == ()


def test_legal_actions_jump_needs_surviving_top(square):
    # stack top is the edge being flipped, so it is gone afterwards
    pairs = legal_actions(MachineState(square, (0, 2), ((0, 2),), 0, 0))
    assert FLIP_JUMP not in _kinds(pairs)
    assert len(pairs) == 12


def test_legal_actions_push_records_created_diagonal(square):
    pairs = legal_actions(MachineState(square, (0, 2), (), 0, 0))
    for kind, succ in pairs:
        if kind == FLIP_PUSH_MOVE:
            assert succ.stack == ((1, 3),)


def test_legal_actions_bounded_on_random_walks():
    rng = random.Random(31)
    for seed in range(6):
        tri, _ = random_pair(7, 2, 1300 + seed)
        for state_tri, e in random_walk(tri, 15, rng):
            stack = tuple(rng.sample(state_tri.edges(), rng.randrange(0, 3)))
            pairs = legal_actions(MachineState(state_tri, e, stack, 0, 0))
            assert 2 <= len(pairs) <= 14


def _stacks(tri, at, created):
    """(), (x,) and (y, x) for x the diagonal a flip of `at` creates (when
    it flips), `at` itself, another edge of tri and an edge not in tri."""
    other = next(e for e in tri.edges() if e != at)
    absent = next(e for e in itertools.combinations(range(len(tri.ps)), 2) if e not in tri and e != created)
    tops = [x for x in (created, at, other, absent) if x is not None]
    return [()] + [(x,) for x in tops] + [(other, x) for x in tops]


def test_steps_match_an_independent_statement_of_the_machine(hexagon):
    # every state of both point sets has at most 14 steps, and some has
    # exactly 14: 4 moves, 4 flip-moves, 4 flip-push-moves and 2 jumps
    most = 0
    random7, _ = random_pair(7, 0, 5)
    for tri in [*enumerate_triangulations(hexagon), *enumerate_triangulations(random7)]:
        for at in tri.edges():
            created = (tri.flip_preview(at) or (None,))[0]
            for stack in _stacks(tri, at, created):
                steps = fpt_solver._steps(tri, at, stack, created)
                triples = [(kind, e, stk) for kind, targets, stk in steps for e in targets]
                assert triples == machine_steps(tri, at, stack), (tri, at, stack)
                most = max(most, len(triples))
    assert most == 14


def test_run_iteration_single_flip(square):
    flipped, _ = square.apply_flip((0, 2))
    assert set(iteration_outcomes(square, (0, 2), 1)) == {flipped}


def test_run_iteration_move_then_flip(square):
    # from a boundary edge the machine may spend one action walking to the
    # diagonal and still flip within the 2-action budget
    flipped, _ = square.apply_flip((0, 2))
    assert set(iteration_outcomes(square, (0, 1), 1)) == {flipped}


def test_run_iteration_two_flips_returns_both_ways(square):
    outcomes = set(iteration_outcomes(square, (0, 2), 2))
    assert square in outcomes  # flip and flip back among the outcomes


def test_run_iteration_prune_matches_raw():
    rng = random.Random(32)
    for seed in range(10):
        tri, _ = random_pair(rng.choice([5, 6, 7]), 2, 1400 + seed)
        e = rng.choice(tri.edges())
        for target in (1, 2, 3):
            pruned = {t.canonical_key() for t in iteration_outcomes(tri, e, target)}
            raw = {t.canonical_key() for t in raw_iteration_outcomes(tri, e, target, SolverStats())}
            assert pruned == raw


def test_run_iteration_outcomes_within_flip_distance():
    tri, _ = random_pair(6, 1, 1450)
    e = tri.edges()[0]
    for target in (1, 2):
        for out in iteration_outcomes(tri, e, target):
            assert bfs_distance(tri, out) <= target


def test_exists_equal_pair(square):
    assert exists_solution_with_exactly_k_flips(square, square, 0)
    for k in (1, 2, 3):
        assert not exists_solution_with_exactly_k_flips(square, square, k)


def test_exists_square(square):
    flipped, _ = square.apply_flip((0, 2))
    assert not exists_solution_with_exactly_k_flips(square, flipped, 0)
    assert exists_solution_with_exactly_k_flips(square, flipped, 1)
    # three flips: there and back and there again
    assert exists_solution_with_exactly_k_flips(square, flipped, 3)


def test_exists_rejects_negative(square):
    with pytest.raises(ValueError):
        exists_solution_with_exactly_k_flips(square, square, -1)


def test_decide_square(square):
    flipped, _ = square.apply_flip((0, 2))
    assert [decide_flip_distance_eq(square, flipped, k) for k in range(4)] == [
        False,
        True,
        False,
        False,
    ]
    assert decide_flip_distance_eq(square, square, 0)
    assert not decide_flip_distance_eq(square, square, 2)


def test_decide_pentagon(fans):
    assert decide_flip_distance_eq(fans[0], fans[2], 1)
    assert [decide_flip_distance_eq(fans[0], fans[1], k) for k in range(4)] == [
        False,
        False,
        True,
        False,
    ]


def test_decide_hexagon_independent_pair(hexagon):
    final = hexagon.apply_flip((1, 5))[0].apply_flip((2, 4))[0]
    assert decide_flip_distance_eq(hexagon, final, 2)
    assert not decide_flip_distance_eq(hexagon, final, 1)
    assert not decide_flip_distance_eq(hexagon, final, 3)


def test_decide_matches_oracle_on_random_instances():
    stats = SolverStats()
    for seed in range(20):
        n = 5 + seed % 4
        a, b = random_pair(n, 1 + seed % 4, 1500 + seed)
        d = bfs_distance(a, b)
        assert decide_flip_distance_eq(a, b, d, stats=stats)
        for k in range(d):
            assert not decide_flip_distance_eq(a, b, k, stats=stats)
    assert 0 < stats.max_branching <= 14


def test_fpt_distance_matches_bfs_on_every_pair_of_random_hull_sets():
    # all 8,009 ordered pairs of triangulations of twelve seeded random
    # 7-point sets.  In convex position every changed edge is admissible
    # in the start, so the admissible-first order is the canonical one;
    # here it differs from the canonical one on 2,739 pairs
    reordered = 0
    for seed in range(12):
        start, _ = generate_instance(7, "random", 0, seed).triangulations()
        world = enumerate_triangulations(start)
        for a in world:
            depth = {m: d for d, m, _, _ in _bfs(a, 28, "all pairs")}
            for b in world:
                ready = [a.flip_preview(e) is not None for e in sorted(changed_edges(a, b))]
                reordered += ready != sorted(ready, reverse=True)
                d = depth[b.edge_mask]
                assert fpt_distance(a, b, d) == d
    assert reordered == 2739


def test_exists_pruning_parity_small():
    for seed in range(12):
        a, b = random_pair(5 + seed % 3, 1 + seed % 3, 1600 + seed)
        d = bfs_distance(a, b)
        for k in range(min(d + 2, 5)):
            on = exists_solution_with_exactly_k_flips(a, b, k)
            off = raw_exists(a, b, k)
            assert on == off


def test_stats_populated(square):
    flipped, _ = square.apply_flip((0, 2))
    stats = SolverStats()
    decide_flip_distance_eq(square, flipped, 1, stats=stats)
    assert stats.states_expanded > 0
    assert stats.actions_generated > 0
    assert stats.compositions_tried >= 1
    assert stats.iterations_run >= 1


# seeded (n, scramble, seed) pairs whose distance 4 exceeds their 3 changed edges
GAP_PAIRS = [(6, 4, 103), (6, 4, 132), (6, 4, 166), (7, 4, 51)]


def test_exists_below_changed_edges_cuts_without_expanding():
    a, b = random_pair(8, 5, 31)
    ce = len(changed_edges(a, b))
    assert ce >= 3
    for k in range(1, ce):
        stats = SolverStats()
        assert not exists_solution_with_exactly_k_flips(a, b, k, stats=stats)
        assert stats.states_expanded == 0
        assert stats.lower_bound_cuts == 1  # the root cut


def _has_happy_flip(a, b):
    """True iff some changed edge of a flips admissibly into an edge of b."""
    return any(a.flip_preview(e) and a.flip_preview(e)[0] in b for e in changed_edges(a, b))


def test_exists_at_changed_edges_without_a_happy_flip_cuts_without_expanding():
    # zero slack: each of k = |changed edges| flips must remove a goal-absent
    # edge and create a goal edge, the first of them on the start
    for n, scramble, seed in GAP_PAIRS:
        a, b = generate_instance(n, "random", scramble, seed).triangulations()
        assert not _has_happy_flip(a, b)
        stats = SolverStats()
        assert not exists_solution_with_exactly_k_flips(a, b, len(changed_edges(a, b)), stats=stats)
        assert stats.states_expanded == 0
        assert stats.lower_bound_cuts == 1  # the root cut


def test_exists_at_changed_edges_with_a_happy_flip_still_searches():
    # d = |changed edges| pairs have a happy flip, so the cut lets them through
    accepted = 0
    for seed in range(40):
        a, b = random_pair(6 + seed % 3, 1 + seed % 5, 1900 + seed)
        ce = len(changed_edges(a, b))
        if ce == 0 or bfs_distance(a, b) != ce:
            continue
        assert _has_happy_flip(a, b)
        stats = SolverStats()
        assert exists_solution_with_exactly_k_flips(a, b, ce, stats=stats)
        assert stats.states_expanded > 0
        accepted += 1
    assert accepted >= 30


def test_first_node_search_at_zero_slack_starts_on_a_happy_edge(monkeypatch):
    # the first changed edge in canonical order, (1, 7), flips but not
    # into the goal; (2, 4) and (5, 7) do.  Every other k starts at the
    # first admissible changed edge
    a, b = random_pair(10, 6, 2007)
    ce = sorted(changed_edges(a, b))
    assert ce == [(1, 7), (2, 4), (5, 7)] and a.flip_preview((1, 7))[0] not in b
    starts = []
    node_search = fpt_solver._node_search

    def recorded(tri, start, *args):
        starts.append(start)
        return node_search(tri, start, *args)

    monkeypatch.setattr(fpt_solver, "_node_search", recorded)
    assert exists_solution_with_exactly_k_flips(a, b, 3)
    assert starts[0] == (2, 4)
    del starts[:]
    exists_solution_with_exactly_k_flips(a, b, 4)
    assert starts[0] == (1, 7)


def test_exists_previews_each_changed_edge_once_before_searching(monkeypatch):
    # the zero-slack cut and the admissible-first order read one preview
    # per changed edge; d = 4 = |changed edges|, and the first changed
    # edge cannot flip, so the order is not the canonical one
    a, b = random_pair(8, 4, 1908)
    ce = sorted(changed_edges(a, b))
    assert len(ce) == 4 and a.flip_preview(ce[0]) is None and _has_happy_flip(a, b)
    previewed, at_first_search = [], []
    preview, node_search = Triangulation.flip_preview, fpt_solver._node_search

    def counted_preview(tri, e):
        if tri is a:
            previewed.append(e)
        return preview(tri, e)

    def first_search(*args):
        at_first_search.append(list(previewed))
        return node_search(*args)

    monkeypatch.setattr(Triangulation, "flip_preview", counted_preview)
    monkeypatch.setattr(fpt_solver, "_node_search", first_search)
    assert exists_solution_with_exactly_k_flips(a, b, len(ce))
    assert sorted(at_first_search[0]) == ce


def test_iteration_cut_keeps_exactly_the_outcomes_within_bound():
    # the cut drops a successor only when the goal is out of reach, so the
    # cut outcome set is the raw one minus outcomes with too many absent edges
    rng = random.Random(33)
    for seed in range(8):
        tri, goal = random_pair(rng.choice([6, 7]), 3, 1700 + seed)
        e = rng.choice(tri.edges())
        for target in (1, 2, 3):
            raw = set(raw_iteration_outcomes(tri, e, target, SolverStats()))
            for rest in (0, 1, 2):
                stats = SolverStats()
                cut = set(iteration_outcomes(tri, e, target, stats, goal.edge_mask, rest))
                assert cut == {t for t in raw if (t.edge_mask & ~goal.edge_mask).bit_count() <= rest}
                if cut != raw:
                    assert stats.lower_bound_cuts > 0


def test_node_search_gives_every_part_its_own_iteration():
    # one search per tree node serves parts 1..rest, streaming each
    # outcome as found: each part's outcomes are its unpruned depth-first
    # set minus those the cut drops, each once (a goal mask of -1 cuts
    # nothing)
    rng = random.Random(34)
    for seed in range(6):
        tri, goal = random_pair(rng.choice([6, 7]), 3, 1800 + seed)
        for state, _ in random_walk(tri, 3, rng):
            e = rng.choice(state.edges())
            raw = {part: set(raw_iteration_outcomes(state, e, part, SolverStats())) for part in (1, 2, 3)}
            for rest, mask in itertools.product((1, 2, 3), (goal.edge_mask, -1)):
                stream = list(fpt_solver._node_search(state, e, rest, mask, SolverStats(), float("inf")))
                for part in range(1, rest + 1):
                    got = [t for p, t in stream if p == part]
                    assert len(got) == len(set(got))
                    assert set(got) == {t for t in raw[part] if (t.edge_mask & ~mask).bit_count() <= rest - part}


@pytest.mark.parametrize("n, scramble, seed", GAP_PAIRS)
def test_decide_beyond_changed_edges_matches_oracle(n, scramble, seed):
    a, b = generate_instance(n, "random", scramble, seed).triangulations()
    d = bfs_distance(a, b)
    assert d > len(changed_edges(a, b))
    for k in range(d + 2):
        on = decide_flip_distance_eq(a, b, k)
        off = raw_distance(a, b, k) == k
        assert on == off == (k == d)


def test_reference_does_not_call_the_library_search(monkeypatch):
    # the neutrality tests compare the library search with raw_distance,
    # which would agree with a bug of _node_search if it called it
    def refuse(*args):
        raise AssertionError("the reference reached fpt_solver._node_search")

    n, scramble, seed = GAP_PAIRS[0]
    a, b = generate_instance(n, "random", scramble, seed).triangulations()
    monkeypatch.setattr(fpt_solver, "_node_search", refuse)
    with pytest.raises(AssertionError, match="reached"):
        fpt_distance(a, b, 6)
    assert raw_distance(a, b, 6) == 4


# exact counters of bfs_distance (OracleStats.nodes_visited) and of
# fpt_distance(.., 6) and of its unpruned reference raw_distance(.., 6)
# (SolverStats: states_expanded, actions_generated, max_branching,
# compositions_tried, iterations_run, lower_bound_cuts); any change in
# cuts, actions or visit order moves them.  The unpruned reference on
# (14, 8, 2) runs too long for the suite.
PINNED_COUNTS = {
    (6, 4, 103): (9, (9, 72, 12, 4, 3, 9), (3073, 18520, 14, 5, 11, 0)),
    (6, 4, 132): (9, (8, 68, 12, 4, 3, 9), (2929, 17366, 14, 5, 11, 0)),
    (6, 4, 166): (6, (8, 62, 12, 4, 3, 1), (3332, 17630, 14, 7, 14, 0)),
    (7, 4, 51): (19, (28, 178, 14, 4, 2, 43), (15647, 106804, 14, 14, 22, 0)),
    (14, 8, 2): (11534, (6, 72, 12, 6, 6, 0), None),
}


@pytest.mark.parametrize("pair", list(PINNED_COUNTS))
def test_search_counters_are_pinned(pair):
    visited, on, off = PINNED_COUNTS[pair]
    a, b = generate_instance(pair[0], "random", pair[1], pair[2]).triangulations()
    ostats = OracleStats()
    d = bfs_distance(a, b, stats=ostats)
    assert ostats.nodes_visited == visited
    for distance, expected in ((fpt_distance, on), (raw_distance, off)):
        if expected is None:
            continue
        stats = SolverStats()
        assert distance(a, b, 6, stats) == d
        assert astuple(stats) == expected


# triangulations built (apply_flip calls) per search on the same pairs:
# BFS builds only states it expands, so fewer than it visits (before the
# mask-first successors: 17/17/9/38/58,090 built for 9/9/6/19/11,534
# visited); fpt_distance(.., 6) builds at most once per expanded state,
# and only for a kept flip successor (before: 27/27/21/29/122)
BUILDS = {
    (6, 4, 103): (6, 10),
    (6, 4, 132): (6, 10),
    (6, 4, 166): (4, 10),
    (7, 4, 51): (11, 8),
    (14, 8, 2): (4654, 17),
}


@pytest.mark.parametrize("pair", list(BUILDS))
def test_searches_build_only_kept_states(monkeypatch, pair):
    bfs_builds, fpt_builds = BUILDS[pair]
    a, b = generate_instance(pair[0], "random", pair[1], pair[2]).triangulations()
    built = count_builds(monkeypatch)
    ostats = OracleStats()
    bfs_distance(a, b, stats=ostats)
    assert built[0] <= bfs_builds
    assert built[0] < ostats.nodes_visited
    built[0] = 0
    assert fpt_distance(a, b, 6) is not None
    assert built[0] <= fpt_builds


def test_memo_shares_failures_across_prefixes():
    # a rejected k whose tree revisits failed (rest, cursor, mask) nodes:
    # 2741 states with the memo, 3131 without (with one iteration per node
    # and part: 4557 and 5034; running each composition from the start
    # with a memo keyed on its remaining parts: 5129)
    a, b = generate_instance(9, "random", 4, 111).triangulations()
    stats = SolverStats()
    assert not exists_solution_with_exactly_k_flips(a, b, 5, stats)
    # exact, so a memo that shares fewer failures fails, not only one that shares none
    assert stats.states_expanded == 2741


def test_fpt_distance_matches_oracle_on_larger_pair():
    # d = 6 > 5 changed edges, so the search rejects k = 5 and cuts there
    a, b = generate_instance(14, "convex", 8, 10).triangulations()
    d = bfs_distance(a, b)
    assert d > len(changed_edges(a, b))
    stats = SolverStats()
    assert fpt_distance(a, b, d, stats=stats) == d
    assert stats.lower_bound_cuts > 0


def test_fpt_distance_on_the_convex_gadget_at_n_50():
    # the slack-3 10-gon pair inside a 50-gon pins the engine above
    # n = 14; the n = 200 and 400 gadgets expand the same states and cuts
    a, b = convex_gadget(50)
    stats = SolverStats()
    assert fpt_distance(a, b, 12, stats) == 10
    assert (stats.states_expanded, stats.lower_bound_cuts) == (79_961, 347_833)


def test_fpt_distance_cap_and_bounds():
    a, b = generate_instance(6, "random", 4, 103).triangulations()
    assert fpt_distance(a, b, 10) == 4
    assert fpt_distance(a, b, 3) is None
    assert fpt_distance(a, a, 0) == 0
    with pytest.raises(ValueError):
        fpt_distance(a, b, -1)
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        decide_flip_distance_eq(a, b, -1)


@pytest.mark.parametrize("search", [bfs_distance, astar_distance, fpt_distance])
def test_negative_cap_raises_in_every_engine(search):
    # a distance of 0 is still above a cap of -1, so it is no answer
    a, _ = generate_instance(6, "random", 0, 103).triangulations()
    with pytest.raises(ValueError, match="^cap must be nonnegative$"):
        search(a, a, cap=-1)


def test_slack_two_pairs_agree():
    # slack = distance - goal-absent edges of the start; the changed-edge
    # bound is 2 short on these pairs, so they exercise the deepening.
    # Every slack-2 goal of the convex 9-gon, and the deepest of the 10-gon
    # (the first in canonical order; d = 9, about 0.1 s).
    start, strata = convex_slack_strata(9)
    pairs = [(start, goal, d) for slack, d, goal in strata if slack == 2]
    assert len(pairs) == 16
    start, strata = convex_slack_strata(10)
    d, goal = max(((d, goal) for slack, d, goal in strata if slack == 2), key=lambda p: p[0])
    assert d == 9
    pairs.append((start, goal, d))
    for start, goal, d in pairs:
        assert bfs_distance(start, goal, cap=d) == d
        assert astar_distance(start, goal, cap=d) == d
        assert fpt_distance(start, goal, d) == d


def test_streamed_outcomes_expand_no_more_states():
    # each node search yields every outcome as found, so an accepting
    # outcome of a larger part ends the node before a smaller part is
    # complete; releasing part p only once level 2p was popped took
    # 31,189 states on the 9-gon and 55,853 on the 10-gon (PINNED_COUNTS
    # pins GAP_PAIRS)
    start, strata = convex_slack_strata(9)
    stats = SolverStats()
    for slack, d, goal in strata:
        if slack == 2:
            assert fpt_distance(start, goal, d, stats=stats) == d
    # exact, as any bound lets a smaller regression pass
    assert stats.states_expanded == 27_390
    start, strata = convex_slack_strata(10)
    slack, d, goal = [s for s in strata if s[:2] == (3, 10)][-1]
    stats = SolverStats()
    assert fpt_distance(start, goal, d, stats=stats) == d
    # exact, as above; 17 more states without the zero-slack cut at k = 7
    assert stats.states_expanded == 53_873


def test_fpt_budget_stops_the_max_slack_eleven_gon(monkeypatch):
    # the first 11-gon goal of greatest (slack, d) in canonical order, one
    # of 71: without a budget fpt_distance expands 32,037 states on it,
    # 30,036 of them at k = 10; a budget of 10,000 stops that k at its
    # 10,001st state
    start, strata = convex_slack_strata(11)
    slack, d, goal = max(strata, key=lambda s: s[:2])
    assert (slack, d) == (3, 11)
    assert astar_distance(start, goal, cap=d) == d
    monkeypatch.setattr(oracle, "NODE_BUDGET", 10_000)
    for search in (fpt_distance, decide_flip_distance_eq):
        stats = SolverStats()
        with pytest.raises(SearchBudgetExceeded):
            search(start, goal, d, stats=stats)
        # the k before the one that raised are complete, each under budget
        assert 10_001 <= stats.states_expanded < (d + 1) * 10_001


def test_exists_budget_counts_states_of_the_call(monkeypatch):
    # a rejected k: exactly the states the call spends pass, one fewer
    # raises, whatever the count the passed stats start from
    a, b = generate_instance(9, "random", 4, 111).triangulations()
    stats = SolverStats()
    assert not exists_solution_with_exactly_k_flips(a, b, 5, stats=stats)
    spent = stats.states_expanded
    monkeypatch.setattr(oracle, "NODE_BUDGET", spent)
    assert not exists_solution_with_exactly_k_flips(a, b, 5, stats=stats)
    assert stats.states_expanded == 2 * spent
    monkeypatch.setattr(oracle, "NODE_BUDGET", spent - 1)
    with pytest.raises(SearchBudgetExceeded):
        exists_solution_with_exactly_k_flips(a, b, 5)
