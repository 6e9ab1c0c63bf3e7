import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    indegrees,
    is_topological_sort,
    path_exists,
    pentagon_fan,
    random_pair,
    random_walk,
    replay,
    sample_topological_sorts,
    share_triangle,
    states,
)
from flipdist import (
    FlipDag,
    InvalidFlipSequence,
    apply_sequence,
    build_dag,
    classify_essential,
    components,
)


def _random_sequence(seed: int, max_len: int = 6):
    rng = random.Random(seed)
    start, _ = random_pair(rng.choice([5, 6, 7, 8]), rng.randrange(0, 3), 900 + seed)
    edges = [e for _, e in random_walk(start, rng.randrange(0, max_len + 1), rng)]
    return apply_sequence(start, edges)


def test_apply_sequence_empty(square):
    seq = apply_sequence(square, [])
    assert len(seq) == 0
    assert seq.base is square and seq.final is square


def test_apply_sequence_records(square):
    seq = apply_sequence(square, [(0, 2), (1, 3)])
    # one (removed, created) pair per flip; flip i is records[i - 1]
    assert seq.records == (((0, 2), (1, 3)), ((1, 3), (0, 2)))
    assert [r.removed for r in seq.records] == seq.edges() == [(0, 2), (1, 3)]
    assert seq.final == square  # flip and flip back


def test_apply_sequence_reports_bad_position(square):
    with pytest.raises(InvalidFlipSequence) as err:
        apply_sequence(square, [(0, 1)])
    assert err.value.position == 1
    with pytest.raises(InvalidFlipSequence) as err:
        apply_sequence(square, [(0, 2), (0, 2)])
    assert err.value.position == 2


def test_build_dag_flip_and_back(square):
    seq = apply_sequence(square, [(0, 2), (1, 3)])
    dag = build_dag(seq)
    assert dag.arcs == ((1, 2),)
    assert components(dag) == [(1, 2)]
    # the sequence undoes itself, so nothing changed and nothing is essential
    assert classify_essential(dag, seq) == [((1, 2), False)]


def test_build_dag_independent_flips(hexagon):
    seq = apply_sequence(hexagon, [(1, 5), (2, 4)])
    dag = build_dag(seq)
    assert dag.arcs == ()
    assert components(dag) == [(1,), (2,)]
    assert classify_essential(dag, seq) == [((1,), True), ((2,), True)]


def test_build_dag_share_triangle_arc(pentagon_ps):
    # second flip removes (0,3), which shares a triangle with the diagonal
    # (1,3) made by the first flip
    fan0 = pentagon_fan(pentagon_ps, 0)
    seq = apply_sequence(fan0, [(0, 2), (0, 3)])
    dag = build_dag(seq)
    assert dag.arcs == ((1, 2),)


def test_build_dag_skips_recreated_diagonal(square):
    # flip1 makes (1,3), flip2 removes it, flip3 removes (0,2) again:
    # flip1's diagonal is gone before flip3, so no arc 1 -> 3
    seq = apply_sequence(square, [(0, 2), (1, 3), (0, 2)])
    dag = build_dag(seq)
    assert (1, 3) not in dag.arcs
    assert dag.arcs == ((1, 2), (2, 3))


def test_dag_bounds_on_random_sequences():
    for seed in range(40):
        seq = _random_sequence(seed)
        dag = build_dag(seq)
        assert len(dag.arcs) <= 5 * dag.node_count
        assert all(c <= 5 for c in indegrees(dag).values())


def _dag_by_definition(seq):
    """Arc i -> j iff the diagonal made by flip i is not flipped strictly
    between i and j, and flip j removes it or an edge sharing a triangle
    with it just before j."""
    recs = seq.records
    before = states(seq)
    arcs = []
    for j in range(2, len(recs) + 1):
        removed_j = recs[j - 1].removed
        before_j = before[j - 1]
        for i in range(1, j):
            made_i = recs[i - 1].created
            if any(recs[p - 1].removed == made_i for p in range(i + 1, j)):
                continue
            if made_i == removed_j or share_triangle(before_j, made_i, removed_j):
                arcs.append((i, j))
    return tuple(sorted(arcs))


def _recreating_sequence(seed: int):
    """A random flip sequence that often flips diagonals it made before."""
    rng = random.Random(seed)
    start, _ = random_pair(rng.choice([5, 6, 7, 8, 9]), 0, 700 + seed)
    cur, edges, made = start, [], []
    for _ in range(rng.randrange(4, 20)):
        back = [e for e in made if cur.flip_preview(e)]
        choices = back if back and rng.random() < 0.6 else cur.admissible_edges()
        if not choices:
            break
        e = rng.choice(choices)
        cur, created = cur.apply_flip(e)
        edges.append(e)
        made.append(created)
    return apply_sequence(start, edges)


def test_build_dag_matches_definition():
    reflips = 0
    for seed in range(120):
        seq = _recreating_sequence(seed)
        assert build_dag(seq).arcs == _dag_by_definition(seq)
        # flips of a diagonal the sequence had already made twice
        made = []
        for rec in seq.records:
            reflips += made.count(rec.removed) >= 2
            made.append(rec.created)
    assert reflips >= 20


def test_is_topological_sort(square):
    seq = apply_sequence(square, [(0, 2), (1, 3)])
    dag = build_dag(seq)
    assert is_topological_sort(dag, [1, 2])
    assert not is_topological_sort(dag, [2, 1])
    with pytest.raises(ValueError, match="permutation"):
        is_topological_sort(dag, [1, 1])


def test_replay_identity_and_swap(hexagon):
    seq = apply_sequence(hexagon, [(1, 5), (2, 4)])
    assert replay(seq, [1, 2]) == seq.final
    assert replay(seq, [2, 1]) == seq.final


def test_replay_sampled_topological_sorts():
    rng = random.Random(5)
    for seed in range(25):
        seq = _random_sequence(100 + seed)
        dag = build_dag(seq)
        for order in sample_topological_sorts(dag, rng, samples=3):
            assert is_topological_sort(dag, order)
            assert replay(seq, order) == seq.final


def test_sample_topological_sorts_extremes():
    dag = FlipDag(3, [(1, 3)])
    sorts = sample_topological_sorts(dag, random.Random(0), samples=2)
    assert sorts[0] == [1, 2, 3]  # lexicographically smallest
    assert sorts[1] == [2, 1, 3]  # lexicographically largest
    assert len(sorts) == 4


def test_components_and_path_exists():
    dag = FlipDag(5, [(1, 3), (3, 4)])
    assert components(dag) == [(1, 3, 4), (2,), (5,)]
    assert path_exists(dag, 1, 4)
    assert path_exists(dag, 2, 2)
    assert not path_exists(dag, 1, 2)
    assert not path_exists(dag, 3, 1)
    with pytest.raises(ValueError, match="not in the DAG"):
        path_exists(dag, 0, 2)


@st.composite
def forward_dags(draw):
    n = draw(st.integers(1, 12))
    ends = st.integers(1, n)
    arcs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    return FlipDag(n, [(min(a), max(a)) for a in arcs if a[0] != a[1]])


def _components_by_definition(dag):
    """Flood fill over the arcs taken both ways, from each unreached node
    in ascending order; each component is listed ascending."""
    near = {i: set() for i in dag.nodes()}
    for i, j in dag.arcs:
        near[i].add(j)
        near[j].add(i)
    seen, out = set(), []
    for root in dag.nodes():
        if root in seen:
            continue
        comp, todo = {root}, [root]
        while todo:
            for nb in near[todo.pop()] - comp:
                comp.add(nb)
                todo.append(nb)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(forward_dags())
def test_components_match_definition(dag):
    assert components(dag) == _components_by_definition(dag)


def test_component_concatenation_replays(hexagon):
    # arcs never cross components, so the components concatenated in any
    # order, each in ascending position order, form a topological sort
    seq = apply_sequence(hexagon, [(1, 5), (2, 4)])
    dag = build_dag(seq)
    comps = components(dag)
    for order in ([comps[0], comps[1]], [comps[1], comps[0]]):
        perm = [node for comp in order for node in comp]
        assert is_topological_sort(dag, perm)
        assert replay(seq, perm) == seq.final
    with pytest.raises(ValueError, match="not a permutation"):
        is_topological_sort(dag, list(comps[0]))


def test_classify_essential_minimal_solution(square):
    seq = apply_sequence(square, [(0, 2)])
    dag = build_dag(seq)
    assert classify_essential(dag, seq) == [((1,), True)]


def test_flip_dag_rejects_backward_arcs():
    with pytest.raises(ValueError, match="forward"):
        FlipDag(3, [(2, 1)])
