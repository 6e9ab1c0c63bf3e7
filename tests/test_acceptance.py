"""End-to-end acceptance checks.

One test per criterion; each prints a single [PASS]/[FAIL] line.  Run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they complete.  The instance pool (a conftest fixture),
the random-sequence corpus, and the oracle-minimal solutions are built once
and shared.
"""

from __future__ import annotations

import random
import time

import pytest

from flipdist import (
    FlipSequence,
    SolverStats,
    apply_sequence,
    build_dag,
    classify_essential,
    components,
    decide_flip_distance_eq,
    enumerate_minimal_solutions,
    generate_instance,
)
from flipdist.flip_dag import FlipDag

from conftest import (
    indegrees,
    path_exists,
    polygon_fans,
    random_walk,
    raw_distance,
    replay,
    sample_topological_sorts,
    searched_compositions,
    segments_cross,
    share_triangle,
    states,
)

ORACLE_BUDGET_SECONDS = 600.0
RAW_BUDGET_SECONDS = 60.0


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


# -- shared corpora --------------------------------------------------------


@pytest.fixture(scope="module")
def decide_results(pool):
    """Decision procedure over the whole pool, every k from 0 to d.

    Returns (violations, shared solver stats, seconds with pruning,
    seconds of the unpruned reference on the d<=3 subset).
    """
    stats = SolverStats()
    violations = []

    started = time.perf_counter()
    for idx, (start, goal, d) in enumerate(pool):
        for k in range(d + 1):
            got = decide_flip_distance_eq(start, goal, k, stats=stats)
            if got != (k == d):
                violations.append((idx, k, d, got))
    elapsed_on = time.perf_counter() - started

    started = time.perf_counter()
    for idx, (start, goal, d) in enumerate(pool):
        if d > 3:
            continue
        for k in range(d + 1):
            got = raw_distance(start, goal, k, stats) == k
            if got != (k == d):
                violations.append((idx, k, d, got))
    elapsed_off = time.perf_counter() - started
    return violations, stats, elapsed_on, elapsed_off


@pytest.fixture(scope="module")
def sequence_corpus() -> list[FlipSequence]:
    """200 random valid flip sequences of length <= 6 on random triangulations."""
    rng = random.Random(2024)
    corpus = []
    seed = 10_000
    while len(corpus) < 200:
        seed += 1
        n = rng.randrange(4, 9)
        start, _ = generate_instance(n, "random", 0, seed).triangulations()
        edges = [e for _, e in random_walk(start, rng.randrange(1, 7), rng)]
        corpus.append(apply_sequence(start, edges))
    return corpus


@pytest.fixture(scope="module")
def corpus_dags(sequence_corpus) -> list[tuple[FlipSequence, FlipDag]]:
    return [(seq, build_dag(seq)) for seq in sequence_corpus]


@pytest.fixture(scope="module")
def minimal_solutions(pool) -> list[tuple[FlipSequence, FlipDag]]:
    """Oracle-minimal solutions (<=20 per pool instance) with their DAGs."""
    out = []
    for start, goal, d in pool:
        if d == 0:
            continue
        for seq in enumerate_minimal_solutions(start, goal, d, limit=20):
            out.append((seq, build_dag(seq)))
    return out


# -- criteria --------------------------------------------------------------


def test_criterion_1_oracle_equivalence(pool, decide_results):
    violations, _, elapsed_on, elapsed_off = decide_results
    ok = not violations and elapsed_on <= ORACLE_BUDGET_SECONDS and elapsed_off <= RAW_BUDGET_SECONDS
    report(
        "oracle equivalence: decide(k)=[k==d] for all k<=d",
        ok,
        f"{len(pool)} instances, pruned {elapsed_on:.1f}s/{ORACLE_BUDGET_SECONDS:.0f}s, "
        f"raw d<=3 {elapsed_off:.1f}s/{RAW_BUDGET_SECONDS:.0f}s, violations={violations[:3]}",
    )


def test_criterion_2_topological_replay(corpus_dags):
    rng = random.Random(7)
    checked = 0
    violations = 0
    for seq, dag in corpus_dags:
        for order in sample_topological_sorts(dag, rng, samples=3):
            checked += 1
            if replay(seq, order) != seq.final:
                violations += 1
    report(
        "every sampled topological sort replays to the same final triangulation",
        violations == 0 and len(corpus_dags) >= 200,
        f"{len(corpus_dags)} sequences, {checked} replays, violations={violations}",
    )


def test_criterion_3_indegree_bound(corpus_dags, minimal_solutions):
    dags = [dag for _, dag in corpus_dags] + [dag for _, dag in minimal_solutions]
    bad = 0
    for dag in dags:
        if len(dag.arcs) > 5 * dag.node_count:
            bad += 1
            continue
        if any(c > 5 for c in indegrees(dag).values()):
            bad += 1
    report(
        "dependency DAGs: indegree <= 5 and arcs <= 5*nodes",
        bad == 0,
        f"{len(dags)} DAGs, violations={bad}",
    )


def test_criterion_4_components_essential(minimal_solutions):
    bad = 0
    for seq, dag in minimal_solutions:
        if not all(essential for _, essential in classify_essential(dag, seq)):
            bad += 1
    report(
        "minimal solutions: every DAG component is essential",
        bad == 0 and len(minimal_solutions) > 0,
        f"{len(minimal_solutions)} solutions, violations={bad}",
    )


def test_criterion_5_path_conditions(minimal_solutions):
    checked = 0
    violations = 0
    for seq, dag in minimal_solutions:
        pts = seq.base.ps.points
        before = states(seq)
        for comp in components(dag):
            for ai, i in enumerate(comp):
                for h in comp[ai + 1 :]:
                    fi, fh = seq.records[i - 1], seq.records[h - 1]
                    crossing = segments_cross(
                        pts[fh.created[0]], pts[fh.created[1]],
                        pts[fi.removed[0]], pts[fi.removed[1]],
                    )
                    shares = any(
                        share_triangle(before[j], fi.created, fh.removed)
                        for j in range(i, h)
                    )
                    implies_path = (
                        crossing
                        or fh.created == fi.removed
                        or fi.removed == fh.removed
                        or fi.created == fh.removed
                        or shares
                    )
                    if implies_path:
                        checked += 1
                        if not path_exists(dag, i, h):
                            violations += 1
    report(
        "in-component pairs meeting a crossing/sharing condition are path-connected",
        violations == 0 and checked > 0,
        f"{checked} pairs checked, violations={violations}",
    )


def test_criterion_6_branching_bound(decide_results):
    _, stats, _, _ = decide_results
    report(
        "action machine offers at most 14 choices per state",
        0 < stats.max_branching <= 14 and stats.states_expanded > 0,
        f"max branching {stats.max_branching} over {stats.states_expanded} states",
    )


def test_criterion_7_composition_count():
    # the fans of a convex 20-gon differ in 16 edges, room for every part
    a, b = polygon_fans(20)
    bad = []
    for k in range(1, 17):
        count = 0
        for comp in searched_compositions(a, b, k):
            count += 1
            if k <= 8 and sum(comp) != k:
                bad.append((k, comp))
        if count != 2 ** (k - 1):
            bad.append((k, count))
    report(
        "the search walks exactly 2^(k-1) compositions for k in [1,16]",
        not bad,
        f"checked k=1..16, mismatches={bad[:3]}",
    )


def test_criterion_8_flip_involution(pool):
    rng = random.Random(99)
    worlds = [t for start, goal, _ in pool for t in (start, goal)]
    performed = 0
    bad = 0
    while performed < 10_000:
        tri = worlds[rng.randrange(len(worlds))]
        choices = tri.admissible_edges()
        if not choices:
            continue
        e = rng.choice(choices)
        once, created = tri.apply_flip(e)
        twice, back = once.apply_flip(created)
        performed += 1
        if (
            twice != tri
            or back != e
            or len(once.triangles) != len(tri.triangles)
            or len(once.edges()) != len(tri.edges())
        ):
            bad += 1
        if performed % 7 == 0 and len(worlds) < 800:
            worlds.append(once)
    report(
        "double flip restores the triangulation; counts invariant",
        bad == 0,
        f"{performed} flip pairs, violations={bad}",
    )


def test_criterion_9_pruning_neutrality(pool):
    subset = [(s, g, d) for s, g, d in pool if d <= 3][:30]
    assert len(subset) == 30
    bad = 0
    for start, goal, d in subset:
        for k in range(d + 1):
            pruned = decide_flip_distance_eq(start, goal, k)
            raw = raw_distance(start, goal, k) == k
            if pruned != raw:
                bad += 1
    report(
        "decision identical with pruning on and off",
        bad == 0,
        f"30 instances, d<=3, all k<=d, mismatches={bad}",
    )
