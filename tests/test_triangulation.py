import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    HEXAGON_POINTS,
    PENTAGON_POINTS,
    SQUARE_POINTS,
    pentagon_fan,
    random_pair,
    random_walk,
    share_triangle,
    strictly_convex_quad,
)
from flipdist import (
    InadmissibleFlip,
    InvalidTriangulation,
    PointSet,
    PointSetMismatch,
    Triangulation,
    changed_edges,
    enumerate_triangulations,
    generate_instance,
    make_edge,
    make_triangle,
    scan_triangulation,
)
from flipdist.triangulation import edge_bit


def test_build_square(square):
    assert sorted(square.triangles) == [(0, 1, 2), (0, 2, 3)]
    assert square.edges() == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    assert (0, 2) in square and (1, 3) not in square
    assert square.ps.boundary_mask == sum(map(edge_bit, [(0, 1), (1, 2), (2, 3), (0, 3)]))


def test_build_reports_overlapping_triangles():
    with pytest.raises(InvalidTriangulation, match="overlapping triangles"):
        Triangulation.build(SQUARE_POINTS, [(0, 1, 2), (1, 2, 3)])


# (shared edge, first apex, second apex) over the labels 0..3: the edge
# takes every pair of positions (ab, ac, bc) in its two sorted triangles
OVERLAP_LABELS = [
    ((0, 1), 2, 3),  # ab, ab
    ((0, 2), 1, 3),  # ac, ab
    ((0, 3), 1, 2),  # ac, ac
    ((1, 2), 0, 3),  # bc, ab
    ((1, 3), 0, 2),  # bc, ac
    ((2, 3), 0, 1),  # bc, bc
]


@pytest.mark.parametrize("mirror", [1, -1], ids=["ccw", "cw"])
@pytest.mark.parametrize("edge, first, second", OVERLAP_LABELS)
def test_build_reports_overlapping_triangles_at_every_edge_position(edge, first, second, mirror):
    # the edge is the quadrilateral's bottom side and both apexes lie
    # above it; mirroring in x flips the orientation of every triangle
    corners = [(0, 0), (4, 0), (3, 2), (1, 2)]
    points = [None] * 4
    for label, (x, y) in zip((*edge, first, second), corners):
        points[label] = (mirror * x, y)
    t1, t2 = make_triangle(*edge, first), make_triangle(*edge, second)
    with pytest.raises(InvalidTriangulation) as exc:
        Triangulation.build(points, [t1, t2])
    assert str(exc.value) == f"overlapping triangles {t1} and {t2}"
    # the apexes listed the other way round, and the message with them
    with pytest.raises(InvalidTriangulation) as exc:
        Triangulation.build(points, [t2, t1])
    assert str(exc.value) == f"overlapping triangles {t2} and {t1}"


def test_build_reports_wrong_triangle_count():
    with pytest.raises(InvalidTriangulation, match="expected 2 triangles, got 1"):
        Triangulation.build(SQUARE_POINTS, [(0, 1, 2)])


def test_build_reports_an_edge_in_three_triangles():
    # the count is right, so the incidence check is the first to fire
    with pytest.raises(InvalidTriangulation) as exc:
        Triangulation.build(
            [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)], [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)]
        )
    assert str(exc.value) == "bad edge incidence: edge (0, 1) is in 3 triangles"


def test_build_reports_duplicate_point():
    with pytest.raises(InvalidTriangulation, match="duplicate point"):
        Triangulation.build([(0, 0), (1, 0), (1, 1), (0, 0)], [(0, 1, 2), (0, 2, 3)])


def test_build_reports_degenerate_triangle():
    with pytest.raises(InvalidTriangulation, match="degenerate triangle"):
        Triangulation.build([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 1, 3), (1, 2, 3), (0, 1, 2)])
    with pytest.raises(InvalidTriangulation, match="degenerate triangle"):
        Triangulation.build(SQUARE_POINTS, [(0, 1, 1), (0, 2, 3)])


def test_build_reports_unknown_point_and_duplicate_triangle():
    with pytest.raises(InvalidTriangulation, match="unknown point"):
        Triangulation.build(SQUARE_POINTS, [(0, 1, 7), (0, 2, 3)])
    with pytest.raises(InvalidTriangulation, match="duplicate triangle"):
        Triangulation.build(SQUARE_POINTS, [(0, 1, 2), (2, 1, 0)])


def test_build_rejects_non_integer_coordinates():
    # truncating would silently build on (0, 1) instead of (0.9, 1.7)
    with pytest.raises(InvalidTriangulation, match="non-integer coordinate at point 2"):
        Triangulation.build([(0, 0), (1, 0), (0.9, 1.7)], [(0, 1, 2)])
    with pytest.raises(InvalidTriangulation, match="non-integer coordinate at point 1"):
        PointSet([(0, 0), ("1", 0), (0, 1)])
    # truncating would silently build the square's (0, 1, 2)
    with pytest.raises(InvalidTriangulation, match="non-integer vertex id"):
        Triangulation.build(SQUARE_POINTS, [(0, 1, 2.7), (0, 2, 3)])


def test_point_set_rejects_out_of_range_coordinates_and_too_few_points():
    with pytest.raises(InvalidTriangulation, match=r"out of 32-bit range at point 1: \(2147483648, 0\)"):
        PointSet([(0, 0), (2**31, 0), (0, 1)])
    with pytest.raises(InvalidTriangulation, match="need at least 3 points"):
        PointSet([(0, 0), (1, 0)])


def test_build_rejects_a_triangle_of_two_ids():
    with pytest.raises(InvalidTriangulation, match=r"triangle needs 3 vertices, got \(0, 1\)"):
        Triangulation.build(SQUARE_POINTS, [(0, 1), (0, 2, 3)])


def test_build_reports_the_first_of_two_faults():
    # per-triangle checks run in input order, before the count check, and
    # the count check runs before any edge is judged
    with pytest.raises(InvalidTriangulation, match=r"duplicate triangle \(0, 1, 2\)"):
        Triangulation.build(SQUARE_POINTS, [(0, 1, 2), (2, 1, 0), (0, 1, 7)])
    # edge (0, 1) is in three triangles, and there are five, not three
    with pytest.raises(InvalidTriangulation, match="expected 3 triangles, got 5"):
        Triangulation.build(PENTAGON_POINTS, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 3), (0, 1, 4)])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 9),
    hull=st.sampled_from(["random", "convex"]),
    seed=st.integers(0, 50),
    data=st.data(),
)
def test_build_rejects_one_corrupted_triangle(n, hull, seed, data):
    # a triangulation is fixed by all but one of its triangles, so
    # changing one vertex of one triangle, or dropping or repeating a
    # triangle, never leaves a triangulation
    inst = generate_instance(n, hull, 0, seed)
    tris = [list(t) for t in inst.initial]
    i = data.draw(st.integers(0, len(tris) - 1), label="triangle")
    kind = data.draw(st.sampled_from(["replace", "drop", "duplicate"]), label="kind")
    if kind == "replace":
        j = data.draw(st.integers(0, 2), label="corner")
        tris[i][j] = data.draw(st.integers(-1, n).filter(lambda v: v != tris[i][j]), label="vertex")
    elif kind == "drop":
        del tris[i]
    else:
        tris.insert(data.draw(st.integers(0, len(tris)), label="at"), list(tris[i]))
    ps = PointSet(inst.points)
    Triangulation.build(ps, inst.initial)
    with pytest.raises(InvalidTriangulation):
        Triangulation.build(ps, tris)


def test_build_rejects_all_collinear():
    with pytest.raises(InvalidTriangulation, match="collinear"):
        Triangulation.build([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_build_accepts_collinear_boundary_points():
    # 3 of 4 points on one line: hull chain has 4 points, 2 triangles
    tri = Triangulation.build([(0, 0), (2, 0), (1, 0), (1, 2)], [(0, 2, 3), (1, 2, 3)])
    assert tri.ps.hull_size == 4
    assert len(tri.triangles) == 2
    assert len(tri.edges()) == 5


SMALL_POINT_SETS = [
    [(0, 0), (4, 0), (6, 3), (4, 6), (0, 6), (-2, 3)],  # convex hexagon
    [(0, 0), (6, 0), (7, 4), (3, 7), (-1, 4), (3, 3)],  # five-point hull, one inside
    [(0, 0), (1, 0), (2, 0), (3, 0), (1, 2), (2, 1)],  # collinear hull sides
    [(0, 0), (2, 0), (1, 0), (1, 2)],
    # interior points on lines through other points: a list can skip a
    # point or put a vertex inside another triangle's edge
    [(0, 0), (6, 0), (6, 6), (0, 6), (3, 3), (2, 2)],
    [(0, 0), (2, 0), (4, 0), (2, 2), (2, 4)],
]


@pytest.mark.parametrize("coords", SMALL_POINT_SETS)
def test_build_accepts_exactly_the_triangulations(coords):
    # every set of expected_triangles triangles drawn from all C(n, 3)
    # builds iff it is a triangulation, as enumerated by flips from a seed
    ps = PointSet(coords)
    seed = Triangulation.build(ps, scan_triangulation(coords))
    masks = sorted(t.edge_mask for t in enumerate_triangulations(seed))
    accepted = []
    for tris in combinations(combinations(range(len(ps)), 3), ps.expected_triangles):
        try:
            accepted.append(Triangulation.build(ps, tris).edge_mask)
        except InvalidTriangulation:
            pass
    assert sorted(accepted) == masks


def test_build_shares_point_set_object(pentagon_ps):
    a = pentagon_fan(pentagon_ps, 0)
    b = pentagon_fan(pentagon_ps, 1)
    assert a.ps is b.ps


def test_builds_share_edge_and_apex_tuples():
    # a triangulation's edge and apex tuples are the ones every earlier
    # build made, so many triangulations of small point sets store each
    # value once; flips pass the flipped edge on as the created diagonal's
    # apexes
    triangles = [(0, 1, 5), (1, 4, 5), (1, 2, 4), (2, 3, 4)]
    a, b = (Triangulation.build(HEXAGON_POINTS, triangles) for _ in range(2))
    assert a.edges() == b.edges() and all(x is y for x, y in zip(a.edges(), b.edges()))
    interior = a.admissible_edges()
    assert interior and all(a.flip_preview(e)[0] is b.flip_preview(e)[0] for e in interior)
    flipped, created = a.apply_flip(interior[0])
    assert flipped.flip_preview(created)[0] is interior[0]


def test_point_set_edge_table_memory():
    # a point set stores nothing per point pair: a table of the bits
    # 1 << i, one per pair, took Theta(n^4) bits, 134 MB for these 300 points
    tracemalloc.start()
    try:
        ps = PointSet([(i, i * i % 1009) for i in range(300)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert edge_bit((0, 1)) == 1 and edge_bit((298, 299)) == 1 << (300 * 299 // 2 - 1)


def test_point_set_memory_is_linear():
    # edge bits are computed, not looked up: a table of C(n, 2) bit
    # indices took about 60 MB for these 1000 points
    tracemalloc.start()
    try:
        PointSet([(i, i * i) for i in range(1000)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_edge_bit_numbers_pairs_by_larger_vertex():
    pairs = list(combinations(range(12), 2))
    assert [edge_bit((u, v)) for u, v in pairs] == [1 << (v * (v - 1) // 2 + u) for u, v in pairs]
    # one distinct bit per pair, and the 66 pairs fill bits 0..65
    assert sorted(map(edge_bit, pairs)) == [1 << i for i in range(len(pairs))]


def _mask_of(tri: Triangulation) -> int:
    mask = 0
    for e in tri.edges():
        mask |= edge_bit(e)
    return mask


def test_is_admissible(square, pinwheel):
    assert square.flip_preview((0, 2)) is not None
    assert square.flip_preview((0, 1)) is None  # boundary
    assert square.flip_preview((1, 3)) is None  # absent
    # every interior edge of a triangle-with-interior-point is blocked
    assert pinwheel.admissible_edges() == []


def test_apply_flip_square(square):
    flipped, created = square.apply_flip((0, 2))
    assert created == (1, 3)
    assert sorted(flipped.triangles) == [(0, 1, 3), (1, 2, 3)]
    assert (0, 2) not in flipped and (1, 3) in flipped


def test_apply_flip_involution(square):
    flipped, created = square.apply_flip((0, 2))
    back, recreated = flipped.apply_flip(created)
    assert recreated == (0, 2)
    assert back == square
    assert back.canonical_key() == square.canonical_key()


def test_apply_flip_rejects_bad_edges(square, pinwheel):
    with pytest.raises(InadmissibleFlip, match="not in the triangulation"):
        square.apply_flip((1, 3))
    with pytest.raises(InadmissibleFlip, match="boundary"):
        square.apply_flip((0, 1))
    with pytest.raises(InadmissibleFlip, match="not strictly convex"):
        pinwheel.apply_flip((0, 3))


def test_flip_chain_reaches_other_fan(pentagon_ps):
    # two flips turn the fan at 0 into the fan at 1
    fan0 = pentagon_fan(pentagon_ps, 0)
    step, created = fan0.apply_flip((0, 2))
    assert created == (1, 3)
    final, created = step.apply_flip((0, 3))
    assert created == (1, 4)
    assert final == pentagon_fan(pentagon_ps, 1)


def test_flip_preserves_counts_and_locality():
    rng = random.Random(11)
    for seed in range(8):
        start, _ = random_pair(7, 0, 400 + seed)
        for tri, e in random_walk(start, 12, rng):
            flipped, created = tri.apply_flip(e)
            assert len(flipped.triangles) == len(tri.triangles)
            assert len(flipped.edges()) == len(tri.edges())
            assert changed_edges(tri, flipped) == {e}
            assert changed_edges(flipped, tri) == {created}


def test_derived_triangles_round_trip():
    # the triangle set is read off the apex map; rebuilding from it must
    # give back the same triangulation after any sequence of flips
    rng = random.Random(13)
    for n in range(5, 10):
        for hull in ("random", "convex"):
            start, _ = generate_instance(n, hull, 0, 600 + n).triangulations()
            walk = random_walk(start, 10, rng)
            visited = [start] + [t.apply_flip(e)[0] for t, e in walk]
            for t in visited:
                rebuilt = Triangulation.build(t.ps, t.triangles)
                assert rebuilt == t
                assert rebuilt.canonical_key() == t.canonical_key()
                assert len(t.triangles) == t.ps.expected_triangles


def test_flip_preview_matches_apply_flip():
    # the searches judge a successor on the preview and build only those
    # they keep, so the preview must agree with the flip it stands for;
    # the mask is also recomputed from the apex map, bit by bit
    rng = random.Random(14)
    for n in range(5, 10):
        for hull in ("random", "convex"):
            for seed in range(3):
                start, _ = generate_instance(n, hull, 0, 700 + 10 * n + seed).triangulations()
                assert start.edge_mask == _mask_of(start)  # build's mask; every flip's below
                for tri, _ in random_walk(start, 10, rng):
                    # None exactly when apply_flip refuses, absent pairs included
                    absent = [p for p in combinations(range(n), 2) if p not in tri][:2]
                    for e in list(tri.edges()) + absent:
                        try:
                            tri.apply_flip(e)
                            refused = False
                        except InadmissibleFlip:
                            refused = True
                        assert (tri.flip_preview(e) is None) == refused
                    for e in tri.admissible_edges():
                        flipped, created = tri.apply_flip(e)
                        assert tri.flip_preview(e) == (created, flipped.edge_mask)
                        assert changed_edges(flipped, tri) == {created}
                        assert flipped.edge_mask == _mask_of(flipped)


def _preview_verdicts(tri: Triangulation) -> list[bool]:
    """For each interior edge uv with apexes c, d: flip_preview refuses it
    exactly when the four-turn reference rejects (u, c, v, d); returns the
    reference's verdicts."""
    pts = tri.ps.points
    verdicts = []
    for e in tri.edges():
        if tri.ps.boundary_mask & edge_bit(e):
            continue
        u, v = e
        c, d = sorted({w for side in tri.edges_sharing_triangle(e) for w in side} - {u, v})
        convex = strictly_convex_quad(pts[u], pts[c], pts[v], pts[d])
        assert (tri.flip_preview(e) is not None) == convex, (e, c, d)
        verdicts.append(convex)
    return verdicts


@pytest.mark.parametrize("coords", SMALL_POINT_SETS)
def test_flip_preview_is_the_four_turn_test_on_every_triangulation(coords):
    # flip_preview's two cross products stand for the four turns of the
    # quadrilateral on every interior edge of every triangulation
    seed = Triangulation.build(PointSet(coords), scan_triangulation(coords))
    for tri in enumerate_triangulations(seed):
        assert _preview_verdicts(tri)  # each of these has an interior edge


def test_flip_preview_is_the_four_turn_test_on_random_walks():
    rng = random.Random(18)
    verdicts = []
    for n in range(4, 10):
        for hull in ("random", "convex"):
            for seed in range(3):
                start, _ = generate_instance(n, hull, 0, 1800 + 10 * n + seed).triangulations()
                for tri, _ in random_walk(start, 10, rng):
                    verdicts += _preview_verdicts(tri)
    assert True in verdicts and False in verdicts


def test_edges_sharing_triangle_square(square):
    assert square.edges_sharing_triangle((0, 2)) == ((0, 1), (0, 3), (1, 2), (2, 3))
    # a boundary edge lies in one triangle: exactly its two other sides
    assert square.edges_sharing_triangle((0, 1)) == ((0, 2), (1, 2))
    with pytest.raises(ValueError, match="not in the triangulation"):
        square.edges_sharing_triangle((1, 3))


def test_edges_sharing_triangle_counts_exhaustive(pentagon_ps):
    # the sides of e's triangles in canonical order, read off the triangle
    # set; the interior edges of the point set with an inner point meet all
    # six relative orders of their two vertices and two apexes
    inner = SMALL_POINT_SETS[1]
    seeds = [
        pentagon_fan(pentagon_ps, 0),
        Triangulation.build(HEXAGON_POINTS, [(0, 1, 5), (1, 4, 5), (1, 2, 4), (2, 3, 4)]),
        Triangulation.build(inner, scan_triangulation(inner)),
    ]
    for seed_tri in seeds:
        for tri in enumerate_triangulations(seed_tri):
            for e in tri.edges():
                expected = 2 if tri.ps.boundary_mask & edge_bit(e) else 4
                apexes = [w for t in tri.triangles if set(e) < set(t) for w in t if w not in e]
                sides = tuple(sorted(make_edge(v, w) for v in e for w in apexes))
                assert len(sides) == expected
                assert tri.edges_sharing_triangle(e) == sides


def test_edges_share_triangle(square):
    assert share_triangle(square, (0, 1), (0, 2))
    assert not share_triangle(square, (0, 1), (2, 3))
    assert not share_triangle(square, (0, 1), (0, 1))
    assert not share_triangle(square, (0, 1), (1, 3))  # absent edge
    assert not share_triangle(square, (1, 3), (0, 1))


def test_changed_edges(square):
    flipped, _ = square.apply_flip((0, 2))
    assert changed_edges(square, square) == set()
    assert changed_edges(square, flipped) == {(0, 2)}
    assert changed_edges(flipped, square) == {(1, 3)}


def test_changed_edges_symmetric_cardinality():
    rng = random.Random(12)
    for seed in range(10):
        a, b = random_pair(rng.choice([5, 6, 7]), rng.randrange(1, 5), 500 + seed)
        assert len(changed_edges(a, b)) == len(changed_edges(b, a))


def test_point_set_mismatch():
    a = Triangulation.build(SQUARE_POINTS, [(0, 1, 2), (0, 2, 3)])
    b = Triangulation.build([(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(PointSetMismatch):
        changed_edges(a, b)


def test_canonical_key_identity(square, pentagon_ps):
    reordered = Triangulation.build(SQUARE_POINTS, [(0, 2, 3), (0, 1, 2)])
    assert reordered.canonical_key() == square.canonical_key()
    assert reordered == square
    assert hash(reordered) == hash(square)
    flipped, _ = square.apply_flip((0, 2))
    assert flipped.canonical_key() != square.canonical_key()
    assert flipped != square
    fan0 = pentagon_fan(pentagon_ps, 0)
    assert fan0 != square  # different point sets never equal


def test_canonical_key_round_trips_by_bytes(fans):
    keys = {f.canonical_key() for f in fans}
    assert len(keys) == 5
    for key in keys:
        assert isinstance(key, bytes)


def test_make_edge_and_triangle_canonical():
    assert make_edge(3, 1) == (1, 3)
    assert make_triangle(2, 0, 1) == (0, 1, 2)
