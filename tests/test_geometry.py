import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import segments_cross, strictly_convex_quad
from flipdist import Triangulation, scan_triangulation
from flipdist.geometry import convex_hull, cross, hull_boundary_chain


def rand_point(rng):
    return rng.randrange(-50, 51), rng.randrange(-50, 51)


def test_orientation_examples():
    # the sign of cross is the turn p -> q -> r: left, right, collinear
    assert cross((0, 0), (2, 0), (1, 1)) > 0
    assert cross((0, 0), (2, 0), (1, -1)) < 0
    assert cross((0, 0), (2, 2), (1, 1)) == 0


def test_orientation_swap_flips_sign():
    rng = random.Random(1)
    for _ in range(500):
        p, q, r = (rand_point(rng) for _ in range(3))
        assert cross(p, q, r) == -cross(q, p, r)
        assert cross(p, q, r) == -cross(p, r, q)


def test_orientation_cyclic_invariance():
    rng = random.Random(2)
    for _ in range(500):
        p, q, r = (rand_point(rng) for _ in range(3))
        assert cross(p, q, r) == cross(q, r, p) == cross(r, p, q)


def test_segments_cross_examples():
    # square diagonals
    assert segments_cross((0, 0), (2, 2), (2, 0), (0, 2))
    # shared endpoint is not a crossing
    assert not segments_cross((0, 0), (2, 0), (0, 0), (0, 2))
    # T-junction touches but does not cross
    assert not segments_cross((0, 0), (2, 0), (1, 0), (1, 2))
    # collinear overlap reports no crossing
    assert not segments_cross((0, 0), (3, 0), (1, 0), (2, 0))
    # disjoint
    assert not segments_cross((0, 0), (1, 0), (0, 1), (1, 1))


def test_segments_cross_symmetries():
    rng = random.Random(3)
    for _ in range(500):
        a, b, c, d = (rand_point(rng) for _ in range(4))
        base = segments_cross(a, b, c, d)
        assert base == segments_cross(b, a, c, d)
        assert base == segments_cross(a, b, d, c)
        assert base == segments_cross(c, d, a, b)


def test_convex_quad_examples():
    assert strictly_convex_quad((0, 0), (1, 0), (1, 1), (0, 1))
    # dent: (2,1) lies inside the triangle of the other three
    assert not strictly_convex_quad((0, 0), (4, 0), (2, 1), (2, 3))
    # collinear triple on the ring
    assert not strictly_convex_quad((0, 0), (1, 0), (2, 0), (0, 1))
    # self-crossing order of a convex point set
    assert not strictly_convex_quad((0, 0), (1, 0), (0, 1), (1, 1))


def test_convex_quad_rotation_and_reversal_invariance():
    rng = random.Random(4)
    for _ in range(500):
        quad = [rand_point(rng) for _ in range(4)]
        base = strictly_convex_quad(*quad)
        for shift in range(4):
            rotated = quad[shift:] + quad[:shift]
            assert strictly_convex_quad(*rotated) == base
            assert strictly_convex_quad(*rotated[::-1]) == base


def test_convex_hull_strict_and_ccw():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, 1)]
    hull = convex_hull(pts)
    assert hull == [0, 1, 2, 3]
    assert cross(*(pts[v] for v in hull[:3])) > 0  # ccw


def test_hull_boundary_chain_keeps_collinear_points():
    assert hull_boundary_chain([(0, 0), (2, 0), (1, 0), (1, 2)]) == [0, 2, 1, 3]


def test_hull_boundary_chain_degenerate_is_none():
    assert hull_boundary_chain([(0, 0), (1, 1), (2, 2)]) is None


def test_hull_boundary_chain_interior_point_excluded():
    assert hull_boundary_chain([(0, 0), (4, 0), (2, 3), (2, 1)]) == [0, 1, 2]


def test_convex_hull_of_collinear_points_is_empty():
    assert convex_hull([(0, 0), (1, 1), (2, 2)]) == []


# -- properties of the monotone chain sweep, on small grids where collinear
# runs are common

grid_coords = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=14, unique=True
)
SWEEP = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _on_segment(u, v, w):
    """w lies on the closed segment uv."""
    return (
        cross(u, v, w) == 0
        and min(u[0], v[0]) <= w[0] <= max(u[0], v[0])
        and min(u[1], v[1]) <= w[1] <= max(u[1], v[1])
    )


def _no_point_right_of(pts, u, v):
    return all(cross(u, v, w) >= 0 for w in pts)


def _boundary_ids(pts):
    """By definition: w is on the hull boundary iff it lies on a segment uv
    with no point strictly right of u->v."""
    return {
        i
        for u in pts
        for v in pts
        if u != v and _no_point_right_of(pts, u, v)
        for i, w in enumerate(pts)
        if _on_segment(u, v, w)
    }


def _collinear(pts):
    return all(cross(pts[0], pts[1], w) == 0 for w in pts[2:])


@SWEEP
@given(grid_coords)
def test_hull_boundary_chain_is_the_boundary_in_ccw_order(pts):
    chain = hull_boundary_chain(pts)
    if len(pts) < 3 or _collinear(pts):
        assert chain is None
        return
    assert len(chain) == len(set(chain))
    assert set(chain) == _boundary_ids(pts)
    assert pts[chain[0]] == min(pts)
    # every chain edge, the closing one included, keeps all points on its left
    for u, v in zip(chain, chain[1:] + chain[:1]):
        assert _no_point_right_of(pts, pts[u], pts[v])


@SWEEP
@given(grid_coords)
def test_convex_hull_is_the_chain_corners(pts):
    chain = hull_boundary_chain(pts) or []
    # a corner lies strictly inside no segment between two other points
    corners = [
        w
        for w in chain
        if not any(_on_segment(u, v, pts[w]) for u in pts for v in pts if pts[w] not in (u, v))
    ]
    assert convex_hull(pts) == corners


@SWEEP
@given(grid_coords)
def test_build_accepts_the_scan_triangulation(coords):
    if len(coords) < 3 or _collinear(coords):
        return
    Triangulation.build(coords, scan_triangulation(coords))
