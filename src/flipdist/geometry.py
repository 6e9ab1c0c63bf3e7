"""Exact planar predicates over integer coordinates.

A point is its (x, y) pair of ints; its id is its index in the point
sequence, and the hull sweeps below return ids.  Every test is decided
by the sign of a 2x2 integer cross product, so there is no rounding
anywhere.  Coordinates are required to fit in a signed 32-bit range
(checked at point-set construction) so the products stay within 64 bits
on any backend.
"""

from __future__ import annotations

from typing import Sequence

# |x|, |y| must stay strictly below this bound.
COORD_LIMIT = 2**31

Point = tuple[int, int]


def cross(p: Point, q: Point, r: Point) -> int:
    """Twice the signed area of triangle (p, q, r); >0 iff r lies left of p->q."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def monotone_chains(
    points: Sequence[Point],
) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    """Andrew's monotone chain sweep (1979), keeping collinear boundary points.

    Visits the point ids in (x, y) order and keeps a lower and an upper
    chain, both running left to right.  An edge is popped only when the
    new point lies strictly outside it, so points inside a hull edge stay
    on the chain.  Returns (lower, upper, popped), where popped lists
    (u, v, p) for every edge uv popped by the point p.

    Each new point p comes after every placed point in (x, y) order, so it
    lies outside their hull, and the hull edges it sees strictly form one
    run through the hull's right end: exactly the edges it pops from the
    right ends of the two chains.  Joining p to each of them is the
    incremental scan triangulation.
    """
    lower: list[int] = []
    upper: list[int] = []
    popped: list[tuple[int, int, int]] = []
    for p in sorted(range(len(points)), key=points.__getitem__):
        pp = points[p]
        while len(lower) >= 2 and cross(points[lower[-2]], points[lower[-1]], pp) < 0:
            popped.append((lower[-2], lower.pop(), p))
        lower.append(p)
        while len(upper) >= 2 and cross(points[upper[-2]], points[upper[-1]], pp) > 0:
            popped.append((upper[-2], upper.pop(), p))
        upper.append(p)
    return lower, upper, popped


def hull_boundary_chain(points: Sequence[Point]) -> list[int] | None:
    """Ids of all points on the convex hull boundary, in ccw order from
    the smallest (x, y); points inside a hull edge are kept.

    Returns None when all points are collinear: then nothing is ever
    popped, and both chains still hold every point.
    """
    lower, upper, _ = monotone_chains(points)
    if len(lower) == len(upper) == len(points):
        return None
    return lower[:-1] + upper[:0:-1]


def convex_hull(points: Sequence[Point]) -> list[int]:
    """Ids of the corners of the hull boundary chain (its points with a
    nonzero turn), in ccw order; [] when all points are collinear."""
    chain = hull_boundary_chain(points) or []
    turns = zip(chain[-1:] + chain, chain, chain[1:] + chain[:1])
    return [q for p, q, r in turns if cross(points[p], points[q], points[r])]
