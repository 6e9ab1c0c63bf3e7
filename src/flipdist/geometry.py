"""Exact planar predicates over integer coordinates.

Every test below is decided by the sign of a 2x2 integer cross product,
so there is no rounding anywhere.  Coordinates are required to fit in a
signed 32-bit range (checked at point-set construction) so the products
stay within 64 bits on any backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# |x|, |y| must stay strictly below this bound.
COORD_LIMIT = 2**31


@dataclass(frozen=True, order=True)
class Point:
    """A labelled point; `id` is its index in the owning point set."""

    id: int
    x: int
    y: int


def cross(p: Point, q: Point, r: Point) -> int:
    """Twice the signed area of triangle (p, q, r); >0 iff r lies left of p->q."""
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def polygon_area2(ring: Sequence[Point]) -> int:
    """Twice the signed shoelace area of a polygon; positive for ccw order."""
    total = 0
    for i, p in enumerate(ring):
        q = ring[(i + 1) % len(ring)]
        total += p.x * q.y - q.x * p.y
    return total


def monotone_chains(
    points: Iterable[Point],
) -> tuple[list[Point], list[Point], list[tuple[Point, Point, Point]]]:
    """Andrew's monotone chain sweep (1979), keeping collinear boundary points.

    Visits the points in (x, y) order and keeps a lower and an upper chain,
    both running left to right.  An edge is popped only when the new point
    lies strictly outside it, so points inside a hull edge stay on the
    chain.  Returns (lower, upper, popped), where popped lists (u, v, p)
    for every edge uv popped by the point p.

    Each new point p comes after every placed point in (x, y) order, so it
    lies outside their hull, and the hull edges it sees strictly form one
    run through the hull's right end: exactly the edges it pops from the
    right ends of the two chains.  Joining p to each of them is the
    incremental scan triangulation.
    """
    lower: list[Point] = []
    upper: list[Point] = []
    popped: list[tuple[Point, Point, Point]] = []
    for p in sorted(points, key=lambda p: (p.x, p.y)):
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) < 0:
            popped.append((lower[-2], lower.pop(), p))
        lower.append(p)
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) > 0:
            popped.append((upper[-2], upper.pop(), p))
        upper.append(p)
    return lower, upper, popped


def hull_boundary_chain(points: Sequence[Point]) -> list[Point] | None:
    """All points on the convex hull boundary, in ccw order from the
    smallest (x, y); points inside a hull edge are kept.

    Returns None when all points are collinear: then nothing is ever
    popped, and both chains still hold every point.
    """
    lower, upper, _ = monotone_chains(points)
    if len(lower) == len(upper) == len(points):
        return None
    return lower[:-1] + upper[:0:-1]


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """The corners of the hull boundary chain (its points with a nonzero
    turn), in ccw order; [] when all points are collinear."""
    chain = hull_boundary_chain(points) or []
    turns = zip(chain[-1:] + chain, chain, chain[1:] + chain[:1])
    return [q for p, q, r in turns if cross(p, q, r)]
