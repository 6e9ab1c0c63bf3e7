"""Triangulations of a fixed planar point set and the edge-flip operation.

A triangulation is stored as one map from each edge to the apex vertices
of its incident triangles (one apex for a boundary edge, two for an
interior edge); its triangle set is derived from that map on demand.
Flipping an interior edge whose two triangles form a strictly convex
quadrilateral replaces it with the other diagonal of that quadrilateral;
the point set never changes, so two triangulations compare equal iff
their edge sets do.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

from .geometry import (
    Point,
    hull_boundary_chain,
    COORD_LIMIT,
)

Edge = tuple[int, int]
Triangle = tuple[int, int, int]
# build's edge and apex tuples, one immutable object per value: n(n + 1)/2 at most for the largest n
_SHARED: dict[tuple[int, ...], tuple[int, ...]] = {}


class InvalidTriangulation(ValueError):
    """The given triangles do not triangulate the point set."""


class InadmissibleFlip(ValueError):
    """Edge absent, on the boundary, or its quadrilateral not strictly convex."""


class PointSetMismatch(ValueError):
    """Two triangulations that must share one point set do not."""


def make_edge(u: int, v: int) -> Edge:
    """Canonical edge: smaller vertex id first."""
    return (u, v) if u < v else (v, u)


def make_triangle(a: int, b: int, c: int) -> Triangle:
    """Canonical triangle: vertex ids sorted ascending."""
    x, y, z = sorted((a, b, c))
    return (x, y, z)


def edge_bit(e: Edge) -> int:
    """Bit v(v-1)/2 + u of canonical edge (u, v): one bit per point pair."""
    u, v = e
    return 1 << (v * (v - 1) // 2 + u)


class PointSet:
    """An immutable labelled point set shared by many triangulations.

    `points` is the validated tuple of (x, y) int pairs; a point's id is
    its index there.  Construction validates coordinates (integers within
    32-bit range, no duplicates, not all collinear) and precomputes
    everything every triangulation of the set has in common: the edge_bit
    mask of the hull chain's boundary edges and the triangle count forced
    by Euler's formula.  Nothing is added after construction.
    """

    __slots__ = (
        "points",
        "boundary_mask",
        "hull_size",
        "expected_triangles",
    )

    def __init__(self, coords: Iterable[Point]):
        pts: list[Point] = []
        seen: dict[Point, int] = {}
        for i, (x, y) in enumerate(coords):
            try:
                x, y = index(x), index(y)
            except TypeError:
                raise InvalidTriangulation(
                    f"non-integer coordinate at point {i}: ({x!r}, {y!r})"
                ) from None
            if not (-COORD_LIMIT < x < COORD_LIMIT and -COORD_LIMIT < y < COORD_LIMIT):
                raise InvalidTriangulation(f"coordinate out of 32-bit range at point {i}: ({x}, {y})")
            if (x, y) in seen:
                raise InvalidTriangulation(f"duplicate point: {i} and {seen[(x, y)]} are both ({x}, {y})")
            seen[(x, y)] = i
            pts.append((x, y))
        if len(pts) < 3:
            raise InvalidTriangulation("need at least 3 points")
        self.points = tuple(pts)

        chain = hull_boundary_chain(pts)
        if chain is None:
            raise InvalidTriangulation("all points are collinear")
        self.hull_size = h = len(chain)
        self.boundary_mask = sum(edge_bit(make_edge(chain[i], chain[(i + 1) % h])) for i in range(h))
        # Euler count; h counts every point on the hull boundary, not just corners.
        self.expected_triangles = 2 * len(pts) - h - 2

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points, hull {self.hull_size})"


class Triangulation:
    """An immutable triangulation of a PointSet with value semantics.

    The state is the edge->apex map and `edge_mask`, which ORs one bit per
    present edge; over a fixed point set the edge set determines the
    triangulation, so the mask doubles as a cheap in-process fingerprint
    for dedup tables.  `triangles`, `edges()` and canonical_key(), the
    stable, inspectable byte encoding of the triangle set, are derived
    from the apex map on each call; nothing is cached.

    Instances are created by build() (validating) or by apply_flip(); the
    bare constructor trusts its arguments.
    """

    __slots__ = ("ps", "edge_mask", "_opp")

    def __init__(self, ps: PointSet, opp: dict[Edge, tuple[int, ...]], edge_mask: int):
        self.ps = ps
        self._opp = opp
        self.edge_mask = edge_mask

    @classmethod
    def build(
        cls,
        points: PointSet | Iterable[Point],
        triangles: Iterable[Sequence[int]],
    ) -> "Triangulation":
        """Validate `triangles` as a triangulation of `points` and build it.

        Raises InvalidTriangulation naming the first violated invariant, in
        this order: per-triangle checks (vertex ids, degenerate or duplicate
        triangle), triangle count, bad edge incidence or overlapping
        triangles (per edge), and boundary edges unequal to the hull chain.

        Every check is local, so validation is O(T) in the number of
        triangles.  Soundness, by tiling: let w(x) be the number of
        triangles that cover a point x off every edge.  The incidence check
        leaves edges in one or two triangles.  Across an edge in two, w does
        not change, as the opposite-sides check puts them on either side of
        it; across an edge in one, w changes by one, and the boundary check
        makes those edges exactly the hull chain's.  So w = 0 outside the
        hull and w = 1 just inside it, hence w = 1 on the whole hull: the
        triangles tile it and meet edge to edge, with no area check.  A
        tiling of the hull that used n' of the n points would have
        2n' - h - 2 triangles by Euler's formula, so the count check,
        T = 2n - h - 2, is what leaves no point unused.

        Pass 1 takes one orientation t = cross(a, b, c) per sorted triangle
        a < b < c.  As cross(a, c, b) = -t and cross(b, c, a) = t, c lies on
        side t of ab, b on side -t of ac and a on side t of bc; each apex w
        is filed as 2w + s, s = 1 when w lies left of its edge, and pass 2's
        opposite-sides test compares two recorded sides, not two crosses.
        """
        ps = points if isinstance(points, PointSet) else PointSet(points)
        n = len(ps)
        pts = ps.points

        # pass 1, per triangle: its own checks and the apex lists with
        # their sides
        tri_seen: set[Triangle] = set()
        opp: dict[Edge, list[int]] = {}
        for raw in triangles:
            try:
                ids = tuple(map(index, raw))
            except TypeError:
                raise InvalidTriangulation(f"non-integer vertex id in triangle {raw!r}") from None
            if len(ids) != 3:
                raise InvalidTriangulation(f"triangle needs 3 vertices, got {raw!r}")
            a, b, c = ids  # sorted in place: make_triangle without the call
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            if a < 0 or c >= n:
                v = next(v for v in ids if not 0 <= v < n)
                raise InvalidTriangulation(f"triangle {ids} references unknown point {v}")
            if a == b or b == c:
                raise InvalidTriangulation(f"degenerate triangle {ids}: repeated vertex")
            (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
            turn = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            t = (a, b, c)
            if turn == 0:
                raise InvalidTriangulation(f"degenerate triangle {t}: collinear points")
            if t in tri_seen:
                raise InvalidTriangulation(f"duplicate triangle {t}")
            tri_seen.add(t)
            s = turn > 0
            opp.setdefault((a, b), []).append(c + c + s)
            opp.setdefault((a, c), []).append(b + b + 1 - s)
            opp.setdefault((b, c), []).append(a + a + s)

        if len(tri_seen) != ps.expected_triangles:
            raise InvalidTriangulation(
                f"wrong counts: expected {ps.expected_triangles} triangles, got {len(tri_seen)}"
            )

        # pass 2, per edge: incidence, opposite sides, the boundary, the
        # sorted apexes and the mask
        boundary = mask = 0
        opp_sorted: dict[Edge, tuple[int, ...]] = {}
        for e, ws in opp.items():
            if len(ws) > 2:
                raise InvalidTriangulation(f"bad edge incidence: edge {e} is in {len(ws)} triangles")
            a, b = e
            bit = 1 << (b * (b - 1) // 2 + a)  # edge_bit(e)
            if len(ws) == 2:
                c, d = ws
                if not (c ^ d) & 1:  # both apexes on one side of e
                    raise InvalidTriangulation(
                        f"overlapping triangles {tuple(sorted((a, b, c >> 1)))} and "
                        f"{tuple(sorted((a, b, d >> 1)))}"
                    )
                c, d = c >> 1, d >> 1
                ws = (c, d) if c < d else (d, c)
            else:
                boundary |= bit
                ws = (ws[0] >> 1,)
            opp_sorted[_SHARED.setdefault(e, e)] = _SHARED.setdefault(ws, ws)
            mask |= bit

        if boundary != ps.boundary_mask:
            raise InvalidTriangulation(
                "bad edge incidence: boundary edges do not match the hull boundary"
            )
        return cls(ps, opp_sorted, mask)

    # -- queries ---------------------------------------------------------

    @property
    def triangles(self) -> frozenset[Triangle]:
        """The canonical triangles, each read off the apex map at its two
        smallest vertices."""
        return frozenset((u, v, w) for (u, v), ws in self._opp.items() for w in ws if w > v)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._opp

    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical sorted order."""
        return tuple(sorted(self._opp))

    def admissible_edges(self) -> list[Edge]:
        """The edges flip_preview admits, in canonical edge order."""
        return sorted(filter(self.flip_preview, self._opp))

    def edges_sharing_triangle(self, e: Edge) -> tuple[Edge, ...]:
        """Edges that lie in a common triangle with e, canonically sorted.

        Exactly 4 for an interior edge, 2 for a boundary edge.
        """
        ws = self._opp.get(e)
        if ws is None:
            raise ValueError(f"edge {e} is not in the triangulation")
        u, v = e
        if len(ws) == 1:
            # u < v, so the side at u sorts first whatever the apex w
            w = ws[0]
            return (u, w) if u < w else (w, u), (v, w) if v < w else (w, v)
        c, d = ws
        # u < v and c < d: the smaller of u and c is the least vertex, and
        # its two sides sort first
        if u < c:
            return (u, c), (u, d), (v, c) if v < c else (c, v), (v, d) if v < d else (d, v)
        return (c, u), (c, v), (u, d) if u < d else (d, u), (v, d) if v < d else (d, v)

    # -- the flip --------------------------------------------------------

    def flip_preview(self, e: Edge) -> tuple[Edge, int] | None:
        """(created diagonal, edge mask after the flip) if e is admissible,
        else None: e must be present, interior, and its quadrilateral
        strictly convex.  O(1), and the flipped triangulation is not built.

        Convexity is one integer expression, cross(c, d, u) * cross(c, d, v)
        inlined.  The apexes c, d of an interior edge uv lie strictly on
        opposite sides of it, so the quadrilateral u, c, v, d is strictly
        convex exactly when u and v lie strictly on opposite sides of cd:
        then the diagonals cross properly, and no three of the four points
        are collinear.  The premise holds for every triangulation: build's
        "overlapping triangles" check establishes it, and an admissible
        flip keeps it.  The created diagonal cd has apexes u and v, which
        cd splits; each side, say uc, trades apex v for d, and convexity
        puts d on v's side of uc.
        """
        ws = self._opp.get(e)  # e's apexes, already sorted
        if ws is None or len(ws) == 1:
            return None
        (u, v), (c, d) = e, ws
        pts = self.ps.points
        (cx, cy), (dx, dy), (ux, uy) = pts[c], pts[d], pts[u]
        vx, vy = pts[v]
        dx -= cx
        dy -= cy
        if (dx * (uy - cy) - dy * (ux - cx)) * (dx * (vy - cy) - dy * (vx - cx)) >= 0:
            return None
        # edge_bit inlined: the searches preview every edge
        return ws, self.edge_mask ^ (1 << (v * (v - 1) // 2 + u)) ^ (1 << (d * (d - 1) // 2 + c))

    def apply_flip(self, e: Edge) -> tuple["Triangulation", Edge]:
        """Flip interior edge e; returns (new triangulation, created diagonal).

        Raises InadmissibleFlip if e is absent, on the boundary, or its
        quadrilateral is not strictly convex.
        """
        preview = self.flip_preview(e)
        if preview is None:
            ws = self._opp.get(e)
            if ws is None:
                raise InadmissibleFlip(f"edge {e} is not in the triangulation")
            if len(ws) == 1:
                raise InadmissibleFlip(f"edge {e} is on the boundary")
            raise InadmissibleFlip(f"quadrilateral around {e} is not strictly convex")
        return self._flipped(e, *preview), preview[0]

    def _flipped(self, e: Edge, created: Edge, mask: int) -> "Triangulation":
        """The triangulation after flipping e, given (created, mask) =
        flip_preview(e), not None; trusted, like the bare constructor.
        Every flipped triangulation is built here."""
        a, b = e
        c, d = created
        opp = self._opp.copy()
        del opp[e]
        opp[created] = e
        # The four quadrilateral sides keep existing; each swaps one apex.
        for x, y, old, new in ((a, c, b, d), (b, c, a, d), (a, d, b, c), (b, d, a, c)):
            side = (x, y) if x < y else (y, x)
            sw = opp[side]
            if len(sw) == 1:
                opp[side] = (new,)
            else:
                other = sw[0] if sw[1] == old else sw[1]
                opp[side] = (other, new) if other < new else (new, other)

        return Triangulation(self.ps, opp, mask)

    # -- identity --------------------------------------------------------

    def canonical_key(self) -> bytes:
        """Byte encoding of the sorted triangle set; equal iff triangulations equal."""
        return b";".join(b"%d,%d,%d" % t for t in sorted(self.triangles))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        if self.ps is not other.ps and self.ps != other.ps:
            return False
        return self.edge_mask == other.edge_mask

    def __hash__(self) -> int:
        return hash(self.edge_mask)

    def __repr__(self) -> str:
        return f"Triangulation({len(self.ps)} points, {self.ps.expected_triangles} triangles)"


def ensure_same_points(a: Triangulation, b: Triangulation) -> None:
    if a.ps is not b.ps and a.ps != b.ps:
        raise PointSetMismatch("triangulations are over different point sets")


def changed_edges(a: Triangulation, b: Triangulation) -> set[Edge]:
    """Edges of `a` that are absent from `b`."""
    ensure_same_points(a, b)
    return {e for e in a._opp if e not in b._opp}

