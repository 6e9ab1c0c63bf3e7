"""Flat-file instances: parsing, rendering, and random generation.

The format, line by line (blank lines are ignored):

    flipdist v1
    points N
    x y            (N lines, integer coordinates)
    initial M
    a b c          (M lines, point indices of one triangle)
    final M
    a b c          (M lines)
    k K            (optional flip budget)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .geometry import COORD_LIMIT, Point, convex_hull, monotone_chains
from .triangulation import PointSet, Triangle, Triangulation, make_triangle

HEADER = "flipdist v1"


class InstanceFormatError(ValueError):
    """Syntax error in an instance file; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class GenerationError(RuntimeError):
    """Random generation could not satisfy its constraints."""


@dataclass
class Instance:
    points: list[Point]
    initial: list[Triangle]
    final: list[Triangle]
    k: int | None = None

    def triangulations(self) -> tuple[Triangulation, Triangulation]:
        """Build and validate both triangulations over one shared point set."""
        ps = PointSet(self.points)
        return Triangulation.build(ps, self.initial), Triangulation.build(ps, self.final)


def _ints(no: int, line: str, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise InstanceFormatError(no, f"expected {count} fields for {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InstanceFormatError(no, f"non-integer field in {what}: {line!r}") from None


def _keyword_int(no: int, line: str, expected: str, noun: str) -> int:
    """N of a `keyword N` line, where `expected` opens with "'keyword ";
    the caller checks the sign of N."""
    parts = line.split()
    if len(parts) != 2 or not expected.startswith(f"'{parts[0]} "):
        raise InstanceFormatError(no, f"expected {expected}, got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise InstanceFormatError(no, f"non-integer {noun} in {line!r}") from None


def parse_instance(text: str) -> Instance:
    """Parse the flat format; InstanceFormatError carries the offending line."""
    numbered = enumerate(text.splitlines(), start=1)
    lines = iter([(no, s) for no, line in numbered if (s := line.strip())])
    last = 0  # number of the last line taken

    def take(what: str) -> tuple[int, str]:
        nonlocal last
        for last, line in lines:
            return last, line
        raise InstanceFormatError(last + 1, f"unexpected end of file, expected {what}")

    def rows(keyword: str, what: str, fields: int, noun: str) -> list[tuple[int, ...]]:
        expected = f"'{keyword} N'"
        no, line = take(expected)
        count = _keyword_int(no, line, expected, "count")
        if count < 0:
            raise InstanceFormatError(no, f"negative count in {line!r}")
        out = []
        for _ in range(count):
            no, line = take(what)
            out.append(tuple(_ints(no, line, fields, noun)))
        return out

    no, line = take("header")
    if line != HEADER:
        raise InstanceFormatError(no, f"expected header {HEADER!r}, got {line!r}")
    points = rows("points", "a coordinate line", 2, "a point")
    initial = rows("initial", "a triangle line", 3, "a triangle")
    final = rows("final", "a triangle line", 3, "a triangle")
    k = None
    for no, line in lines:
        if k is not None:
            raise InstanceFormatError(no, f"trailing content: {line!r}")
        k = _keyword_int(no, line, "'k K' or end of file", "k")
        if k < 0:
            raise InstanceFormatError(no, "k must be nonnegative")
    return Instance(points, initial, final, k)


def render_instance(inst: Instance) -> str:
    """Inverse of parse_instance (up to whitespace)."""
    out = [HEADER, f"points {len(inst.points)}"]
    out.extend(f"{x} {y}" for x, y in inst.points)
    for name, tris in (("initial", inst.initial), ("final", inst.final)):
        out.append(f"{name} {len(tris)}")
        out.extend(f"{a} {b} {c}" for a, b, c in tris)
    if inst.k is not None:
        out.append(f"k {inst.k}")
    return "\n".join(out) + "\n"


def scan_triangulation(points: list[Point]) -> list[Triangle]:
    """Some triangulation of the point set, by lexicographic incremental scan.

    Each point, in (x, y) order, is joined to every hull edge of the points
    before it that it sees strictly: the edges it pops in `monotone_chains`.
    """
    _, _, popped = monotone_chains(points)
    return sorted(make_triangle(*t) for t in popped)


def _general_position(pts: list[Point], cand: Point) -> bool:
    """Is `cand` (not in pts) off every line through two of pts?

    O(n): two points are collinear with cand iff their directions from
    it, gcd-reduced and sign-normalised, are equal.
    """
    cx, cy = cand
    dirs = set()
    for x, y in pts:
        dx, dy = x - cx, y - cy
        g = math.gcd(dx, dy) if dx > 0 or (dx == 0 and dy > 0) else -math.gcd(dx, dy)
        d = (dx // g, dy // g)
        if d in dirs:
            return False
        dirs.add(d)
    return True


def _random_points(rng: random.Random, n: int, span: int) -> list[Point]:
    """n points in general position: 500 tries per point, then start over,
    at most 10 passes in all."""
    # each of the span + 1 grid columns holds at most two points, as three
    # would be collinear; above that, no number of draws can succeed
    if n > 2 * (span + 1):
        raise GenerationError(f"cannot place {n} points in general position (span {span}): "
                              f"at most {2 * (span + 1)} fit")
    for _ in range(10):
        pts: list[Point] = []
        placed: set[Point] = set()
        while len(pts) < n:
            for _ in range(500):
                cand = (rng.randrange(0, span + 1), rng.randrange(0, span + 1))
                if cand not in placed and _general_position(pts, cand):
                    break
            else:
                break
            pts.append(cand)
            placed.add(cand)
        if len(pts) == n:
            return pts
    raise GenerationError(f"could not place {n} points in general position (span {span})")


def _convex_points(rng: random.Random, n: int, span: int) -> list[Point]:
    # the middle of three neighbours at angle gaps a, b lies about radius*a*b/2
    # off their chord: about 20n grid units at gaps 2pi/n, far above rounding
    radius = min(max(span, n**3), COORD_LIMIT - 1)
    for _ in range(2000):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        pts = [
            (round(radius * math.cos(a)), round(radius * math.sin(a)))
            for a in angles
        ]
        if len(set(pts)) != n:
            continue
        if len(convex_hull(pts)) != n:
            continue
        return pts
    raise GenerationError(f"could not place {n} points in convex position")


def generate_instance(
    n: int,
    hull: str = "random",
    scramble: int = 0,
    seed: int | None = None,
    span: int = 1000,
) -> Instance:
    """A random valid instance: scanned initial triangulation, final obtained
    by up to `scramble` random admissible flips.  Deterministic per seed.

    hull="convex" places all points in convex position; "random" rejects
    collinear triples but allows interior points.  Stops scrambling early
    in the rare case no flip is admissible.
    """
    if n < 3:
        raise GenerationError("n must be at least 3")
    if scramble < 0:
        raise GenerationError("scramble must be nonnegative")
    if hull not in ("random", "convex"):
        raise GenerationError(f"unknown hull mode {hull!r}")
    rng = random.Random(seed)
    points = _convex_points(rng, n, span) if hull == "convex" else _random_points(rng, n, span)
    initial = scan_triangulation(points)
    ps = PointSet(points)
    cur = Triangulation.build(ps, initial)
    for _ in range(scramble):
        choices = cur.admissible_edges()
        if not choices:
            break
        cur, _ = cur.apply_flip(rng.choice(choices))
    return Instance(points, initial, sorted(cur.triangles), None)
