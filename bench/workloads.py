"""Seeded corpora for the four benchmark workloads, with checked references.

A corpus is a pure function of (workload, seed): the same pair always gives
the same instance texts, reference distances and request list, and
`Corpus.digest` fingerprints all three.  References for `pool`, `tight`
and `gap` come from the BFS oracle (`bfs_distance`) and are checked
against `changed edges <= d <= flips applied`; for `large` the distance is
proved by that bound alone, because the goal is built with exactly as many
flips as it has changed edges.

Setup fails with StratumError, never with a smaller corpus, when a stratum
cannot be filled within its search bound.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import flipdist.instances as instances
from flipdist import (
    Edge,
    Instance,
    PointSet,
    Triangulation,
    bfs_distance,
    changed_edges,
    enumerate_minimal_solutions,
)

WORKLOADS = ("pool", "tight", "gap", "large")

# pool: four times the acceptance pool's strata (exact distance 0..4), n = 5..8;
# (distance, n) -> pairs.  Distances 3 and 4 hold most of the request time and
# their cost grows with n, so their n is fixed too (None: any n).  All
# distance-4 pairs have n = 8, so the tail (p95, inside the distance-4
# requests) is a quantile of one kind of pair, not of the seam between two.
POOL_QUOTAS = {
    (0, None): 16,
    (1, None): 120,
    (2, None): 128,
    (3, 6): 37,
    (3, 7): 37,
    (3, 8): 38,
    (4, 8): 72,
}
POOL_MAX_D = 4
# tight: d = |changed edges| = TIGHT_D, TIGHT_PER_N pairs for each n
TIGHT_NS = (10, 11, 12, 13, 14)
TIGHT_PER_N = 60
TIGHT_D = 4
# gap: d > |changed edges|; per (n, hull) cell, distance -> pair count
GAP_CELLS = tuple((n, hull) for n in (7, 8, 9) for hull in ("random", "convex"))
GAP_QUOTA = {4: 48}
GAP_PICKS_PER_START = 2
# large: one size, goals a few flips away from a scanned triangulation
LARGE_N = 200
LARGE_INSTANCES = 3
LARGE_FLIPS = (2, 3)
LARGE_SPAN = 1 << 30

# tight, gap: every DAG_EVERY-th pair also gets a `dag` request, so flip_dag
# is timed on every workload while `distance` stays most of the traffic
DAG_EVERY = 10

MAX_DRAWS = 20_000  # search bound per stratum before setup gives up


class StratumError(RuntimeError):
    """A workload stratum could not be filled within its search bound."""


@dataclass
class Pair:
    """One instance and its reference answer."""

    text: str  # the instance file
    hull: str
    d: int  # reference flip distance
    changed: int  # |changed edges|, a lower bound on d
    flips: int  # flips applied to build the goal, an upper bound on d
    start: Triangulation
    goal: Triangulation
    geodesic: tuple[Edge, ...] = ()  # one shortest flip sequence, for `dag`

    @property
    def n(self) -> int:
        return len(self.start.ps)


@dataclass(frozen=True)
class Request:
    """One `flipdist` invocation: argv is (command, <pair's file>, *options)."""

    kind: str  # "distance" (--engine both), "decide" (--engine fpt), "validate", "dag"
    pair: int
    command: str
    options: tuple[str, ...] = ()

    def argv(self, paths: list[str]) -> list[str]:
        return [self.command, paths[self.pair], *self.options]


@dataclass
class Corpus:
    pairs: list[Pair]
    requests: list[Request]

    @property
    def digest(self) -> str:
        """sha256 prefix over instance texts, references and requests."""
        blob = json.dumps(
            [
                [[p.text, p.d, p.changed, p.flips, p.geodesic] for p in self.pairs],
                [[r.kind, r.pair, r.command, r.options] for r in self.requests],
            ]
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def strata(self) -> dict[str, int]:
        """Pair counts by (n, hull, d, changed edges)."""
        out: dict[str, int] = {}
        for p in self.pairs:
            key = f"n={p.n} {p.hull} d={p.d} ce={p.changed}"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def write(self, directory: Path) -> list[str]:
        """Write one instance file per pair; returns their paths in pair order."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, p in enumerate(self.pairs):
            path = directory / f"{i:03d}.txt"
            path.write_text(p.text, encoding="utf-8")
            paths.append(str(path))
        return paths


def build_corpus(workload: str, seed: int) -> Corpus:
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("pool", "tight", "gap"):
        pairs = {"pool": _pool, "tight": _tight, "gap": _gap}[workload](rng)
        dag_every = 1 if workload == "pool" else DAG_EVERY
        requests = []
        for i, p in enumerate(pairs):
            requests.append(Request("distance", i, "distance", ("--engine", "both")))
            if p.d and i % dag_every == 0:
                p.geodesic = tuple(enumerate_minimal_solutions(p.start, p.goal, p.d, limit=1)[0].edges())
                flips = ",".join(f"{u}-{v}" for u, v in p.geodesic)
                requests.append(Request("dag", i, "dag", ("--flips", flips)))
    elif workload == "large":
        pairs = _large(rng)
        requests = []
        for i, p in enumerate(pairs):
            requests.append(Request("validate", i, "validate"))
            for k in (p.d, p.d - 1):
                requests.append(Request("decide", i, "distance", ("--engine", "fpt", "--k", str(k))))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return Corpus(pairs, requests)


# -- reference checks ------------------------------------------------------


def _pair(
    points: list[tuple[int, int]],
    start: Triangulation,
    goal: Triangulation,
    d: int,
    flips: int,
    hull: str,
) -> Pair:
    ce = len(changed_edges(start, goal))
    if not ce <= d <= flips:
        raise StratumError(f"reference d={d} violates changed edges {ce} <= d <= flips {flips}")
    text = instances.render_instance(
        Instance(points, sorted(start.triangles), sorted(goal.triangles))
    )
    return Pair(text, hull, d, ce, flips, start, goal)


def _oracle(start: Triangulation, goal: Triangulation, cap: int) -> int:
    d = bfs_distance(start, goal, cap=cap)
    if d is None:
        raise StratumError(f"oracle found no path within {cap} flips")
    return d


# -- workloads ---------------------------------------------------------------


def _pool(rng: random.Random) -> list[Pair]:
    """Random-hull pairs, n = 5..8, stratified by exact distance 0..4 as in
    the acceptance pool (and by n at distances 3 and 4), in seeded order."""
    quotas = dict(POOL_QUOTAS)
    pairs = []
    for _ in range(MAX_DRAWS):
        if not any(quotas.values()):
            break
        if all(v == 0 for (_, n), v in quotas.items() if n is None):
            # only sized strata left: draw their sizes, from busier instances
            n = rng.choice(sorted({n for (_, n), v in quotas.items() if v}))
            scramble = rng.randint(5, 8)
        else:
            n, scramble = rng.randint(5, 8), rng.randint(0, 8)
        inst = instances.generate_instance(n, "random", scramble, rng.getrandbits(32))
        start, goal = inst.triangulations()
        d = bfs_distance(start, goal, cap=POOL_MAX_D)
        key = (d, n) if (d, n) in quotas else (d, None)
        if d is None or not quotas.get(key):
            continue
        quotas[key] -= 1
        pairs.append(_pair(inst.points, start, goal, d, scramble, "random"))
    if any(quotas.values()):
        raise StratumError(f"pool: strata {quotas} unfilled after {MAX_DRAWS} draws")
    rng.shuffle(pairs)
    return pairs


def _tight(rng: random.Random) -> list[Pair]:
    """Random-hull pairs with d = |changed edges| = TIGHT_D, n round-robin
    over TIGHT_NS so that every prefix of the corpus is balanced in n."""
    pairs = []
    for i in range(TIGHT_PER_N * len(TIGHT_NS)):
        n = TIGHT_NS[i % len(TIGHT_NS)]
        for _ in range(MAX_DRAWS):
            inst = instances.generate_instance(n, "random", TIGHT_D, rng.getrandbits(32))
            start, goal = inst.triangulations()
            if len(changed_edges(start, goal)) == TIGHT_D:
                break
        else:
            raise StratumError(f"tight: no n={n} pair with {TIGHT_D} changed edges in {MAX_DRAWS} draws")
        pair = _pair(inst.points, start, goal, _oracle(start, goal, TIGHT_D), TIGHT_D, "random")
        if pair.d != pair.changed:
            raise StratumError(f"tight: pair has d={pair.d} but {pair.changed} changed edges")
        pairs.append(pair)
    return pairs


def flip_ball(start: Triangulation, radius: int) -> dict[int, tuple[int, Triangulation]]:
    """Every triangulation within `radius` flips of `start`, keyed by edge
    mask, with its exact flip distance from `start` (breadth-first labels)."""
    ball = {start.edge_mask: (0, start)}
    frontier = [start]
    for depth in range(1, radius + 1):
        nxt = []
        for tri in frontier:
            for e in tri.admissible_edges():
                t2, _ = tri.apply_flip(e)
                if t2.edge_mask not in ball:
                    ball[t2.edge_mask] = (depth, t2)
                    nxt.append(t2)
        frontier = nxt
    return ball


def _gap(rng: random.Random) -> list[Pair]:
    """Pairs with d > |changed edges|, found by labelling the flip ball of
    seeded starts; GAP_QUOTA per (n, hull) cell, cells interleaved."""
    cells = []
    for n, hull in GAP_CELLS:
        want = dict(GAP_QUOTA)
        got: list[Pair] = []
        for _ in range(MAX_DRAWS):
            if not any(want.values()):
                break
            inst = instances.generate_instance(n, hull, 0, rng.getrandbits(32))
            start, _ = inst.triangulations()
            gaps = [
                (d, t)
                for d, t in flip_ball(start, max(GAP_QUOTA)).values()
                if want.get(d) and len(changed_edges(start, t)) < d
            ]
            for d, goal in rng.sample(gaps, min(GAP_PICKS_PER_START, len(gaps))):
                if want[d] == 0:
                    continue
                want[d] -= 1
                pair = _pair(inst.points, start, goal, _oracle(start, goal, d), d, hull)
                if not pair.changed < pair.d == d:
                    raise StratumError(f"gap: oracle d={pair.d}, label {d}, {pair.changed} changed edges")
                got.append(pair)
        if any(want.values()):
            raise StratumError(f"gap: n={n} {hull} strata {want} unfilled after {MAX_DRAWS} starts")
        rng.shuffle(got)
        cells.append(got)
    return [p for row in zip(*cells) for p in row]


def _direction(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Primitive direction of line ab, up to sign."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (dx, dy) if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy)


def sample_points(rng: random.Random, n: int, span: int) -> list[tuple[int, int]]:
    """n distinct points in [0, span)^2 with no three collinear, in O(n^2):
    a new point c is collinear with placed a, b iff direction(a, c) is
    already among a's directions to the other placed points."""
    pts: list[tuple[int, int]] = []
    dirs: list[set[tuple[int, int]]] = []
    while len(pts) < n:
        c = (rng.randrange(span), rng.randrange(span))
        if c in pts:
            continue
        new = [_direction(a, c) for a in pts]
        if any(v in dirs[i] for i, v in enumerate(new)):
            continue
        for i, v in enumerate(new):
            dirs[i].add(v)
        dirs.append(set(new))
        pts.append(c)
    return pts


def _large(rng: random.Random) -> list[Pair]:
    """n = LARGE_N, scanned start, goal 2..3 flips away with as many changed
    edges, so d equals the flips applied by the changed-edge bound."""
    pairs = []
    for _ in range(LARGE_INSTANCES):
        points = sample_points(rng, LARGE_N, LARGE_SPAN)
        start = Triangulation.build(PointSet(points), instances.scan_triangulation(points))
        flips = rng.choice(LARGE_FLIPS)
        for _ in range(MAX_DRAWS):
            goal, created = start, set()
            for _ in range(flips):
                e = rng.choice([e for e in goal.admissible_edges() if e not in created])
                goal, c = goal.apply_flip(e)
                created.add(c)
            if len(changed_edges(start, goal)) == flips:
                break
        else:
            raise StratumError(f"large: no goal with {flips} changed edges in {MAX_DRAWS} draws")
        pairs.append(_pair(points, start, goal, flips, flips, "random"))
    return pairs


# -- answer checks -----------------------------------------------------------


def check(req: Request, pair: Pair, rc: object, out: str) -> str | None:
    """None if `flipdist` answered `req` correctly, else what was wrong."""
    if req.kind == "dag":
        if rc != 0:
            return f"dag exit {rc!r}"
        return _check_dag(pair, out)
    if req.kind == "validate":
        want = (
            f"ok: n={pair.n} h={pair.start.ps.hull_size} "
            f"triangles={len(pair.start.triangles)} k=-\n"
        )
        return None if rc == 0 and out == want else f"validate exit {rc!r}, output {out!r}"
    try:
        rec = json.loads(out)
    except ValueError:
        return f"{req.kind} exit {rc!r}, output is not JSON: {out!r}"
    if req.kind == "distance":
        want = {"oracle": pair.d, "fpt": True, "agree": True}
        ok = rc == 0 and rec.get("k") == pair.d and rec.get("result") == want
    else:
        k = int(req.options[-1])
        ok = rc == (0 if k == pair.d else 1) and rec.get("k") == k and rec.get("result") is (k == pair.d)
    return None if ok else f"{req.kind} exit {rc!r}, record {rec} (reference d={pair.d})"


def _check_dag(pair: Pair, out: str) -> str | None:
    """The DAG output replays the geodesic to the goal, its arcs point
    forward inside one component, and components partition the flips with
    `essential` exactly when they remove an edge absent from the goal."""
    lines = out.splitlines()
    d = len(pair.geodesic)
    try:
        if lines[0] != f"nodes {d}":
            return f"dag header {lines[0]!r}, want nodes {d}"
        edges = set(pair.start.edges())
        removed = []
        for pos, line in enumerate(lines[1 : d + 1], start=1):
            idx, rem, cre = line.split()
            r = tuple(map(int, rem.removeprefix("removed=").split("-")))
            c = tuple(map(int, cre.removeprefix("created=").split("-")))
            if int(idx) != pos or r not in edges:
                return f"dag flip line {line!r} does not apply"
            edges.remove(r)
            edges.add(c)
            removed.append(r)
        if tuple(removed) != pair.geodesic or edges != set(pair.goal.edges()):
            return "dag flips do not replay the geodesic to the goal"
        at = d + 1
        arc_count = int(lines[at].removeprefix("arcs "))
        arcs = [tuple(map(int, ln.split(" -> "))) for ln in lines[at + 1 : at + 1 + arc_count]]
        at += 1 + arc_count
        comp_count = int(lines[at].removeprefix("components "))
        changed = set(pair.start.edges()) - set(pair.goal.edges())
        owner: dict[int, int] = {}
        members_seen = 0
        for line in lines[at + 1 : at + 1 + comp_count]:
            label, *nodes, kind = line.split()
            members = [int(x) for x in nodes]
            members_seen += len(members)
            for x in members:
                owner[x] = int(label.rstrip(":"))
            essential = any(removed[x - 1] in changed for x in members)
            if kind != ("essential" if essential else "nonessential"):
                return f"dag component {line!r} mislabelled"
        if (
            len(lines) != at + 1 + comp_count
            or members_seen != d
            or sorted(owner) != list(range(1, d + 1))
        ):
            return "dag components do not partition the flips"
        if any(not i < j or owner[i] != owner[j] for i, j in arcs):
            return "dag arc goes backwards or across components"
    except (IndexError, ValueError, KeyError) as exc:
        return f"dag output malformed ({exc}): {out!r}"
    return None
