"""Dependency structure over a sequence of edge flips.

For a valid flip sequence f_1 .. f_r there is an arc i -> j (i < j)
whenever the diagonal created by f_i is still around just before f_j and
f_j either removes exactly that diagonal or removes an edge sharing a
triangle with it at that moment.  Any reordering of the sequence that
respects these arcs replays without inadmissible flips and lands in the
same final triangulation; the tests replay sampled topological sorts
to check it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .triangulation import (
    Edge,
    InadmissibleFlip,
    Triangulation,
    changed_edges,
    make_edge,
)


class InvalidFlipSequence(ValueError):
    """A flip in the sequence is inadmissible; `position` is 1-based."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"flip {position} is inadmissible: {reason}")
        self.position = position


class FlipRecord(NamedTuple):
    """One executed flip: the edge it removed and the diagonal it created."""

    removed: Edge
    created: Edge


class FlipSequence:
    """A validated flip sequence: its base, its result and one record per
    flip; records[i - 1] is flip i, so a flip's position is its index."""

    __slots__ = ("base", "final", "records")

    def __init__(self, base: Triangulation, final: Triangulation, records: Sequence[FlipRecord]):
        self.base = base
        self.final = final
        self.records = tuple(records)

    def edges(self) -> list[Edge]:
        return [rec.removed for rec in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"FlipSequence({len(self.records)} flips over {len(self.base.ps)} points)"


def apply_sequence(base: Triangulation, edges: Iterable[Edge]) -> FlipSequence:
    """Apply flips in order; raises InvalidFlipSequence at the first bad position."""
    records = []
    cur = base
    for pos, raw in enumerate(edges, start=1):
        e = make_edge(*raw)
        try:
            cur, created = cur.apply_flip(e)
        except InadmissibleFlip as exc:
            raise InvalidFlipSequence(pos, str(exc)) from exc
        records.append(FlipRecord(e, created))
    return FlipSequence(base, cur, records)


class FlipDag:
    """The dependency DAG of a flip sequence; nodes are 1-based positions.

    Acyclic by construction: every arc goes from a smaller to a larger
    position.
    """

    __slots__ = ("node_count", "arcs")

    def __init__(self, node_count: int, arcs: Iterable[tuple[int, int]]):
        self.node_count = node_count
        self.arcs: tuple[tuple[int, int], ...] = tuple(sorted(set(arcs)))
        for i, j in self.arcs:
            if not (1 <= i < j <= node_count):
                raise ValueError(f"arc {(i, j)} is not forward within 1..{node_count}")

    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    def __repr__(self) -> str:
        return f"FlipDag({self.node_count} nodes, {len(self.arcs)} arcs)"


def build_dag(seq: FlipSequence) -> FlipDag:
    """Dependency DAG of a flip sequence, in one pass.

    Arc i -> j iff the diagonal created by flip i is not flipped strictly
    between i and j, and flip j either removes it or removes an edge that
    shares a triangle with it in the triangulation just before flip j.

    `creator` maps each edge that some flip created to the last flip that
    created it.  Flip j removes ab and creates cd, so just before it ab,
    ac, bc, ad and bd are present, and the last four are the edges that
    share a triangle with ab.  A present edge has not been flipped since
    its last creator made it, and each earlier creator's diagonal was
    flipped in between, so the arcs into j come from the creators of those
    five edges: indegree at most 5.
    """
    creator: dict[Edge, int] = {}
    arcs = []
    for j, (removed, created) in enumerate(seq.records, start=1):
        (a, b), (c, d) = removed, created
        for e in (removed, make_edge(a, c), make_edge(b, c), make_edge(a, d), make_edge(b, d)):
            if e in creator:
                arcs.append((creator[e], j))
        creator[created] = j
    return FlipDag(len(seq.records), arcs)


def components(dag: FlipDag) -> list[tuple[int, ...]]:
    """Weakly connected components, each ascending, ordered by smallest node."""
    parent = {i: i for i in dag.nodes()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in dag.arcs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    # nodes go in ascending order, so each group is ascending and the dict
    # keeps the groups in the order of their smallest nodes
    groups: dict[int, list[int]] = {}
    for i in dag.nodes():
        groups.setdefault(find(i), []).append(i)
    return [tuple(g) for g in groups.values()]


def classify_essential(dag: FlipDag, seq: FlipSequence) -> list[tuple[tuple[int, ...], bool]]:
    """Label each component: does it flip an edge of the base absent from the
    sequence's result?"""
    changed = changed_edges(seq.base, seq.final)
    out = []
    for comp in components(dag):
        essential = any(seq.records[i - 1].removed in changed for i in comp)
        out.append((comp, essential))
    return out
