"""Dependency structure over a sequence of edge flips.

For a valid flip sequence f_1 .. f_r there is an arc i -> j (i < j)
whenever the diagonal created by f_i is still around just before f_j and
f_j either removes exactly that diagonal or removes an edge sharing a
triangle with it at that moment.  Any reordering of the sequence that
respects these arcs replays without inadmissible flips and lands in the
same final triangulation, which is what the tests here lean on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class FlipRecord:
    """One executed flip: its 1-based position, removed edge, created diagonal."""

    position: int
    removed: Edge
    created: Edge


class FlipSequence:
    """A validated flip sequence with every intermediate triangulation.

    snapshots[i] is the triangulation after the first i flips, so
    snapshots[0] is the base and snapshots[-1] the result.
    """

    __slots__ = ("snapshots", "records")

    def __init__(self, snapshots: Sequence[Triangulation], records: Sequence[FlipRecord]):
        self.snapshots = tuple(snapshots)
        self.records = tuple(records)

    @property
    def base(self) -> Triangulation:
        return self.snapshots[0]

    @property
    def final(self) -> Triangulation:
        return self.snapshots[-1]

    def edges(self) -> list[Edge]:
        return [rec.removed for rec in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"FlipSequence({len(self.records)} flips over {len(self.base.ps)} points)"


def apply_sequence(base: Triangulation, edges: Iterable[Edge]) -> FlipSequence:
    """Apply flips in order; raises InvalidFlipSequence at the first bad position."""
    snapshots = [base]
    records = []
    cur = base
    for pos, raw in enumerate(edges, start=1):
        e = make_edge(*raw)
        try:
            cur, created = cur.apply_flip(e)
        except InadmissibleFlip as exc:
            raise InvalidFlipSequence(pos, str(exc)) from exc
        records.append(FlipRecord(pos, e, created))
        snapshots.append(cur)
    return FlipSequence(snapshots, records)


class FlipDag:
    """The dependency DAG of a flip sequence; nodes are 1-based positions.

    Acyclic by construction: every arc goes from a smaller to a larger
    position.
    """

    __slots__ = ("node_count", "arcs", "_succ", "_pred")

    def __init__(self, node_count: int, arcs: Iterable[tuple[int, int]]):
        self.node_count = node_count
        self.arcs: tuple[tuple[int, int], ...] = tuple(sorted(set(arcs)))
        succ: dict[int, list[int]] = {i: [] for i in self.nodes()}
        pred: dict[int, list[int]] = {i: [] for i in self.nodes()}
        for i, j in self.arcs:
            if not (1 <= i < j <= node_count):
                raise ValueError(f"arc {(i, j)} is not forward within 1..{node_count}")
            succ[i].append(j)
            pred[j].append(i)
        self._succ = {i: tuple(v) for i, v in succ.items()}
        self._pred = {i: tuple(v) for i, v in pred.items()}

    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    def successors(self, i: int) -> tuple[int, ...]:
        return self._succ[i]

    def indegree(self, i: int) -> int:
        return len(self._pred[i])

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
    for rec in seq.records:
        (a, b), (c, d) = rec.removed, rec.created
        for e in (rec.removed, make_edge(a, c), make_edge(b, c), make_edge(a, d), make_edge(b, d)):
            if e in creator:
                arcs.append((creator[e], rec.position))
        creator[rec.created] = rec.position
    return FlipDag(len(seq.records), arcs)


def is_topological_sort(dag: FlipDag, order: Sequence[int]) -> bool:
    """True iff `order` is a permutation of the nodes respecting every arc."""
    if sorted(order) != list(dag.nodes()):
        raise ValueError("order is not a permutation of the DAG nodes")
    pos = {node: idx for idx, node in enumerate(order)}
    return all(pos[i] < pos[j] for i, j in dag.arcs)


def replay_permutation(seq: FlipSequence, order: Sequence[int]) -> Triangulation:
    """Apply the recorded flips in permuted order; returns the result.

    The caller is expected to pass a topological sort of build_dag(seq);
    an inadmissible replay then indicates a bug, hence RuntimeError.
    """
    if sorted(order) != list(range(1, len(seq) + 1)):
        raise ValueError("order is not a permutation of the flip positions")
    cur = seq.base
    for node in order:
        e = seq.records[node - 1].removed
        try:
            cur, _ = cur.apply_flip(e)
        except InadmissibleFlip as exc:
            raise RuntimeError(
                f"replay of flip {node} ({e}) is inadmissible; "
                "reorder respected the DAG, so this is a bug"
            ) from exc
    return cur


def components(dag: FlipDag) -> list[tuple[int, ...]]:
    """Weakly connected components, each sorted, ordered by smallest node."""
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
    groups: dict[int, list[int]] = {}
    for i in dag.nodes():
        groups.setdefault(find(i), []).append(i)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])


def classify_essential(
    dag: FlipDag, seq: FlipSequence, final: Triangulation | None = None
) -> list[tuple[tuple[int, ...], bool]]:
    """Label each component: does it flip an edge of the base absent from `final`?

    `final` defaults to the sequence's own result.
    """
    if final is None:
        final = seq.final
    changed = changed_edges(seq.base, final)
    out = []
    for comp in components(dag):
        essential = any(seq.records[i - 1].removed in changed for i in comp)
        out.append((comp, essential))
    return out


def path_exists(dag: FlipDag, i: int, j: int) -> bool:
    """True iff there is a directed path from i to j (trivially when i == j)."""
    for node in (i, j):
        if not 1 <= node <= dag.node_count:
            raise ValueError(f"node {node} is not in the DAG")
    if i == j:
        return True
    stack = [i]
    seen = {i}
    while stack:
        cur = stack.pop()
        for nxt in dag.successors(cur):
            if nxt == j:
                return True
            if nxt not in seen and nxt <= j:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _kahn(dag: FlipDag, choose) -> list[int]:
    indeg = {i: dag.indegree(i) for i in dag.nodes()}
    ready = sorted(i for i in dag.nodes() if indeg[i] == 0)
    out = []
    while ready:
        node = choose(ready)
        ready.remove(node)
        out.append(node)
        for nxt in dag.successors(node):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return out


def sample_topological_sorts(
    dag: FlipDag, rng: random.Random | None = None, samples: int = 3
) -> list[list[int]]:
    """Topological sorts to test with: lexicographically smallest, largest,
    and `samples` random-tie-break draws."""
    rng = rng or random.Random(0)
    sorts = [_kahn(dag, min), _kahn(dag, max)]
    for _ in range(samples):
        sorts.append(_kahn(dag, rng.choice))
    return sorts


def arc_lines(dag: FlipDag) -> list[str]:
    """Arcs as Graphviz-compatible lines, one per arc."""
    return [f"{i} -> {j}" for i, j in dag.arcs]
