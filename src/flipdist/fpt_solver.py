"""Fixed-parameter search deciding "flip distance equals k".

The search simulates a small nondeterministic machine instead of walking
the whole flip graph.  A machine state is (triangulation, current edge,
stack of edges, flips done, actions done), and the five action kinds are

  move            hop to an edge sharing a triangle with the current one
  flip_move       flip the current edge, then hop to an edge that shared
                  a triangle with it before the flip (all four survive
                  the flip, being sides of its quadrilateral)
  flip_push_move  same, but first push the created diagonal on the stack
  flip_jump       flip the current edge and land on the stack's top edge,
                  provided that edge is present after the flip
  flip_jump_pop   same, and pop the top

The move-bearing kinds offer at most 4 targets each and the jump kinds
at most 1, so no state ever has more than 14 legal actions.  _steps is
the single statement of these semantics, as at most five step groups
per state (one per kind; its steps differ only in the target edge).
The search judges a state's flip once and each group's budget once;
legal_actions expands the groups into (kind, successor) pairs for
callers that inspect one state.
_steps never flips; the search builds a flip only for a kept successor.

A full run splits k into a composition (k_1, .., k_t); iteration l
starts at the next not-yet-restored edge of the initial triangulation
that is absent from the target and must perform exactly k_l flips
within at most 2*k_l actions on a fresh stack.  "Next" is in one order
per call, already-absent edges skipped: the changed edges admissible in
the initial triangulation first, so the first iteration can flip at
once, then the rest, each group in canonical order (in convex position
all of them are admissible); at k = |changed edges| the edges whose
flip creates a target edge go first of all.  The run accepts iff after
all t iterations the current triangulation is the target.  Trying
every composition (walked as a tree over the next part, so a shared
prefix runs once, and with one search per tree node serving every next
part at once, each outcome tried as soon as it is found) makes the
overall decision exact for k equal to the flip distance, and
every accepted run is a genuine k-flip transformation, so smaller k
never accepts.  fpt_distance rests on that pair of facts: it tries
k = |changed edges|, |changed edges| + 1, .. in turn (every flip removes
one edge, so no smaller k can work) and the first k that accepts is the
flip distance.  decide_flip_distance_eq asks it for the distance, capped
at k.

The search remembers failed tree nodes and applies the changed-edge
lower bound at the root and in every iteration: a triangulation with w
edges absent from the target needs at least w more flips, so a branch
with fewer flips left is cut (and counted in stats).  At the root, k = w
is also cut unless some goal-absent edge has a happy flip, one that
creates a target edge: with no slack, every flip of the run must be one.

Each exists_solution_with_exactly_k_flips call expands at most
oracle.NODE_BUDGET machine states and raises SearchBudgetExceeded past
it; fpt_distance and decide_flip_distance_eq make one such call per k.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import oracle
from .triangulation import Edge, Triangulation, changed_edges, ensure_same_points

MOVE = "move"
FLIP_MOVE = "flip_move"
FLIP_PUSH_MOVE = "flip_push_move"
FLIP_JUMP = "flip_jump"
FLIP_JUMP_POP = "flip_jump_pop"


class MachineState(NamedTuple):
    tri: Triangulation
    at: Edge
    stack: tuple[Edge, ...]
    flips_done: int
    actions_done: int


@dataclass
class SolverStats:
    """Counters the searches fill in; pass one instance around to aggregate.

    iterations_run counts the node searches run, one per composition-tree
    node that the failure memo does not answer.  compositions_tried
    counts the (part, outcome) pairs the tree recurses on.
    lower_bound_cuts counts one per root cut (k below the changed-edge
    count, or equal to it with no happy flip) and, inside the node
    searches, one per flip successor dropped for having more goal-absent
    edges than flips left.
    """

    states_expanded: int = 0
    actions_generated: int = 0
    max_branching: int = 0
    compositions_tried: int = 0
    iterations_run: int = 0
    lower_bound_cuts: int = 0


def _steps(
    tri: Triangulation, at: Edge, stack: tuple[Edge, ...], created: Edge | None
) -> list[tuple[str, tuple[Edge, ...], tuple[Edge, ...]]]:
    """Every legal step from (tri, at, stack) as a list of at most five
    groups, one per kind in kind order: (kind, target edges, stack after
    the step), one step per target.  `created` is the diagonal a flip of
    `at` creates, or None when `at` is not admissible.  Each step costs
    one action; MOVE keeps tri and every other kind flips `at` once.  The
    first group is always MOVE; a list, not a generator, because the
    search reads every group of every state it expands.
    """
    nbrs = tri.edges_sharing_triangle(at)
    if created is None:
        return [(MOVE, nbrs, stack)]
    groups = [(MOVE, nbrs, stack), (FLIP_MOVE, nbrs, stack), (FLIP_PUSH_MOVE, nbrs, stack + (created,))]
    if stack:
        top = stack[-1]
        # present after the flip, which removes `at` and adds `created`
        if top == created or (top != at and top in tri):
            groups.append((FLIP_JUMP, (top,), stack))
            groups.append((FLIP_JUMP_POP, (top,), stack[:-1]))
    return groups


def legal_actions(state: MachineState) -> list[tuple[str, MachineState]]:
    """Every legal (kind, successor) pair of `state`, in kind order and
    then target order.

    A view of _steps for inspecting one state; budgets are the caller's
    business.
    """
    tri, at, stack, flips, acts = state
    created, flip_mask = tri.flip_preview(at) or (None, None)
    flipped = None if created is None else tri._flipped(at, created, flip_mask)
    return [
        (kind, MachineState(tri if kind == MOVE else flipped, e, stk, flips + (kind != MOVE), acts + 1))
        for kind, targets, stk in _steps(tri, at, stack, created)
        for e in targets
    ]


def _node_search(
    tri: Triangulation,
    start: Edge,
    rest: int,
    goal_mask: int,
    stats: SolverStats,
    limit: float,
) -> Iterator[tuple[int, Triangulation]]:
    """(part, outcome) for the iterations of every part 1..rest from
    (tri, start), each as soon as it is found.  The iteration of part p
    reaches its outcomes by exactly p flips within at most 2*p actions,
    starting with an empty stack, and yields each once.

    A state with f flips is kept at action level a when f < rest and
    a <= rest + f.  A flip to f flips at level a <= 2*f is an outcome of
    part f, once per mask, and is kept for larger parts too.  The states
    with f < p flips at level a <= p + f are exactly those part p's own
    iteration keeps: f rises by at most one per action and a by exactly
    one, so no state outside that set leads back into it, and a dedup
    key fixes f, so no state outside it takes a key from one inside it.
    So each part gets exactly its own iteration's outcomes.

    States are deduplicated on (edge-set fingerprint, current edge, stack,
    flips done) while expanding in action-count order, so the first visit
    of a key is the one with the fewest actions spent and dropping later
    visits loses no outcome.

    The search is one of a run that must reach `goal_mask` with `rest`
    flips left from the root, and any flip successor (outcomes included)
    with more target-absent edges than the flips left to it, `rest -
    flips done`, is dropped before dedup.  Sound: a flip removes exactly
    one edge, so each flip lowers the count of target-absent edges by at
    most one, and the run must bring it to zero.  The count depends only
    on the edge mask, which is in the dedup key, so a key is cut on every
    visit or on none and the fewest-actions-first argument above holds.
    A move keeps the mask and the flips left, so it is never judged: a
    queued state passed the cut, and from a root that fails it no flip
    passes.  A goal_mask of -1 has no absent edge and cuts nothing.

    All flip groups of a state make its one flip, so the cut and then the
    outcome check judge it once (one cut per flip target), and it is built
    at most once, from the preview already in hand; the action budget
    runs per step group.
    SearchBudgetExceeded is raised once stats.states_expanded passes `limit`.
    """
    absent = ~goal_mask
    # states are (triangulation, edge, stack, flips done, actions done)
    queue = deque([(tri, start, (), 0, 0)])
    seen = {(tri.edge_mask, start, (), 0)}
    emitted: list[set[int]] = [set() for _ in range(rest + 1)]
    while queue:
        cur, at, stack, flips, acts = queue.popleft()
        created, flip_mask = cur.flip_preview(at) or (None, None)
        flipped = None
        groups = _steps(cur, at, stack, created)
        branching = 0
        for group in groups:
            branching += len(group[1])
        stats.states_expanded += 1
        stats.actions_generated += branching
        if branching > stats.max_branching:
            stats.max_branching = branching
        if stats.states_expanded > limit:
            raise oracle.SearchBudgetExceeded("FPT search exceeded its node budget")
        acts += 1  # every step costs one action
        f = flips + 1
        if created is not None and (flip_mask & absent).bit_count() > rest - f:
            stats.lower_bound_cuts += branching - len(groups[0][1])
            del groups[1:]  # keep only the moves
        elif created is not None and acts <= 2 * f:
            # one add and a size compare hash the mask once, where `in`
            # followed by `add` hashes it twice
            found = emitted[f]
            size = len(found)
            found.add(flip_mask)
            if len(found) > size:
                flipped = cur._flipped(at, created, flip_mask)
                yield f, flipped
        for kind, targets, stk in groups:
            f, m = (flips, cur.edge_mask) if kind == MOVE else (flips + 1, flip_mask)
            # no part needs more flips, or too few actions are left (one per flip)
            if f == rest or acts > rest + f:
                continue
            t2 = cur if kind == MOVE else flipped
            for e in targets:
                size = len(seen)
                seen.add((m, e, stk, f))
                if len(seen) == size:
                    continue
                if t2 is None:
                    t2 = flipped = cur._flipped(at, created, flip_mask)
                queue.append((t2, e, stk, f, acts))


def exists_solution_with_exactly_k_flips(
    start: Triangulation,
    goal: Triangulation,
    k: int,
    stats: SolverStats | None = None,
) -> bool:
    """Can some composition of k into iteration budgets drive `start` to `goal`?

    Accepting is sound for every k (an accepting run performs exactly k
    admissible flips ending at goal) and complete when k is the flip
    distance, which is all the distance decision needs.

    `order` is the changed edges in groups, each in canonical order,
    fixed for the call: at k = |changed edges| those whose flip in
    `start` creates a goal edge (happy first: with no slack every flip
    of a run must create a goal edge, so only these can flip the moment
    the first iteration starts), then the other edges admissible in
    `start`, then the rest; at every other k the admissible edges first,
    then the rest.  Any order computed from `start` and `goal` alone
    keeps the answer: soundness never reads it, and
    completeness at k = d uses it only as a fixed list of the start's
    goal-absent edges, each iteration starting at the first one still
    present, which the memo key below needs fixed anyway.  The tests'
    unpruned reference walks the canonical order, so the neutrality
    tests check that this order changes no answer.

    attempt(tri, cursor, rest) walks the compositions as a tree: one
    _node_search from the next present changed edge yields the outcomes
    of an iteration of each size 1..rest, and attempt recurses on each
    (part, outcome) as it arrives, so a shared prefix runs once.  A node
    accepts iff some (part, outcome) leads to the goal, and it tries them
    all until one does, so the order in which they arrive cannot change
    its answer.

    A root with 0 < k < |changed edges| is cut (each flip removes one
    edge, so it lowers the count of goal-absent edges by at most one;
    k = 0 is left to the mask comparison).  So is a root with
    0 < k = |changed edges| where no edge of `order` has a happy flip, an
    admissible flip that creates a goal edge (the zero-slack cut).
    Sound for every point set: a run of exactly k flips must lower the
    count at every flip, so each of its flips removes a goal-absent edge
    and creates a goal edge; moves never change the triangulation, so
    the run's first flip is made on `start`, on a goal-absent edge of
    `start`, which is an edge of `order`.  It and the order read one flip
    preview per changed edge.  Either cut counts one lower_bound_cut and
    expands no state.  No node below the root needs these checks: the
    node search that made it already dropped every outcome with more
    goal-absent edges than the `rest` flips left.
    Failed nodes are memoized on (rest, cursor, edge mask).
    The memo is sound because attempt's answer depends only on those
    three: over a fixed point set the mask determines the triangulation,
    and order and goal are fixed for the call, so a failure recorded
    under one prefix holds under every prefix, whatever order the
    outcomes came in.  That key is coarser than the remaining parts'
    tuple, and never wrong.

    Raises SearchBudgetExceeded once more than oracle.NODE_BUDGET states
    have been expanded in this call.
    """
    ensure_same_points(start, goal)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if stats is None:
        stats = SolverStats()
    limit = stats.states_expanded + oracle.NODE_BUDGET
    order = sorted(changed_edges(start, goal))
    goal_mask = goal.edge_mask
    failed: set[tuple[int, int, int]] = set()

    def attempt(tri: Triangulation, cursor: int, rest: int) -> bool:
        if rest == 0:
            return tri.edge_mask == goal_mask
        # skip edges already absent; they never return once their
        # component has run (absent edges of `order` stay absent)
        while cursor < len(order) and order[cursor] not in tri:
            cursor += 1
        if cursor == len(order):
            return False
        key = (rest, cursor, tri.edge_mask)
        if key in failed:
            return False
        stats.iterations_run += 1
        for part, outcome in _node_search(tri, order[cursor], rest, goal_mask, stats, limit):
            stats.compositions_tried += 1
            if attempt(outcome, cursor + 1, rest - part):
                return True
        failed.add(key)
        return False

    # the diagonal each changed edge's flip creates, None if it cannot flip
    created = {e: (start.flip_preview(e) or (None,))[0] for e in order}
    if 0 < k < len(order) or (0 < k == len(order) and not any(c in goal for c in created.values())):
        stats.lower_bound_cuts += 1
        return False
    # at zero slack the happy edges first, then the other admissible
    # ones; else admissible first; stable, so canonical within each group
    # (k0 is read first: a list reads as empty while it sorts)
    k0 = len(order)
    order.sort(key=lambda e: (created[e] is None, k != k0 or created[e] not in goal))
    return attempt(start, 0, k)


def fpt_distance(
    start: Triangulation,
    goal: Triangulation,
    cap: int,
    stats: SolverStats | None = None,
) -> int | None:
    """The flip distance from start to goal, or None when it exceeds `cap`.

    Deepens from k0 = |changed edges| and returns the first k whose
    exists_solution_with_exactly_k_flips accepts.  Every flip removes one
    edge, and each changed edge has to go, so the distance d is at least
    k0.  Acceptance is sound for every k, so no k < d accepts, and
    complete at k = d, so the first acceptance is at d.  When no changed
    edge has a happy flip, d > k0 and the k0 call is cut before it
    expands a state.

    Each k tried may expand oracle.NODE_BUDGET states.
    """
    ensure_same_points(start, goal)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    for k in range(len(changed_edges(start, goal)), cap + 1):
        if exists_solution_with_exactly_k_flips(start, goal, k, stats):
            return k
    return None


def decide_flip_distance_eq(
    start: Triangulation,
    goal: Triangulation,
    k: int,
    stats: SolverStats | None = None,
) -> bool:
    """True iff the flip distance from start to goal is exactly k.

    Raises ValueError for k < 0, and SearchBudgetExceeded past
    oracle.NODE_BUDGET expanded states in one k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return fpt_distance(start, goal, k, stats) == k
