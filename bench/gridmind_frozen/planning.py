"""Deliberative system: goal suggestion, commitment, depth-limited
value-guided search, plan execution, and plan-level frustration.

Search is best-first over the known transition model. Child ordering and
queue priority follow the learned state-values scaled by heuristic_weight;
with weight 0 and no branching cap the queue degenerates to FIFO and the
search behaves exactly like BFS, which is what the optimality tests pin.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .suffering import FrustrationEvent, Source, Timescale, make_event
from .values import ValueStore
from .world import ACTIONS, Action, WorldModel


def count_paths(branching: int, depth: int) -> int:
    """branching ** depth: the size of the unpruned search tree."""
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return branching ** depth


def split_cost(branching: int, depth: int, parts: int) -> int:
    """Search cost after cutting the tree into equal-depth subproblems."""
    if parts < 1 or depth % parts != 0:
        raise ValueError("parts must divide depth")
    return parts * branching ** (depth // parts)


@dataclass(frozen=True)
class Goal:
    target: int
    anticipated_value: float
    proposed_at: int


class IntentionStatus(Enum):
    ACTIVE = "Active"
    REACHED = "Reached"
    ABORTED = "Aborted"
    FAILED = "Failed"


@dataclass
class Intention:
    goal: Goal
    plan: list
    committed_at: int
    status: IntentionStatus = IntentionStatus.ACTIVE
    expected_cells: list = field(default_factory=list)
    cursor: int = 0
    obtained: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.status is not IntentionStatus.ACTIVE

    def next_action(self):
        return self.plan[self.cursor]

    def abort(self):
        self.status = IntentionStatus.ABORTED

    def advance(self, landed_cell, landed_state: int, reward: float):
        """Account one executed plan action and settle the status.

        Fails on divergence from the predicted cell; on plan exhaustion
        the goal counts as reached only if the full (cell, epoch) state
        matches, so a world that changed underfoot fails on arrival.
        """
        self.obtained += reward
        predicted = self.expected_cells[self.cursor]
        self.cursor += 1
        if landed_cell != predicted:
            self.status = IntentionStatus.FAILED
        elif self.cursor >= len(self.plan):
            self.status = (IntentionStatus.REACHED if landed_state == self.goal.target
                           else IntentionStatus.FAILED)


@dataclass
class PlanSearchParams:
    max_depth: int = 12
    branching_cap: int = 5
    heuristic_weight: float = 1.0

    def __post_init__(self):
        if self.max_depth < 1 or self.branching_cap < 1:
            raise ValueError("max_depth and branching_cap must be positive")
        if self.heuristic_weight < 0:
            raise ValueError("heuristic_weight must be >= 0")


def suggest_goals(model: WorldModel, store: ValueStore, s: int, reach: int,
                  threshold: float, t: int = 0) -> list:
    """States within `reach` moves whose V exceeds threshold, best first.

    The current state is excluded: what one already has is not a desire.
    Ties sort by ascending state id.
    """
    if reach < 1:
        raise ValueError("reach must be >= 1")
    seen = {s}
    frontier = [s]
    candidates = []
    for _ in range(reach):
        nxt_frontier = []
        for cur in frontier:
            for cell in model.neighbor_cells(model.cell_of(cur)):
                sid = model.state_id(cell)
                if sid not in seen:
                    seen.add(sid)
                    nxt_frontier.append(sid)
                    if store.v(sid) > threshold:
                        candidates.append(sid)
        frontier = nxt_frontier
    candidates.sort(key=lambda sid: (-store.v(sid), sid))
    return [Goal(target=sid, anticipated_value=store.v(sid), proposed_at=t) for sid in candidates]


def plan_search(model: WorldModel, s: int, goal: Goal, store: ValueStore,
                params: PlanSearchParams, stats: dict | None = None):
    """Best-first search for a path to goal.target; None when the budget
    runs out. Returns the action list (possibly empty when s is the target)."""
    if s == goal.target:
        if stats is not None:
            stats["expansions"] = 0
        return []
    w = params.heuristic_weight
    counter = 0
    heap = [(-w * store.v(s), counter, s, 0)]
    parent = {s: None}
    expansions = 0
    while heap:
        _, _, state, depth = heapq.heappop(heap)
        expansions += 1
        if depth >= params.max_depth:
            continue
        children = []
        cell = model.cell_of(state)
        for a in ACTIONS:
            if a is Action.STAY:
                continue
            nxt_cell = model.intended_next(cell, a)
            if nxt_cell == cell:
                continue
            nxt = model.state_id(nxt_cell)
            if nxt not in parent:
                children.append((nxt, a))
        children.sort(key=lambda ch: (-store.v(ch[0]), ch[1]))
        for nxt, a in children[: params.branching_cap]:
            parent[nxt] = (state, a)
            if nxt == goal.target:
                if stats is not None:
                    stats["expansions"] = expansions
                return _reconstruct(parent, nxt)
            counter += 1
            heapq.heappush(heap, (-w * store.v(nxt), counter, nxt, depth + 1))
    if stats is not None:
        stats["expansions"] = expansions
    return None


def _reconstruct(parent: dict, state: int) -> list:
    actions = []
    while parent[state] is not None:
        prev, a = parent[state]
        actions.append(a)
        state = prev
    actions.reverse()
    return actions


def commit(model: WorldModel, s: int, goals: list, store: ValueStore,
           params: PlanSearchParams, t: int = 0):
    """Settle on the first suggested goal that admits a plan.

    Goals are tried in rank order; unreachable ones fall through to the
    next. Returns an Active intention or None.
    """
    for goal in goals:
        plan = plan_search(model, s, goal, store, params)
        if plan:
            cells = []
            cur = model.cell_of(s)
            for a in plan:
                cur = model.intended_next(cur, a)
                cells.append(cur)
            return Intention(goal=goal, plan=plan, committed_at=t, expected_cells=cells)
    return None


def execute(intention: Intention, world: WorldModel, s: int, rng, *,
            check_interrupt=None, on_step=None) -> Intention:
    """Run an Active intention against the world until a terminal status.

    s is the state the plan starts from. check_interrupt(state) -> bool is
    consulted before each action; a True aborts with the remaining actions
    unissued. on_step, when given, receives (state, action, reward,
    next_state, consumed).
    """
    from .world import step as world_step

    while intention.status is IntentionStatus.ACTIVE:
        if check_interrupt is not None and check_interrupt(s):
            intention.abort()
            break
        a = intention.next_action()
        s_next, r, consumed = world_step(world, s, a, rng)
        if on_step is not None:
            on_step(s, a, r, s_next, consumed)
        intention.advance(world.cell_of(s_next), s_next, r)
        s = s_next
    return intention


def plan_frustration(intention: Intention, expected: float, obtained: float,
                     *, certainty: float = 1.0, attention: float = 1.0,
                     t: int = 0) -> FrustrationEvent:
    """Score a terminal intention at the Plan timescale.

    Reached plans pay reward_loss(expected, obtained); Failed and Aborted
    ones are charged the full expected value.
    """
    if not intention.terminal:
        raise ValueError("plan_frustration requires a terminal intention")
    if intention.status is IntentionStatus.REACHED:
        exp_term, obt_term = expected, obtained
    else:
        exp_term, obt_term = expected, 0.0
    return make_event(t=t, source=Source.PLAN_LOSS, timescale=Timescale.PLAN,
                      expected=exp_term, obtained=obt_term,
                      certainty=certainty, attention=attention)
