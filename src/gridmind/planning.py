"""Deliberative system: goal suggestion, commitment, depth-limited
value-guided search, intention bookkeeping, and plan-level loss sites.

Search is best-first over the known transition model. Child ordering and
queue priority follow the learned state-values scaled by heuristic_weight;
with weight 0 and no branching cap the queue degenerates to FIFO and the
search behaves exactly like BFS, which is what the optimality tests pin.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .suffering import LossSite, Source, Timescale
from .values import ValueStore
from .world import MOVES, WorldModel


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


class Goal(NamedTuple):
    """A desired state (a tuple: cheap to build, as suggestions are many)."""
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


@dataclass(frozen=True)
class PlanSearchParams:
    max_depth: int = 12
    branching_cap: int = 5
    heuristic_weight: float = 1.0

    def __post_init__(self):
        for name in ("max_depth", "branching_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
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
    flat = model.flat_of(s)
    base = s - flat
    V = store.V
    candidates = []
    for f in model.geometry.within(reach, flat):
        v = V.get(base + f, 0.0)
        if v > threshold:
            candidates.append((-v, base + f))
    candidates.sort()
    return [Goal(sid, -neg_v, t) for neg_v, sid in candidates]


def plan_search(model: WorldModel, s: int, goal: Goal, store: ValueStore,
                params: PlanSearchParams, stats: dict | None = None):
    """Best-first search for a path to goal.target; None when the budget
    runs out. Returns the action list (possibly empty when s is the target)."""
    if s == goal.target:
        if stats is not None:
            stats["expansions"] = 0
        return []
    w = params.heuristic_weight
    next_flat = model.geometry.next_flat
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
        flat = model.flat_of(state)
        base = state - flat
        for a in MOVES:
            nxt = base + next_flat[flat][a]
            if nxt != state and nxt not in parent:
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
            geo = model.geometry
            cells = []
            cur = model.flat_of(s)
            for a in plan:
                cur = geo.next_flat[cur][a]
                cells.append(geo.cells[cur])
            return Intention(goal=goal, plan=plan, committed_at=t, expected_cells=cells)
    return None


def plan_site(intention: Intention, *, t: int = 0) -> LossSite:
    """A terminal intention as a Plan-timescale loss site.

    Reached plans set the anticipated value against what the plan
    obtained; Failed and Aborted ones are charged the full anticipation.
    """
    if not intention.terminal:
        raise ValueError("plan_site requires a terminal intention")
    obtained = intention.obtained if intention.status is IntentionStatus.REACHED else 0.0
    return LossSite(t, Source.PLAN_LOSS, Timescale.PLAN,
                    intention.goal.anticipated_value, obtained)
