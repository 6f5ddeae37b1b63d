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
from operator import itemgetter
from typing import Annotated, NamedTuple

from .inputs import Range, check
from .suffering import LossSite, Source
from .values import ValueStore
from .world import WorldModel


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


class IntentionStatus(Enum):
    ACTIVE = "Active"
    REACHED = "Reached"
    ABORTED = "Aborted"
    FAILED = "Failed"


@dataclass
class Intention:
    goal: Goal
    plan: list
    status: IntentionStatus = IntentionStatus.ACTIVE
    path: list = field(default_factory=list)  # the flat cell each action lands on
    cursor: int = 0
    obtained: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.status is not IntentionStatus.ACTIVE

    def next_action(self):
        return self.plan[self.cursor]

    def abort(self):
        self.status = IntentionStatus.ABORTED

    def advance(self, landed_flat: int, landed_state: int, reward: float):
        """Account one executed plan action and settle the status.

        Fails on divergence from the predicted flat cell; on plan exhaustion
        the goal counts as reached only if the full (cell, epoch) state
        matches, so a world that changed underfoot fails on arrival.
        """
        self.obtained += reward
        predicted = self.path[self.cursor]
        self.cursor += 1
        if landed_flat != predicted:
            self.status = IntentionStatus.FAILED
        elif self.cursor >= len(self.plan):
            self.status = (IntentionStatus.REACHED if landed_state == self.goal.target
                           else IntentionStatus.FAILED)


@dataclass(frozen=True)
class PlanSearchParams:
    max_depth: Annotated[int, Range(1)] = 12
    branching_cap: Annotated[int, Range(1)] = 5
    heuristic_weight: Annotated[float, Range(0)] = 1.0

    def __post_init__(self):
        check(self)


def suggest_goals(model: WorldModel, store: ValueStore, s: int, reach: int,
                  threshold: float) -> list:
    """States within `reach` moves whose V exceeds threshold, best first.

    The current state is excluded: what one already has is not a desire.
    Ties sort by ascending state id.
    """
    if reach < 1:
        raise ValueError("reach must be >= 1")
    flat = model.flat_of(s)
    base = s - flat
    V = store.V
    goals = [tuple.__new__(Goal, (base + f, v))  # ascending flat order
             for f in model.geometry.within(reach, flat)
             if (v := V.get(base + f, 0.0)) > threshold]
    goals.sort(key=itemgetter(1), reverse=True)  # stable: ties keep ascending ids
    return goals


def plan_search(model: WorldModel, s: int, goal: Goal, store: ValueStore,
                params: PlanSearchParams, stats: dict | None = None):
    """Best-first search for a path to goal.target; None when the budget
    runs out. Returns the action list (possibly empty when s is the target).
    It runs on the flat cells f of s's epoch and reads V at ``base + f``, so
    a target of another epoch is never reached."""
    if s == goal.target:
        if stats is not None:
            stats["expansions"] = 0
        return []
    flat = model.flat_of(s)
    base = s - flat
    target = goal.target - base
    V = store.V
    w = params.heuristic_weight
    moves, next_flat, cap = model.geometry.moves, model.geometry.next_flat, params.branching_cap
    counter = 0
    heap = [(-w * V.get(s, 0.0), counter, flat, 0)]
    parent = {flat: None}
    expansions = 0
    while heap:
        _, _, f, depth = heapq.heappop(heap)
        expansions += 1
        if depth >= params.max_depth:
            continue
        row = next_flat[f]
        children = [(-V.get(base + nxt, 0.0), a, nxt) for a in moves[f]
                    if (nxt := row[a]) not in parent]
        children.sort()  # by value, then action
        if len(children) > cap:
            del children[cap:]
        for neg_v, a, nxt in children:
            parent[nxt] = (f, a)
            if nxt == target:
                if stats is not None:
                    stats["expansions"] = expansions
                return _reconstruct(parent, nxt)
            counter += 1
            heapq.heappush(heap, (w * neg_v, counter, nxt, depth + 1))  # -w * v, bit for bit
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
           params: PlanSearchParams):
    """Settle on the first suggested goal that admits a plan.

    Goals are tried in rank order; unreachable ones fall through to the
    next. Returns an Active intention or None.
    """
    for goal in goals:
        plan = plan_search(model, s, goal, store, params)
        if plan:
            next_flat = model.geometry.next_flat
            path = []
            cur = model.flat_of(s)
            for a in plan:
                cur = next_flat[cur][a]
                path.append(cur)
            return Intention(goal=goal, plan=plan, path=path)
    return None


def plan_site(intention: Intention, *, t: int = 0) -> LossSite:
    """A terminal intention as a PlanLoss site.

    Reached plans set the anticipated value against what the plan
    obtained; Failed and Aborted ones are charged the full anticipation.
    """
    if not intention.terminal:
        raise ValueError("plan_site requires a terminal intention")
    obtained = intention.obtained if intention.status is IntentionStatus.REACHED else 0.0
    return tuple.__new__(LossSite, (t, Source.PLAN_LOSS, intention.goal.anticipated_value,
                                    obtained))
