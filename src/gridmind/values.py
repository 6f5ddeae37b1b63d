"""Tabular habit system: state/action values, TD learning, reward loss,
exploration, curiosity bonus, and the adaptive expectation baseline.

Two value schemes are supported and never mixed in one run:

* multiplicative — standard discounting with gamma in [0, 1];
* subtractive    — gamma None: no discounting (effective gamma 1); the
  per-step penalty is charged inside the reward stream, where the world's
  step_cost plays that role.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import add
from typing import Annotated

import numpy as np

from .inputs import Range, check
from .world import ACTIONS, LATERALS, Action, WorldModel


class ValueIterationError(Exception):
    """Value iteration failed to converge within the sweep budget."""


@dataclass(frozen=True)
class LearningParams:
    alpha: Annotated[float, Range(0, 1, lo_open=True)] = 0.1
    gamma: Annotated[float | None, Range(0, 1)] = 0.9  # None: the subtractive scheme
    epsilon: Annotated[float, Range(0, 1)] = 0.1
    curiosity_kappa: Annotated[float, Range(0)] = 0.0

    def __post_init__(self):
        check(self)

    @property
    def subtractive(self) -> bool:
        return self.gamma is None

    @cached_property
    def disc(self) -> float:
        """Bootstrap discount: gamma, or 1 in the subtractive scheme. Kept
        on this object after its first read; a replaced copy computes its own."""
        return 1.0 if self.subtractive else float(self.gamma)


@dataclass
class ValueStore:
    """Tabular V, Q and visit counts. Unseen entries read as 0.

    V maps s -> v and visit_counts (s, a) -> count. Q holds one row a
    state, s -> [q per action, in ``actions`` order], made on the state's
    first write with 0.0 for every action; a state without a row reads 0.0
    for every action. Outside this module, read Q through q, max_q and
    greedy_action.
    """

    V: dict = field(default_factory=dict)
    Q: dict = field(default_factory=dict)
    visit_counts: dict = field(default_factory=dict)
    actions: tuple = ACTIONS

    def __post_init__(self):
        self.slot = {a: i for i, a in enumerate(self.actions)}  # action -> row position

    def v(self, s) -> float:
        return self.V.get(s, 0.0)

    def q(self, s, a) -> float:
        row = self.Q.get(s)
        return 0.0 if row is None else row[self.slot[a]]

    def visits(self, s, a) -> int:
        return self.visit_counts.get((s, a), 0)

    def max_q(self, s) -> float:
        row = self.Q.get(s)
        return 0.0 if row is None else max(row)

    def greedy_action(self, s):
        """Argmax over Q, ties broken by fixed action-enumeration order:
        the first position of the row's max, which ``max`` keeps on ties."""
        row = self.Q.get(s)
        return self.actions[0 if row is None else row.index(max(row))]


@dataclass(frozen=True)
class ExpectationBaseline:
    level: float = 0.0  # moved by the run's episode rewards; RunConfig checks the start
    adaptation_rate: Annotated[float, Range(0, 1)] = 0.1

    def __post_init__(self):
        check(self)


def reward_loss(expected: float, obtained: float) -> float:
    """max(0, expected - obtained); obtaining more than expected is no loss."""
    return max(0.0, expected - obtained)


def td_error(r: float, v_before: float, v_after: float, params: LearningParams) -> float:
    """r + disc * v_after - v_before. Negative values are bad news."""
    return r + params.disc * v_after - v_before


def step_expectation(store: ValueStore, s, s_next, terminal: bool, disc: float) -> float:
    """v(s) - disc * v(s_next), bootstrapping nothing past a terminal step."""
    V = store.V
    return V.get(s, 0.0) - disc * (0.0 if terminal else V.get(s_next, 0.0))


def td_update(store: ValueStore, exp, params: LearningParams, *, count_visit: bool = True) -> ValueStore:
    """One TD step on V and Q from a single experience.

    Terminal experiences bootstrap from 0: their value is entirely in the
    reward. Q uses the max over next actions (off-policy). Every entry is
    read before any is written, so a self-loop bootstraps from old values.
    """
    s, a, r, s_next, terminal = exp
    disc, alpha = params.disc, params.alpha
    V, Q, i = store.V, store.Q, store.slot[a]
    row = Q.get(s)
    v_before = V.get(s, 0.0)
    q_before = 0.0 if row is None else row[i]
    if terminal:
        v_after = q_after = 0.0
    else:
        v_after = V.get(s_next, 0.0)
        row_next = Q.get(s_next)
        q_after = 0.0 if row_next is None else max(row_next)
    V[s] = v_before + alpha * (r + disc * v_after - v_before)
    if row is None:
        row = Q[s] = [0.0] * len(store.actions)
    row[i] = q_before + alpha * (r + disc * q_after - q_before)
    if count_visit:
        key = (s, a)
        store.visit_counts[key] = store.visit_counts.get(key, 0) + 1
    return store


def epsilon_greedy(store: ValueStore, s, params: LearningParams, rng: np.random.Generator):
    """Uniform random action with probability epsilon, else the greedy one.

    Always consumes one uniform draw so call counts stay aligned across
    runs that differ only in epsilon.
    """
    u = rng.random()
    if u < params.epsilon:
        return store.actions[int(rng.integers(len(store.actions)))]
    return store.greedy_action(s)


def curiosity_bonus(store: ValueStore, s, a, params: LearningParams) -> float:
    """kappa / sqrt(1 + visits): novel pairs earn the largest bonus."""
    return params.curiosity_kappa / math.sqrt(1.0 + store.visits(s, a))


def update_baseline(b: ExpectationBaseline, episode_reward: float) -> ExpectationBaseline:
    """Exponential moving average: windfalls become the new normal."""
    level = (1.0 - b.adaptation_rate) * b.level + b.adaptation_rate * episode_reward
    return replace(b, level=level)


# -- known-MDP planning backend -------------------------------------------


@dataclass
class Mdp:
    """Explicit finite MDP: transition lists and clamped terminal values.

    transitions maps (s, a) -> [(prob, s_next, reward)]. Rewards carry the
    per-step charge already (the chain builder bakes in its step penalty,
    the world builder the world's step_cost), so value iteration is the
    same recursion in both schemes, differing only in the discount.
    """

    states: tuple
    actions: tuple
    transitions: dict
    terminal: dict  # s -> clamped value; absent keys are non-terminal


def chain_mdp(n: int, terminal_value: float, step_penalty: float) -> Mdp:
    """A one-way chain 0 -> 1 -> ... -> n-1 with the last state terminal."""
    states = tuple(range(n))
    transitions = {
        (s, Action.EAST): [(1.0, s + 1, -step_penalty)] for s in range(n - 1)
    }
    return Mdp(states=states, actions=(Action.EAST,), transitions=transitions,
               terminal={n - 1: terminal_value})


def world_mdp(world: WorldModel) -> Mdp:
    """The current epoch of a gridworld as an explicit MDP.

    Consumable reward cells are terminal with their magnitude as the
    clamped value; transitions into them charge only the step cost, since
    the magnitude is already accounted for by the clamp. Everything else
    (hazards, non-consumable rewards) recurs in the transition rewards.
    """
    geo = world.geometry
    base = world.epoch * geo.n
    states = tuple(world.free_states())
    terminal = {}
    for s in states:
        obj = world.object_at(s - base)
        if obj is not None and obj.consumable:
            terminal[s] = obj.magnitude

    def landing_reward(flat) -> float:
        r = -world.step_cost
        obj = world.object_at(flat)
        if obj is not None and not obj.consumable:
            r += obj.signed_magnitude()
        return r

    p_slip = world.slip_probability
    transitions = {}
    for s in states:
        if s in terminal:
            continue
        row = geo.next_flat[s - base]
        for a in ACTIONS:
            outcomes = []
            if a is Action.STAY or p_slip == 0.0:
                outcomes.append((1.0, row[a]))
            else:
                outcomes.append((1.0 - p_slip, row[a]))
                for lat in LATERALS[a]:
                    outcomes.append((p_slip / 2.0, row[lat]))
            merged = {}
            for p, landed in outcomes:
                merged[landed] = merged.get(landed, 0.0) + p
            transitions[(s, a)] = [
                (p, base + landed, landing_reward(landed))
                for landed, p in merged.items()
            ]
    return Mdp(states=states, actions=ACTIONS, transitions=transitions, terminal=terminal)


def value_iteration(mdp: Mdp, params: LearningParams, tol: float,
                    max_sweeps: int = 100_000) -> ValueStore:
    """Solve the Bellman optimality recursion on an explicit MDP.

    Terminal states keep their clamped values; all others take the max
    over actions of expected (reward + disc * V(next)). Raises
    ValueIterationError if the sweep budget runs out before the largest
    update falls below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    disc = params.disc
    V = {s: 0.0 for s in mdp.states}
    V.update(mdp.terminal)
    nonterminal = [s for s in mdp.states if s not in mdp.terminal]
    for _ in range(max_sweeps):
        delta = 0.0
        for s in nonterminal:
            best = None
            for a in mdp.actions:
                trans = mdp.transitions.get((s, a))
                if not trans:
                    continue
                # a left fold from 0.0: from Python 3.12 on, sum() compensates
                val = reduce(add, (p * (r + disc * V[s2]) for p, s2, r in trans), 0.0)
                if best is None or val > best:
                    best = val
            if best is None:
                continue
            delta = max(delta, abs(best - V[s]))
            V[s] = best
        if delta < tol:
            break
    else:
        raise ValueIterationError(f"no convergence after {max_sweeps} sweeps (delta={delta:.3g})")

    store = ValueStore(V=dict(V), actions=mdp.actions)
    for s in nonterminal:
        store.Q[s] = [reduce(add, (p * (r + disc * V[s2])
                                   for p, s2, r in mdp.transitions.get((s, a), ())), 0.0)
                      for a in mdp.actions]
    return store
