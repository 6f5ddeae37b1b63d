"""Tabular habit system: state/action values, TD learning, reward loss,
exploration, curiosity bonus, and the adaptive expectation baseline.

Two value schemes are supported and never mixed in one run:

* multiplicative — standard discounting with gamma in [0, 1];
* subtractive    — no discounting (effective gamma 1); a per-step penalty
  is charged inside the reward stream, with the world's step_cost playing
  that role for gridworld runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .world import ACTIONS, LATERALS, Action, WorldModel


class ValueIterationError(Exception):
    """Value iteration failed to converge within the sweep budget."""


@dataclass
class LearningParams:
    alpha: float = 0.1
    gamma: float | None = 0.9
    step_penalty: float | None = None
    epsilon: float = 0.1
    curiosity_kappa: float = 0.0

    def __post_init__(self):
        if (self.gamma is None) == (self.step_penalty is None):
            raise ValueError("exactly one of gamma / step_penalty must be set")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.step_penalty is not None and self.step_penalty < 0:
            raise ValueError("step_penalty must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.curiosity_kappa < 0:
            raise ValueError("curiosity_kappa must be >= 0")

    @property
    def subtractive(self) -> bool:
        return self.step_penalty is not None

    @property
    def disc(self) -> float:
        """Bootstrap discount: gamma, or 1 in the subtractive scheme."""
        return 1.0 if self.subtractive else float(self.gamma)


@dataclass
class ValueStore:
    """Tabular V, Q and visit counts. Unseen entries read as 0."""

    V: dict = field(default_factory=dict)
    Q: dict = field(default_factory=dict)
    visit_counts: dict = field(default_factory=dict)
    actions: tuple = ACTIONS

    def v(self, s) -> float:
        return self.V.get(s, 0.0)

    def q(self, s, a) -> float:
        return self.Q.get((s, a), 0.0)

    def visits(self, s, a) -> int:
        return self.visit_counts.get((s, a), 0)

    def max_q(self, s) -> float:
        return max(self.q(s, a) for a in self.actions)

    def greedy_action(self, s):
        """Argmax over Q, ties broken by fixed action-enumeration order."""
        best = self.actions[0]
        best_q = self.q(s, best)
        for a in self.actions[1:]:
            qa = self.q(s, a)
            if qa > best_q:
                best, best_q = a, qa
        return best


@dataclass(frozen=True)
class ExpectationBaseline:
    level: float = 0.0
    adaptation_rate: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.adaptation_rate <= 1.0:
            raise ValueError("adaptation_rate must be in [0, 1]")


def reward_loss(expected: float, obtained: float) -> float:
    """max(0, expected - obtained); obtaining more than expected is no loss."""
    return max(0.0, expected - obtained)


def td_error(r: float, v_before: float, v_after: float, params: LearningParams) -> float:
    """r + disc * v_after - v_before. Negative values are bad news."""
    return r + params.disc * v_after - v_before


def td_update(store: ValueStore, exp, params: LearningParams, *, count_visit: bool = True) -> ValueStore:
    """One TD step on V and Q from a single experience.

    Terminal experiences bootstrap from 0: their value is entirely in the
    reward. Q uses the max over next actions (off-policy).
    """
    v_after = 0.0 if exp.terminal else store.v(exp.s_next)
    dv = td_error(exp.r, store.v(exp.s), v_after, params)
    store.V[exp.s] = store.v(exp.s) + params.alpha * dv

    q_after = 0.0 if exp.terminal else store.max_q(exp.s_next)
    dq = exp.r + params.disc * q_after - store.q(exp.s, exp.a)
    store.Q[(exp.s, exp.a)] = store.q(exp.s, exp.a) + params.alpha * dq

    if count_visit:
        key = (exp.s, exp.a)
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

    def is_terminal(self, s) -> bool:
        return s in self.terminal


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
    states = tuple(world.free_states())
    terminal = {}
    for s in states:
        obj = world.object_at(world.cell_of(s))
        if obj is not None and obj.kind == "reward" and obj.consumable:
            terminal[s] = obj.magnitude

    def landing_reward(cell) -> float:
        r = -world.step_cost
        obj = world.object_at(cell)
        if obj is not None and not (obj.kind == "reward" and obj.consumable):
            r += obj.signed_magnitude()
        return r

    p_slip = world.slip_probability
    transitions = {}
    for s in states:
        if s in terminal:
            continue
        cell = world.cell_of(s)
        for a in ACTIONS:
            outcomes = []
            if a is Action.STAY or p_slip == 0.0:
                landed = world.intended_next(cell, a)
                outcomes.append((1.0, landed))
            else:
                outcomes.append((1.0 - p_slip, world.intended_next(cell, a)))
                for lat in LATERALS[a]:
                    outcomes.append((p_slip / 2.0, world.intended_next(cell, lat)))
            merged = {}
            for p, landed in outcomes:
                merged[landed] = merged.get(landed, 0.0) + p
            transitions[(s, a)] = [
                (p, world.state_id(landed), landing_reward(landed))
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
    nonterminal = [s for s in mdp.states if not mdp.is_terminal(s)]
    for _ in range(max_sweeps):
        delta = 0.0
        for s in nonterminal:
            best = None
            for a in mdp.actions:
                trans = mdp.transitions.get((s, a))
                if not trans:
                    continue
                val = sum(p * (r + disc * V[s2]) for p, s2, r in trans)
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

    store = ValueStore(actions=mdp.actions)
    store.V = dict(V)
    for s in nonterminal:
        for a in mdp.actions:
            trans = mdp.transitions.get((s, a))
            if trans:
                store.Q[(s, a)] = sum(p * (r + disc * V[s2]) for p, s2, r in trans)
    return store
