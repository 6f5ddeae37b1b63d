"""Interrupt machinery, self-evaluation, and the depression gate.

Threat detection runs on the observed (possibly corrupted) state, so
false alarms and misses arise naturally from the channel; no threshold
setting removes both.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from statistics import mean
from typing import Annotated, NamedTuple

from . import rng as rngmod
from .inputs import Range, check
from .planning import suggest_goals
from .suffering import LossSite, Source
from .world import ACTIONS, WorldModel, observe, step


@dataclass(frozen=True)
class InterruptPolicy:
    threat_threshold: Annotated[float, Range(0, inf=True)] = math.inf  # inf: no alarm
    desire_threshold: Annotated[float, Range(inf=True)] = 0.8
    miss_cost: Annotated[float, Range(0)] = 1.0
    false_alarm_cost: Annotated[float, Range(0)] = 0.1
    decay_length: Annotated[float, Range(0, lo_open=True)] = 1.0
    interrupt_cost: Annotated[float, Range(0)] = 0.0  # optional extra charge per threat interrupt

    def __post_init__(self):
        check(self)


class InterruptKind(Enum):
    THREAT = "Threat"
    DESIRE = "Desire"


class Interrupt(NamedTuple):
    kind: InterruptKind
    payload: dict


def threat_level(world: WorldModel, s: int, policy: InterruptPolicy) -> float:
    """Hazard potential field: sum of magnitude * exp(-d / decay_length)
    over active hazards, d the Manhattan distance; read from the world's
    field for this epoch (``WorldModel.threat_field``)."""
    flat = world.flat_of(s)
    return world.threat_field(policy.decay_length)[flat]


def check_interrupts(agent, s: int, policy: InterruptPolicy):
    """Detect an interrupt for this step at the observed state ``s``;
    Threat outranks Desire.

    Threat fires when the observed state's hazard field exceeds the
    threshold. Desire fires only while an intention is Active, when some
    non-goal state within reach looks better than the desire threshold.
    The caller applies the effects (abort + internal reward).

    The desire check ranks the ball once, at the lower of the desire and
    the agent's goal threshold, and reads the prefix above the desire
    threshold. A Desire payload carries that list as ``goals``: filtered by
    ``v > goal_threshold`` it is ``suggest_goals`` at the goal threshold,
    in order, so the step that aborts for it need not rank the ball again.
    """
    level = threat_level(agent.world, s, policy)
    if level > policy.threat_threshold:
        return Interrupt(InterruptKind.THREAT, {"threat_level": level})
    intention = agent.intention
    if intention is not None and not intention.terminal:
        desire = policy.desire_threshold
        goals = suggest_goals(agent.world, agent.store, s, reach=agent.goal_reach,
                              threshold=min(desire, agent.goal_threshold))
        target = intention.goal.target
        for goal in goals:
            if not goal[1] > desire:  # sorted by value, best first: the rest are no better
                break
            if goal[0] != target:
                return Interrupt(InterruptKind.DESIRE, {"candidate": goal, "goals": goals})
    return None


def threat_site(t: int, level: float, policy: InterruptPolicy) -> LossSite:
    """The internal reward of a threat interrupt as a loss site: expected 0
    (plus the optional per-interrupt cost), obtained -level."""
    return tuple.__new__(LossSite, (t, Source.THREAT_INTERNAL, policy.interrupt_cost, -level))


def sweep_threshold(world: WorldModel, thresholds, policy: InterruptPolicy, seeds, *,
                    steps: int = 300) -> list:
    """Signal-detection table over detector thresholds.

    Each seed's episode is a uniform-random walk on a copy of ``world``,
    identical across thresholds, so false alarms are pathwise non-increasing
    and misses non-decreasing in the threshold. A false alarm is a fire with
    no hazard within one step of the true cell; a miss is hazard damage with
    no fire at that step's check.

    The schedule is never applied and only rewards are consumed, so the threat
    field and the cells within one step of a hazard are read from ``world``
    once; its copies share the field. A seed draws its actions in one call on
    its ``exploration`` stream, which feeds nothing else, its slips and
    confusions from ``rng.ScalarStream``s of its ``world`` and ``observation``
    streams (the draws of their Generators, bit for bit), and keeps the levels
    it observed away from every hazard and on damage: memory is O(steps), not
    O(seeds x steps). Bisecting those counts each threshold, comparing
    ``level > theta`` exactly (numpy would round an int to float).
    """
    if len(thresholds) < 2:
        raise ValueError("need at least two thresholds to sweep")
    field = world.threat_field(policy.decay_length)
    geo = world.geometry
    base = world.epoch * geo.n
    near = set()  # flat cells within one step of an active hazard
    for hz in world.active_hazards():
        f = world.state_id(hz.at) - base
        near.update(geo.next_flat[f])  # f itself and the cells its open moves reach
    false_alarms, misses = [0] * len(thresholds), [0] * len(thresholds)
    for seed in seeds:
        w = world.copy()
        rng_world = rngmod.ScalarStream(seed, "world")
        rng_obs = rngmod.ScalarStream(seed, "observation")
        actions = rngmod.substream(seed, "exploration").integers(len(ACTIONS), size=steps)
        quiet, hurt = [], []  # observed levels: away from every hazard; on damage
        s = w.state_id(w.start)
        for a in actions.tolist():
            level = field[observe(w, s, rng_obs) - base]
            if s - base not in near:
                quiet.append(level)
            s = step(w, s, ACTIONS[a], rng_world)[0]
            landed = w.object_at(s - base)
            if landed is not None and landed.kind == "hazard":
                hurt.append(level)
        quiet.sort()
        hurt.sort()
        for i, theta in enumerate(thresholds):
            false_alarms[i] += len(quiet) - bisect_right(quiet, theta)
            misses[i] += bisect_right(hurt, theta)
    return [{"threshold": theta, "false_alarms": fa, "misses": miss,
             "realized_cost": policy.false_alarm_cost * fa + policy.miss_cost * miss}
            for theta, fa, miss in zip(thresholds, false_alarms, misses)]


@dataclass(frozen=True)
class SelfModel:
    evaluation_window: Annotated[int, Range(1)] = 5
    standard: Annotated[float, Range()] = 0.0
    meta_rate: Annotated[float, Range(0, 1)] = 0.0
    failure_limit: Annotated[int, Range(1)] = 3
    cooldown: Annotated[int, Range(0)] = 25

    def __post_init__(self):
        check(self)


@dataclass
class SelfState:
    """The self-model's run state, kept by the agent: the standard, which
    drifts with meta_rate, and the steps of Waiting left. Waiting is
    exactly ``wait_remaining > 0``."""
    standard: float
    wait_remaining: int = 0


def self_evaluate(self_model: SelfModel, state: SelfState, episode_rewards, *, t: int = 0):
    """Compare mean reward over the last window against the standard.

    Returns the SelfEval loss site (the unscaled standard against the
    window mean) once the window is full, else None; ``suffering.events``
    decides whether it falls short under the run's self-standard scale. A
    standard scaled all the way to zero disables the evaluator: with
    nothing demanded of the self, it never fires. With meta_rate > 0 the
    standard drifts toward recent performance after each evaluation. The
    window mean is ``statistics.mean``'s, bit for bit.
    """
    if len(episode_rewards) < self_model.evaluation_window:
        return None
    window = episode_rewards[-self_model.evaluation_window:]
    try:
        ratios = [x.as_integer_ratio() for x in window]
    except (OverflowError, ValueError):  # inf or nan has no ratio
        m = mean(window)
    else:
        # statistics.mean without its Fractions: the exact sum over the common
        # power-of-two denominator, divided once by a correctly rounded int / int
        d = max(e for _, e in ratios)
        m = sum(n * (d // e) for n, e in ratios) / (d * len(ratios))
    site = LossSite(t, Source.SELF_EVAL, state.standard, m)
    if self_model.meta_rate > 0:
        state.standard = (1.0 - self_model.meta_rate) * state.standard + self_model.meta_rate * m
    return site


def depression_gate(self_model: SelfModel, state: SelfState, consecutive_failed_intentions: int):
    """Wait for a cooldown after enough consecutive failed intentions.

    While Waiting no goals are suggested; habit actions continue
    Stay-biased. Release happens on cooldown expiry or any positive
    reward (see release_depression).
    """
    if state.wait_remaining <= 0 and consecutive_failed_intentions >= self_model.failure_limit:
        state.wait_remaining = self_model.cooldown


def tick_depression(state: SelfState):
    if state.wait_remaining > 0:
        state.wait_remaining -= 1


def release_depression(state: SelfState):
    """Any positive reward ends Waiting immediately."""
    state.wait_remaining = 0
