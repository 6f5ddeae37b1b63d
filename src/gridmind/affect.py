"""Interrupt machinery, self-evaluation, and the depression gate.

Threat detection runs on the observed (possibly corrupted) state, so
false alarms and misses arise naturally from the channel; no threshold
setting removes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import mean
from typing import Annotated

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


@dataclass(frozen=True)
class Interrupt:
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
    """
    level = threat_level(agent.world, s, policy)
    if level > policy.threat_threshold:
        return Interrupt(InterruptKind.THREAT, {"threat_level": level})
    intention = getattr(agent, "intention", None)
    if intention is not None and not intention.terminal:
        for goal in suggest_goals(agent.world, agent.store, s,
                                  reach=agent.goal_reach,
                                  threshold=policy.desire_threshold):
            if goal.target != intention.goal.target:
                return Interrupt(InterruptKind.DESIRE, {"candidate": goal})
    return None


def threat_site(t: int, level: float, policy: InterruptPolicy) -> LossSite:
    """The internal reward of a threat interrupt as a loss site: expected 0
    (plus the optional per-interrupt cost), obtained -level."""
    return LossSite(t, Source.THREAT_INTERNAL, policy.interrupt_cost, -level)


def sweep_threshold(worlds, thresholds, policy: InterruptPolicy, seeds, *,
                    steps: int = 300) -> list:
    """Signal-detection table over detector thresholds.

    Each (world, seed) episode is a uniform-random walk, identical across
    thresholds, so false alarms are pathwise non-increasing and misses
    non-decreasing in the threshold. A false alarm is a fire with no
    hazard within one step of the true cell; a miss is hazard damage with
    no fire at that step's check.
    """
    if len(thresholds) < 2:
        raise ValueError("need at least two thresholds to sweep")
    if isinstance(worlds, WorldModel):
        worlds = [worlds]

    # One trajectory per (world, seed): (threat_level_observed, adjacent_true, damage)
    traces = []
    for world in worlds:
        for seed in seeds:
            w = world.copy()
            rng_world = rngmod.substream(seed, "world")
            rng_obs = rngmod.substream(seed, "observation")
            rng_act = rngmod.substream(seed, "exploration")
            s = w.state_id(w.start)
            rows = []
            for _ in range(steps):
                level = threat_level(w, observe(w, s, rng_obs), policy)
                cell = w.cell_of(s)
                adjacent = any(
                    abs(hz.at[0] - cell[0]) + abs(hz.at[1] - cell[1]) <= 1
                    for hz in w.active_hazards()
                )
                act = ACTIONS[int(rng_act.integers(len(ACTIONS)))]
                s_next, reward, _ = step(w, s, act, rng_world)
                damaged = w.object_at(w.cell_of(s_next)) is not None and \
                    w.object_at(w.cell_of(s_next)).kind == "hazard"
                rows.append((level, adjacent, damaged))
                s = s_next
            traces.append(rows)

    table = []
    for theta in thresholds:
        fa = misses = 0
        for rows in traces:
            for level, adjacent, damaged in rows:
                fired = level > theta
                if fired and not adjacent:
                    fa += 1
                if damaged and not fired:
                    misses += 1
        cost = policy.false_alarm_cost * fa + policy.miss_cost * misses
        table.append({"threshold": theta, "false_alarms": fa,
                      "misses": misses, "realized_cost": cost})
    return table


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
    standard drifts toward recent performance after each evaluation.
    """
    if len(episode_rewards) < self_model.evaluation_window:
        return None
    m = mean(episode_rewards[-self_model.evaluation_window:])
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
