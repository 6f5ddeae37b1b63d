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

from .suffering import Source, Timescale, make_event
from .world import WorldModel


@dataclass
class InterruptPolicy:
    threat_threshold: float = math.inf
    desire_threshold: float = 0.8
    miss_cost: float = 1.0
    false_alarm_cost: float = 0.1
    decay_length: float = 1.0
    interrupt_cost: float = 0.0  # optional extra charge per threat interrupt

    def __post_init__(self):
        if self.threat_threshold < 0 or self.miss_cost < 0 or self.false_alarm_cost < 0:
            raise ValueError("thresholds and costs must be >= 0")
        if self.decay_length <= 0:
            raise ValueError("decay_length must be > 0")
        if self.interrupt_cost < 0:
            raise ValueError("interrupt_cost must be >= 0")


class InterruptKind(Enum):
    THREAT = "Threat"
    DESIRE = "Desire"


@dataclass(frozen=True)
class Interrupt:
    kind: InterruptKind
    payload: dict


def threat_level(world: WorldModel, s: int, policy: InterruptPolicy) -> float:
    """Hazard potential field: sum of magnitude * exp(-d / decay_length)
    over active hazards, d the Manhattan distance."""
    x, y = world.cell_of(s)
    level = 0.0
    for hz in world.active_hazards():
        d = abs(hz.at[0] - x) + abs(hz.at[1] - y)
        level += hz.magnitude * math.exp(-d / policy.decay_length)
    return level


def check_interrupts(agent, s: int, observation, policy: InterruptPolicy):
    """Detect an interrupt for this step; Threat outranks Desire.

    Threat fires when the observed state's hazard field exceeds the
    threshold. Desire fires only while an intention is Active, when some
    non-goal state within reach looks better than the desire threshold.
    The caller applies the effects (abort + internal reward).
    """
    level = threat_level(agent.world, observation.reported_state, policy)
    if level > policy.threat_threshold:
        return Interrupt(InterruptKind.THREAT, {"threat_level": level})
    intention = getattr(agent, "intention", None)
    if intention is not None and not intention.terminal:
        from .planning import suggest_goals

        for goal in suggest_goals(agent.world, agent.store, s,
                                  reach=agent.goal_reach,
                                  threshold=policy.desire_threshold, t=agent.t):
            if goal.target != intention.goal.target:
                return Interrupt(InterruptKind.DESIRE, {"candidate": goal})
    return None


def threat_event(t: int, level: float, policy: InterruptPolicy, *,
                 certainty: float, attention: float):
    """The internal reward of a threat interrupt as a ledger event:
    expected 0 (plus the optional per-interrupt cost), obtained -level."""
    return make_event(t=t, source=Source.THREAT_INTERNAL, timescale=Timescale.STEP,
                      expected=policy.interrupt_cost, obtained=-level,
                      certainty=certainty, attention=attention)


def sweep_threshold(worlds, thresholds, policy: InterruptPolicy, seeds, *,
                    steps: int = 300) -> list:
    """Signal-detection table over detector thresholds.

    Each (world, seed) episode is a uniform-random walk, identical across
    thresholds, so false alarms are pathwise non-increasing and misses
    non-decreasing in the threshold. A false alarm is a fire with no
    hazard within one step of the true cell; a miss is hazard damage with
    no fire at that step's check.
    """
    from . import rng as rngmod
    from .world import ACTIONS, observe, step

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
                obs = observe(w, s, rng_obs)
                level = threat_level(w, obs.reported_state, policy)
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


class SelfMode(Enum):
    ACTIVE = "Active"
    WAITING = "Waiting"


@dataclass
class SelfModel:
    evaluation_window: int = 5
    standard: float = 0.0
    meta_rate: float = 0.0
    failure_limit: int = 3
    mode: SelfMode = SelfMode.ACTIVE
    cooldown: int = 25
    wait_remaining: int = 0

    def __post_init__(self):
        if self.evaluation_window < 1:
            raise ValueError("evaluation_window must be positive")
        if not 0.0 <= self.meta_rate <= 1.0:
            raise ValueError("meta_rate must be in [0, 1]")
        if self.failure_limit < 1:
            raise ValueError("failure_limit must be positive")


def self_evaluate(self_model: SelfModel, episode_rewards, *, t: int = 0,
                  certainty: float = 1.0, attention: float = 1.0,
                  standard_scale: float = 1.0):
    """Compare mean reward over the last window against the standard.

    Returns a SelfEval-timescale event when the shortfall is positive,
    else None. A standard scaled all the way to zero disables the
    evaluator: with nothing demanded of the self, it never fires. With
    meta_rate > 0 the standard drifts toward recent performance after
    each evaluation.
    """
    if len(episode_rewards) < self_model.evaluation_window:
        return None
    window = episode_rewards[-self_model.evaluation_window:]
    m = mean(window)
    effective = self_model.standard * standard_scale
    if self_model.meta_rate > 0:
        self_model.standard = ((1.0 - self_model.meta_rate) * self_model.standard
                               + self_model.meta_rate * m)
    if effective == 0.0:
        return None
    loss = effective - m
    if loss <= 0:
        return None
    return make_event(t=t, source=Source.SELF_EVAL, timescale=Timescale.SELF_EVAL,
                      expected=effective, obtained=m,
                      certainty=certainty, attention=attention)


def depression_gate(self_model: SelfModel, consecutive_failed_intentions: int) -> SelfModel:
    """Enter Waiting after enough consecutive failed intentions.

    While Waiting no goals are suggested for a cooldown; habit actions
    continue Stay-biased. Release happens on cooldown expiry or any
    positive reward (see release_depression).
    """
    if (self_model.mode is SelfMode.ACTIVE
            and consecutive_failed_intentions >= self_model.failure_limit):
        self_model.mode = SelfMode.WAITING
        self_model.wait_remaining = self_model.cooldown
    return self_model


def tick_depression(self_model: SelfModel) -> SelfModel:
    if self_model.mode is SelfMode.WAITING:
        self_model.wait_remaining -= 1
        if self_model.wait_remaining <= 0:
            self_model.mode = SelfMode.ACTIVE
    return self_model


def release_depression(self_model: SelfModel) -> SelfModel:
    """Any positive reward ends Waiting immediately."""
    self_model.mode = SelfMode.ACTIVE
    self_model.wait_remaining = 0
    return self_model
