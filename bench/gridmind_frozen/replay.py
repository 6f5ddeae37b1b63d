"""Experience buffer, prioritized backward replay, and the wandering
scheduler that spends idle compute on replaying the past and simulating
the future, feeding both back into learning and into the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .suffering import Source, Timescale, make_event
from .values import td_error, td_update
from .world import Action


@dataclass(frozen=True)
class Experience:
    s: int
    a: Action
    r: float
    s_next: int
    t: int
    terminal: bool = False


class ReplayBuffer:
    """Ring buffer of experiences, oldest evicted first.

    Indices are positional in the current buffer; eviction shifts them.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Experience] = []

    def append(self, exp: Experience):
        self._items.append(exp)
        if len(self._items) > self.capacity:
            del self._items[0]

    def __len__(self):
        return len(self._items)

    def __getitem__(self, idx):
        return self._items[idx]

    def __iter__(self):
        return iter(self._items)


def priority(exp: Experience, store, params) -> float:
    """|TD error| under the current store: how much replaying would move V."""
    v_after = 0.0 if exp.terminal else store.v(exp.s_next)
    return abs(td_error(exp.r, store.v(exp.s), v_after, params))


def priorities(buffer: ReplayBuffer, store, params) -> np.ndarray:
    """Priority vector for the whole buffer in one pass."""
    disc = params.disc
    V = store.V
    out = np.empty(len(buffer))
    for i, e in enumerate(buffer._items):
        v_after = 0.0 if e.terminal else V.get(e.s_next, 0.0)
        out[i] = abs(e.r + disc * v_after - V.get(e.s, 0.0))
    return out


def backward_sweep(buffer: ReplayBuffer, seed_index: int, k: int, store, params):
    """Replay up to k experiences ending at seed_index in reverse order.

    Stays within one trajectory: the walk stops at an episode boundary
    (previous experience terminal, or a break in the state chain) and
    truncates silently when the trajectory is shorter than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= seed_index < len(buffer):
        raise IndexError("seed_index not in buffer")
    i = seed_index
    done = 0
    while True:
        td_update(store, buffer[i], params, count_visit=False)
        done += 1
        if done >= k or i == 0:
            break
        prev = buffer[i - 1]
        if prev.terminal or prev.s_next != buffer[i].s:
            break
        i -= 1
    return store


def sample_from(pri: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn proportionally to the priority vector; uniform when all
    priorities are zero (linear normalization, no softmax)."""
    total = pri.sum()
    if total <= 0.0:
        return int(rng.integers(len(pri)))
    return int(rng.choice(len(pri), p=pri / total))


def sample_index(buffer: ReplayBuffer, store, params, rng: np.random.Generator) -> int:
    """Draw a buffer index with probability proportional to priority."""
    return sample_from(priorities(buffer, store, params), rng)


@dataclass
class WanderingParams:
    p_wander: float = 0.2
    batch_size: int = 4
    mode_mix: float = 0.7   # share of replay items; the rest are simulated
    realness: float = 0.5   # how seriously simulated content is taken
    rollout_depth: int = 4

    def __post_init__(self):
        for name in ("p_wander", "mode_mix", "realness"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.batch_size < 1 or self.rollout_depth < 1:
            raise ValueError("batch_size and rollout_depth must be positive")


def wandering_step(agent, rng: np.random.Generator) -> list:
    """One tick of the wandering scheduler.

    The first draw gates the whole batch against p_wander, so runs that
    differ only in p_wander wander on nested step sets. Replay items are
    drawn proportionally to priority; the remainder are simulated
    rollouts from the current state. Negative items score ledger events
    whose attention is scaled by realness; positive ones only count.
    """
    wp = agent.wandering
    if rng.random() >= wp.p_wander:
        return []
    events = []
    pri = None  # priority vector computed once per batch
    for _ in range(wp.batch_size):
        if len(agent.buffer) > 0 and rng.random() < wp.mode_mix:
            if pri is None or len(pri) != len(agent.buffer):
                pri = priorities(agent.buffer, agent.store, agent.learning)
            events.extend(_replay_item(agent, rng, pri))
        else:
            events.extend(_imagine_rollout(agent, rng))
    return events


def _step_expectation(agent, exp: Experience) -> float:
    v_after = 0.0 if exp.terminal else agent.store.v(exp.s_next)
    return agent.store.v(exp.s) - agent.learning.disc * v_after


def _wander_event(agent, exp: Experience, source: Source):
    raw_expected = _step_expectation(agent, exp)
    loss = raw_expected - exp.r
    if loss > 0.0:
        ev = make_event(
            t=agent.t, source=source, timescale=Timescale.STEP,
            expected=agent.scale_expectation(raw_expected), obtained=exp.r,
            certainty=agent.certainty_factor,
            attention=agent.attention_factor * agent.wandering.realness,
        )
        return [ev]
    agent.positive_wanderings += 1
    return []


def _replay_item(agent, rng, pri):
    idx = sample_from(pri, rng)
    exp = agent.buffer[idx]
    events = _wander_event(agent, exp, Source.REPLAYED)
    agent.sim_tally[exp.t] = agent.sim_tally.get(exp.t, 0) + 1
    td_update(agent.store, exp, agent.learning, count_visit=False)
    return events


def _imagine_rollout(agent, rng):
    """Simulate a short future with the known model; never touches the world.

    Imagined experiences use the same shape as real ones (a consuming move
    splits into a move and a terminal consume), so Dyna updates and real
    updates pull the value function toward the same fixed point.
    """
    from .planning import PlanSearchParams, plan_search, suggest_goals
    from .values import epsilon_greedy

    world = agent.world
    s = agent.s_true
    plan = None
    threshold = agent.suggestion_threshold()
    goals = [] if threshold is None else suggest_goals(
        world, agent.store, s, reach=agent.wandering.rollout_depth,
        threshold=threshold, t=agent.t)
    if goals:
        search = PlanSearchParams(
            max_depth=agent.wandering.rollout_depth,
            branching_cap=agent.plan_params.branching_cap,
            heuristic_weight=agent.plan_params.heuristic_weight,
        )
        plan = plan_search(world, s, goals[0], agent.store, search)
    events = []
    sim_s = s
    for depth in range(agent.wandering.rollout_depth):
        if plan and depth < len(plan):
            a = plan[depth]
        else:
            a = epsilon_greedy(agent.store, sim_s, agent.learning, rng)
        cell = world.cell_of(sim_s)
        landed = world.intended_next(cell, a)
        landed_sid = world.state_id(landed)
        obj = world.object_at(landed)
        consuming = obj is not None and obj.kind == "reward" and obj.consumable
        if consuming:
            imagined = [
                Experience(s=sim_s, a=a, r=-world.step_cost, s_next=landed_sid,
                           t=agent.t),
                Experience(s=landed_sid, a=Action.STAY, r=obj.magnitude,
                           s_next=landed_sid, t=agent.t, terminal=True),
            ]
        else:
            r = -world.step_cost + (obj.signed_magnitude() if obj is not None else 0.0)
            imagined = [Experience(s=sim_s, a=a, r=r, s_next=landed_sid, t=agent.t)]
        for exp in imagined:
            events.extend(_wander_event(agent, exp, Source.IMAGINED))
            td_update(agent.store, exp, agent.learning, count_visit=False)
        if consuming:
            break
        sim_s = landed_sid
    return events
