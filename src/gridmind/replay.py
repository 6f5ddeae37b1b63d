"""Experience buffer, prioritized backward replay, and the wandering
scheduler that spends idle compute on replaying the past and simulating
the future, feeding both back into learning and into the ledger.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .suffering import LossSite, Source, Timescale
from .values import step_expectation, td_update
from .world import Action


@dataclass(frozen=True)
class Experience:
    s: int
    a: Action
    r: float
    s_next: int
    t: int
    terminal: bool = False


def experiences(s: int, a: Action, r: float, s_next: int, t: int,
                consumed: float | None = None) -> list:
    """One tick as experiences. A tick that consumes a reward of magnitude
    ``consumed`` splits into the move (r is then the move's own reward)
    and a terminal consume, so learning bootstraps nothing past the goal."""
    move = [Experience(s=s, a=a, r=r, s_next=s_next, t=t)]
    if consumed is None:
        return move
    return move + [Experience(s=s_next, a=Action.STAY, r=consumed, s_next=s_next,
                              t=t, terminal=True)]


class ReplayBuffer:
    """Ring buffer of experiences, oldest evicted first.

    An item's priority depends only on its transition ``(s, s_next, r,
    terminal)``, and a run repeats few of them: each distinct transition is
    stored once, in a key table of numpy columns, and the ring keeps each
    item's action, tick and transition key. A row's key is written at
    ``row`` and at ``row + capacity``, so ``key[head:head + len]`` lists the
    items oldest first. Items are read back as Experiences of plain Python
    values. Indices are positional, oldest first; eviction shifts them.
    Until the buffer is full the oldest item is row 0, after that row
    ``head``.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.a = np.empty(capacity, np.int8)
        self.t = np.empty(capacity, np.int64)
        # zeros, not empty: _compact renumbers rows not yet written too
        self.key = np.zeros(2 * capacity, np.int32)
        self.head = 0
        self._len = 0
        self.n_keys = 0     # rows of the key table in use
        self._key_of = {}   # (s, s_next, r, terminal, sign of r) -> key
        self._table(16)

    def _table(self, room: int, keep=None):
        """Give the key table ``room`` rows, keeping its rows in order (only
        the rows ``keep`` lists, when given)."""
        for name, dtype in (("s", np.int64), ("s_next", np.int64), ("r", np.float64),
                            ("terminal", np.bool_)):
            col = np.empty(room, dtype)
            if self.n_keys:
                old = getattr(self, name)
                col[:self.n_keys] = old[:self.n_keys] if keep is None else old[keep]
            setattr(self, name, col)

    def _new_key(self, ident) -> int:
        if self.n_keys == 2 * self.capacity:
            self._compact()
        k = self.n_keys
        if k == len(self.r):
            self._table(2 * k)
        s, s_next, r, terminal, _ = ident
        self.s[k], self.s_next[k], self.r[k], self.terminal[k] = s, s_next, r, terminal
        self._key_of[ident] = k
        self.n_keys += 1
        return k

    def _compact(self):
        """Drop the keys no item holds, renumbering the rest in order, so
        the table never outgrows twice the ring."""
        live = np.unique(self.key[self.head:self.head + self._len])
        renumber = np.zeros(self.n_keys, np.int32)
        renumber[live] = np.arange(len(live), dtype=np.int32)
        self.key = renumber[self.key]
        alive, renumbered = set(live.tolist()), renumber.tolist()
        self._key_of = {ident: renumbered[k] for ident, k in self._key_of.items()
                        if k in alive}
        self.n_keys = len(live)
        self._table(len(self.r), keep=live)

    def append(self, exp: Experience):
        row = (self.head + self._len) % self.capacity
        if self._len < self.capacity:
            self._len += 1
        else:
            self.head = (self.head + 1) % self.capacity
        # -0.0 == 0.0: the sign gives each zero reward its own key
        ident = (exp.s, exp.s_next, exp.r, exp.terminal, math.copysign(1.0, exp.r))
        k = self._key_of.get(ident)
        if k is None:
            k = self._new_key(ident)
        self.a[row], self.t[row] = exp.a, exp.t
        self.key[row] = self.key[row + self.capacity] = k

    def __len__(self):
        return self._len

    def __getitem__(self, idx) -> Experience:
        i = operator.index(idx)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("replay buffer index out of range")
        row = (self.head + i) % self.capacity
        k = self.key[row]
        return Experience(s=int(self.s[k]), a=Action(int(self.a[row])),
                          r=float(self.r[k]), s_next=int(self.s_next[k]),
                          t=int(self.t[row]), terminal=bool(self.terminal[k]))

    def __iter__(self):
        return (self[i] for i in range(self._len))


def priorities(buffer: ReplayBuffer, store, params) -> np.ndarray:
    """|TD error| of every item under the current store, oldest first: how
    much replaying it would move V.

    The same elementwise float operations, in the same order, as the scalar
    abs(r + disc * v_after - v(s)), applied once per transition key over a
    dense copy of V (state ids are non-negative ints; unseen states read
    0), then gathered into item order.
    """
    n = len(buffer)
    m = buffer.n_keys
    s, s_next = buffer.s[:m], buffer.s_next[:m]
    keys = np.fromiter(store.V.keys(), np.int64, len(store.V))
    vals = np.zeros(int(max(s.max(initial=0), s_next.max(initial=0))) + 1)
    known = keys < len(vals)
    vals[keys[known]] = np.fromiter(store.V.values(), np.float64, len(store.V))[known]
    v_after = np.where(buffer.terminal[:m], 0.0, vals[s_next])
    per_key = np.abs(buffer.r[:m] + params.disc * v_after - vals[s])
    return per_key.take(buffer.key[buffer.head:buffer.head + n])


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
    later = None
    for i in range(seed_index, max(seed_index - k, -1), -1):
        exp = buffer[i]
        if later is not None and (exp.terminal or exp.s_next != later.s):
            break
        td_update(store, exp, params, count_visit=False)
        later = exp
    return store


def priority_cdf(pri: np.ndarray) -> np.ndarray:
    """The cumulative distribution of a non-negative priority vector, built
    as ``Generator.choice(len(pri), p=pri / total)`` builds it (linear
    normalization, no softmax), so ``sample_from`` draws the very index
    ``choice`` would. All zeros when every priority is zero."""
    total = pri.sum()
    if total <= 0.0:
        return np.zeros(len(pri))
    if not np.isfinite(total):
        raise ValueError("priorities must have a finite sum")
    cdf = pri / total
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def sample_from(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn proportionally to priority from a ``priority_cdf``, by one
    double; uniform when all priorities are zero (the all-zero CDF)."""
    if cdf[-1] <= 0.0:
        return int(rng.integers(len(cdf)))
    return int(cdf.searchsorted(rng.random(), side="right"))


# The most items one wandering tick replays or imagines, so a typo cannot
# stall a run: every gated step loops batch_size times, each item up to a
# rollout with a plan search.
MAX_BATCH_SIZE = 1000


@dataclass(frozen=True)
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
        for name in ("batch_size", "rollout_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValueError(f"batch_size must be at most {MAX_BATCH_SIZE}")


def wandering_step(agent, t: int) -> list:
    """Tick t of the wandering scheduler.

    The first draw of the step's wandering stream gates the whole batch
    against the agent's p_wander (``interventions.apply``), so runs that
    differ only in p_wander wander on nested step sets. It is read from the agent's table of first draws
    (``agent.wander_gate``); the stream's Generator is built only on a step
    that passes. Replay items are drawn proportionally to priority; the
    remainder are simulated rollouts from the current state. Negative
    items are returned as loss sites, which the ledger scores with
    attention scaled by realness; positive ones only count.
    """
    if agent.wander_gate[t] >= agent.p_wander:
        return []
    rng = rngmod.per_step(agent.seed, "wandering", t)
    rng.random()  # the gate draw, read above from the table
    sites = []
    cdf = None  # sampling distribution computed once per batch
    wp = agent.wandering
    for _ in range(wp.batch_size):
        if len(agent.buffer) > 0 and rng.random() < wp.mode_mix:
            if cdf is None:
                cdf = priority_cdf(priorities(agent.buffer, agent.store, agent.learning))
            sites.extend(_replay_item(agent, rng, cdf))
        else:
            sites.extend(_imagine_rollout(agent, rng))
    return sites


def _wander_site(agent, exp: Experience, source: Source):
    raw_expected = step_expectation(agent.store, exp.s, exp.s_next, exp.terminal,
                                    agent.learning.disc)
    if raw_expected - exp.r > 0.0:
        return [LossSite(agent.t, source, Timescale.STEP, raw_expected, exp.r)]
    agent.positive_wanderings += 1
    return []


def _replay_item(agent, rng, cdf):
    idx = sample_from(cdf, rng)
    exp = agent.buffer[idx]
    sites = _wander_site(agent, exp, Source.REPLAYED)
    td_update(agent.store, exp, agent.learning, count_visit=False)
    return sites


def _imagine_rollout(agent, rng):
    """Simulate a short future with the known model; never touches the world.

    Imagined experiences are built like real ones (``experiences``), so
    Dyna updates and real updates pull the value function toward the same
    fixed point.
    """
    from .planning import PlanSearchParams, plan_search, suggest_goals
    from .values import epsilon_greedy

    world = agent.world
    geo = world.geometry
    s = agent.s_true
    plan = None
    goals = suggest_goals(world, agent.store, s, reach=agent.wandering.rollout_depth,
                          threshold=agent.goal_threshold, t=agent.t)
    if goals:
        search = PlanSearchParams(
            max_depth=agent.wandering.rollout_depth,
            branching_cap=agent.plan_params.branching_cap,
            heuristic_weight=agent.plan_params.heuristic_weight,
        )
        plan = plan_search(world, s, goals[0], agent.store, search)
    sites = []
    sim_s = s
    for depth in range(agent.wandering.rollout_depth):
        if plan and depth < len(plan):
            a = plan[depth]
        else:
            a = epsilon_greedy(agent.store, sim_s, agent.learning, rng)
        flat = world.flat_of(sim_s)
        landed = geo.next_flat[flat][a]
        landed_sid = sim_s - flat + landed
        obj = world.object_at(geo.cells[landed])
        consuming = obj is not None and obj.kind == "reward" and obj.consumable
        if consuming:
            imagined = experiences(sim_s, a, -world.step_cost, landed_sid, agent.t,
                                   consumed=obj.magnitude)
        else:
            r = -world.step_cost + (obj.signed_magnitude() if obj is not None else 0.0)
            imagined = experiences(sim_s, a, r, landed_sid, agent.t)
        for exp in imagined:
            sites.extend(_wander_site(agent, exp, Source.IMAGINED))
            td_update(agent.store, exp, agent.learning, count_visit=False)
        if consuming:
            break
        sim_s = landed_sid
    return sites
