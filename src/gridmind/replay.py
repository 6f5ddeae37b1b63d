"""Experience buffer, prioritized backward replay, and the wandering
scheduler that spends idle compute on replaying the past and simulating
the future, feeding both back into learning and into the ledger.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Annotated, NamedTuple

import numpy as np

from .inputs import Range, check
from .planning import plan_search, suggest_goals
from .suffering import LossSite, Source
from .values import epsilon_greedy, step_expectation, td_update
from .world import ACTIONS, Action


class Experience(NamedTuple):
    """One transition. A tuple, since one is built for every step and every
    wander item."""

    s: int
    a: Action
    r: float
    s_next: int
    terminal: bool = False


def experiences(s: int, a: Action, r: float, s_next: int,
                consumed: float | None = None) -> list:
    """One tick as experiences. A tick that consumes a reward of magnitude
    ``consumed`` splits into the move (r is then the move's own reward)
    and a terminal consume, so learning bootstraps nothing past the goal."""
    move = [tuple.__new__(Experience, (s, a, r, s_next, False))]
    if consumed is None:
        return move
    return move + [tuple.__new__(Experience, (s_next, Action.STAY, consumed, s_next, True))]


class ReplayBuffer:
    """Ring buffer of experiences, oldest evicted first.

    An item's priority depends only on its transition ``(s, s_next, r,
    terminal)``, and a run repeats few of them: each distinct transition is
    stored once, as its ident ``(s, s_next, r, terminal, sign of r)`` at
    its key in ``idents``, and the ring keeps each item's action and key.
    Growable columns give each key's ``r`` and the ordinals of its ``s``
    and, unless terminal (-1), its ``s_next`` in ``states``, which maps each
    state the keys read V at to its ordinal, in ordinal order. A row's key
    is written at ``row`` and at ``row + capacity``, so ``key[head:head +
    len]`` lists the items oldest first. Items read back as their ident's
    values. Indices are positional, oldest first; eviction shifts them.
    Until the buffer is full the oldest item is row 0, after that row
    ``head``.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.a = np.empty(capacity, np.int8)
        # zeros, not empty: _compact renumbers rows not yet written too
        self.key = np.zeros(2 * capacity, np.intp)
        self.head = 0
        self._len = 0
        self._empty_keys()

    def _empty_keys(self):
        self.idents = []    # key -> (s, s_next, r, terminal, sign of r)
        self._key_of = {}   # ident -> key
        self.states = {}
        self.r, self.s_ord, self.after_ord = array("d"), array("q"), array("q")

    def _new_key(self, ident) -> int:
        if len(self.idents) == 2 * self.capacity:
            self._compact()
        k = self._key_of[ident] = len(self.idents)
        self.idents.append(ident)
        s, s_next, r, terminal, _ = ident
        self.r.append(r)
        self.s_ord.append(self.states.setdefault(s, len(self.states)))
        self.after_ord.append(-1 if terminal else self.states.setdefault(s_next, len(self.states)))
        return k

    def _compact(self):
        """Drop the keys no item holds, and the states no key reads, so the
        table never outgrows twice the ring: the live keys are entered
        again in order, as their ranks."""
        live = np.unique(self.key[self.head:self.head + self._len])
        renumber = np.zeros(len(self.idents), np.intp)
        renumber[live] = np.arange(len(live))
        self.key = renumber[self.key]
        kept = [self.idents[k] for k in live.tolist()]
        self._empty_keys()
        for ident in kept:
            self._new_key(ident)

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
        self.a[row] = exp.a
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
        s, s_next, r, terminal, _ = self.idents[self.key[row]]
        return tuple.__new__(Experience, (s, ACTIONS[self.a[row]], r, s_next, terminal))

    def __iter__(self):
        return (self[i] for i in range(self._len))


def priorities(buffer: ReplayBuffer, store, params) -> np.ndarray:
    """|TD error| of every item under the current store, oldest first: how
    much replaying it would move V.

    The same elementwise float operations, in the same order, as the scalar
    abs(r + disc * v_after - v(s)), applied once per transition key, then
    gathered into item order. V is looked up once per distinct key state
    (unseen states read 0), so the cost follows the key table, not the size
    of the state ids, which grow with every relocation epoch; a terminal
    key's ordinal -1 reads the trailing 0.0. The key columns are read
    through views that end with the call, since an ``array`` that exports
    its buffer cannot grow.
    """
    states = buffer.states
    vals = np.fromiter(chain(map(store.V.get, states, repeat(0.0)), (0.0,)), np.float64,
                       len(states) + 1)
    per_key = np.abs(np.frombuffer(buffer.r)
                     + params.disc * vals[np.frombuffer(buffer.after_ord, np.int64)]
                     - vals[np.frombuffer(buffer.s_ord, np.int64)])
    return per_key.take(buffer.key[buffer.head:buffer.head + len(buffer)])


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
    """The running sums ``cumsum(pri / total)`` of a non-negative priority
    vector: the CDF ``Generator.choice(len(pri), p=pri / total)`` builds
    (linear normalization, no softmax) before it divides by the last sum,
    which ``sample_from`` does only where it draws. All zeros when every
    priority is zero."""
    total = float(pri.sum())
    if total <= 0.0:
        return np.zeros(len(pri))
    if not math.isfinite(total):
        raise ValueError("priorities must have a finite sum")
    cdf = pri / total
    np.cumsum(cdf, out=cdf)
    return cdf


def sample_from(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn proportionally to priority from a ``priority_cdf``, by one
    double; uniform when all priorities are zero (the all-zero CDF). It is
    the index ``choice`` draws, the first i with ``cdf[i] / last > u``: a
    correctly rounded division by ``last > 0`` keeps order, so the test is
    monotone in i and a step or two from ``searchsorted(u * last)``."""
    last = float(cdf[-1])
    if last <= 0.0:
        return int(rng.integers(len(cdf)))
    u = rng.random()
    i = int(cdf.searchsorted(u * last, side="right"))
    while i > 0 and cdf[i - 1] / last > u:
        i -= 1
    while not cdf[i] / last > u:  # cdf[-1] / last is 1.0 > u: stops in range
        i += 1
    return i


# The most items one wandering tick replays or imagines, and the most steps
# one imagined rollout takes, so a typo cannot stall a run: every gated step
# loops batch_size times, each item up to a rollout with a plan search, and
# a rollout steps until it consumes a reward, which a world may not have.
MAX_BATCH_SIZE = MAX_ROLLOUT_DEPTH = 1000


@dataclass(frozen=True)
class WanderingParams:
    p_wander: Annotated[float, Range(0, 1)] = 0.2
    batch_size: Annotated[int, Range(1, MAX_BATCH_SIZE)] = 4
    mode_mix: Annotated[float, Range(0, 1)] = 0.7  # share of replay items; the rest are simulated
    realness: Annotated[float, Range(0, 1)] = 0.5  # how seriously simulated content is taken
    rollout_depth: Annotated[int, Range(1, MAX_ROLLOUT_DEPTH)] = 4

    def __post_init__(self):
        check(self)


def wandering_step(agent, t: int) -> list:
    """Tick t of the wandering scheduler.

    The first draw of the step's wandering stream gates the whole batch
    against the agent's p_wander (``interventions.apply``), so runs that
    differ only in p_wander wander on nested step sets. It is read from the
    agent's table of first draws (``agent.wander_gate``); only a step that
    passes takes the rest of its stream, a Generator the table loads with
    the step's state after that draw. Replay items are drawn proportionally
    to priority; the remainder are simulated rollouts from the current
    state. Negative items are returned as loss sites, which the ledger
    scores with attention scaled by realness; positive ones only count.
    """
    if agent.wander_gate[t] >= agent.p_wander:
        return []
    rng = agent.wander_gate.generator(t)
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
        return [tuple.__new__(LossSite, (agent.t, source, raw_expected, exp.r))]
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

    Imagined experiences are built like real ones (``experiences``), but a
    reward may differ in its last bits: a real move onto a consumed reward
    carries ``(-step_cost + m) - m``, an imagined one ``-step_cost``, and at
    step_cost 0 an empty cell gives a real ``-0.0`` but an imagined ``0.0``.
    """
    world = agent.world
    geo = world.geometry
    s = agent.s_true
    plan = None
    goals = suggest_goals(world, agent.store, s, reach=agent.wandering.rollout_depth,
                          threshold=agent.goal_threshold)
    if goals:
        plan = plan_search(world, s, goals[0], agent.store, agent.rollout_search)
    sites = []
    sim_s = s
    flat = world.flat_of(s)  # once: a rollout never leaves s's epoch
    for depth in range(agent.wandering.rollout_depth):
        if plan and depth < len(plan):
            a = plan[depth]
        else:
            a = epsilon_greedy(agent.store, sim_s, agent.learning, rng)
        landed = geo.next_flat[flat][a]
        landed_sid = sim_s - flat + landed
        obj = world.object_at(landed)
        consuming = obj is not None and obj.consumable
        if consuming:
            imagined = experiences(sim_s, a, -world.step_cost, landed_sid, consumed=obj.magnitude)
        else:
            r = -world.step_cost + (obj.signed_magnitude() if obj is not None else 0.0)
            imagined = experiences(sim_s, a, r, landed_sid)
        for exp in imagined:
            sites.extend(_wander_site(agent, exp, Source.IMAGINED))
            td_update(agent.store, exp, agent.learning, count_visit=False)
        if consuming:
            break
        sim_s, flat = landed_sid, landed
    return sites
