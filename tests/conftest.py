import heapq
import math

import numpy as np
import pytest

from gridmind import rng as rngmod
from gridmind.affect import threat_level
from gridmind.suffering import TIMESCALE, Source, Terms, events, make_event
from gridmind.values import ValueStore
from gridmind.world import ACTIONS, MOVES, WorldModel, WorldObject, observe, step


def make_world(width=4, height=4, walls=(), objects=None, **kw):
    return WorldModel(width=width, height=height, walls=frozenset(walls),
                      objects=objects or {}, **kw)


def reward(oid, magnitude, at, consumable=True):
    return WorldObject(oid, "reward", magnitude, consumable, at)


def hazard(oid, magnitude, at):
    return WorldObject(oid, "hazard", magnitude, False, at)


def cell_at(world, flat) -> tuple:
    """The (x, y) cell of a flat cell ``y * width + x``."""
    y, x = divmod(flat, world.width)
    return x, y


def flat_at(world, cell) -> int:
    """The flat cell ``y * width + x`` of an (x, y) cell."""
    x, y = cell
    return y * world.width + x


def cell_of(world, s) -> tuple:
    """The (x, y) cell of state ``s``, which must be of the world's epoch."""
    return cell_at(world, world.flat_of(s))


def all_cells(world) -> list:
    """Every (x, y) cell of the grid, walls included, in flat order."""
    return [cell_at(world, f) for f in range(world.geometry.n)]


def intended_next(world, cell, action):
    """Where the intended move lands, from the world's geometry table."""
    return cell_at(world, world.geometry.next_flat[world.flat_of(world.state_id(cell))][action])


def neighbor_cells(world, cell):
    """The cells one move away, in N, E, S, W order, from the geometry table."""
    geo, f = world.geometry, world.flat_of(world.state_id(cell))
    return [cell_at(world, geo.next_flat[f][a]) for a in geo.moves[f]]


def ref_threat_field(world, decay_length) -> tuple:
    """The threat field one cell and one hazard at a time: the reference
    ``WorldModel.threat_field`` is checked against."""
    hazards = world.active_hazards()
    out = []
    for x, y in all_cells(world):
        level = 0.0
        for hz in hazards:
            d = abs(hz.at[0] - x) + abs(hz.at[1] - y)
            level += hz.magnitude * math.exp(-d / decay_length)
        out.append(level)
    return tuple(out)


def store_from(V=None, Q=None, actions=ACTIONS, **kw) -> ValueStore:
    """A store that reads ``V`` (``s -> v``) and the ``(s, a) -> q`` table
    ``Q`` through ``v`` and ``q``, every other entry 0.0. Each call builds
    its own rows, so two stores made from one table never share a list."""
    store = ValueStore(V=dict(V or {}), actions=actions, **kw)
    for (s, a), q in (Q or {}).items():
        store.Q.setdefault(s, [0.0] * len(actions))[actions.index(a)] = q
    return store


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def run_events(agent) -> list:
    """The events of an agent's run: its loss sites scored under its terms."""
    return list(events(agent.sites, agent.terms))


def typed(evs) -> list:
    """Each event field with its type, so that 1 and 1.0 differ."""
    return [tuple((type(x), x) for x in ev) for ev in evs]


def ref_plan_search(model, s, goal, store, params, stats=None):
    """The planner's state-keyed search, one ``flat_of`` per expansion and
    children sorted by a key over ``store.v``: the reference
    ``planning.plan_search`` is checked against. Best-first search for a
    path to goal.target; None when the budget runs out. Returns the action
    list (possibly empty when s is the target)."""
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
                return _ref_reconstruct(parent, nxt)
            counter += 1
            heapq.heappush(heap, (-w * store.v(nxt), counter, nxt, depth + 1))
    if stats is not None:
        stats["expansions"] = expansions
    return None


def _ref_reconstruct(parent: dict, state: int) -> list:
    actions = []
    while parent[state] is not None:
        prev, a = parent[state]
        actions.append(a)
        state = prev
    actions.reverse()
    return actions


# The scoring rules, restated one site at a time: the reference the column
# pass of ``suffering`` is checked against.
ANTICIPATED = {Source.STEP_LOSS, Source.PLAN_LOSS, Source.REPLAYED, Source.IMAGINED}
WANDER = {Source.REPLAYED, Source.IMAGINED}


def score(site, terms: Terms) -> list:
    """The 0-2 events a site ``(t, source, expected, obtained)`` yields
    under ``terms``: the event itself (a SelfEval site only when the scaled
    standard falls short), then its MetaAversion child when that stream is
    on and the event hurt."""
    t, source, expected, obtained = site
    if source is Source.SELF_EVAL:
        expected = expected * terms.standard_scale
        if expected == 0.0 or expected - obtained <= 0:
            return []
    elif source in ANTICIPATED and expected > 0:
        expected = terms.expectation_scale * expected
    attention = terms.attention
    if source in WANDER:
        attention = attention * terms.realness
    timescale = TIMESCALE[source]
    event = make_event(t=t, source=source, timescale=timescale,
                       expected=expected, obtained=obtained,
                       certainty=terms.certainty, attention=attention)
    if not (terms.meta_aversion and event.frustration > 0):
        return [event]
    return [event, make_event(
        t=t, source=Source.META_AVERSION, timescale=timescale,
        expected=terms.meta_aversion_scale * event.frustration, obtained=0.0,
        certainty=1.0, attention=terms.attention)]


def scored(sites, terms: Terms) -> list:
    """The reference events of these sites under ``terms``, in order."""
    return [ev for site in sites for ev in score(site, terms)]


def ref_sweep_threshold(world, thresholds, policy, seeds, *, steps=300) -> list:
    """The threshold sweep one step and one row at a time: the reference
    ``affect.sweep_threshold`` is checked against. Every step reads the
    threat level, scans the hazards and draws its own action; every
    ``(seed, step)`` row is kept, then scanned once per threshold."""
    if len(thresholds) < 2:
        raise ValueError("need at least two thresholds to sweep")

    # One row per (seed, step): (threat_level_observed, adjacent_true, damage)
    rows = []
    for seed in seeds:
        w = world.copy()
        rng_world = rngmod.substream(seed, "world")
        rng_obs = rngmod.substream(seed, "observation")
        rng_act = rngmod.substream(seed, "exploration")
        s = w.state_id(w.start)
        for _ in range(steps):
            level = threat_level(w, observe(w, s, rng_obs), policy)
            cell = cell_of(w, s)
            adjacent = any(abs(hz.at[0] - cell[0]) + abs(hz.at[1] - cell[1]) <= 1
                           for hz in w.active_hazards())
            act = ACTIONS[int(rng_act.integers(len(ACTIONS)))]
            s_next, _, _ = step(w, s, act, rng_world)
            landed = w.object_at(w.flat_of(s_next))
            rows.append((level, adjacent, landed is not None and landed.kind == "hazard"))
            s = s_next

    table = []
    for theta in thresholds:
        fa = misses = 0
        for level, adjacent, damaged in rows:
            fired = level > theta
            if fired and not adjacent:
                fa += 1
            if damaged and not fired:
                misses += 1
        table.append({"threshold": theta, "false_alarms": fa, "misses": misses,
                      "realized_cost": policy.false_alarm_cost * fa + policy.miss_cost * misses})
    return table
