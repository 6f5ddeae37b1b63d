import math

import numpy as np
import pytest

from gridmind import rng as rngmod
from gridmind.affect import threat_level
from gridmind.suffering import TIMESCALE, Source, Terms, events, make_event
from gridmind.values import ValueStore
from gridmind.world import ACTIONS, WorldModel, WorldObject, observe, step


def make_world(width=4, height=4, walls=(), objects=None, **kw):
    return WorldModel(width=width, height=height, walls=frozenset(walls),
                      objects=objects or {}, **kw)


def reward(oid, magnitude, at, consumable=True):
    return WorldObject(oid, "reward", magnitude, consumable, at)


def hazard(oid, magnitude, at):
    return WorldObject(oid, "hazard", magnitude, False, at)


def intended_next(world, cell, action):
    """Where the intended move lands, from the world's geometry table."""
    geo = world.geometry
    return geo.cells[geo.next_flat[world.flat_of(world.state_id(cell))][action]]


def neighbor_cells(world, cell):
    """The cells one move away, in N, E, S, W order, from the geometry table."""
    geo = world.geometry
    return [geo.cells[f] for f in geo.neighbors[world.flat_of(world.state_id(cell))]]


def ref_threat_field(world, decay_length) -> tuple:
    """The threat field one cell and one hazard at a time: the reference
    ``WorldModel.threat_field`` is checked against."""
    hazards = world.active_hazards()
    out = []
    for x, y in world.geometry.cells:
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
            cell = w.cell_of(s)
            adjacent = any(abs(hz.at[0] - cell[0]) + abs(hz.at[1] - cell[1]) <= 1
                           for hz in w.active_hazards())
            act = ACTIONS[int(rng_act.integers(len(ACTIONS)))]
            s_next, _, _ = step(w, s, act, rng_world)
            landed = w.object_at(w.cell_of(s_next))
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
