import numpy as np
import pytest

from gridmind.suffering import TIMESCALE, Source, Terms, events, make_event
from gridmind.world import WorldModel, WorldObject


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
