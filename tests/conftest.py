import numpy as np
import pytest

from gridmind.suffering import events
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
