"""Built-in worlds used by tests, docs, and the experiment matrix."""

from __future__ import annotations

from .world import Relocation, WorldModel, WorldObject


def corridor(length: int = 20, step_cost: float = 0.05) -> WorldModel:
    """A 1-row corridor with a single consumable reward at the far end."""
    objects = {"goal": WorldObject("goal", "reward", 1.0, True, (length - 1, 0))}
    return WorldModel(width=length, height=1, walls=frozenset(), objects=objects,
                      step_cost=step_cost, start=(0, 0))


def open_room(size: int = 5, step_cost: float = 0.05,
              slip_probability: float = 0.1) -> WorldModel:
    """A reward-free room: nothing to gain, only step costs. Curiosity bait."""
    return WorldModel(width=size, height=size, walls=frozenset(), objects={},
                      step_cost=step_cost, slip_probability=slip_probability,
                      start=(0, 0))


def hazard_alley() -> WorldModel:
    """A 9x3 alley with two hazards and a noisy channel; the detector's
    false alarms and misses are exercised here."""
    objects = {
        "h0": WorldObject("h0", "hazard", 2.0, False, (3, 1)),
        "h1": WorldObject("h1", "hazard", 2.0, False, (6, 1)),
        "goal": WorldObject("goal", "reward", 3.0, True, (8, 1)),
    }
    return WorldModel(width=9, height=3, walls=frozenset(), objects=objects,
                      step_cost=0.05, observation_confusion=0.2, start=(0, 1))


def loss_heavy(relocate_at: int = 400) -> WorldModel:
    """A 7x7 world tuned to generate frustration on every channel:
    hazards near the reward path, observation noise, slips, and a
    scheduled relocation that strands learned habits mid-run."""
    walls = frozenset({(3, 1), (3, 2), (3, 3), (3, 5)})
    objects = {
        "prize": WorldObject("prize", "reward", 5.0, True, (6, 0)),
        "h0": WorldObject("h0", "hazard", 2.0, False, (4, 1)),
        "h1": WorldObject("h1", "hazard", 2.0, False, (5, 4)),
        "h2": WorldObject("h2", "hazard", 1.0, False, (1, 5)),
    }
    schedule = (Relocation(t=relocate_at, oid="prize", to=(0, 6)),)
    return WorldModel(width=7, height=7, walls=walls, objects=objects,
                      slip_probability=0.1, step_cost=0.1,
                      observation_confusion=0.15, schedule=schedule,
                      start=(0, 0))


PRESETS = {
    "corridor": corridor,
    "open_room": open_room,
    "hazard_alley": hazard_alley,
    "loss_heavy": loss_heavy,
}


def get_world(name_or_path) -> WorldModel:
    from .world import load_world

    if isinstance(name_or_path, WorldModel):
        return name_or_path
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    return load_world(name_or_path)
