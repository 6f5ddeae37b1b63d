"""Discrete gridworld with reward objects, hazards, a noisy observation
channel, and scheduled object relocations.

States are (cell, epoch) pairs packed into a single integer id. Every
scheduled relocation bumps the epoch, which re-keys the whole state space:
values learned before the change stay attached to the old epoch and the
agent has to re-learn, which is exactly the cost the simulator measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path

import numpy as np


class WorldError(Exception):
    """Invalid world definition or invalid state handle."""


class Action(IntEnum):
    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3
    STAY = 4


ACTIONS = tuple(Action)

# (dx, dy) per action; y grows southward.
DELTAS = {
    Action.NORTH: (0, -1),
    Action.EAST: (1, 0),
    Action.SOUTH: (0, 1),
    Action.WEST: (-1, 0),
    Action.STAY: (0, 0),
}

# Slips land perpendicular to the intended direction. STAY never slips.
LATERALS = {
    Action.NORTH: (Action.EAST, Action.WEST),
    Action.SOUTH: (Action.EAST, Action.WEST),
    Action.EAST: (Action.NORTH, Action.SOUTH),
    Action.WEST: (Action.NORTH, Action.SOUTH),
}

Cell = tuple[int, int]


@dataclass
class WorldObject:
    oid: str
    kind: str  # "reward" | "hazard"
    magnitude: float
    consumable: bool
    at: Cell

    def signed_magnitude(self) -> float:
        return self.magnitude if self.kind == "reward" else -self.magnitude


@dataclass(frozen=True)
class Relocation:
    t: int
    oid: str
    to: Cell


@dataclass(frozen=True)
class Observation:
    reported_state: int
    confusion_applied: bool


@dataclass
class WorldModel:
    width: int
    height: int
    walls: frozenset
    objects: dict  # oid -> WorldObject, positions for the current epoch
    slip_probability: float = 0.0
    step_cost: float = 0.0
    observation_confusion: float = 0.0
    schedule: tuple = ()
    start: Cell | None = None
    epoch: int = 0
    consumed: set = field(default_factory=set)
    applied_relocations: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise WorldError("width and height must be positive")
        if not 0.0 <= self.slip_probability <= 1.0:
            raise WorldError("slip_probability must be in [0, 1]")
        if self.step_cost < 0:
            raise WorldError("step_cost must be >= 0")
        if not 0.0 <= self.observation_confusion < 1.0:
            raise WorldError("observation_confusion must be in [0, 1)")
        free = [c for c in self.iter_cells() if c not in self.walls]
        if not free:
            raise WorldError("world has no non-wall cell")
        for obj in self.objects.values():
            if not self.in_bounds(obj.at) or obj.at in self.walls:
                raise WorldError(f"object {obj.oid!r} sits on a wall or out of bounds")
            if obj.magnitude <= 0:
                raise WorldError(f"object {obj.oid!r} must have magnitude > 0")
            if obj.kind not in ("reward", "hazard"):
                raise WorldError(f"object {obj.oid!r} has unknown kind {obj.kind!r}")
        last = -1
        for rel in self.schedule:
            if rel.t <= last:
                raise WorldError("schedule step indices must be strictly increasing")
            last = rel.t
            if rel.oid not in self.objects:
                raise WorldError(f"schedule relocates unknown object {rel.oid!r}")
            if not self.in_bounds(rel.to) or rel.to in self.walls:
                raise WorldError(f"relocation of {rel.oid!r} targets a wall or out of bounds")
        if self.start is None:
            self.start = free[0]
        elif not self.in_bounds(self.start) or self.start in self.walls:
            raise WorldError("start cell is a wall or out of bounds")

    # -- geometry --------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def iter_cells(self):
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.walls

    def state_id(self, cell: Cell) -> int:
        x, y = cell
        return self.epoch * self.n_cells + y * self.width + x

    def cell_of(self, s: int) -> Cell:
        epoch, flat = divmod(s, self.n_cells)
        if epoch != self.epoch:
            raise WorldError(f"state {s} belongs to epoch {epoch}, world is at epoch {self.epoch}")
        y, x = divmod(flat, self.width)
        cell = (x, y)
        if not self.is_free(cell):
            raise WorldError(f"state {s} maps to a wall or out-of-bounds cell {cell}")
        return cell

    def intended_next(self, cell: Cell, action: Action) -> Cell:
        dx, dy = DELTAS[action]
        target = (cell[0] + dx, cell[1] + dy)
        return target if self.is_free(target) else cell

    def neighbor_cells(self, cell: Cell) -> list:
        out = []
        for a in (Action.NORTH, Action.EAST, Action.SOUTH, Action.WEST):
            nxt = self.intended_next(cell, a)
            if nxt != cell:
                out.append(nxt)
        return out

    def free_states(self) -> list:
        return [self.state_id(c) for c in self.iter_cells() if self.is_free(c)]

    # -- content ---------------------------------------------------------

    def object_at(self, cell: Cell):
        for obj in self.objects.values():
            if obj.at == cell and obj.oid not in self.consumed:
                return obj
        return None

    def active_hazards(self) -> list:
        return [o for o in self.objects.values() if o.kind == "hazard" and o.oid not in self.consumed]

    def restore_consumed(self):
        self.consumed.clear()

    def copy(self) -> "WorldModel":
        return replace(self, consumed=set(self.consumed),
                       objects={oid: replace(o) for oid, o in self.objects.items()})


# -- core operations -----------------------------------------------------


def step(world: WorldModel, s: int, a: Action, rng: np.random.Generator):
    """Advance one step; returns (next_state, reward, consumed_oid_or_None).

    With probability slip_probability the move lands laterally instead of
    where intended; walls block, leaving the agent in place. Reward is the
    landed cell's object magnitude (hazards negative) minus step_cost, and
    consumable reward objects are removed on collection.
    """
    cell = world.cell_of(s)
    a = Action(a)
    actual = a
    if a is not Action.STAY and world.slip_probability > 0:
        if rng.random() < world.slip_probability:
            actual = LATERALS[a][int(rng.integers(2))]
    landed = world.intended_next(cell, actual)
    reward = -world.step_cost
    consumed = None
    obj = world.object_at(landed)
    if obj is not None:
        reward += obj.signed_magnitude()
        if obj.kind == "reward" and obj.consumable:
            world.consumed.add(obj.oid)
            consumed = obj.oid
    return world.state_id(landed), reward, consumed


def observe(world: WorldModel, s: int, rng: np.random.Generator) -> Observation:
    """Report the current state through the confusion channel.

    With probability observation_confusion the reported state is a uniformly
    chosen neighboring configuration. The agent never sees whether a given
    report was corrupted, only the global rate.
    """
    cell = world.cell_of(s)
    if world.observation_confusion > 0 and rng.random() < world.observation_confusion:
        neighbors = world.neighbor_cells(cell)
        if neighbors:
            pick = neighbors[int(rng.integers(len(neighbors)))]
            return Observation(world.state_id(pick), True)
    return Observation(s, False)


def apply_schedule(world: WorldModel, t: int) -> WorldModel:
    """Apply all relocations with step index <= t, each exactly once.

    Every applied relocation bumps the epoch. Idempotent for repeated t.
    """
    while world.applied_relocations < len(world.schedule):
        rel = world.schedule[world.applied_relocations]
        if rel.t > t:
            break
        world.objects[rel.oid].at = rel.to
        world.applied_relocations += 1
        world.epoch += 1
    return world


def reachable_states(world: WorldModel, from_cell: Cell | None = None) -> set:
    """BFS over intended moves from a cell (default: start)."""
    origin = from_cell if from_cell is not None else world.start
    seen = {origin}
    frontier = [origin]
    while frontier:
        cell = frontier.pop()
        for nxt in world.neighbor_cells(cell):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {world.state_id(c) for c in seen}


# -- definition files ----------------------------------------------------


def world_from_dict(spec: dict) -> WorldModel:
    try:
        width = int(spec["width"])
        height = int(spec["height"])
    except KeyError as exc:
        raise WorldError(f"world definition missing {exc.args[0]!r}") from None
    walls = frozenset((int(x), int(y)) for x, y in spec.get("walls", []))
    objects = {}
    for entry in spec.get("objects", []):
        oid = str(entry["id"])
        if oid in objects:
            raise WorldError(f"duplicate object id {oid!r}")
        objects[oid] = WorldObject(
            oid=oid,
            kind=entry["kind"],
            magnitude=float(entry["magnitude"]),
            consumable=bool(entry.get("consumable", entry["kind"] == "reward")),
            at=(int(entry["at"][0]), int(entry["at"][1])),
        )
    schedule = tuple(
        Relocation(t=int(e["t"]), oid=str(e["object"]), to=(int(e["to"][0]), int(e["to"][1])))
        for e in spec.get("schedule", [])
    )
    start = spec.get("start")
    return WorldModel(
        width=width,
        height=height,
        walls=walls,
        objects=objects,
        slip_probability=float(spec.get("slip_probability", 0.0)),
        step_cost=float(spec.get("step_cost", 0.0)),
        observation_confusion=float(spec.get("observation_confusion", 0.0)),
        schedule=schedule,
        start=tuple(start) if start is not None else None,
    )


def world_from_ascii(text: str, *, reward_magnitude: float = 1.0,
                     hazard_magnitude: float = 1.0, **params) -> WorldModel:
    """Parse an ASCII map: '#' wall, '.' empty, 'R' reward, 'H' hazard, 'S' start."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise WorldError("empty ASCII map")
    width = max(len(r) for r in rows)
    height = len(rows)
    walls = set()
    objects = {}
    start = None
    for y, row in enumerate(rows):
        for x in range(width):
            ch = row[x] if x < len(row) else "#"
            if ch == "#":
                walls.add((x, y))
            elif ch == "R":
                oid = f"r{len([o for o in objects.values() if o.kind == 'reward'])}"
                objects[oid] = WorldObject(oid, "reward", reward_magnitude, True, (x, y))
            elif ch == "H":
                oid = f"h{len([o for o in objects.values() if o.kind == 'hazard'])}"
                objects[oid] = WorldObject(oid, "hazard", hazard_magnitude, False, (x, y))
            elif ch == "S":
                start = (x, y)
            elif ch != ".":
                raise WorldError(f"unknown map character {ch!r} at {(x, y)}")
    return WorldModel(width=width, height=height, walls=frozenset(walls),
                      objects=objects, start=start, **params)


def load_world(path) -> WorldModel:
    text = Path(path).read_text()
    if str(path).endswith(".json"):
        return world_from_dict(json.loads(text))
    return world_from_ascii(text)
