"""Discrete gridworld with reward objects, hazards, a noisy observation
channel, and scheduled object relocations.

States are (cell, epoch) pairs packed into a single integer id. Every
scheduled relocation bumps the epoch, which re-keys the whole state space:
values learned before the change stay attached to the old epoch and the
agent has to re-learn, which is exactly the cost the simulator measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import IntEnum
from pathlib import Path
from typing import Annotated

import numpy as np

from .inputs import (InputError, Range, cell, check, flag, get, integer, list_of, load_json,
                     number, reader, record, string)


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


@dataclass(frozen=True)
class WorldObject:
    oid: str
    kind: str  # "reward" | "hazard"
    magnitude: Annotated[float, Range(0, lo_open=True)]
    consumable: bool  # rewards only
    at: Cell

    def signed_magnitude(self) -> float:
        return self.magnitude if self.kind == "reward" else -self.magnitude


@dataclass(frozen=True)
class Relocation:
    t: Annotated[int, Range(0)]
    oid: str
    to: Cell


# The four moves, in the order ``Geometry.moves`` keeps.
MOVES = (Action.NORTH, Action.EAST, Action.SOUTH, Action.WEST)


class Geometry:
    """Flat-cell tables of one wall layout; flat id ``y * width + x``.

    Walls never change and an epoch only offsets state ids (state = epoch
    * n + flat), so the tables built with a world serve its every epoch and
    copy; ``replace`` with other walls builds new ones:

    * ``xs``, ``ys``: the coordinates of every cell as numpy arrays;
      ``free[f]``: not a wall;
    * ``next_flat[f][a]``: where the intended move ``a`` lands (walls and
      edges block, leaving the agent in place);
    * ``moves[f]``: the actions of ``MOVES`` that leave f, in N, E, S, W
      order, as one tuple per distinct set (16 at most) that its cells
      share; the move ``a`` lands on ``next_flat[f][a]``;
    * ``within(reach, f)``: the cells within ``reach`` moves, without f
      itself, in ascending flat order, each built on first use.
    """

    def __init__(self, width: int, height: int, walls: frozenset):
        self.width, self.height = width, height
        self.n = width * height
        self.ys, self.xs = np.divmod(np.arange(self.n), width)
        self.free = tuple((f % width, f // width) not in walls for f in range(self.n))
        self.next_flat = tuple(tuple(self._target(f, a) for a in ACTIONS)
                               for f in range(self.n))
        shared = {}
        self.moves = tuple(shared.setdefault(m, m) for m in (
            tuple(a for a in MOVES if row[a] != f) for f, row in enumerate(self.next_flat)))
        self._within = {}

    def _target(self, f: int, a: Action) -> int:
        dx, dy = DELTAS[a]
        x, y = f % self.width + dx, f // self.width + dy
        if 0 <= x < self.width and 0 <= y < self.height and self.free[y * self.width + x]:
            return y * self.width + x
        return f

    def within(self, reach: int, f: int) -> tuple:
        table = self._within.get(reach)
        if table is None:
            table = self._within[reach] = [None] * self.n
        ball = table[f]
        if ball is None:
            seen = {f}
            frontier = [f]
            found = []
            for _ in range(reach):
                layer = []
                for cur in frontier:
                    row = self.next_flat[cur]
                    for a in self.moves[cur]:
                        if (nxt := row[a]) not in seen:
                            seen.add(nxt)
                            layer.append(nxt)
                if not layer:
                    break
                found.extend(layer)
                frontier = layer
            ball = table[f] = tuple(sorted(found))
        return ball


@dataclass
class WorldModel:
    width: Annotated[int, Range(1)]
    height: Annotated[int, Range(1)]
    walls: frozenset
    objects: dict  # oid -> WorldObject, positions for the current epoch; never changed in place
    slip_probability: Annotated[float, Range(0, 1)] = 0.0
    step_cost: Annotated[float, Range(0)] = 0.0
    observation_confusion: Annotated[float, Range(0, 1, hi_open=True)] = 0.0
    schedule: tuple = ()
    start: Cell | None = None
    epoch: int = field(init=False, default_factory=int)  # relocations applied
    consumed: set = field(init=False, default_factory=set)
    geometry: Geometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = [("", self), *((f"object {o.oid!r}: ", o) for o in self.objects.values()),
                 *((f"relocation of {r.oid!r}: ", r) for r in self.schedule)]
        for prefix, part in parts:  # each numeric field by its declared rule
            try:
                check(part)
            except ValueError as exc:
                raise WorldError(prefix + str(exc)) from None
        for name in ("slip_probability", "step_cost", "observation_confusion"):
            setattr(self, name, float(getattr(self, name)))  # an int would make int rewards
        geo = self.geometry = Geometry(self.width, self.height, self.walls)
        if geo.free.count(False) != len(self.walls):
            raise WorldError(f"walls must lie inside the {self.width}x{self.height} grid")
        if not any(geo.free):
            raise WorldError("world has no non-wall cell")
        for obj in self.objects.values():
            if not self.is_free(obj.at):
                raise WorldError(f"object {obj.oid!r} sits on a wall or out of bounds")
            if obj.kind not in ("reward", "hazard"):
                raise WorldError(f"object {obj.oid!r} has unknown kind {obj.kind!r}")
            if obj.consumable and obj.kind != "reward":
                raise WorldError(f"object {obj.oid!r}: only a reward can be consumable")
        last = -1
        for rel in self.schedule:
            if rel.t <= last:
                raise WorldError("schedule step indices must be strictly increasing")
            last = rel.t
            if rel.oid not in self.objects:
                raise WorldError(f"schedule relocates unknown object {rel.oid!r}")
            if not self.is_free(rel.to):
                raise WorldError(f"relocation of {rel.oid!r} targets a wall or out of bounds")
        if self.start is None:
            y, x = divmod(geo.free.index(True), self.width)
            self.start = (x, y)
        elif not self.is_free(self.start):
            raise WorldError("start cell is a wall or out of bounds")
        self._epoch_tables()

    def _epoch_tables(self):
        """New tables for the objects of this epoch: each occupied flat
        cell to its objects in dict order, and an empty map from
        decay_length to threat field. Made at the build and after a
        relocation, never changed in place, so copies in one epoch share them."""
        by_cell = {}
        for obj in self.objects.values():
            x, y = obj.at
            by_cell.setdefault(y * self.width + x, []).append(obj)
        self._by_cell = {f: tuple(objs) for f, objs in by_cell.items()}
        self._threat = {}

    # -- geometry --------------------------------------------------------

    def is_free(self, cell: Cell) -> bool:
        x, y = cell
        return (0 <= x < self.width and 0 <= y < self.height
                and self.geometry.free[y * self.width + x])

    def state_id(self, cell: Cell) -> int:
        x, y = cell
        return self.epoch * self.geometry.n + y * self.width + x

    def flat_of(self, s: int) -> int:
        """The flat cell of a state; the state must be of this epoch and free."""
        epoch, flat = divmod(s, self.geometry.n)
        if epoch != self.epoch:
            raise WorldError(f"state {s} belongs to epoch {epoch}, world is at epoch {self.epoch}")
        if not self.geometry.free[flat]:
            y, x = divmod(flat, self.width)
            raise WorldError(f"state {s} maps to a wall cell {(x, y)}")
        return flat

    def free_states(self) -> list:
        base = self.epoch * self.geometry.n
        return [base + f for f, free in enumerate(self.geometry.free) if free]

    # -- content ---------------------------------------------------------

    def object_at(self, flat: int):
        """The first object in dict order on flat cell ``flat`` not yet consumed, or None."""
        for obj in self._by_cell.get(flat, ()):
            if obj.oid not in self.consumed:
                return obj
        return None

    def active_hazards(self) -> list:
        return [o for o in self.objects.values() if o.kind == "hazard" and o.oid not in self.consumed]

    def threat_field(self, decay_length: float) -> tuple:
        """The hazard potential of every flat cell this epoch: the sum, over
        active hazards in dict order, of magnitude * exp(-d / decay_length),
        d the Manhattan distance, read from a table of ``math.exp`` by d and
        folded one hazard at a time, so each cell adds as a scalar loop would.
        Objects move only through the schedule, which bumps the epoch, and
        only rewards are consumed, so one field per decay_length serves the
        epoch and every copy in it; a world that leaves the epoch starts its own."""
        levels = self._threat.get(decay_length)
        if levels is None:
            geo = self.geometry
            decay = np.array([math.exp(-d / decay_length) for d in range(self.width + self.height)])
            acc = np.zeros(geo.n)
            for hz in self.active_hazards():
                x, y = hz.at
                acc += hz.magnitude * decay[np.abs(geo.xs - x) + np.abs(geo.ys - y)]
            levels = self._threat[decay_length] = tuple(acc.tolist())
        return levels

    def restore_consumed(self):
        self.consumed.clear()

    def copy(self) -> "WorldModel":
        """Its own consumed set; the rest, checked at the build or made for
        this epoch and never changed in place, is shared."""
        twin = object.__new__(WorldModel)
        for name in WORLD_ATTRS:  # vars(self), like copy.copy, would slow self's reads ~3x
            setattr(twin, name, getattr(self, name))
        twin.consumed = set(self.consumed)
        return twin


WORLD_ATTRS = (*(f.name for f in fields(WorldModel)), "_by_cell", "_threat")


# -- core operations -----------------------------------------------------


def step(world: WorldModel, s: int, a: Action, rng: np.random.Generator):
    """Advance one step; returns (next_state, reward, consumed_oid_or_None).

    With probability slip_probability the move lands laterally instead of
    where intended; walls block, leaving the agent in place. Reward is the
    landed cell's object magnitude (hazards negative) minus step_cost, and
    consumable reward objects are removed on collection.
    """
    flat = world.flat_of(s)
    if type(a) is not Action:
        a = Action(a)
    actual = a
    if a is not Action.STAY and world.slip_probability > 0:
        if rng.random() < world.slip_probability:
            actual = LATERALS[a][int(rng.integers(2))]
    geo = world.geometry
    landed = geo.next_flat[flat][actual]
    reward = -world.step_cost
    consumed = None
    obj = world.object_at(landed)
    if obj is not None:
        reward += obj.signed_magnitude()
        if obj.consumable:
            world.consumed.add(obj.oid)
            consumed = obj.oid
    return world.epoch * geo.n + landed, reward, consumed


def observe(world: WorldModel, s: int, rng: np.random.Generator) -> int:
    """The state id the confusion channel reports for state ``s``.

    With probability observation_confusion the reported state is a uniformly
    chosen neighboring configuration, never ``s`` itself. The agent never
    sees whether a given report was corrupted, only the global rate.
    """
    flat = world.flat_of(s)
    if world.observation_confusion > 0 and rng.random() < world.observation_confusion:
        geo = world.geometry
        moves = geo.moves[flat]
        if moves:
            pick = geo.next_flat[flat][moves[int(rng.integers(len(moves)))]]
            return world.epoch * geo.n + pick
    return s


def apply_schedule(world: WorldModel, t: int) -> WorldModel:
    """Apply all relocations with step index <= t, each exactly once.

    Every applied relocation bumps the epoch and binds a new objects dict,
    so a copy that shares the old one keeps it. Idempotent for repeated t.
    """
    epoch = world.epoch
    while world.epoch < len(world.schedule):
        rel = world.schedule[world.epoch]
        if rel.t > t:
            break
        world.objects = {**world.objects, rel.oid: replace(world.objects[rel.oid], at=rel.to)}
        world.epoch += 1
    if world.epoch != epoch:
        world._epoch_tables()
    return world


# -- definition files ----------------------------------------------------


# The largest world a definition may give, far above every preset (49 cells,
# 4 objects, 1 relocation at most): Geometry keeps ~280 bytes a cell (28 MB
# at the cap), a step reads only the objects on the cell it lands on, and
# every relocation starts an epoch that re-keys all states, binds a new
# objects dict, re-indexes the objects by cell and computes a new threat field.
MAX_CELLS = 10 ** 5
MAX_OBJECTS = MAX_RELOCATIONS = 1000


def _check_size(cells: int, objects: int, relocations: int):
    """Refuse a world past a cap before any of it is built."""
    if cells > MAX_CELLS:
        raise InputError("width", f"width * height must be at most {MAX_CELLS}")
    for path, size, cap in (("objects", objects, MAX_OBJECTS),
                            ("schedule", relocations, MAX_RELOCATIONS)):
        if size > cap:
            raise InputError(path, f"must hold at most {cap} items")


_WORLD_KEYS = {"width", "height", "walls", "objects", "slip_probability", "step_cost",
               "observation_confusion", "schedule", "start"}
_OBJECT_KEYS = {"id", "kind", "magnitude", "consumable", "at"}
_RELOCATION_KEYS = {"t", "object", "to"}
_object_kind = reader(lambda v: v in ("reward", "hazard"), "must be 'reward' or 'hazard'")
_cells = list_of(cell)
_entries = list_of(lambda value, path: value)  # each entry is read as a record below


def world_from_dict(spec: dict) -> WorldModel:
    """A world from its JSON form. A malformed entry raises InputError
    with its dotted path (``objects[0].kind: missing``)."""
    record(spec, "", _WORLD_KEYS, root="world")
    width, height = get(spec, "width", "", integer), get(spec, "height", "", integer)
    object_entries = get(spec, "objects", "", _entries, [])
    relocation_entries = get(spec, "schedule", "", _entries, [])
    _check_size(width * height, len(object_entries), len(relocation_entries))
    walls = frozenset(get(spec, "walls", "", _cells, []))
    objects = {}
    for i, entry in enumerate(object_entries):
        path = f"objects[{i}]"
        record(entry, path, _OBJECT_KEYS)
        oid = get(entry, "id", path, string)
        if oid in objects:
            raise InputError(f"{path}.id", f"duplicate object id {oid!r}")
        kind = get(entry, "kind", path, _object_kind)
        objects[oid] = WorldObject(
            oid=oid,
            kind=kind,
            magnitude=float(get(entry, "magnitude", path, number)),
            consumable=get(entry, "consumable", path, flag, kind == "reward"),
            at=get(entry, "at", path, cell),
        )
    schedule = []
    for i, entry in enumerate(relocation_entries):
        path = f"schedule[{i}]"
        record(entry, path, _RELOCATION_KEYS)
        oid = get(entry, "object", path, string)
        if oid not in objects:
            raise InputError(f"{path}.object", f"no object has id {oid!r}")
        schedule.append(Relocation(t=get(entry, "t", path, integer), oid=oid,
                                   to=get(entry, "to", path, cell)))
    return WorldModel(
        width=width,
        height=height,
        walls=walls,
        objects=objects,
        slip_probability=get(spec, "slip_probability", "", number, 0.0),
        step_cost=get(spec, "step_cost", "", number, 0.0),
        observation_confusion=get(spec, "observation_confusion", "", number, 0.0),
        schedule=tuple(schedule),
        start=get(spec, "start", "", cell, None),
    )


def world_from_ascii(text: str, *, reward_magnitude: float = 1.0,
                     hazard_magnitude: float = 1.0, **params) -> WorldModel:
    """Parse an ASCII map: '#' wall, '.' empty, 'R' reward, 'H' hazard, 'S' start (one at most)."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise WorldError("empty ASCII map")
    width = max(len(r) for r in rows)
    height = len(rows)
    _check_size(width * height, sum(r.count("R") + r.count("H") for r in rows),
                len(params.get("schedule", ())))
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
                if start is not None:
                    raise WorldError(f"a second start 'S' at {(x, y)}; the first is at {start}")
                start = (x, y)
            elif ch != ".":
                raise WorldError(f"unknown map character {ch!r} at {(x, y)}")
    return WorldModel(width=width, height=height, walls=frozenset(walls),
                      objects=objects, start=start, **params)


def load_world(path) -> WorldModel:
    if str(path).endswith(".json"):
        return world_from_dict(load_json(path))
    return world_from_ascii(Path(path).read_text())
