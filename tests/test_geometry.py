"""The flat geometry tables against the cell-tuple rules they replace.

Each reference below is the per-call cell arithmetic the world, planner
and threat detector used before the tables existed; the tables must give
the very same answers, draw the same random numbers in the same order and
raise on the same stale-epoch and wall states.
"""

import heapq
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (all_cells, cell_at, cell_of, hazard, make_world, neighbor_cells,
                      ref_plan_search, ref_threat_field)
from gridmind import world as world_module
from gridmind.affect import InterruptPolicy, sweep_threshold, threat_level
from gridmind.planning import Goal, PlanSearchParams, plan_search, suggest_goals
from gridmind.values import ValueStore
from gridmind.world import (ACTIONS, DELTAS, LATERALS, MOVES, Action, Geometry, Relocation,
                            WorldError, WorldObject, apply_schedule, observe, step,
                            world_from_ascii)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- test-local references: the cell-tuple rules ------------------------------


def ref_is_free(world, cell):
    x, y = cell
    return 0 <= x < world.width and 0 <= y < world.height and cell not in world.walls


def ref_cell_of(world, s):
    epoch, flat = divmod(s, world.width * world.height)
    if epoch != world.epoch:
        raise WorldError("stale epoch")
    y, x = divmod(flat, world.width)
    if not ref_is_free(world, (x, y)):
        raise WorldError("wall")
    return (x, y)


def ref_state_id(world, cell):
    return world.epoch * world.width * world.height + cell[1] * world.width + cell[0]


def ref_intended_next(world, cell, action):
    dx, dy = DELTAS[action]
    target = (cell[0] + dx, cell[1] + dy)
    return target if ref_is_free(world, target) else cell


def ref_neighbor_cells(world, cell):
    out = []
    for a in (Action.NORTH, Action.EAST, Action.SOUTH, Action.WEST):
        nxt = ref_intended_next(world, cell, a)
        if nxt != cell:
            out.append(nxt)
    return out


def ref_object_at(world, cell):
    """The first object on ``cell`` in dict order not yet consumed: a scan."""
    for obj in world.objects.values():
        if obj.at == cell and obj.oid not in world.consumed:
            return obj
    return None


def ref_step(world, s, a, rng):
    cell = ref_cell_of(world, s)
    a = Action(a)
    actual = a
    if a is not Action.STAY and world.slip_probability > 0:
        if rng.random() < world.slip_probability:
            actual = LATERALS[a][int(rng.integers(2))]
    landed = ref_intended_next(world, cell, actual)
    reward = -world.step_cost
    consumed = None
    obj = ref_object_at(world, landed)
    if obj is not None:
        reward += obj.signed_magnitude()
        if obj.kind == "reward" and obj.consumable:
            world.consumed.add(obj.oid)
            consumed = obj.oid
    return ref_state_id(world, landed), reward, consumed


def ref_observe(world, s, rng):
    cell = ref_cell_of(world, s)
    if world.observation_confusion > 0 and rng.random() < world.observation_confusion:
        neighbors = ref_neighbor_cells(world, cell)
        if neighbors:
            pick = neighbors[int(rng.integers(len(neighbors)))]
            return ref_state_id(world, pick)
    return s


def ref_suggest_goals(world, store, s, reach, threshold):
    seen = {s}
    frontier = [s]
    candidates = []
    for _ in range(reach):
        nxt_frontier = []
        for cur in frontier:
            for cell in ref_neighbor_cells(world, ref_cell_of(world, cur)):
                sid = ref_state_id(world, cell)
                if sid not in seen:
                    seen.add(sid)
                    nxt_frontier.append(sid)
                    if store.v(sid) > threshold:
                        candidates.append(sid)
        frontier = nxt_frontier
    candidates.sort(key=lambda sid: (-store.v(sid), sid))
    return [Goal(target=sid, anticipated_value=store.v(sid))
            for sid in candidates]


def ref_cell_plan_search(world, s, goal, store, params):
    """Returns (plan or None, expansions)."""
    if s == goal.target:
        return [], 0
    w = params.heuristic_weight
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
        cell = ref_cell_of(world, state)
        for a in ACTIONS:
            if a is Action.STAY:
                continue
            nxt_cell = ref_intended_next(world, cell, a)
            if nxt_cell == cell:
                continue
            nxt = ref_state_id(world, nxt_cell)
            if nxt not in parent:
                children.append((nxt, a))
        children.sort(key=lambda ch: (-store.v(ch[0]), ch[1]))
        for nxt, a in children[: params.branching_cap]:
            parent[nxt] = (state, a)
            if nxt == goal.target:
                plan = []
                while parent[nxt] is not None:
                    nxt, a = parent[nxt]
                    plan.append(a)
                return plan[::-1], expansions
            counter += 1
            heapq.heappush(heap, (-w * store.v(nxt), counter, nxt, depth + 1))
    return None, expansions


def ref_threat_level(world, s, decay_length):
    x, y = ref_cell_of(world, s)
    level = 0.0
    for hz in world.active_hazards():
        d = abs(hz.at[0] - x) + abs(hz.at[1] - y)
        level += hz.magnitude * math.exp(-d / decay_length)
    return level


# -- random worlds -----------------------------------------------------------------


@st.composite
def ascii_worlds(draw):
    """An ASCII world of 1-8 cells per side with random walls, rewards and
    hazards, a start, and up to three scheduled relocations."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    chars = draw(st.lists(st.sampled_from("#...RH"), min_size=width * height,
                          max_size=width * height))
    chars[draw(st.integers(0, width * height - 1))] = "S"
    text = "\n".join("".join(chars[y * width:(y + 1) * width]) for y in range(height))
    params = {
        "reward_magnitude": draw(st.sampled_from([0.5, 1.0, 3.0])),
        "hazard_magnitude": draw(st.sampled_from([0.3, 1.0, 2.5])),
        "slip_probability": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "observation_confusion": draw(st.sampled_from([0.0, 0.4, 0.9])),
        "step_cost": draw(st.sampled_from([0.0, 0.1])),
    }
    world = world_from_ascii(text, **params)
    free = [(x, y) for y in range(height) for x in range(width) if ref_is_free(world, (x, y))]
    schedule = []
    if world.objects:
        t = 0
        for _ in range(draw(st.integers(0, 3))):
            t += draw(st.integers(1, 20))
            schedule.append(Relocation(t, draw(st.sampled_from(sorted(world.objects))),
                                       draw(st.sampled_from(free))))
    return world_from_ascii(text, schedule=tuple(schedule), **params)


def free_states(world):
    return [ref_state_id(world, (x, y)) for y in range(world.height)
            for x in range(world.width) if ref_is_free(world, (x, y))]


def random_store(world, seed):
    rng = np.random.default_rng(seed)
    store = ValueStore()
    for s in free_states(world):
        if rng.random() < 0.7:
            store.V[s] = float(np.round(rng.normal(), 1))  # rounding makes ties
    return store


# -- properties ------------------------------------------------------------------


@SETTINGS
@given(world=ascii_worlds())
def test_cell_reads_match_reference(world):
    for y in range(-1, world.height + 1):
        for x in range(-1, world.width + 1):
            assert world.is_free((x, y)) == ref_is_free(world, (x, y))
    geo = world.geometry
    for y in range(world.height):
        for x in range(world.width):
            cell, f = (x, y), y * world.width + x
            for a in ACTIONS:
                assert cell_at(world, geo.next_flat[f][a]) == ref_intended_next(world, cell, a)
            assert ([cell_at(world, geo.next_flat[f][a]) for a in geo.moves[f]]
                    == ref_neighbor_cells(world, cell))
    for s in range(-1, 3 * world.width * world.height):
        try:
            want = ref_cell_of(world, s)
        except WorldError:
            with pytest.raises(WorldError):
                cell_of(world, s)
        else:
            assert cell_of(world, s) == want


@SETTINGS
@given(world=ascii_worlds(), seed=st.integers(0, 2 ** 32 - 1),
       actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=60))
def test_step_and_observe_match_reference(world, seed, actions):
    """Same outcomes and the same draws, through relocations and consumption."""
    ours, ref = world.copy(), world.copy()
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    s = ref_state_id(ours, ours.start)
    for t, a in enumerate(actions):
        cell = ref_cell_of(ours, s)
        apply_schedule(ours, t)
        apply_schedule(ref, t)
        s = ref_state_id(ours, cell)
        assert observe(ours, s, rng_a) == ref_observe(ref, s, rng_b)
        got = step(ours, s, a, rng_a)
        assert got == ref_step(ref, s, a, rng_b)
        assert ours.consumed == ref.consumed
        s = got[0]
        if got[2] is not None:
            ours.restore_consumed()
            ref.restore_consumed()
    assert rng_a.random() == rng_b.random()


@SETTINGS
@given(world=ascii_worlds(), seed=st.integers(0, 1000),
       threshold=st.sampled_from([-0.5, 0.0, 0.3]))
def test_suggest_goals_matches_bfs(world, seed, threshold):
    store = random_store(world, seed)
    for s in free_states(world):
        for reach in range(1, 7):
            assert (suggest_goals(world, store, s, reach=reach, threshold=threshold)
                    == ref_suggest_goals(world, store, s, reach, threshold))


def goal_bits(goals):
    return [(g.target, g.anticipated_value.hex()) for g in goals]


@pytest.mark.guard
@SETTINGS
@given(world=ascii_worlds(), data=st.data(), threshold=st.sampled_from([-0.5, 0.0, 0.25]),
       other=st.sampled_from([-math.inf, -1.0, -0.5, -0.0, 0.0, 0.5, 2.0, math.inf]))
def test_suggest_goals_equal_the_sorted_ball_bit_for_bit(world, data, threshold, other):
    """Few values, so that goals tie, and both zeros, so that ties mix signs
    (a state without a value reads 0.0): a stable sort by value over a ball
    in ascending order must give the reference's (-v, sid) order and each
    goal its state's value, bit for bit. The goals ranked at the lower of
    two thresholds, kept where ``v > t``, are the goals ranked at ``t``
    for each of them, as a desire step's commit reads them."""
    states = free_states(world)
    values = data.draw(st.lists(st.sampled_from([None, -1.0, -0.0, 0.0, 0.5, 2.0]),
                                min_size=len(states), max_size=len(states)))
    store = ValueStore(V={s: v for s, v in zip(states, values) if v is not None})
    for s in states:
        for reach in range(1, 7):
            assert (goal_bits(suggest_goals(world, store, s, reach=reach, threshold=threshold))
                    == goal_bits(ref_suggest_goals(world, store, s, reach, threshold)))
            ranked = suggest_goals(world, store, s, reach=reach, threshold=min(threshold, other))
            for t in (threshold, other):
                assert (goal_bits([g for g in ranked if g.anticipated_value > t])
                        == goal_bits(suggest_goals(world, store, s, reach=reach, threshold=t)))


@SETTINGS
@given(world=ascii_worlds(), seed=st.integers(0, 1000),
       max_depth=st.integers(1, 8), branching_cap=st.integers(1, 4),
       heuristic_weight=st.sampled_from([0.0, 1.0, 2.5]))
def test_plan_search_matches_reference(world, seed, max_depth, branching_cap,
                                       heuristic_weight):
    store = random_store(world, seed)
    params = PlanSearchParams(max_depth=max_depth, branching_cap=branching_cap,
                              heuristic_weight=heuristic_weight)
    states = free_states(world)
    for s in states[:6]:
        for target in states:
            goal = Goal(target=target, anticipated_value=1.0)
            stats = {}
            plan = plan_search(world, s, goal, store, params, stats)
            assert (plan, stats["expansions"]) == ref_cell_plan_search(world, s, goal, store, params)


@pytest.mark.guard
@SETTINGS
@given(world=ascii_worlds(), data=st.data(), later=st.booleans(),
       max_depth=st.integers(1, 12), branching_cap=st.integers(1, 5),
       heuristic_weight=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_plan_search_equals_the_state_keyed_reference(world, data, later, max_depth,
                                                      branching_cap, heuristic_weight):
    """The flat-cell search plans and expands as the state-keyed one does:
    few values, so that children tie and the action breaks the tie, both
    zeros, V set in other epochs too, and targets in s's epoch, in another
    epoch (never reached) and at s itself, at epoch 0 or after every
    relocation."""
    if later:
        apply_schedule(world, 10 ** 6)
    n = world.width * world.height
    states = free_states(world)
    elsewhere = [s + k * n for s in states for k in (-1, 1)]
    values = st.sampled_from([None, -1.0, -0.0, 0.0, 0.5, 2.0])
    store = ValueStore(V={s: v for s, v in zip(states + elsewhere, data.draw(
        st.lists(values, min_size=3 * len(states), max_size=3 * len(states))))
        if v is not None})
    params = PlanSearchParams(max_depth=max_depth, branching_cap=branching_cap,
                              heuristic_weight=heuristic_weight)
    for s in data.draw(st.lists(st.sampled_from(states), min_size=1, max_size=4)):
        for target in states + data.draw(st.lists(st.sampled_from(elsewhere), max_size=3)):
            goal = Goal(target=target, anticipated_value=1.0)
            got, want = {}, {}
            assert (plan_search(world, s, goal, store, params, got)
                    == ref_plan_search(world, s, goal, store, params, want))
            assert got == want


@SETTINGS
@given(world=ascii_worlds(), decay=st.sampled_from([0.5, 1.0, 3.0]))
def test_threat_level_is_the_closed_form_sum_across_relocations(world, decay):
    """Bit-equal to the sum over hazards in dict order, in every epoch."""
    policy = InterruptPolicy(decay_length=decay)
    for t in [0] + [rel.t for rel in world.schedule]:
        apply_schedule(world, t)
        for s in free_states(world):
            assert threat_level(world, s, policy) == ref_threat_level(world, s, decay)


@st.composite
def hazard_worlds(draw):
    """A world of 1-12 cells per side with random walls and up to six
    hazards, stacked at times, of magnitudes from 1e-300 to 1e12, ints too."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = [(x, y) for y in range(height) for x in range(width)]
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    spots = draw(st.lists(st.sampled_from([c for c in cells if c not in walls]), max_size=6))
    magnitude = st.one_of(st.floats(1e-300, 1e12), st.integers(1, 10 ** 12))
    return make_world(width, height, walls,
                      {f"h{i}": hazard(f"h{i}", draw(magnitude), at) for i, at in enumerate(spots)})


@SETTINGS
@given(world=hazard_worlds(),
       decay=st.one_of(st.floats(1e-300, 1e12), st.integers(1, 10 ** 12)))
def test_threat_field_equals_the_scalar_reference(world, decay):
    """The table-and-fold field is bit-identical, cell by cell, to the
    double loop over cells and hazards; every level is a Python float."""
    assert ([level.hex() for level in world.threat_field(decay)]
            == [level.hex() for level in ref_threat_field(world, decay)])


# -- the object index ----------------------------------------------------------------


@st.composite
def stacked_worlds(draw):
    """A world of 1-4 cells per side with up to seven objects crowded onto
    few cells, and up to four relocations, each onto an occupied cell or
    off one at times."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [(x, y) for y in range(height) for x in range(width)]
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    spots = draw(st.lists(st.sampled_from([c for c in cells if c not in walls]),
                          min_size=1, max_size=3, unique=True))
    objects = {}
    for i in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["reward", "hazard"]))
        objects[f"o{i}"] = WorldObject(f"o{i}", kind, draw(st.sampled_from([0.5, 2.0])),
                                       kind == "reward" and draw(st.booleans()),
                                       draw(st.sampled_from(spots)))
    free = [c for c in cells if c not in walls]
    schedule = tuple(Relocation(t, draw(st.sampled_from(sorted(objects))),
                                draw(st.sampled_from(spots + free)))
                     for t in range(draw(st.integers(0, 4))))
    return make_world(width, height, walls, objects, schedule=schedule, start=spots[0])


EVENTS = st.one_of(
    st.tuples(st.just("step"), st.integers(0, 15), st.sampled_from(ACTIONS)),
    st.tuples(st.just("consume"), st.integers(0, 6)),
    st.tuples(st.just("restore")),
    st.tuples(st.just("schedule"), st.integers(0, 4)),
    st.tuples(st.just("copy")),
)


@pytest.mark.guard
@SETTINGS
@given(world=stacked_worlds(), events=st.lists(EVENTS, max_size=25),
       seed=st.integers(0, 1000))
def test_object_at_equals_a_scan_through_every_event(world, events, seed):
    """Stacked objects, consumption by ``step`` and by ``consumed.add``,
    ``restore_consumed``, relocations and copies: after every event each
    world built so far finds, on every flat cell (and one past each end),
    the very object a dict-order scan of its own objects finds."""
    rng = np.random.default_rng(seed)
    worlds = [world]
    flats = range(-1, world.geometry.n + 1)
    for event in events:
        kind = event[0]
        if kind == "step":
            free = [c for c in all_cells(world) if world.is_free(c)]
            step(world, world.state_id(free[event[1] % len(free)]), event[2], rng)
        elif kind == "consume":
            world.consumed.add(f"o{event[1] % len(world.objects)}")
        elif kind == "restore":
            world.restore_consumed()
        elif kind == "schedule":
            apply_schedule(world, event[1])
        else:
            world = world.copy()
            worlds.append(world)
        for w in worlds:
            for f in flats:
                assert w.object_at(f) is ref_object_at(w, cell_at(w, f)), (event, f)


class CountingDict(dict):
    """A dict that counts every pass made over it."""

    passes = 0

    def _counted(self, view):
        self.passes += 1
        return view

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())

    def keys(self):
        return self._counted(super().keys())

    def __iter__(self):
        return self._counted(super().__iter__())


@pytest.mark.guard
def test_a_step_at_the_object_cap_reads_no_object_list(monkeypatch):
    """With ``MAX_OBJECTS`` objects, one on every cell, 300 steps and
    observations, a copy and a threshold sweep's walk pass over no world's
    objects: a step reads only the cell it lands on, and a copy shares the
    objects and their index."""
    width, height = 40, world_module.MAX_OBJECTS // 40
    objects = CountingDict(
        (f"o{i}", hazard(f"o{i}", 1.0, (i % width, i // width)) if i == 41 else
         WorldObject(f"o{i}", "reward", 0.5, True, (i % width, i // width)))
        for i in range(world_module.MAX_OBJECTS))
    world = make_world(width, height, (), objects, slip_probability=0.2,
                       observation_confusion=0.3, start=(1, 1))
    objects.passes = 0  # the build reads them all once
    rng = np.random.default_rng(3)
    s = world.state_id(world.start)
    for a in rng.integers(len(ACTIONS), size=300).tolist():
        observe(world, s, rng)
        s = step(world, s, ACTIONS[a], rng)[0]
    assert objects.passes == 0
    assert world.consumed  # the walk did collect rewards
    twin = world.copy()
    assert objects.passes == 0
    for flat in range(world.geometry.n):
        oid = f"o{flat}"
        own = None if oid in world.consumed else objects[oid]
        assert twin.object_at(flat) is own and world.object_at(flat) is own, flat

    copy, walks = world_module.WorldModel.copy, []

    def counted_copy(self):
        twin = copy(self)
        twin.objects = CountingDict(twin.objects)  # same objects: the index holds
        walks.append(twin)
        return twin

    monkeypatch.setattr(world_module.WorldModel, "copy", counted_copy)
    table = sweep_threshold(world, [0.0, 0.5], InterruptPolicy(), seeds=[0], steps=300)
    assert [twin.objects.passes for twin in walks] == [0]
    assert table[0]["false_alarms"] + table[0]["misses"] > 0


@pytest.mark.guard
def test_a_geometry_near_the_cell_cap_holds_no_per_cell_tuples():
    """The tables of a 316x316 grid (99,856 cells, near ``MAX_CELLS``)
    hold under 29 MiB by tracemalloc (about 27 MiB): a table of (x, y)
    tuples, or of each cell's neighbour cells, beside them would add about
    7 MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        geo = Geometry(316, 316, frozenset({(5, 5), (100, 7)}))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert geo.n == 316 * 316 and geo.free.count(False) == 2
    assert held < 29 * 2 ** 20, f"{held / 2 ** 20:.1f} MiB"


@st.composite
def walled_grids(draw):
    """A width x height grid of 1-9 cells per side, 1-wide and 1-tall ones
    included, with random walls and at least one free cell."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = [(x, y) for y in range(height) for x in range(width)]
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    return width, height, frozenset(walls)


@SETTINGS
@given(grid=walled_grids())
def test_moves_are_the_open_moves_as_at_most_16_shared_tuples(grid):
    geo = Geometry(*grid)
    for f, row in enumerate(geo.next_flat):
        assert geo.moves[f] == tuple(a for a in MOVES if row[a] != f)
    assert len({id(m) for m in geo.moves}) <= 16


# -- stale epochs and walls still raise --------------------------------------------


def relocating_world():
    world = world_from_ascii("S.#\n.RH\n", schedule=(Relocation(5, "r0", (0, 1)),))
    wall = ref_state_id(world, (2, 0))
    stale = ref_state_id(world, (1, 0))
    apply_schedule(world, 5)
    assert world.epoch == 1
    return world, stale, wall + world.width * world.height


@pytest.mark.parametrize("which", ["stale", "wall"])
def test_bad_states_raise_world_error(which):
    world, stale, wall = relocating_world()
    s = stale if which == "stale" else wall
    rng = np.random.default_rng(0)
    goal = Goal(target=ref_state_id(world, (0, 0)), anticipated_value=1.0)
    calls = [
        lambda: cell_of(world, s),
        lambda: world.flat_of(s),
        lambda: step(world, s, Action.EAST, rng),
        lambda: observe(world, s, rng),
        lambda: suggest_goals(world, ValueStore(), s, reach=2, threshold=0.0),
        lambda: plan_search(world, s, goal, ValueStore(), PlanSearchParams()),
        lambda: threat_level(world, s, InterruptPolicy()),
    ]
    for call in calls:
        with pytest.raises(WorldError):
            call()


# -- who owns the tables --------------------------------------------------------------


def hexes(levels):
    return [level.hex() for level in levels]


@pytest.mark.guard
def test_copies_share_the_geometry_and_keep_their_own_threat_fields():
    """Objects move only through the schedule, so a copy that moves reads
    its new epoch's field, and the world it was copied from keeps its own."""
    world = world_from_ascii("S.H\n.#.\n", schedule=(Relocation(3, "h0", (0, 1)),))
    twin = world.copy()
    assert twin.geometry is world.geometry
    before = world.threat_field(1.0)
    apply_schedule(twin, 3)
    assert twin.objects is not world.objects  # a relocation binds the twin a new dict
    assert twin.objects["h0"].at == (0, 1) and world.objects["h0"].at == (2, 0)
    assert hexes(twin.threat_field(1.0)) == hexes(ref_threat_field(twin, 1.0))
    assert hexes(twin.threat_field(1.0)) != hexes(before)
    assert world.threat_field(1.0) is before
    assert hexes(before) == hexes(ref_threat_field(world, 1.0))


@pytest.mark.guard
def test_a_copy_checks_nothing_and_shares_its_epochs_fields(monkeypatch):
    """A copy is checked at the build it copies: it runs no field check,
    builds no geometry and reads the fields its world built."""
    world = world_from_ascii("S.H\nR#.\n")
    field = world.threat_field(1.0)
    calls = []
    monkeypatch.setattr(world_module, "check", lambda part: calls.append("check"))
    monkeypatch.setattr(world_module, "Geometry", lambda *a: calls.append("Geometry"))
    twin = world.copy()
    assert calls == []
    assert twin.threat_field(1.0) is field
    assert twin.objects is world.objects
    assert twin.consumed == world.consumed and twin.consumed is not world.consumed


@pytest.mark.guard
def test_a_copy_holds_every_attribute_of_a_fresh_build():
    """``copy`` sets a fixed list of names, so a field added to the world
    and left off that list would be dropped from every run's world."""
    world = world_from_ascii("S.H\nR#.\n", schedule=(Relocation(3, "h0", (0, 1)),))
    fresh, twin = world_from_ascii("S.H\nR#.\n"), world.copy()
    assert list(vars(twin)) == list(vars(fresh))
    for name, value in vars(twin).items():
        if name == "consumed":  # the copy's own state
            assert value == world.consumed and value is not world.consumed
        else:
            assert value is getattr(world, name), name


def test_a_world_keeps_the_threat_fields_of_its_current_epoch_only():
    """A past epoch's states are stale, so its fields are never read again."""
    world = world_from_ascii("S.#\n.RH\n", schedule=(Relocation(5, "h0", (0, 1)),))
    for decay in (1.0, 2.0):
        world.threat_field(decay)
    apply_schedule(world, 5)
    s = ref_state_id(world, (0, 0))
    assert threat_level(world, s, InterruptPolicy()) == ref_threat_level(world, s, 1.0)
    assert list(world._threat) == [1.0]


def test_a_world_with_other_walls_builds_its_own_geometry():
    world = world_from_ascii("S..\n...\n")
    walled = replace(world, walls=frozenset({(1, 0)}))
    assert walled.geometry is not world.geometry
    assert neighbor_cells(walled, (0, 0)) == [(0, 1)]
    assert neighbor_cells(world, (0, 0)) == [(1, 0), (0, 1)]


def test_neighbors_keep_move_order():
    world = world_from_ascii("...\n.S.\n...\n")
    centre = 1 * 3 + 1
    assert world.geometry.moves[centre] == MOVES
    assert neighbor_cells(world, (1, 1)) == [(1, 0), (2, 1), (1, 2), (0, 1)]


def test_cell_reads_reject_out_of_bounds_cells():
    world = world_from_ascii("S.\n")
    for cell in ((2, 0), (-1, 0)):
        assert not world.is_free(cell)
        with pytest.raises(WorldError):  # its id is no state of this epoch
            cell_of(world, world.state_id(cell))
