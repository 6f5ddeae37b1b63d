import json
import math

import numpy as np
import pytest

from conftest import (all_cells, cell_of, flat_at, hazard, intended_next, make_world,
                      neighbor_cells, reward)
from gridmind.inputs import InputError
from gridmind.presets import corridor
from gridmind.world import (ACTIONS, Action, Relocation, WorldError, WorldObject,
                            apply_schedule, load_world, observe, step, world_from_ascii,
                            world_from_dict)


def test_step_cost_only(rng):
    w = make_world(step_cost=0.1)
    s = w.state_id((0, 0))
    s2, r, consumed = step(w, s, Action.EAST, rng)
    assert cell_of(w, s2) == (1, 0)
    assert r == pytest.approx(-0.1)
    assert consumed is None


def test_step_collects_reward_magnitude(rng):
    w = make_world(objects={"g": reward("g", 10.0, (1, 0))})
    s = w.state_id((0, 0))
    s2, r, consumed = step(w, s, Action.EAST, rng)
    assert r == 10.0
    assert consumed == "g"
    # consumable objects are removed after collection
    assert w.object_at(flat_at(w, (1, 0))) is None


def test_step_reads_an_int_action_as_its_action_and_refuses_a_bad_one():
    w = make_world(slip_probability=0.5)
    s = w.state_id((1, 1))
    for a in ACTIONS:
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        assert step(w, s, int(a), rng_a) == step(w, s, a, rng_b)
        assert rng_a.random() == rng_b.random()
    with pytest.raises(ValueError):
        step(w, s, len(ACTIONS), np.random.default_rng(7))


def test_hazard_costs_its_magnitude(rng):
    w = make_world(objects={"h": hazard("h", 2.0, (1, 0))}, step_cost=0.1)
    s = w.state_id((0, 0))
    _, r, consumed = step(w, s, Action.EAST, rng)
    assert r == pytest.approx(-2.1)
    assert consumed is None
    assert w.object_at(flat_at(w, (1, 0))) is not None  # hazards persist


def test_walls_block_yielding_stay(rng):
    w = make_world(walls={(1, 0)})
    s = w.state_id((0, 0))
    s2, r, _ = step(w, s, Action.EAST, rng)
    assert s2 == s


def test_full_slip_is_lateral_only(rng):
    # slip=1.0: intended North never happens, laterals split evenly
    w = make_world(width=3, height=3, slip_probability=1.0, start=(1, 1))
    s = w.state_id((1, 1))
    n = 10_000
    counts = {(1, 0): 0, (0, 1): 0, (2, 1): 0, (1, 2): 0}
    for _ in range(n):
        s2, _, _ = step(w, s, Action.NORTH, rng)
        counts[cell_of(w, s2)] += 1
    assert counts[(1, 0)] == 0 and counts[(1, 2)] == 0
    sigma = (n * 0.25) ** 0.5
    assert abs(counts[(0, 1)] - n / 2) <= 3 * sigma
    assert abs(counts[(2, 1)] - n / 2) <= 3 * sigma


def test_stay_never_slips(rng):
    w = make_world(slip_probability=1.0)
    s = w.state_id((0, 0))
    for _ in range(50):
        s2, _, _ = step(w, s, Action.STAY, rng)
        assert s2 == s


def test_invalid_state_rejected(rng):
    w = make_world()
    with pytest.raises(WorldError):
        step(w, 10_000, Action.NORTH, rng)


def test_observe_noiseless_channel(rng):
    w = make_world(observation_confusion=0.0)
    s = w.state_id((1, 1))
    for _ in range(20):
        assert observe(w, s, rng) == s


def test_observe_corruption_rate(rng):
    w = make_world(observation_confusion=0.2)
    s = w.state_id((1, 1))
    n = 10_000
    corrupted = sum(observe(w, s, rng) != s for _ in range(n))  # a report is never s itself
    sigma = (n * 0.2 * 0.8) ** 0.5
    assert abs(corrupted - n * 0.2) <= 3 * sigma


def test_observe_reports_neighbor_states(rng):
    w = make_world(observation_confusion=0.999)
    s = w.state_id((1, 1))
    neighbors = {w.state_id(c) for c in neighbor_cells(w, (1, 1))}
    for _ in range(200):
        reported = observe(w, s, rng)
        assert reported in neighbors | {s}
        cell_of(w, reported)  # still a valid state id


def test_apply_schedule_empty_is_identity():
    w = make_world(objects={"g": reward("g", 1.0, (0, 0))})
    before = {oid: o.at for oid, o in w.objects.items()}
    apply_schedule(w, 10_000)
    assert {oid: o.at for oid, o in w.objects.items()} == before
    assert w.epoch == 0


def test_apply_schedule_boundary():
    w = make_world(objects={"g": reward("g", 1.0, (0, 0))},
                   schedule=(Relocation(100, "g", (3, 3)),))
    apply_schedule(w, 99)
    assert w.objects["g"].at == (0, 0) and w.epoch == 0
    apply_schedule(w, 100)
    assert w.objects["g"].at == (3, 3) and w.epoch == 1
    apply_schedule(w, 100)  # idempotent
    assert w.objects["g"].at == (3, 3) and w.epoch == 1


def test_apply_schedule_last_write_wins():
    w = make_world(objects={"g": reward("g", 1.0, (0, 0))},
                   schedule=(Relocation(10, "g", (1, 1)), Relocation(20, "g", (2, 2))))
    apply_schedule(w, 25)
    assert w.objects["g"].at == (2, 2)
    assert w.epoch == 2


def test_schedule_must_increase():
    with pytest.raises(WorldError):
        make_world(objects={"g": reward("g", 1.0, (0, 0))},
                   schedule=(Relocation(10, "g", (1, 1)), Relocation(10, "g", (2, 2))))


def test_relocation_to_wall_rejected_at_load():
    with pytest.raises(WorldError):
        make_world(walls={(3, 3)}, objects={"g": reward("g", 1.0, (0, 0))},
                   schedule=(Relocation(5, "g", (3, 3)),))


def test_object_on_wall_rejected():
    with pytest.raises(WorldError):
        make_world(walls={(1, 1)}, objects={"g": reward("g", 1.0, (1, 1))})


def test_nan_step_cost_rejected():
    with pytest.raises(WorldError, match="step_cost"):
        corridor(step_cost=math.nan)


def test_nan_magnitude_rejected():
    with pytest.raises(WorldError, match="magnitude"):
        make_world(objects={"g": reward("g", math.nan, (0, 0))})


def test_all_wall_world_rejected():
    with pytest.raises(WorldError):
        make_world(width=2, height=1, walls={(0, 0), (1, 0)})


def relocating(t):
    """A world whose object g is relocated at step ``t``."""
    return make_world(objects={"g": reward("g", 1.0, (0, 0))},
                      schedule=(Relocation(t, "g", (1, 1)),))


@pytest.mark.parametrize("make, message", [
    (lambda: corridor(step_cost=math.inf), "step_cost must be a finite number"),
    (lambda: make_world(objects={"g": reward("g", math.inf, (0, 0))}),
     "object 'g': magnitude must be a finite number"),
    (lambda: make_world(objects={"h": hazard("h", 1e300, (0, 0))}),
     "object 'h': magnitude must be within +-1e+12"),
    (lambda: make_world(objects={"h": hazard("h", 0.0, (0, 0))}),
     "object 'h': magnitude must be > 0"),
    (lambda: make_world(width=True), "width must be an integer"),
    (lambda: make_world(height=0), "height must be >= 1"),
    (lambda: relocating(2.5), "relocation of 'g': t must be an integer"),
    (lambda: relocating(-3), "relocation of 'g': t must be >= 0"),
    (lambda: make_world(width=3, height=1, walls={(5, 5)}), "walls must lie inside the 3x1 grid"),
    (lambda: make_world(objects={"pit": WorldObject("pit", "hazard", 1.0, True, (0, 0))}),
     "object 'pit': only a reward can be consumable"),
], ids=["inf-step-cost", "inf-magnitude", "1e300-magnitude", "zero-magnitude", "bool-width",
        "zero-height", "fractional-t", "negative-t", "wall-outside", "consumable-hazard"])
def test_python_api_refuses_what_a_world_file_refuses(make, message):
    """An infinite cost or magnitude once ran until a wander batch raised, a
    magnitude of 1e300 ran to totals near 1e302, a bool width, a fractional t
    and a wall outside the grid were accepted, a negative t was refused as
    out of order, and a consumable hazard was accepted and never consumed."""
    with pytest.raises(WorldError) as exc:
        make()
    assert str(exc.value) == message


def test_determinism_bit_exact():
    def trace(seed):
        w = make_world(width=5, height=5, slip_probability=0.3,
                       observation_confusion=0.2, step_cost=0.1,
                       objects={"g": reward("g", 2.0, (4, 4))})
        r1 = np.random.default_rng(seed)
        r2 = np.random.default_rng(seed + 1)
        s = w.state_id((0, 0))
        out = []
        for i in range(200):
            a = ACTIONS[i % 5]
            s, r, c = step(w, s, a, r1)
            reported = observe(w, s, r2)
            out.append((s, r, c, reported, reported != s))
            if c:
                w.restore_consumed()
        return out
    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def transition_closure(world, origin):
    """Oracle: exhaustive closure over every possible step outcome."""
    from gridmind.world import LATERALS
    seen = {origin}
    frontier = [origin]
    while frontier:
        cell = frontier.pop()
        for a in ACTIONS:
            outcomes = [intended_next(world, cell, a)]
            if a is not Action.STAY and world.slip_probability > 0:
                outcomes += [intended_next(world, cell, lat) for lat in LATERALS[a]]
            for nxt in outcomes:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return {world.state_id(c) for c in seen}


def neighbor_closure(world, origin):
    """The states a walk over the geometry's neighbour table reaches."""
    seen = {origin}
    frontier = [origin]
    while frontier:
        for nxt in neighbor_cells(world, frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {world.state_id(c) for c in seen}


@pytest.mark.parametrize("seed", range(5))
def test_reachability_matches_transition_closure(seed):
    rng = np.random.default_rng(seed)
    walls = {(int(x), int(y)) for x, y in rng.integers(0, 8, size=(10, 2))}
    # keep the start free
    walls.discard((0, 0))
    w = make_world(width=8, height=8, walls=walls, slip_probability=0.5, start=(0, 0))
    for cell in all_cells(w):
        if not w.is_free(cell):
            continue
        assert neighbor_closure(w, cell) == transition_closure(w, cell)


def test_reward_accounting_zero_slip(rng):
    w = make_world(width=6, height=1,
                   objects={"g": reward("g", 3.0, (5, 0)),
                            "h": hazard("h", 1.0, (2, 0))},
                   step_cost=0.25)
    s = w.state_id((0, 0))
    total = 0.0
    collected = 0.0
    steps = 0
    for _ in range(5):
        s, r, c = step(w, s, Action.EAST, rng)
        total += r
        steps += 1
        obj_gain = 0.0
    # walked over hazard (0->5): magnitudes: hazard -1 at (2,0), reward +3 at (5,0)
    assert total == pytest.approx((3.0 - 1.0) - steps * 0.25)


def test_json_world_round_trip(tmp_path):
    spec = {
        "width": 4, "height": 3,
        "walls": [[1, 1]],
        "objects": [
            {"id": "g", "kind": "reward", "magnitude": 2.0, "consumable": True, "at": [3, 0]},
            {"id": "h", "kind": "hazard", "magnitude": 1.5, "at": [2, 2]},
        ],
        "slip_probability": 0.1,
        "step_cost": 0.05,
        "observation_confusion": 0.2,
        "schedule": [{"t": 50, "object": "g", "to": [0, 2]}],
        "start": [0, 0],
    }
    path = tmp_path / "world.json"
    path.write_text(json.dumps(spec))
    w = load_world(path)
    assert (w.width, w.height) == (4, 3)
    assert w.objects["g"].at == (3, 0)
    assert w.objects["h"].kind == "hazard" and not w.objects["h"].consumable
    assert w.schedule[0].to == (0, 2)
    assert w.start == (0, 0)
    assert w.slip_probability == 0.1


def test_ascii_world(tmp_path):
    text = "#####\n#S.R#\n#.H.#\n#####\n"
    w = world_from_ascii(text)
    assert w.start == (1, 1)
    kinds = sorted(o.kind for o in w.objects.values())
    assert kinds == ["hazard", "reward"]
    path = tmp_path / "map.txt"
    path.write_text(text)
    assert load_world(path).start == (1, 1)


def test_ascii_rejects_unknown_chars():
    with pytest.raises(WorldError):
        world_from_ascii("S.X\n")


def test_json_missing_field():
    with pytest.raises(InputError):
        world_from_dict({"width": 3})
