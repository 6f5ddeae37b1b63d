"""The input boundary: every JSON input is read by one set of typed readers.

Bad input exits 2 with the dotted path of the bad value and never prints
a traceback; an exit of 3 means a value got past the readers.
"""

import csv
import json
import math
import tempfile
import typing
from dataclasses import field, fields, is_dataclass, make_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridmind import harness, inputs, world
from gridmind.affect import InterruptPolicy, SelfModel
from gridmind.cli import main as cli_main
from gridmind.harness import RunConfig, config_from_dict, experiment, run
from gridmind.planning import PlanSearchParams
from gridmind.suffering import Terms
from gridmind.values import ExpectationBaseline

RUN = {"world": "loss_heavy", "steps": 30, "seed": 0}
MATRIX = {"interventions": ["baseline"], "worlds": ["loss_heavy"], "seeds": [0], "steps": 20}
POLICY = {"thresholds": [0.0, 1.0], "seeds": 1, "steps": 10}


def cli(tmp: Path, command: str, text: str, *extra) -> int:
    """Run a command on ``text`` as its input file, in process."""
    path = tmp / "input.json"
    path.write_text(text)
    if command == "simulate":
        argv = ["simulate", "--config", str(path), "--out", str(tmp / "out")]
    elif command == "experiment":
        argv = ["experiment", "--matrix", str(path), "--out", str(tmp / "out")]
    else:
        argv = ["sweep-threshold", "--world", "hazard_alley", "--policy", str(path),
                "--out", str(tmp / "out")]
    return cli_main([*argv, *extra])


def with_fields(base: dict, extra: str) -> str:
    """``base`` as JSON with raw JSON members added (NaN, Infinity)."""
    return json.dumps(base)[:-1] + ", " + extra + "}"


# -- leaks: values that used to run, or to fail with a traceback ------------------


@pytest.mark.parametrize("text, path", [
    (with_fields(RUN, '"wandering": {"batch_size": 2.5}'), "wandering.batch_size"),
    (with_fields(RUN, '"buffer_capacity": 0'), "buffer_capacity"),
    (with_fields(RUN, '"buffer_capacity": "x"'), "buffer_capacity"),
    (with_fields(RUN, '"baseline_rate": 2'), "baseline_rate"),
    (with_fields(RUN, '"baseline_level": Infinity'), "baseline_level"),
    (with_fields(RUN, '"goal_threshold": NaN'), "goal_threshold"),
    (with_fields(RUN, '"interrupts": {"decay_length": NaN}'), "interrupts.decay_length"),
    (with_fields(RUN, '"planning": {"heuristic_weight": NaN}'), "planning.heuristic_weight"),
    (with_fields(RUN, '"self_model": {"standard": NaN}'), "self_model.standard"),
    (with_fields(RUN, '"meta_aversion": "yes"'), "meta_aversion"),
    (with_fields(RUN, '"trace": "no"'), "trace"),
    (with_fields(RUN, '"planning": {"max_depth": 2.5}'), "planning.max_depth"),
    (with_fields(RUN, '"self_model": {"evaluation_window": 2.5}'),
     "self_model.evaluation_window"),
    (with_fields(RUN, '"self_model": {"mode": "Waiting"}'), "self_model.mode"),
    (with_fields(RUN, '"self_model": {"wait_remaining": 7}'), "self_model.wait_remaining"),
    (with_fields(RUN, '"self_model": {"cooldown": -3}'), "self_model.cooldown"),
    (with_fields(RUN, '"buffer_capacity": 10000001'), "buffer_capacity"),  # the cap + 1
    (with_fields(RUN, '"learning": {"alpha": "0.1"}'), "learning.alpha"),
    (with_fields(RUN, '"world": 3'), "world"),
    (with_fields(RUN, '"intervention": {"name": "a/b"}'), "intervention.name"),
    (with_fields(RUN, '"attention": 1e308'), "attention"),  # totals would overflow to inf
    (with_fields(RUN, '"planning": {"branching_cap": 0}'), "planning.branching_cap"),
    (with_fields(RUN, '"wandering": {"rollout_depth": 0}'), "wandering.rollout_depth"),
    (with_fields(RUN, '"wandering": {"batch_size": 1001}'), "wandering.batch_size"),  # cap + 1
    (with_fields(RUN, '"wandering": {"batch_size": 1000000000}'), "wandering.batch_size"),
    (with_fields(RUN, '"wandering": {"rollout_depth": 1001}'), "wandering.rollout_depth"),
    (with_fields(RUN, '"wandering": {"rollout_depth": 1000000000}'), "wandering.rollout_depth"),
    (json.dumps({**RUN, "steps": 10 ** 6 + 1}), "steps"),  # the cap + 1
    (json.dumps({**RUN, "steps": 10 ** 12}), "steps"),
    ("[1, 2]", "config"),
])
def test_bad_run_config_exits_2_with_its_path(tmp_path, capsys, text, path):
    assert cli(tmp_path, "simulate", text) == 2
    err = capsys.readouterr().err
    assert f"invalid config: {path}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, path", [
    ("[1]", "matrix"),
    (json.dumps({**MATRIX, "sedes": 3}), "sedes"),
    (json.dumps({**MATRIX, "base": {"world": "loss_heavy"}}), "base.world"),
    (json.dumps({**MATRIX, "base": {"seed": 3}}), "base.seed"),
    (json.dumps({**MATRIX, "base": {"buffer_capacity": 0}}), "base.buffer_capacity"),
    (json.dumps({**MATRIX, "seeds": 10 ** 6 + 1}), "seeds"),  # the cap + 1
    (json.dumps({**MATRIX, "base": {"intervention": "empty_mind"}}), "base.intervention"),
    (json.dumps({**MATRIX, "steps": 10 ** 6 + 1}), "steps"),  # the cap + 1
    (json.dumps({**MATRIX, "base": {"steps": 10 ** 12}}), "base.steps"),
    (json.dumps({**MATRIX, "interventions": [{"name": "x", "expectation_scale": "0.5"}]}),
     "interventions[0].expectation_scale"),
    pytest.param(json.dumps({**MATRIX, "interventions": ["baseline"] * 1001}), "interventions",
                 id="interventions-cap+1"),
    pytest.param(json.dumps({**MATRIX, "worlds": ["loss_heavy"] * 101}), "worlds",
                 id="worlds-cap+1"),
    # Repeats, which once wrote report rows that nothing told apart and
    # counted a seed twice in the medians.
    (json.dumps({**MATRIX, "interventions": [{"name": "x", "attention_scale": 0.5},
                                             {"name": "x"}]}), "interventions[1]"),
    (json.dumps({**MATRIX, "interventions": ["baseline", "empty_mind", {"name": "baseline"}]}),
     "interventions[2]"),
    (json.dumps({**MATRIX, "worlds": ["loss_heavy", "corridor", "loss_heavy"]}), "worlds[2]"),
    (json.dumps({**MATRIX, "worlds": ["loss_heavy", "maps/loss_heavy.json"]}), "worlds[1]"),
    (json.dumps({**MATRIX, "seeds": [3, 3]}), "seeds[1]"),
    # Empty axes, which once wrote a header-only report.csv or, with no
    # interventions, crashed on the progress line's ETA.
    (json.dumps({**MATRIX, "interventions": []}), "interventions"),
    (json.dumps({**MATRIX, "worlds": []}), "worlds"),
    pytest.param(json.dumps({**MATRIX, "seeds": []}), "seeds", id="seeds-empty-list"),
    pytest.param(json.dumps({**MATRIX, "seeds": 0}), "seeds", id="seeds-zero"),
])
def test_bad_matrix_exits_2_before_any_simulation(tmp_path, capsys, monkeypatch, text, path):
    monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("simulated a bad matrix"))
    assert cli(tmp_path, "experiment", text) == 2
    err = capsys.readouterr().err
    assert f"invalid config: {path}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, path", [
    (with_fields(POLICY, '"seeds": true, "steps": true'), "policy.seeds"),
    (with_fields(POLICY, '"steps": true'), "policy.steps"),
    (with_fields(POLICY, '"seeds": [0.5]'), "policy.seeds[0]"),
    (with_fields(POLICY, '"seeds": [4, 9, 4]'), "policy.seeds[2]"),
    (with_fields(POLICY, '"seeds": -3'), "policy.seeds"),
    (with_fields(POLICY, '"seeds": 1000001'), "policy.seeds"),  # the cap + 1
    (with_fields(POLICY, '"steps": -5'), "policy.steps"),
    (json.dumps({**POLICY, "steps": 10 ** 6 + 1}), "policy.steps"),  # the cap + 1
    (with_fields(POLICY, '"thresholds": [0, NaN]'), "policy.thresholds[1]"),
    (with_fields(POLICY, '"thresholds": [0]'), "policy.thresholds"),
    pytest.param(json.dumps({**POLICY, "thresholds": [0.0] * 1001}), "policy.thresholds",
                 id="thresholds-cap+1"),
    (with_fields(POLICY, '"colour": 1'), "policy.colour"),
    (with_fields(POLICY, '"decay_length": 0'), "policy.decay_length"),
    (with_fields(POLICY, '"miss_cost": 1e308'), "policy.miss_cost"),
    ("[1]", "policy"),
])
def test_bad_sweep_policy_exits_2_with_its_path(tmp_path, capsys, text, path):
    assert cli(tmp_path, "sweep-threshold", text) == 2
    err = capsys.readouterr().err
    assert f"invalid config: {path}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_thresholds_keep_their_message(tmp_path, capsys):
    assert cli(tmp_path, "sweep-threshold", "{}") == 2
    assert "invalid config: policy.thresholds: need at least two" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [0, []], ids=["zero", "empty-list"])
def test_a_sweep_without_seeds_exits_2(tmp_path, capsys, seeds):
    """No seeds measure nothing; a table of zeros would read as a perfect detector."""
    assert cli(tmp_path, "sweep-threshold", json.dumps({**POLICY, "seeds": seeds})) == 2
    assert "invalid config: policy.seeds: need at least one\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_policy_seeds_follow_the_matrix_rule():
    thresholds, policy, seeds, steps = harness.sweep_from_dict(
        {"thresholds": [0, 1e9], "seeds": 3, "steps": 7, "miss_cost": 2})
    assert (thresholds, seeds, steps) == ([0, 1e9], [0, 1, 2], 7)
    assert policy == InterruptPolicy(miss_cost=2)
    assert harness.sweep_from_dict({"thresholds": [0, 1], "seeds": [4, 9]})[2] == [4, 9]


def test_steps_cap_is_checked_before_anything_runs(tmp_path, capsys):
    """The cap is refused by --validate-only too, and the cap itself is a
    legal count (checked by reading it, never by running it)."""
    assert cli(tmp_path, "simulate", json.dumps({"world": "loss_heavy", "steps": 10 ** 12}),
               "--validate-only") == 2
    assert "invalid config: steps: must be in [0, 1000000]" in capsys.readouterr().err
    assert inputs.MAX_STEPS == 10 ** 6
    assert config_from_dict({**RUN, "steps": inputs.MAX_STEPS}).steps == inputs.MAX_STEPS
    assert inputs.steps(inputs.MAX_STEPS, "steps") == inputs.MAX_STEPS
    with pytest.raises(inputs.InputError, match="must be at most 1000000"):
        inputs.steps(inputs.MAX_STEPS + 1, "steps")


def test_rollout_depth_cap_is_checked_before_anything_runs(tmp_path, capsys):
    """A rollout steps until it consumes a reward, and open_room has none, so
    an uncapped depth would stall the run; the cap itself is only read."""
    wandering = {"p_wander": 1.0, "mode_mix": 0.0, "batch_size": 1, "rollout_depth": 10 ** 9}
    text = json.dumps({"world": "open_room", "steps": 5, "wandering": wandering})
    assert cli(tmp_path, "simulate", text, "--validate-only") == 2
    assert "invalid config: wandering.rollout_depth: must be in [1, 1000]" in \
        capsys.readouterr().err
    capped = config_from_dict({**RUN, "wandering": {**wandering, "rollout_depth": 1000}})
    assert capped.wandering.rollout_depth == 1000


def test_goal_reach_shares_the_rollout_depth_cap(tmp_path, capsys):
    """``suggest_goals`` takes a goal reach and a rollout depth alike as its
    reach, so both have one ceiling."""
    text = json.dumps({**RUN, "goal_reach": 1001})
    assert cli(tmp_path, "simulate", text, "--validate-only") == 2
    assert "invalid config: goal_reach: must be in [1, 1000]" in capsys.readouterr().err
    assert config_from_dict({**RUN, "goal_reach": 1000}).goal_reach == 1000


CELLS_CAP = "width: width * height must be at most 100000"


@pytest.mark.parametrize("name, text, message", [
    ("world.json", json.dumps({"width": 100_000, "height": 100_000}), CELLS_CAP),
    ("world.json", json.dumps({"width": 1001, "height": 100}), CELLS_CAP),  # the cap + 100
    ("world.json", json.dumps({"width": 2, "height": 1, "objects": [{}] * 1001}),
     "objects: must hold at most 1000 items"),
    ("world.json", json.dumps({"width": 2, "height": 1, "schedule": [{}] * 1001}),
     "schedule: must hold at most 1000 items"),
    ("world.txt", "." * 100_001, CELLS_CAP),
    ("world.txt", "S\n" + "." * 100_000, CELLS_CAP),  # rows pad to the widest
    ("world.txt", "R" * 1001, "objects: must hold at most 1000 items"),
], ids=["json-10^10-cells", "json-cells-cap+100", "json-objects-cap+1", "json-schedule-cap+1",
        "ascii-cells-cap+1", "ascii-padded-rows", "ascii-objects-cap+1"])
def test_world_past_a_size_cap_exits_2_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                         name, text, message):
    monkeypatch.setattr(world, "Geometry", lambda *a: pytest.fail("built a world past a cap"))
    (tmp_path / name).write_text(text)
    config = json.dumps({**RUN, "world": str(tmp_path / name)})
    assert cli(tmp_path, "simulate", config, "--validate-only") == 2
    err = capsys.readouterr().err
    assert f"invalid config: world: {message}" in err
    assert "Traceback" not in err


def test_world_size_caps_are_legal_sizes(monkeypatch):
    """A world at every cap reaches the table build; none is built here."""
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(world, "Geometry", reached)
    objects = [{"id": f"o{i}", "kind": "hazard", "magnitude": 1, "at": [i, 0]}
               for i in range(1000)]
    schedule = [{"t": t, "object": "o0", "to": [0, 1]} for t in range(1000)]
    with pytest.raises(Reached):
        world.world_from_dict({"width": 1000, "height": 100, "objects": objects,
                               "schedule": schedule})
    with pytest.raises(Reached):
        world.world_from_ascii("\n".join(["H" * 1000] + ["." * 1000] * 99))
    relocations = tuple(world.Relocation(t, "h0", (1, 0)) for t in range(1001))
    with pytest.raises(inputs.InputError, match="schedule: must hold at most 1000 items"):
        world.world_from_ascii("H.", schedule=relocations)


def test_repeat_names_the_item_it_repeats(tmp_path, capsys):
    text = json.dumps({**MATRIX, "seeds": [0, 3, 3]})
    assert cli(tmp_path, "experiment", text) == 2
    assert "invalid config: seeds[2]: repeats seeds[1] (3)\n" in capsys.readouterr().err


def test_wall_outside_the_grid_exits_2(tmp_path, capsys):
    """Such a wall once passed --validate-only and was silently ignored."""
    (tmp_path / "world.json").write_text(json.dumps({"width": 3, "height": 1,
                                                     "walls": [[5, 5]]}))
    config = json.dumps({"world": str(tmp_path / "world.json")})
    assert cli(tmp_path, "simulate", config, "--validate-only") == 2
    assert "invalid config: world: walls must lie inside the 3x1 grid" in capsys.readouterr().err


def test_a_consumable_hazard_in_a_world_file_exits_2(tmp_path, capsys):
    """Such a hazard once passed --validate-only and was never consumed."""
    pit = {"id": "pit", "kind": "hazard", "magnitude": 1, "consumable": True, "at": [1, 0]}
    (tmp_path / "world.json").write_text(json.dumps({"width": 3, "height": 1,
                                                     "objects": [pit]}))
    config = json.dumps({"world": str(tmp_path / "world.json")})
    assert cli(tmp_path, "simulate", config, "--validate-only") == 2
    assert ("invalid config: world: object 'pit': only a reward can be consumable"
            in capsys.readouterr().err)


def test_seed_override_goes_through_the_seed_rule(tmp_path, capsys):
    assert cli(tmp_path, "simulate", json.dumps(RUN), "--seed", "-1") == 2
    assert "invalid config: seed:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "experiment", "sweep-threshold"])
def test_unreadable_input_exits_2(tmp_path, capsys, command):
    assert cli(tmp_path, command, '{"steps": ') == 2
    assert f"invalid config: {tmp_path / 'input.json'}:1:" in capsys.readouterr().err


def test_other_errors_exit_3_in_one_line(tmp_path, capsys, monkeypatch):
    def breach(*args, **kwargs):
        raise RuntimeError("state 7 is stale\nsecond line")

    monkeypatch.setattr(harness, "run", breach)
    assert cli(tmp_path, "simulate", json.dumps(RUN)) == 3
    err = capsys.readouterr().err
    assert err == "error: RuntimeError: state 7 is stale second line\n"


# -- the readers ------------------------------------------------------------------


def test_section_keeps_ints_as_given():
    config = config_from_dict({**RUN, "desire_cost": 1, "interrupts": {"miss_cost": 2}})
    assert type(config.desire_cost) is int and type(config.interrupts.miss_cost) is int


def test_infinity_only_where_the_rule_admits_it(tmp_path, capsys):
    """desire_threshold was refused from JSON although its rule admits +inf."""
    for name in ("threat_threshold", "desire_threshold"):
        config = config_from_dict({**RUN, "interrupts": {name: math.inf}})
        assert getattr(config.interrupts, name) == math.inf
    text = with_fields(RUN, '"interrupts": {"desire_threshold": Infinity}')
    assert cli(tmp_path, "simulate", text, "--validate-only") == 0
    for section, name, value in (("self_model", "standard", "Infinity"),
                                 ("interrupts", "threat_threshold", "-Infinity")):
        text = with_fields(RUN, f'"{section}": {{"{name}": {value}}}')
        assert cli(tmp_path, "simulate", text, "--validate-only") == 2
        assert f"invalid config: {section}.{name}: must be a finite number" in \
            capsys.readouterr().err


def test_null_only_where_the_field_takes_none():
    assert config_from_dict({**RUN, "intervention": {"realness_override": None}})
    with pytest.raises(inputs.InputError) as exc:
        config_from_dict({**RUN, "interrupts": {"miss_cost": None}})
    assert exc.value.path == "interrupts.miss_cost"


@pytest.mark.parametrize("tp", [bytes, float, int, float | None], ids=str)
def test_an_annotation_with_no_json_reader_is_a_type_error(tp):
    """A number is read only by its declared rule, so a numeric field that
    declares none fails on its first read."""
    section = make_dataclass("Section", [("data", tp, field(default=None))], frozen=True)
    with pytest.raises(TypeError, match="no JSON reader"):
        inputs.section(section, {}, "section")


def test_huge_int_is_not_a_finite_number():
    with pytest.raises(inputs.InputError) as exc:
        config_from_dict({**RUN, "attention": 10 ** 400})
    assert exc.value.path == "attention"



# -- declared rules: one per numeric field, from Python as from JSON ---------------


def sections(config=RunConfig(), path=""):
    """(class, dotted path prefix) of the run config and each section under it."""
    yield type(config), path
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from sections(value, f"{path}{f.name}.")


# Every declared rule; the classes a run config does not hold have no JSON path.
RULES = [(cls, prefix, name, rule, integral)
         for cls, prefix in [*sections(), (ExpectationBaseline, None), (Terms, None)]
         for name, rule, integral, _ in inputs.rules(cls)]


def probes(rule, integral) -> tuple:
    """(refused, accepted) values of a rule: NaN, each infinity it refuses,
    the nearest value past each finite bound (a float field is held within
    +-BOUND where its rule sets no bound), and 2.5 and True in an int field
    are refused; each closed bound, and +inf where admitted, is accepted."""
    lo, hi = rule.lo, rule.hi
    if not integral:
        lo = -inputs.BOUND if lo is None else lo
        hi = inputs.BOUND if hi is None else hi
    refused = [math.nan, -math.inf] + ([] if rule.inf else [math.inf])
    accepted = [math.inf] if rule.inf else []
    for bound, is_open, outward in ((lo, rule.lo_open, -1), (hi, rule.hi_open, 1)):
        if bound is None:
            continue
        if is_open:
            refused.append(bound)
        else:
            accepted.append(bound)
            refused.append(bound + outward if integral else math.nextafter(bound, outward * math.inf))
    return refused + ([2.5, True] if integral else []), accepted


def test_declared_rules_cover_every_section():
    assert {prefix for _, prefix, *_ in RULES} >= {"", "learning.", "planning.", "wandering.",
                                                  "interrupts.", "self_model.", "intervention."}
    assert ("", "steps") in {(prefix, name) for _, prefix, name, *_ in RULES}
    assert [name for _, _, name, rule, _ in RULES if rule.inf] == ["threat_threshold",
                                                                   "desire_threshold"]


@pytest.mark.parametrize("cls, prefix, name, rule, integral", RULES,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name, *_ in RULES])
def test_a_declared_rule_holds_from_python_and_from_json(cls, prefix, name, rule, integral):
    refused, accepted = probes(rule, integral)
    accepted.append(next(f.default for f in fields(cls) if f.name == name))
    for value in refused:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls(**{name: value})
        if prefix is not None:
            with pytest.raises(inputs.InputError) as exc:
                config_from_dict(put(RUN, prefix + name, value))
            assert exc.value.path == prefix + name, value
    for value in accepted:
        assert getattr(cls(**{name: value}), name) == value
        if prefix is not None:
            config = config_from_dict(put(RUN, prefix + name, value))
            for key in prefix.split(".")[:-1]:
                config = getattr(config, key)
            assert getattr(config, name) == value


# Each world class: the dotted path of its fields in a world file, and
# where a world built from GOOD_WORLD keeps it.
GOOD_WORLD = {"width": 3, "height": 2,
              "objects": [{"id": "g", "kind": "reward", "magnitude": 1.0, "at": [0, 0]}],
              "schedule": [{"t": 5, "object": "g", "to": [0, 0]}]}
WORLD_PARTS = {world.WorldModel: ("", lambda w: w),
               world.WorldObject: ("objects[0].", lambda w: w.objects["g"]),
               world.Relocation: ("schedule[0].", lambda w: w.schedule[0])}
WORLD_RULES = [(cls, name, rule, integral) for cls in WORLD_PARTS
               for name, rule, integral, _ in inputs.rules(cls)]


def built(cls, name, value) -> world.WorldModel:
    """GOOD_WORLD built from Python, with ``name`` of its ``cls`` part set to ``value``."""
    parts = {world.WorldObject: world.WorldObject("g", "reward", 1.0, True, (0, 0)),
             world.Relocation: world.Relocation(5, "g", (0, 0))}
    top = {"width": 3, "height": 2}
    if cls is world.WorldModel:
        top[name] = value
    else:
        parts[cls] = replace(parts[cls], **{name: value})
    return world.WorldModel(**top, walls=frozenset(), objects={"g": parts[world.WorldObject]},
                            schedule=(parts[world.Relocation],))


def numeric(hint) -> bool:
    """An int or float annotation, optional or not."""
    args = set(typing.get_args(hint))
    return bool(((args - {type(None)}) if type(None) in args else {hint}) & {int, float})


def test_every_numeric_field_declares_its_rule():
    """Every numeric field a caller can set; the rest (a world's epoch) is run state."""
    classes = [cls for cls, _ in sections()] + list(WORLD_PARTS)
    hints = {cls: typing.get_type_hints(cls, include_extras=True) for cls in classes}
    undeclared = [f"{cls.__name__}.{f.name}" for cls in classes for f in fields(cls)
                  if f.init and typing.get_origin(hints[cls][f.name]) is not typing.Annotated
                  and numeric(hints[cls][f.name])]
    assert undeclared == []
    assert {name for _, name, *_ in WORLD_RULES} >= {"width", "height", "slip_probability",
                                                    "step_cost", "observation_confusion",
                                                    "magnitude", "t"}


@pytest.mark.parametrize("cls, name, rule, integral", WORLD_RULES,
                         ids=[f"{cls.__name__}.{name}" for cls, name, *_ in WORLD_RULES])
def test_a_world_rule_holds_from_python_and_from_a_world_file(tmp_path, capsys, cls, name,
                                                               rule, integral):
    prefix, part_of = WORLD_PARTS[cls]
    refused, accepted = probes(rule, integral)
    path = tmp_path / "world.json"
    for value in refused:
        with pytest.raises(world.WorldError, match=f"(^|: ){name} must be "):
            built(cls, name, value)
        path.write_text(json.dumps(put(GOOD_WORLD, prefix + name, value)))
        assert cli(tmp_path, "simulate", json.dumps({"world": str(path)}),
                   "--validate-only") == 2, value
        err = capsys.readouterr().err
        assert err.startswith("invalid config: world: ") and name in err, (value, err)
    for value in accepted:
        assert getattr(part_of(built(cls, name, value)), name) == value
        spec = put(GOOD_WORLD, prefix + name, value)
        assert getattr(part_of(world.world_from_dict(spec)), name) == value


@pytest.mark.parametrize("make, name", [
    (lambda: RunConfig(desire_cost=math.inf), "desire_cost"),
    (lambda: RunConfig(baseline_level=math.nan), "baseline_level"),
    (lambda: RunConfig(meta_aversion=True, meta_aversion_scale=math.nan), "meta_aversion_scale"),
    (lambda: InterruptPolicy(decay_length=math.nan), "decay_length"),
    (lambda: PlanSearchParams(heuristic_weight=math.nan), "heuristic_weight"),
    (lambda: PlanSearchParams(max_depth=math.nan), "max_depth"),
    (lambda: SelfModel(evaluation_window=math.nan), "evaluation_window"),
    (lambda: SelfModel(failure_limit=math.nan), "failure_limit"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_python_api_refuses_non_finite_values_at_construction(make, name):
    """Each of these once built a config that ran to nan in events.csv or
    to a crash in json.dump after the whole simulation."""
    with pytest.raises(ValueError, match=f"^{name} must be "):
        make()


def test_step_penalty_is_an_unknown_field(tmp_path, capsys):
    """The subtractive scheme is ``gamma: null``; its step charge is the world's."""
    text = json.dumps({**RUN, "learning": {"step_penalty": 0.05}})
    assert cli(tmp_path, "simulate", text, "--validate-only") == 2
    assert "invalid config: learning.step_penalty: unknown field" in capsys.readouterr().err
    text = json.dumps({**RUN, "learning": {"gamma": None}})
    assert cli(tmp_path, "simulate", text, "--validate-only") == 0
    assert config_from_dict(json.loads(text)).learning.subtractive

def test_run_builds_its_world_once(monkeypatch):
    calls = []

    def counting(name):
        calls.append(name)
        return get_world(name)

    get_world = harness.get_world
    monkeypatch.setattr(harness, "get_world", counting)
    run(RunConfig(world="loss_heavy", steps=5))
    assert calls == ["loss_heavy"]
    calls.clear()
    experiment({**MATRIX, "interventions": ["baseline", "empty_mind"], "seeds": 2})
    assert calls == ["loss_heavy"]  # once, not once per simulation (2 seeds x 2 classes)


def test_experiment_builds_a_threat_field_once_per_world(monkeypatch):
    """Its runs copy one build, and copies in one epoch share its fields, so
    hazard_alley (no schedule) builds one field for 2 seeds x 3 classes."""
    calls = []
    active_hazards = world.WorldModel.active_hazards
    monkeypatch.setattr(world.WorldModel, "active_hazards",
                        lambda self: calls.append(1) or active_hazards(self))
    rows, failures = experiment({"worlds": ["hazard_alley"], "seeds": 2, "steps": 20})
    assert failures == 0 and len(rows) == 8 * 3
    assert len(calls) == 1


@pytest.mark.parametrize("extra", [(), ("--validate-only",)])
def test_simulate_builds_its_world_once(tmp_path, monkeypatch, extra):
    """Reading the config builds no world; the check or the run builds it."""
    calls = []
    get_world = harness.get_world
    monkeypatch.setattr(harness, "get_world", lambda name: calls.append(name) or get_world(name))
    assert cli(tmp_path, "simulate", json.dumps(RUN), *extra) == 0
    assert calls == ["loss_heavy"]


def test_simulate_of_a_missing_world_file_exits_2_and_writes_nothing(tmp_path, capsys):
    text = json.dumps({**RUN, "world": str(tmp_path / "missing.json")})
    assert cli(tmp_path, "simulate", text) == 2
    assert capsys.readouterr().err.startswith("invalid config: world: ")
    assert not (tmp_path / "out").exists()


# -- property: the boundary has no holes --------------------------------------------


def field_paths(config, prefix="") -> list:
    """Every field of a config dataclass, nested fields too, as dotted paths."""
    paths = []
    for f in fields(config):
        paths.append(prefix + f.name)
        if is_dataclass(getattr(config, f.name)):
            paths += field_paths(getattr(config, f.name), f"{prefix}{f.name}.")
    return paths


RUN_PATHS = field_paths(RunConfig()) + ["unknown", "learning.unknown"]
MATRIX_PATHS = (["interventions", "interventions[0]", "interventions[0].expectation_scale",
                 "worlds", "worlds[0]", "seeds", "seeds[0]", "steps", "base", "unknown"]
                + [f"base.{p}" for p in RUN_PATHS])
POLICY_PATHS = (["thresholds", "thresholds[0]", "seeds", "steps", "unknown"]
                + field_paths(InterruptPolicy()))

SCALARS = (st.none() | st.booleans() | st.integers(-3, 50) | st.floats()
           | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=6))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                      max_leaves=6)


def put(data: dict, path: str, value) -> dict:
    """A copy of ``data`` with ``value`` at a dotted path; a missing or
    non-object parent becomes an object."""
    data = json.loads(json.dumps(data))
    keys = [int(k[1:-1]) if k.startswith("[") else k for k in path.replace("[", ".[").split(".")]
    node = data
    for key in keys[:-1]:
        child = node[key] if isinstance(node, list) else node.get(key)
        if not isinstance(child, (dict, list)):
            child = node[key] = {}
        node = child
    node[keys[-1]] = value
    return data


def failed_statuses(out: Path) -> list:
    with open(out / "report.csv", newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh) if row["status"] != "ok"]


PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@PROPERTY
@given(command=st.sampled_from(["simulate", "experiment", "sweep-threshold"]), data=st.data())
def test_random_input_exits_0_or_2_without_a_traceback(command, data, capsys):
    base, paths = {"simulate": (RUN, RUN_PATHS), "experiment": (MATRIX, MATRIX_PATHS),
                   "sweep-threshold": (POLICY, POLICY_PATHS)}[command]
    path = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        code = cli(Path(tmp), command, json.dumps(put(base, path, value)))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 1:  # failed cells: only the checks that need each cell's world
            assert command == "experiment"
            for status in failed_statuses(Path(tmp) / "out"):
                assert status.startswith("failed: world:")
        else:
            assert code in (0, 2), err
