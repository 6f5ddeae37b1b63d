import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind import cli, suffering
from gridmind import rng as rngmod
from gridmind.agent import Agent
from gridmind.cli import main as cli_main
from gridmind.harness import (EVENT_COLUMNS, TABLE_BLOCK, ConfigError, RunConfig,
                              config_from_dict, experiment, load_config, run, write_events)
from gridmind.inputs import InputError
from gridmind.suffering import LossSite, Source, Terms, events
from test_suffering import (SITE_SOURCES, any_terms, loss_sites, rendered, rendered_events,
                            written)
from gridmind.presets import corridor
from gridmind.world import Action, WorldModel, WorldObject, step, world_from_dict


BASE_CONFIG = {
    "world": "corridor",
    "steps": 200,
    "seed": 7,
    "learning": {"alpha": 0.2, "gamma": 0.9, "epsilon": 0.1},
    "wandering": {"p_wander": 0.3, "batch_size": 2},
    "intervention": "baseline",
}


def test_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE_CONFIG))
    config = load_config(path)
    assert config.steps == 200
    assert config.learning.alpha == 0.2
    assert config.intervention.name == "baseline"


def test_config_unknown_field_is_path_precise():
    with pytest.raises(ConfigError) as err:
        config_from_dict({**BASE_CONFIG, "learning": {"alhpa": 0.2}})
    assert "learning.alhpa" in str(err.value)


def test_config_bad_value_names_section():
    with pytest.raises(ConfigError) as err:
        config_from_dict({**BASE_CONFIG, "learning": {"alpha": 2.0}})
    assert str(err.value).startswith("learning")


def test_config_json_syntax_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "steps": 10,\n  oops\n}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":3:" in str(err.value)


def test_config_rejects_both_schemes():
    with pytest.raises(ConfigError):
        config_from_dict({**BASE_CONFIG,
                          "learning": {"gamma": 0.9, "step_penalty": 0.1}})


def test_config_unknown_intervention():
    with pytest.raises(ConfigError):
        config_from_dict({**BASE_CONFIG, "intervention": "tea"})


def test_steps_zero_empty_outputs(tmp_path):
    config = config_from_dict({**BASE_CONFIG, "steps": 0})
    agent, summary = run(config, out_dir=tmp_path)
    assert summary["episodes"] == 0
    assert summary["totals"]["total"] == 0.0
    csv_path = tmp_path / f"{config.run_id()}_events.csv"
    lines = csv_path.read_text().splitlines()
    assert lines == [",".join(EVENT_COLUMNS)]


def test_run_byte_identical(tmp_path):
    config = config_from_dict(BASE_CONFIG)
    run(config, out_dir=tmp_path / "a")
    run(config, out_dir=tmp_path / "b")
    rid = config.run_id()
    for name in (f"{rid}_events.csv", f"{rid}_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_a_python_world_with_int_fields_runs_as_its_json_file(tmp_path):
    """``WorldModel`` stores step_cost, slip_probability and
    observation_confusion as floats, as a world file reads them: a Python
    build with ints charges an empty cell -0.0, not int 0, and its run
    writes the events.csv of the same world read from JSON (named
    ``inline`` too, so that the run ids agree)."""
    w = corridor(step_cost=0)
    r = step(w, w.state_id(w.start), Action.EAST, None)[1]
    assert type(r) is float and math.copysign(1.0, r) == -1.0
    objects = {"goal": WorldObject("goal", "reward", 1.0, True, (5, 1)),
               "pit": WorldObject("pit", "hazard", 1.0, False, (2, 1))}
    built = WorldModel(width=6, height=3, walls=frozenset({(3, 0)}), objects=objects,
                       step_cost=0, slip_probability=1, observation_confusion=0, start=(0, 0))
    spec = {"width": 6, "height": 3, "walls": [[3, 0]], "step_cost": 0,
            "slip_probability": 1, "observation_confusion": 0, "start": [0, 0],
            "objects": [{"id": "goal", "kind": "reward", "magnitude": 1, "at": [5, 1]},
                        {"id": "pit", "kind": "hazard", "magnitude": 1, "at": [2, 1]}]}
    (tmp_path / "inline.json").write_text(json.dumps(spec))
    csvs = []
    for name, world in (("built", built), ("file", str(tmp_path / "inline.json"))):
        config = RunConfig(world=world, steps=600, seed=3)
        (tmp_path / name).mkdir()
        run(config, out_dir=tmp_path / name)
        csvs.append((tmp_path / name / f"{config.run_id()}_events.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_config_and_its_sections_are_read_only():
    config = config_from_dict(BASE_CONFIG)
    with pytest.raises(FrozenInstanceError):
        config.steps = 5
    sections = [getattr(config, f.name) for f in fields(config)
                if is_dataclass(getattr(config, f.name))]
    assert len(sections) == 6
    for section in sections:
        with pytest.raises(FrozenInstanceError):
            setattr(section, fields(section)[0].name, None)


def test_runs_on_one_config_leave_it_unchanged():
    # the standard drifts (meta_rate) and the gate opens (failure_limit 1)
    # on the agent's own state, never in the shared config
    config = config_from_dict({"world": "loss_heavy", "steps": 1500, "seed": 0,
                               "self_model": {"standard": 2.0, "meta_rate": 0.5,
                                              "failure_limit": 1}})
    agent, first = run(config)
    _, second = run(config)
    assert first == second
    assert agent.self_state.standard != 2.0
    assert config.self_model.standard == 2.0


def test_csv_schema_stable(tmp_path):
    config = config_from_dict(BASE_CONFIG)
    run(config, out_dir=tmp_path)
    header = (tmp_path / f"{config.run_id()}_events.csv").read_text().splitlines()[0]
    assert header == ("run_id,t,source,timescale,expected,obtained,"
                      "certainty,attention,count,frustration")


def test_summary_has_version_and_totals():
    config = config_from_dict(BASE_CONFIG)
    _, summary = run(config)
    assert summary["version"]
    assert set(summary["totals"]["by_timescale"]) == {"Step", "Plan", "SelfEval"}
    assert "obtained_reward" in summary and "episodes" in summary


def test_substreams_are_independent():
    # spending draws on one stream must not move another
    before = rngmod.substream(5, "exploration").random(10)
    burner = rngmod.substream(5, "world")
    burner.random(1000)
    after = rngmod.substream(5, "exploration").random(10)
    assert np.array_equal(before, after)
    assert not np.array_equal(rngmod.substream(5, "world").random(10),
                              rngmod.substream(5, "exploration").random(10))


def test_per_step_streams_are_stable():
    assert np.array_equal(rngmod.per_step(5, "wandering", 3).random(4),
                          rngmod.per_step(5, "wandering", 3).random(4))
    assert not np.array_equal(rngmod.per_step(5, "wandering", 3).random(4),
                              rngmod.per_step(5, "wandering", 4).random(4))


def test_steps_zero_scores_zero_without_out_dir():
    """A run and a matrix of no steps score empty site logs: every total is
    a plain 0.0."""
    _, summary = run(config_from_dict({**BASE_CONFIG, "steps": 0}))
    totals = summary["totals"]
    values = [totals["total"], totals["weighted_total"],
              *totals["by_source"].values(), *totals["by_timescale"].values()]
    assert [repr(v) for v in values] == ["0.0"] * len(values)
    rows, failures = experiment({"worlds": ["corridor", "loss_heavy"], "seeds": [7], "steps": 0})
    assert failures == 0 and len(rows) == 8 * 2 * 2
    for row in rows:
        assert [repr(row[col]) for col in ("total_frustration", "weighted_total", "step_total",
                                           "plan_total", "self_eval_total")] == ["0.0"] * 5


# -- experiment matrix ---------------------------------------------------------


def test_experiment_single_cell_equals_run(tmp_path):
    matrix = {"interventions": ["baseline"], "worlds": ["corridor"],
              "seeds": [7], "steps": 200,
              "base": {k: v for k, v in BASE_CONFIG.items()
                       if k not in ("world", "seed", "steps", "intervention")}}
    rows, failures = experiment(matrix, out_dir=tmp_path)
    assert failures == 0
    data_rows = [r for r in rows if r["seed"] == "7"]
    assert len(data_rows) == 1
    config = config_from_dict(BASE_CONFIG)
    _, summary = run(config)
    assert data_rows[0]["total_frustration"] == summary["totals"]["total"]
    assert data_rows[0]["obtained_reward"] == summary["obtained_reward"]
    # plus a median row
    assert any(r["seed"] == "median" for r in rows)


def test_experiment_order_independent():
    matrix_a = {"interventions": ["baseline", "empty_mind"],
                "worlds": ["corridor"], "seeds": [0, 1], "steps": 120}
    matrix_b = {"interventions": ["empty_mind", "baseline"],
                "worlds": ["corridor"], "seeds": [1, 0], "steps": 120}
    rows_a, _ = experiment(matrix_a)
    rows_b, _ = experiment(matrix_b)
    assert rows_a == rows_b


def test_experiment_partial_failure_marks_cell(tmp_path):
    matrix = {"interventions": ["baseline"], "worlds": ["corridor", "no_such_world"],
              "seeds": [0], "steps": 50}
    rows, failures = experiment(matrix, out_dir=tmp_path)
    assert failures == 1
    statuses = {r["world"]: r["status"] for r in rows if r["seed"] == "0"}
    assert statuses["corridor"] == "ok"
    assert statuses["no_such_world"].startswith("failed")
    report = (tmp_path / "report.csv").read_text()
    assert "failed" in report


def test_baseline_beats_empty_mind_on_lossy_world():
    matrix = {"interventions": ["baseline", "empty_mind"],
              "worlds": ["loss_heavy"], "seeds": [3], "steps": 500,
              "base": {"policy": "random"}}
    rows, failures = experiment(matrix)
    assert failures == 0
    by_iv = {r["intervention"]: r for r in rows if r["seed"] == "3"}
    assert by_iv["baseline"]["total_frustration"] > \
        by_iv["empty_mind"]["total_frustration"]


# -- CLI -----------------------------------------------------------------------


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--version"])
    assert exit_info.value.code == 0
    assert "gridmind" in capsys.readouterr().out


def test_cli_simulate_and_outputs(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**BASE_CONFIG, "steps": 100}))
    code = cli_main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["version"]
    assert list((tmp_path / "out").glob("*_events.csv"))


def test_cli_simulate_seed_override(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**BASE_CONFIG, "steps": 50}))
    code = cli_main(["simulate", "--config", str(config_path), "--seed", "99"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 99


# sha256 of what `gridmind simulate` writes for configs/run.json with
# "trace": true (2,000 loss_heavy steps, seed 0; numpy 2.4.6).
SHIPPED_RUN_DIGESTS = {
    "events.csv": "4df4b2b8ca25b3a0929846bd6253d815658f25344b5254f611b325a4c1c26410",
    "summary.json": "14990f7bc0d256c0afab3748956381791426dc814eee69ce081af580656a59aa",
    "trace.csv": "dd22f3aeb87de5352bd756c6bca38ac32b0d1b0bd25b2d9c39bec96427253e86",
}


def test_cli_simulate_of_the_shipped_config_is_golden(tmp_path, capsys):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "run.json"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**json.loads(shipped.read_text()), "trace": True}))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    for name, digest in SHIPPED_RUN_DIGESTS.items():
        written = (out / f"baseline_loss_heavy_0_{name}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, name



SUBTRACTIVE_RUN_DIGESTS = {
    "events.csv": "aa55473cf177cee96683cbdcda5bafde8d9643a753bccbadc07797abfe8ccfe1",
    "summary.json": "0ccbd4d1aebdbd3cc4cc5073f0b482c493f853a7efd506379dd282dfe71e6b14",
}


def test_shipped_config_with_gamma_null_is_golden(tmp_path):
    """``gamma: null`` selects the subtractive scheme, whose per-step charge
    is the world's step cost (0.1 in loss_heavy)."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "run.json"
    data = json.loads(shipped.read_text())
    data["learning"] = {**data["learning"], "gamma": None}
    config = config_from_dict(data)
    assert config.learning.subtractive and config.learning.disc == 1.0
    run(config, out_dir=tmp_path)
    for name, digest in SUBTRACTIVE_RUN_DIGESTS.items():
        written = (tmp_path / f"baseline_loss_heavy_0_{name}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, name


# sha256 of what a 1,500-step run of configs/run.json with "meta_aversion":
# true writes (numpy 2.4.6): the one golden run with MetaAversion children.
META_AVERSION_RUN_DIGESTS = {
    "events.csv": "02c2dd6004e09e162e4e490fe182b9a9ed2ec20b03098fe8f9b5731d128bfb49",
    "summary.json": "97aab1b7f4c4a220cbfb7469747ecf57a515cf5ad68ffe2af357588cbebbb4c7",
}


def test_meta_aversion_run_writes_each_event_as_its_row(tmp_path):
    """Each events.csv row is its event's fields, a float as its ``repr``."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "run.json"
    config = config_from_dict({**json.loads(shipped.read_text()), "steps": 1500,
                               "meta_aversion": True})
    agent, _ = run(config, out_dir=tmp_path)
    rid = config.run_id()
    evs = list(events(agent.sites, agent.terms))
    assert sum(ev.source is Source.META_AVERSION for ev in evs) > 1000
    rows = [",".join(EVENT_COLUMNS)] + [
        ",".join((rid, str(ev.t), ev.source.value, ev.timescale.value, *map(repr, ev[3:])))
        for ev in evs]
    assert (tmp_path / f"{rid}_events.csv").read_text().splitlines() == rows
    for name, digest in META_AVERSION_RUN_DIGESTS.items():
        written = (tmp_path / f"{rid}_{name}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, name


# sha256 of what a 1,500-step run of configs/run.json with "curiosity_kappa":
# 0.5 writes (numpy 2.4.6): the one golden run whose learning adds the
# curiosity bonus to each move's reward.
CURIOSITY_RUN_DIGESTS = {
    "events.csv": "42e4e4ae0b6d43d0b807f184d343b603f6194e80d69300a047b1a92df294052a",
    "summary.json": "4a996c53692683c1273ab5749907c7011057eb1ab606dc0fbe74668aba9b02df",
}


def test_shipped_config_with_curiosity_is_golden(tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "run.json"
    data = json.loads(shipped.read_text())
    data["learning"] = {**data["learning"], "curiosity_kappa": 0.5}
    config = config_from_dict({**data, "steps": 1500})
    run(config, out_dir=tmp_path)
    for name, digest in CURIOSITY_RUN_DIGESTS.items():
        written = (tmp_path / f"{config.run_id()}_{name}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, name


def test_cli_validate_only(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    assert cli_main(["simulate", "--config", str(config_path),
                     "--validate-only"]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**BASE_CONFIG,
                                       "learning": {"alpha": 99}}))
    assert cli_main(["simulate", "--config", str(config_path)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_cli_experiment(tmp_path, capsys):
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "interventions": ["baseline", "empty_mind"],
        "worlds": ["corridor"], "seeds": 2, "steps": 80,
    }))
    code = cli_main(["experiment", "--matrix", str(matrix_path),
                     "--out", str(tmp_path / "exp")])
    assert code == 0
    report = (tmp_path / "exp" / "report.csv").read_text().splitlines()
    assert report[0] == ("intervention,world,seed,status,total_frustration,"
                         "weighted_total,step_total,plan_total,self_eval_total,"
                         "obtained_reward,episodes")
    # 2 interventions x (2 seeds + 1 median)
    assert len(report) == 1 + 2 * 3


def test_verbose_experiment_prints_progress_and_changes_no_output(tmp_path, capsys,
                                                                 monkeypatch):
    """GRIDMIND_VERBOSE=1 adds one stderr line per (world, seed), failed
    cells counted, and leaves report.csv and stdout byte for byte alone."""
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "interventions": ["baseline", "empty_mind"],
        "worlds": ["corridor", str(tmp_path / "missing.json")], "seeds": 2, "steps": 30,
    }))
    runs = {}
    for verbose in ("", "1"):
        monkeypatch.setenv("GRIDMIND_VERBOSE", verbose)
        code = cli_main(["experiment", "--matrix", str(matrix_path),
                         "--out", str(tmp_path / "exp")])
        out, err = capsys.readouterr()
        runs[verbose] = code, out, (tmp_path / "exp" / "report.csv").read_bytes(), err
    assert runs[""][:3] == runs["1"][:3]
    assert runs[""][0] == 1 and runs[""][3] == ""
    *progress, summary = runs["1"][3].splitlines()
    assert summary == "10 report rows, 4 failed cells"
    assert [line.split(", ETA ")[0] for line in progress] == [
        "world corridor seed 0: 2/8 cells done, 0 failed",
        "world corridor seed 1: 4/8 cells done, 0 failed",
        f"world {tmp_path / 'missing.json'} seed 0: 6/8 cells done, 2 failed",
        f"world {tmp_path / 'missing.json'} seed 1: 8/8 cells done, 4 failed"]
    assert all(line.endswith(" s") for line in progress)


def test_cli_sweep_threshold(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({
        "thresholds": [0.0, 0.5, 1e9],
        "seeds": 3,
        "steps": 150,
        "miss_cost": 1.0,
        "false_alarm_cost": 0.1,
    }))
    code = cli_main(["sweep-threshold", "--world", "hazard_alley",
                     "--policy", str(policy_path), "--out", str(tmp_path / "sw")])
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "threshold,false_alarms,misses,realized_cost"
    assert len(lines) == 4


def test_cli_sweep_threshold_of_the_shipped_policy_is_golden(tmp_path):
    """sha256 of what `gridmind sweep-threshold --world hazard_alley --policy
    configs/policy.json` writes (numpy 2.4.6)."""
    policy = Path(__file__).resolve().parent.parent / "configs" / "policy.json"
    assert cli_main(["sweep-threshold", "--world", "hazard_alley", "--policy", str(policy),
                     "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == \
        "cb73c53c5392a5209f7010726931bf675f0db6c52819a6211be38d3e008f5880"


# -- an --out that cannot be a directory fails before anything is simulated -----


def refuse(*args, **kwargs):
    raise AssertionError("simulated before making the output directory")


@pytest.mark.parametrize("command", ["simulate", "experiment", "sweep-threshold"])
def test_an_out_path_that_is_a_file_exits_3_before_any_step(tmp_path, capsys, monkeypatch,
                                                            command):
    monkeypatch.setattr(Agent, "step_once", refuse)
    monkeypatch.setattr(cli, "sweep_threshold", refuse)  # a sweep steps no Agent
    config, matrix, policy = (tmp_path / name for name in ("run.json", "m.json", "p.json"))
    config.write_text(json.dumps(BASE_CONFIG))
    matrix.write_text(json.dumps({"worlds": ["corridor"], "seeds": 2, "steps": 50}))
    policy.write_text(json.dumps({"thresholds": [0.0, 1.0], "seeds": 2, "steps": 50}))
    taken = tmp_path / "taken"
    taken.write_text("a file")
    argv = {"simulate": ["--config", str(config)],
            "experiment": ["--matrix", str(matrix)],
            "sweep-threshold": ["--world", "hazard_alley", "--policy", str(policy)]}[command]
    assert cli_main([command, *argv, "--out", str(taken)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: FileExistsError: ") and err.count("\n") == 1
    assert taken.read_text() == "a file"


# -- events.csv holds the bytes csv.writer writes of the events ----------------

names = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "\u00e9"]) | st.characters(),
                max_size=6)
EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, math.inf, -math.inf]


@pytest.mark.guard
@settings(max_examples=300, deadline=None)
@given(run_id=names, sites=loss_sites(st.sampled_from(EDGE_FLOATS) | st.floats(-10, 10)),
       terms=any_terms, meta_aversion=st.booleans(), block=st.integers(1, 4))
def test_events_csv_is_what_csv_writes_of_the_events(run_id, sites, terms, meta_aversion,
                                                      block):
    """Run ids that need quoting, edge floats, int attention, and blocks
    of a few sites, some with no event."""
    terms = replace(terms, meta_aversion=meta_aversion)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suffering, "BLOCK", block)
        assert written(write_events, run_id, sites, terms) == rendered_events(
            run_id, sites, terms)


@pytest.mark.guard
@pytest.mark.parametrize("n", [TABLE_BLOCK - 1, TABLE_BLOCK, TABLE_BLOCK + 1,
                               suffering.BLOCK - 1, suffering.BLOCK, suffering.BLOCK + 1])
def test_events_csv_straddles_the_block_edge(n):
    """Sites up to and past the edge of the first write slice and of the
    first block; a block of SelfEval sites that do not fall short holds no
    event."""
    quiet = [LossSite(t, Source.SELF_EVAL, 1.0, 2.0) for t in range(suffering.BLOCK)]
    mixed = [LossSite(t, SITE_SOURCES[t % len(SITE_SOURCES)], t % 7 - 2.5, (t % 3) * 0.5)
             for t in range(n)]
    terms = Terms(attention=2, realness=0.5, meta_aversion=True)
    for sites in (mixed, quiet + mixed):
        assert written(write_events, "a run, \"quoted\"", sites, terms) == rendered_events(
            "a run, \"quoted\"", sites, terms)


@pytest.mark.guard
def test_events_csv_is_written_a_slice_at_a_time(tmp_path):
    """20,000 events, each a row, past two scoring blocks: formatting at
    most ``TABLE_BLOCK`` rows at once keeps the peak near 1.9 MiB, where
    formatting a whole fired block reads about 3.7 MiB."""
    sites = suffering.SiteLog()
    for t in range(20_000):
        sites.append(LossSite(t, SITE_SOURCES[t % len(SITE_SOURCES)], t % 7 + 0.5,
                              (t % 3) * 0.125))
    path = tmp_path / "events.csv"
    tracemalloc.start()
    try:
        write_events(path, "r", sites, Terms())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\r\n") == 1 + 20_000
    assert peak < 3 * 2 ** 20


# -- input boundary: bad input exits 2 with a path, never a traceback -----------

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, timeout=120):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "gridmind.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_cli_unknown_matrix_intervention_exits_2(tmp_path):
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "interventions": ["baseline", "no_such_intervention"],
        "worlds": ["corridor"], "seeds": 1, "steps": 10,
    }))
    proc = run_cli("experiment", "--matrix", str(matrix_path), "--out", str(tmp_path / "exp"))
    assert proc.returncode == 2
    assert "interventions[1]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_cli_non_finite_attention_exits_2(tmp_path, value):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**BASE_CONFIG, "steps": 20})[:-1]
                           + f', "attention": {value}}}')
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config_path), "--out", str(out))
    assert proc.returncode == 2
    assert "attention" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("base, path", [
    ('{"attention": Infinity}', "base.attention"),
    ('{"atention": 1.0}', "base.atention"),
    ('{"learning": {"curiosity_kappa": NaN}}', "base.learning.curiosity_kappa"),
])
def test_cli_bad_matrix_base_exits_2(tmp_path, base, path):
    """The base is checked once, before any simulation: a bad one is an
    invalid config, not a matrix of failed cells."""
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text('{"interventions": ["baseline"], "worlds": ["corridor"], '
                           f'"seeds": 1, "steps": 10, "base": {base}}}')
    out = tmp_path / "exp"
    proc = run_cli("experiment", "--matrix", str(matrix_path), "--out", str(out))
    assert proc.returncode == 2
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("section, value, path", [
    ("learning", {"curiosity_kappa": "NaN"}, "learning.curiosity_kappa"),
    ("intervention", {"name": "x", "desire_threshold_delta": "NaN"},
     "intervention.desire_threshold_delta"),
    ("interrupts", {"threat_threshold": "NaN"}, "interrupts.threat_threshold"),
    ("interrupts", {"desire_threshold": "NaN"}, "interrupts.desire_threshold"),
])
def test_cli_nan_parameter_exits_2(tmp_path, section, value, path):
    config_path = tmp_path / "run.json"
    text = json.dumps({**BASE_CONFIG, "steps": 20, section: value})
    config_path.write_text(text.replace('"NaN"', "NaN"))
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(config_path), "--out", str(out))
    assert proc.returncode == 2
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_infinite_threat_threshold_stays_legal():
    config = config_from_dict({**BASE_CONFIG, "interrupts": {"threat_threshold": math.inf}})
    assert config.interrupts.threat_threshold == math.inf


def test_experiment_checks_world_dependent_fields_per_cell():
    """A world that does not load fails its own cells, not the matrix."""
    matrix = {"interventions": ["baseline"], "worlds": ["no_such_world", "loss_heavy"],
              "seeds": [0], "steps": 20}
    rows, failures = experiment(matrix)
    statuses = {r["world"]: r["status"] for r in rows if r["seed"] == "0"}
    assert failures == 1
    assert statuses["no_such_world"].startswith("failed: world:")
    assert statuses["loss_heavy"] == "ok"


@pytest.mark.parametrize("extra, path", [({"base": {"steps": "50"}}, "base.steps:"),
                                         ({"steps": "50"}, "invalid config: steps:")])
def test_cli_string_steps_exit_2(tmp_path, extra, path):
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({"interventions": ["baseline"], "worlds": ["corridor"],
                                       "seeds": 1, **extra}))
    proc = run_cli("experiment", "--matrix", str(matrix_path), "--out", str(tmp_path / "exp"))
    assert proc.returncode == 2
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr


def write_world(tmp_path, spec):
    path = tmp_path / "world.json"
    path.write_text(json.dumps(spec))
    return path


GOOD_OBJECT = {"id": "g", "kind": "reward", "magnitude": 1.0, "at": [2, 0]}


@pytest.mark.parametrize("change, path", [
    ({"objects": [{k: v for k, v in GOOD_OBJECT.items() if k != "kind"}]},
     "objects[0].kind: missing"),
    ({"walls": [[1]]}, "walls[0]: must be [x, y]"),
    ({"schedule": [{"t": 5, "object": "g", "to": [1]}]}, "schedule[0].to: must be [x, y]"),
])
def test_cli_sweep_bad_world_file_exits_2(tmp_path, change, path):
    world = write_world(tmp_path, {"width": 3, "height": 2, "objects": [GOOD_OBJECT], **change})
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"thresholds": [0.0, 1.0], "seeds": 1, "steps": 5}))
    out = tmp_path / "sw"
    proc = run_cli("sweep-threshold", "--world", str(world), "--policy", str(policy),
                   "--out", str(out))
    assert proc.returncode == 2
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_experiment_sets_up_a_near_cap_world_in_seconds(tmp_path):
    """A 316x316 world with 300 hazards, 2 behaviour classes and 1 step:
    about 1.5 s on a 2-vCPU Xeon, where a threat field built one cell and
    one hazard at a time (about 7 s a run) took about 19 s."""
    side = 316
    hazards = [{"id": f"h{i}", "kind": "hazard", "magnitude": 1.0,
                "at": [i * 37 % side, i * 101 % side]} for i in range(300)]
    world = write_world(tmp_path, {"width": side, "height": side, "start": [0, 1],
                                   "objects": hazards})
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"interventions": ["baseline", "empty_mind"],
                                  "worlds": [str(world)], "seeds": [0], "steps": 1}))
    proc = run_cli("experiment", "--matrix", str(matrix), "--out", str(tmp_path / "exp"),
                   timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert "failed" not in (tmp_path / "exp" / "report.csv").read_text()


@pytest.mark.parametrize("entry, path", [
    ({"id": "g", "kind": "reward", "magnitude": 1.0}, "objects[0].at: missing"),
    ({"kind": "reward", "magnitude": 1.0, "at": [2, 0]}, "objects[0].id: missing"),
    ({"id": "g", "kind": "reward", "at": [2, 0]}, "objects[0].magnitude: missing"),
    ({**GOOD_OBJECT, "magnitude": "2"}, "objects[0].magnitude: must be a finite number"),
    ({**GOOD_OBJECT, "kind": "prize"}, "objects[0].kind: must be 'reward' or 'hazard'"),
    ({**GOOD_OBJECT, "at": [2, True]}, "objects[0].at: must be [x, y]"),
    ({**GOOD_OBJECT, "colour": "red"}, "objects[0].colour: unknown field"),
    ("g", "objects[0]: must be an object"),
])
def test_world_file_bad_object_names_its_path(entry, path):
    with pytest.raises(InputError) as exc:
        world_from_dict({"width": 3, "height": 2, "objects": [entry]})
    assert str(exc.value) == path


@pytest.mark.parametrize("schedule, path", [
    ([7], "schedule[0]: must be an object"),
    ([{"object": "g", "to": [0, 0]}], "schedule[0].t: missing"),
    ([{"t": 5, "to": [0, 0]}], "schedule[0].object: missing"),
    ([{"t": 5, "object": "g"}], "schedule[0].to: missing"),
    ([{"t": "5", "object": "g", "to": [0, 0]}], "schedule[0].t: must be an integer"),
    ([{"t": 5, "object": "x", "to": [0, 0]}], "schedule[0].object: no object has id 'x'"),
    ({"t": 5}, "schedule: must be a list"),
])
def test_world_file_bad_schedule_names_its_path(schedule, path):
    with pytest.raises(InputError) as exc:
        world_from_dict({"width": 3, "height": 2, "objects": [GOOD_OBJECT],
                         "schedule": schedule})
    assert str(exc.value) == path


@pytest.mark.parametrize("change, path", [
    ({"width": True}, "width: must be an integer"),
    ({"step_cost": float("nan")}, "step_cost: must be a finite number"),
    ({"start": [0, 0, 0]}, "start: must be [x, y]"),
    ({"slip": 0.1}, "slip: unknown field"),
])
def test_world_file_bad_top_level_field_names_its_path(change, path):
    with pytest.raises(InputError) as exc:
        world_from_dict({"width": 3, "height": 2, **change})
    assert str(exc.value) == path


def test_world_file_not_an_object():
    with pytest.raises(InputError, match="world: must be an object"):
        world_from_dict([3, 2])


# -- matrix shapes and integer fields ---------------------------------------------


@pytest.mark.parametrize("change, path", [
    ({"worlds": "corridor"}, "worlds"),
    ({"worlds": ["corridor", 3]}, "worlds[1]"),
    ({"seeds": "ab"}, "seeds"),
    ({"seeds": -1}, "seeds"),
    ({"seeds": True}, "seeds"),
    ({"seeds": [0, "a"]}, "seeds[1]"),
    ({"seeds": [0, 1, True]}, "seeds[2]"),
    ({"seeds": [2 ** 64]}, "seeds[0]"),
])
def test_matrix_worlds_and_seeds_are_checked_before_any_simulation(change, path, monkeypatch):
    import gridmind.harness as harness

    def no_run(*args, **kwargs):
        raise AssertionError("simulated before the matrix was checked")

    monkeypatch.setattr(harness, "run", no_run)
    with pytest.raises(ConfigError) as exc:
        experiment({"interventions": ["baseline"], "worlds": ["corridor"], "seeds": 1,
                    "steps": 5, **change})
    assert exc.value.path == path


@pytest.mark.parametrize("change, path", [
    ({"worlds": "corridor"}, "worlds:"),
    ({"seeds": "ab"}, "seeds:"),
    ({"seeds": [True]}, "seeds[0]:"),
])
def test_cli_malformed_matrix_shape_exits_2(tmp_path, change, path):
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({"interventions": ["baseline"], "worlds": ["corridor"],
                                       "seeds": 1, "steps": 5, **change}))
    out = tmp_path / "exp"
    proc = run_cli("experiment", "--matrix", str(matrix_path), "--out", str(out))
    assert proc.returncode == 2
    assert f"invalid config: {path}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", ["seed", "steps", "goal_reach", "episode_step_limit"])
@pytest.mark.parametrize("value", [True, False, 3.0, "3"])
def test_counts_must_be_integers_not_bools(name, value):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({**BASE_CONFIG, name: value})
    assert exc.value.path == name


@pytest.mark.parametrize("name", ["seed", "steps", "goal_reach", "episode_step_limit"])
def test_cli_bool_count_exits_2(tmp_path, capsys, name):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**BASE_CONFIG, "steps": 20, name: True}))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"invalid config: {name}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("base, path", [({"steps": True}, "base.steps"),
                                        ({"goal_reach": True}, "base.goal_reach")])
def test_matrix_base_bool_count_is_rejected(base, path):
    with pytest.raises(ConfigError) as exc:
        experiment({"interventions": ["baseline"], "worlds": ["corridor"], "seeds": 1,
                    "base": base})
    assert exc.value.path == path
