import csv
import json
import math
from dataclasses import asdict, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_events, typed
from gridmind import harness
from gridmind.affect import InterruptPolicy, SelfModel
from gridmind.cli import main as cli_main
from gridmind.harness import RunConfig, config_from_dict, experiment, run
from gridmind.interventions import (InterventionConfig, apply, by_name,
                                    canonical_suite, terms)
from gridmind.suffering import Source, events
from gridmind.values import reward_loss


def test_identity_apply_changes_nothing():
    base = RunConfig(world="corridor", steps=10, seed=0)
    out = replace(base, intervention=InterventionConfig(name="baseline"))
    assert apply(base, out.intervention) == (base.wandering.p_wander, base.goal_threshold)
    assert terms(out, 0.0) == terms(base, 0.0)
    assert terms(out, 0.0).realness == base.wandering.realness
    assert out.self_model.standard == base.self_model.standard
    assert out.intervention.name == "baseline"


def test_apply_gives_the_run_its_wander_rate_and_goal_threshold():
    base = RunConfig(goal_threshold=0.25)  # p_wander 0.2
    assert apply(base, by_name("empty_mind")) == (0.0, 0.25)
    assert apply(base, InterventionConfig(p_wander_override=0.7)) == (0.7, 0.25)
    assert apply(base, by_name("fewer_desires")) == (0.2, 0.25 + 0.3)
    # coupled: the expectation scale lowers every anticipation, so it
    # raises the bar by its inverse; at 0 nothing clears it
    assert apply(base, InterventionConfig(expectation_scale=0.5, coupled=True,
                                          desire_threshold_delta=0.3)) == \
        (0.2, (0.25 + 0.3) / 0.5)
    assert apply(base, InterventionConfig(expectation_scale=0.0, coupled=True)) == \
        (0.2, math.inf)
    # realness is an equation term: it reaches the scoring, not the behaviour
    iv = InterventionConfig(realness_override=0.0)
    assert apply(base, iv) == apply(base, InterventionConfig())
    assert terms(replace(base, intervention=iv), 0.0).realness == 0.0


def test_beta_on_worked_numbers():
    # expected 5 scaled by 0.6 meets obtained 3: the loss vanishes
    assert reward_loss(0.6 * 5, 3) == 0.0


def test_suite_has_eight_unique_names():
    suite = canonical_suite()
    assert len(suite) == 8
    names = [iv.name for iv in suite]
    assert len(set(names)) == 8
    assert "baseline" in names


def test_by_name_unknown():
    with pytest.raises(KeyError):
        by_name("wishful_thinking")


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        InterventionConfig(name="x", expectation_scale=1.5)
    with pytest.raises(ValueError):
        InterventionConfig(name="x", p_wander_override=-0.1)
    with pytest.raises(ValueError):
        InterventionConfig(name="x", desire_threshold_delta=-1)


LOSSY = dict(world="loss_heavy", steps=600, seed=5)


def total_with(iv: InterventionConfig, **overrides) -> float:
    base = RunConfig(**{**LOSSY, **overrides})
    config = replace(base, intervention=iv)
    _, summary = run(config)
    return summary["totals"]["total"]


def test_attention_zero_halts_ledger_growth():
    total = total_with(InterventionConfig(name="mute", attention_scale=0.0))
    assert total == 0.0


def test_empty_mind_emits_no_wandering_events():
    base = RunConfig(**LOSSY)
    config = replace(base, intervention=by_name("empty_mind"))
    agent, _ = run(config)
    sources = {ev.source for ev in run_events(agent)}
    assert Source.REPLAYED not in sources
    assert Source.IMAGINED not in sources


@pytest.mark.parametrize("knob", ["expectation_scale", "certainty_scale",
                                  "attention_scale"])
def test_equation_term_scalings_are_monotone(knob):
    """Paired seeds, policy untouched: smaller scale, no more frustration."""
    totals = []
    for scale in (1.0, 0.6, 0.3, 0.0):
        totals.append(total_with(InterventionConfig(name="t", **{knob: scale})))
    assert all(later <= earlier for earlier, later in zip(totals, totals[1:]))
    assert totals[0] > 0.0
    assert totals[-1] < totals[0]  # strict on the loss-heavy world


def test_equation_term_scaling_leaves_policy_fixed():
    base = RunConfig(**LOSSY, trace=True)
    a1, _ = run(replace(base, intervention=InterventionConfig(name="a")))
    a2, _ = run(replace(base, intervention=InterventionConfig(
        name="b", expectation_scale=0.4, certainty_scale=0.5, attention_scale=0.6)))

    def actions(agent):
        return [(item.t, item.detail["action"]) for item in agent.trace if item.kind == "step"]

    assert len(actions(a1)) == LOSSY["steps"]
    assert actions(a1) == actions(a2)
    assert a1.obtained_total == a2.obtained_total
    assert a1.episodes == a2.episodes
    assert [e.t for e in run_events(a1)
            if e.source is Source.STEP_LOSS] == \
           [e.t for e in run_events(a2) if e.source is Source.STEP_LOSS]


def test_fewer_desires_changes_behavior_and_is_reported_not_asserted():
    base = RunConfig(**LOSSY)
    _, s_base = run(replace(base, intervention=by_name("baseline")))
    _, s_fewer = run(replace(base, intervention=by_name("fewer_desires")))
    # both columns exist; the tradeoff is measured, not asserted
    assert "obtained_reward" in s_base and "obtained_reward" in s_fewer


def test_no_self_eval_removes_self_eval_events():
    base = RunConfig(**LOSSY)
    base = RunConfig(**{**LOSSY})
    from dataclasses import replace
    from gridmind.affect import SelfModel
    base = replace(base, self_model=SelfModel(evaluation_window=3, standard=2.0))
    agent_base, _ = run(replace(base, intervention=by_name("baseline")))
    agent_off, _ = run(replace(base, intervention=by_name("no_self_eval")))
    base_self = [e for e in run_events(agent_base) if e.source is Source.SELF_EVAL]
    off_self = [e for e in run_events(agent_off) if e.source is Source.SELF_EVAL]
    assert base_self  # the standard is demanding enough to fire sometimes
    assert off_self == []


def test_acceptance_is_noop_when_meta_stream_disabled():
    base = RunConfig(**LOSSY)  # meta_aversion defaults to False
    a1, s1 = run(replace(base, intervention=by_name("baseline")))
    a2, s2 = run(replace(base, intervention=by_name("acceptance")))
    assert s1["totals"] == s2["totals"]


def test_acceptance_disables_meta_aversion_stream():
    from dataclasses import replace
    base = replace(RunConfig(**LOSSY), meta_aversion=True)
    a_on, _ = run(replace(base, intervention=by_name("baseline")))
    a_off, _ = run(replace(base, intervention=by_name("acceptance")))
    assert any(e.source is Source.META_AVERSION for e in run_events(a_on))
    assert not any(e.source is Source.META_AVERSION for e in run_events(a_off))


def test_coupled_flag_routes_expectations_into_desire():
    base = RunConfig(**LOSSY)
    # decoupled: beta touches evaluation only, desire keeps proposing goals
    a_plain, _ = run(replace(base, intervention=InterventionConfig(name="b",
                                                                   expectation_scale=0.0)))
    plain_plans = sum(1 for e in run_events(a_plain) if e.source is Source.PLAN_LOSS)
    assert plain_plans > 0
    # coupled: scaled-to-zero values clear the desire threshold for nothing
    a_coupled, _ = run(replace(base, intervention=InterventionConfig(
        name="c", expectation_scale=0.0, coupled=True)))
    coupled_plans = sum(1 for e in run_events(a_coupled) if e.source is Source.PLAN_LOSS)
    assert coupled_plans == 0


def test_no_self_eval_holds_while_the_standard_drifts():
    """With meta_rate > 0 the standard drifts toward recent rewards after
    each evaluation; a zeroed self-standard must still never fire (window 1,
    standard 1.0, meta_rate 0.5, episode rewards 10, 10, 1)."""
    from dataclasses import replace
    from gridmind.affect import SelfModel
    from gridmind.agent import Agent
    from gridmind.presets import get_world

    base = replace(RunConfig(world="corridor", steps=0, seed=0),
                   self_model=SelfModel(evaluation_window=1, standard=1.0, meta_rate=0.5))

    def self_evals(iv):
        config = replace(base, intervention=iv)
        agent = Agent(config, get_world(config.world), 0)
        for reward in (10.0, 10.0, 1.0):
            agent.episode_reward = reward
            agent._finish_episode()
        return [e for e in run_events(agent) if e.source is Source.SELF_EVAL]

    assert [e.expected - e.obtained for e in self_evals(by_name("baseline"))] == \
        [pytest.approx(6.75)]
    assert self_evals(by_name("no_self_eval")) == []


# -- one trajectory, many ledgers ----------------------------------------------

REPORT_TOTALS = ("total_frustration", "weighted_total", "step_total", "plan_total",
                 "self_eval_total", "obtained_reward", "episodes")


def summary_row(summary) -> dict:
    """The report columns of a directly simulated run."""
    totals = summary["totals"]
    return dict(zip(REPORT_TOTALS, (
        totals["total"], totals["weighted_total"], totals["by_timescale"]["Step"],
        totals["by_timescale"]["Plan"], totals["by_timescale"]["SelfEval"],
        summary["obtained_reward"], summary["episodes"])))


def rescored_events(simulated, config):
    """The events the run ``config`` records, re-scored from the loss sites
    of ``simulated``, a run of the same behaviour class."""
    confusion = simulated.world.observation_confusion
    return list(events(simulated.sites, terms(config, confusion)))


def test_canonical_suite_falls_into_three_behaviour_classes():
    base = RunConfig()
    keys = {apply(base, iv) for iv in canonical_suite()}
    assert len(keys) == 3
    assert apply(base, by_name("baseline")) == apply(base, by_name("acceptance"))
    assert apply(base, by_name("baseline")) != apply(base, by_name("empty_mind"))
    assert apply(base, by_name("baseline")) != apply(base, by_name("fewer_desires"))
    # the expectation scale is a policy field only when coupled
    assert apply(base, InterventionConfig(expectation_scale=0.5)) == \
        apply(base, InterventionConfig())
    assert apply(base, InterventionConfig(expectation_scale=0.5, coupled=True)) != \
        apply(base, InterventionConfig(coupled=True))


CANONICAL_BASE = {"interrupts": {"threat_threshold": 0.8}, "self_model": {"standard": 1.0}}


@pytest.mark.parametrize("world", ["corridor", "loss_heavy"])
def test_rescored_ledgers_equal_simulated_ones_for_the_canonical_suite(world, monkeypatch):
    """Every canonical intervention, re-scored from its class's run, records
    the very events (and report row) of its own simulation."""
    seeds, steps = 3, 400
    suite = canonical_suite()
    simulations = []

    def counted_run(config, *args, **kwargs):
        simulations.append(config.intervention.name)
        return run(config, *args, **kwargs)

    monkeypatch.setattr(harness, "run", counted_run)
    rows, failures = experiment({"interventions": "canonical", "worlds": [world],
                                 "seeds": seeds, "steps": steps, "base": CANONICAL_BASE})
    monkeypatch.undo()
    assert failures == 0
    assert sorted(simulations) == sorted(["baseline", "empty_mind", "fewer_desires"] * seeds)
    report = {(r["intervention"], r["seed"]): r for r in rows}

    for seed in range(seeds):
        base = config_from_dict({**CANONICAL_BASE, "world": world, "seed": seed,
                                 "steps": steps})
        agents, summaries = {}, {}
        for iv in suite:
            agents[iv.name], summaries[iv.name] = run(replace(base, intervention=iv))
        for iv in suite:
            first = next(m for m in suite if apply(base, m) == apply(base, iv))
            rescored = rescored_events(agents[first.name], replace(base, intervention=iv))
            assert typed(rescored) == typed(run_events(agents[iv.name])), iv.name
            row = report[(iv.name, str(seed))]
            assert {k: row[k] for k in REPORT_TOTALS} == summary_row(summaries[iv.name])


unit = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def intervention_configs(draw):
    return InterventionConfig(
        name="drawn",
        expectation_scale=draw(unit),
        certainty_scale=draw(unit),
        attention_scale=draw(unit),
        p_wander_override=draw(st.none() | st.sampled_from([0.0, 0.5])),
        realness_override=draw(st.none() | unit),
        desire_threshold_delta=draw(st.sampled_from([0.0, 0.3])),
        self_standard_scale=draw(unit),
        acceptance=draw(st.booleans()),
        coupled=draw(st.booleans()),
    )


@st.composite
def base_configs(draw):
    return RunConfig(
        world=draw(st.sampled_from(["corridor", "loss_heavy"])),
        seed=draw(st.integers(0, 50)),
        steps=250,
        interrupts=InterruptPolicy(threat_threshold=0.8),
        self_model=SelfModel(evaluation_window=draw(st.sampled_from([1, 3])),
                             standard=draw(st.sampled_from([-1.0, -0.2, 0.0, 1.0])),
                             meta_rate=draw(st.sampled_from([0.0, 0.3]))),
        meta_aversion=draw(st.booleans()),
        desire_cost=draw(st.sampled_from([0.0, 0.05])),
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(iv=intervention_configs(), other=intervention_configs(), base=base_configs())
def test_rescoring_equals_simulating_for_any_intervention(iv, other, base):
    """Re-scoring the run of the intervention's behaviour class gives the
    events of simulating the intervention itself; and a matrix that groups
    by behaviour key reports every cell as its own simulation would."""
    first = InterventionConfig(
        name="first", p_wander_override=iv.p_wander_override,
        desire_threshold_delta=iv.desire_threshold_delta, coupled=iv.coupled,
        expectation_scale=iv.expectation_scale if iv.coupled else 1.0)
    assert apply(base, first) == apply(base, iv)
    other = replace(other, name="other")
    simulated, first_summary = run(replace(base, intervention=first))
    direct, summary = run(replace(base, intervention=iv))
    assert typed(rescored_events(simulated, replace(base, intervention=iv))) == \
        typed(run_events(direct))

    base_data = {"interrupts": asdict(base.interrupts), "self_model": asdict(base.self_model),
                 "meta_aversion": base.meta_aversion, "desire_cost": base.desire_cost}
    rows, failures = experiment({"interventions": [asdict(first), asdict(iv), asdict(other)],
                                 "worlds": [base.world], "seeds": [base.seed],
                                 "steps": base.steps, "base": base_data})
    assert failures == 0
    report = {r["intervention"]: r for r in rows if r["seed"] != "median"}
    expected = {"first": first_summary, "drawn": summary,
                "other": run(replace(base, intervention=other))[1]}
    for name, want in expected.items():
        assert {k: report[name][k] for k in REPORT_TOTALS} == summary_row(want), name


# -- a run config's intervention applies in full ---------------------------------

SIMULATED = {**CANONICAL_BASE, "world": "loss_heavy", "seed": 3, "steps": 400}
BEHAVIOURAL = ["empty_mind", "fewer_desires", {"name": "unreal", "realness_override": 0}]
BEHAVIOURAL_IDS = ["empty_mind", "fewer_desires", "realness_override_0"]


def experiment_cells(spec) -> tuple:
    """The report totals of ``spec`` and of the baseline, in one matrix on
    the world and seed of SIMULATED."""
    rows, failures = experiment({"interventions": ["baseline", spec],
                                 "worlds": [SIMULATED["world"]], "seeds": [SIMULATED["seed"]],
                                 "steps": SIMULATED["steps"], "base": CANONICAL_BASE})
    assert failures == 0
    cells = {r["intervention"]: {k: r[k] for k in REPORT_TOTALS}
             for r in rows if r["seed"] == str(SIMULATED["seed"])}
    return cells[spec if isinstance(spec, str) else spec["name"]], cells["baseline"]


@pytest.mark.parametrize("spec", BEHAVIOURAL, ids=BEHAVIOURAL_IDS)
def test_simulate_applies_the_intervention_in_full(spec):
    """A run config that names an intervention runs what the experiment
    cell of that intervention reports, on the same world and seed."""
    cell, baseline = experiment_cells(spec)
    assert cell != baseline  # the intervention changes this run
    agent, summary = run(config_from_dict({**SIMULATED, "intervention": spec}))
    assert summary_row(summary) == cell
    if spec == "empty_mind":
        sources = {ev.source for ev in run_events(agent)}
        assert Source.REPLAYED not in sources
        assert Source.IMAGINED not in sources


@pytest.mark.parametrize("spec", BEHAVIOURAL, ids=BEHAVIOURAL_IDS)
def test_cli_simulate_applies_the_intervention_in_full(spec, tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**SIMULATED, "intervention": spec}))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    name = spec if isinstance(spec, str) else spec["name"]
    rid = f"{name}_{SIMULATED['world']}_{SIMULATED['seed']}"
    summary = json.loads((out / f"{rid}_summary.json").read_text())
    assert summary_row(summary) == experiment_cells(spec)[0]
    with open(out / f"{rid}_events.csv", newline="") as fh:
        sources = {row["source"] for row in csv.DictReader(fh)}
    assert sources  # the run recorded events
    if spec == "empty_mind":
        assert Source.REPLAYED.value not in sources
        assert Source.IMAGINED.value not in sources


def test_integer_costs_are_written_as_the_rescored_path_holds_them(tmp_path):
    """An integer desire or interrupt cost reaches events.csv as the float a
    re-scored run of the same class holds: ``1.0``, not ``1``."""
    config = config_from_dict({**SIMULATED, "desire_cost": 1,
                               "interrupts": {"threat_threshold": 0.8, "interrupt_cost": 1}})
    run(config, out_dir=tmp_path)
    with open(tmp_path / f"{config.run_id()}_events.csv", newline="") as fh:
        written = [(row["source"], row["expected"]) for row in csv.DictReader(fh)]
    classmate, _ = run(replace(config, intervention=by_name("acceptance")))
    assert written == [(ev.source.value, harness._fmt(ev.expected))
                       for ev in rescored_events(classmate, config)]
    for source in (Source.DESIRE_COST, Source.THREAT_INTERNAL):
        assert {expected for s, expected in written if s == source.value} == {"1.0"}
