"""Run configuration, seeded execution, experiment matrices, reporting.

Every random draw in a run descends from the single run seed through a
named sub-stream (world, exploration, wandering, observation), so adding
draws to one stream never shifts another; see rng.py.
"""

from __future__ import annotations

import csv
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Annotated

from . import inputs
from .agent import Agent
from .affect import InterruptPolicy, SelfModel
from .inputs import Range
from .interventions import InterventionConfig, apply, by_name, canonical_suite, terms
from .planning import PlanSearchParams
from .presets import PRESETS, get_world
from .replay import WanderingParams
from .suffering import Ledger, Source, Timescale, events, rescore
from .values import LearningParams
from .world import WorldError, WorldModel

VERSION = "0.1.0"

EVENT_COLUMNS = ("run_id", "t", "source", "timescale", "expected", "obtained",
                 "certainty", "attention", "count", "frustration")

REPORT_COLUMNS = ("intervention", "world", "seed", "status", "total_frustration",
                  "weighted_total", "step_total", "plan_total", "self_eval_total",
                  "obtained_reward", "episodes")


ConfigError = inputs.InputError  # bad input, with the dotted path of the value

# The longest intervention, world and threshold lists, far above the shipped
# ones: a matrix lays out a report cell per (intervention, world) before it
# simulates, and a sweep scans every trajectory once per threshold.
MAX_INTERVENTIONS = MAX_THRESHOLDS = 1000
MAX_WORLDS = 100


@dataclass(frozen=True)
class RunConfig:
    world: str = "corridor"   # preset name or file path (a WorldModel from Python)
    steps: Annotated[int, Range(0, inputs.MAX_STEPS)] = 1000
    seed: Annotated[int, inputs.SEED] = 0
    learning: LearningParams = field(default_factory=LearningParams)
    planning: PlanSearchParams = field(default_factory=PlanSearchParams)
    wandering: WanderingParams = field(default_factory=WanderingParams)
    interrupts: InterruptPolicy = field(default_factory=InterruptPolicy)
    self_model: SelfModel = field(default_factory=SelfModel)
    intervention: InterventionConfig = field(default_factory=InterventionConfig)
    goal_reach: Annotated[int, Range(1)] = 4
    goal_threshold: Annotated[float, Range()] = 0.1
    attention: Annotated[float, Range(0)] = 1.0
    policy: str = "learned"
    episode_step_limit: Annotated[int, Range(1)] = 200
    buffer_capacity: Annotated[int, Range(1, 10 ** 7)] = 10_000
    baseline_level: Annotated[float, Range()] = 0.0
    baseline_rate: Annotated[float, Range(0, 1)] = 0.1
    desire_cost: Annotated[float, Range(0)] = 0.0
    meta_aversion: bool = False
    meta_aversion_scale: Annotated[float, Range(0)] = 0.5
    depression_stay_bias: Annotated[float, Range(0, 1)] = 0.75
    trace: bool = False

    def __post_init__(self):
        inputs.check(self)
        if self.policy not in ("learned", "random"):
            raise ValueError("policy must be 'learned' or 'random'")

    def run_id(self) -> str:
        return f"{self.intervention.name}_{world_name(self.world)}_{self.seed}"


def world_name(world) -> str:
    """The name of a world in reports and run ids."""
    if isinstance(world, str):
        return Path(world).stem if world not in PRESETS else world
    return "inline"


def _intervention(value, path: str) -> InterventionConfig:
    """An intervention given by canonical name or as an object."""
    if not isinstance(value, str):
        return inputs.section(InterventionConfig, value, path)
    try:
        return by_name(value)
    except KeyError as exc:
        raise ConfigError(path, str(exc)) from None


# The readers of the run fields that are not read by their annotation.
_READERS = {"intervention": _intervention}


def config_from_dict(data) -> RunConfig:
    config = inputs.section(RunConfig, data, "", _READERS)
    open_world(config.world)  # a world that does not load is bad input
    return config


def load_config(path) -> RunConfig:
    return config_from_dict(inputs.load_json(path))


def open_world(name_or_path) -> WorldModel:
    """The world a run or a sweep names; one that fails to build is bad input."""
    try:
        return get_world(name_or_path)
    except (OSError, ValueError, WorldError, inputs.InputError) as exc:
        raise ConfigError("world", str(exc)) from None


def sweep_from_dict(data) -> tuple:
    """A threshold-sweep policy as (thresholds, InterruptPolicy, seeds, steps):
    at least two finite thresholds, seeds as in a matrix, a step count, and
    the interrupt policy's own fields."""
    own = {"thresholds", "seeds", "steps"}
    inputs.record(data, "policy", own | {f.name for f in fields(InterruptPolicy)})
    thresholds = inputs.list_of(inputs.number, MAX_THRESHOLDS)(data.get("thresholds", []),
                                                              "policy.thresholds")
    if len(thresholds) < 2:
        raise ConfigError("policy.thresholds", "need at least two")
    rest = {k: v for k, v in data.items() if k not in own}
    return (thresholds, inputs.section(InterruptPolicy, rest, "policy"),
            inputs.seeds(data.get("seeds", 5), "policy.seeds"),
            inputs.steps(data.get("steps", 300), "policy.steps"))


# -- running ---------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def event_row(run_id: str, ev) -> tuple:
    return (run_id, ev.t, ev.source.value, ev.timescale.value, _fmt(ev.expected),
            _fmt(ev.obtained), _fmt(ev.certainty), _fmt(ev.attention),
            ev.count, _fmt(ev.frustration))


def ledger_totals(ledger: Ledger) -> dict:
    return {
        "total": ledger.total,
        "weighted_total": ledger.weighted_total(),
        "by_source": {s.value: ledger.by_source[s] for s in Source},
        "by_timescale": {ts.value: ledger.by_timescale[ts] for ts in Timescale},
    }


def summarize(agent: Agent, config: RunConfig, ledger: Ledger) -> dict:
    return {
        "version": VERSION,
        "run_id": config.run_id(),
        "seed": config.seed,
        "steps": agent.t,
        "world": world_name(config.world),
        "intervention": config.intervention.name,
        "episodes": agent.episodes,
        "obtained_reward": agent.obtained_total,
        "totals": ledger_totals(ledger),
        "baseline_level": agent.baseline.level,
        "episode_reward_loss_total": sum(agent.episode_losses),
        "threat_interrupts": agent.threat_interrupts,
        "desire_interrupts": agent.desire_interrupts,
        "positive_wanderings": agent.positive_wanderings,
    }


def run(config: RunConfig, out_dir=None) -> tuple[Agent, dict]:
    """Execute one seeded run and score its loss sites in columns; optionally
    write events.csv (its rows read from the same columns, a block at a
    time), summary.json and, when tracing, trace.csv into out_dir.
    Deterministic per config."""
    world = open_world(config.world)
    agent = Agent(config, world, config.seed)
    agent.run(config.steps)
    summary = summarize(agent, config, rescore(agent.sites, agent.terms))
    if out_dir is None:
        return agent, summary
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rid = config.run_id()
    with open(out / f"{rid}_events.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_COLUMNS)
        writer.writerows(event_row(rid, ev) for ev in events(agent.sites, agent.terms))
    with open(out / f"{rid}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if config.trace:
        with open(out / f"{rid}_trace.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("t", "kind", "detail"))
            for item in agent.trace:
                writer.writerow((item.t, item.kind, json.dumps(item.detail, sort_keys=True)))
    return agent, summary


# -- trace audit -------------------------------------------------------------


# The trace items that each stand for one event of a fixed source.
_AUDITED_KINDS = {"intention_terminal": Source.PLAN_LOSS, "self_eval_fired": Source.SELF_EVAL,
                  "interrupt_threat": Source.THREAT_INTERNAL}


def audit(agent: Agent) -> dict:
    """Cross-check the action trace against the events the run records.

    Each auditable trace item must map to exactly one event with the
    matching (t, source); multiplicities are compared as multisets.
    """
    if not agent.trace_enabled:
        raise ValueError("audit requires a run with trace enabled")
    expect = Counter()
    for item in agent.trace:
        if item.kind == "step" and item.detail["loss"] > 0:
            expect[item.t, Source.STEP_LOSS] += 1
        elif item.kind == "wander_negative":
            expect[item.t, Source(item.detail["source"])] += 1
        elif item.kind in _AUDITED_KINDS:
            expect[item.t, _AUDITED_KINDS[item.kind]] += 1
    audited = {Source.STEP_LOSS, Source.PLAN_LOSS, Source.SELF_EVAL,
               Source.THREAT_INTERNAL, Source.REPLAYED, Source.IMAGINED}
    got = Counter((ev.t, ev.source) for ev in events(agent.sites, agent.terms)
                  if ev.source in audited)

    missing = {k: v for k, v in expect.items() if got.get(k, 0) != v}
    surplus = {k: v for k, v in got.items() if expect.get(k, 0) != v}
    return {
        "ok": not missing and not surplus,
        "expected_items": sum(expect.values()),
        "ledger_items": sum(got.values()),
        "missing": missing,
        "surplus": surplus,
    }


# -- experiment matrices -----------------------------------------------------


_BASE_KEYS = {f.name for f in fields(RunConfig)} - {"world", "seed", "intervention"}


def _matrix(matrix) -> tuple:
    """(interventions, worlds, seeds, base config) of a matrix, all checked
    before any simulation. World, seed and intervention come per cell, so
    the checks that need a world wait for the cells."""
    inputs.record(matrix, "", ("interventions", "worlds", "seeds", "steps", "base"), root="matrix")
    spec = matrix.get("interventions")
    interventions = (canonical_suite() if spec in (None, "canonical") else inputs.distinct(
        inputs.list_of(_intervention, MAX_INTERVENTIONS)(spec, "interventions"),
        "interventions", lambda iv: iv.name))
    worlds = inputs.distinct(inputs.list_of(inputs.string, MAX_WORLDS)(
        matrix.get("worlds", ["corridor"]), "worlds"), "worlds", world_name)
    seeds = inputs.seeds(matrix.get("seeds", 5), "seeds")
    data = inputs.record(matrix.get("base", {}), "base", _BASE_KEYS)
    base = inputs.section(RunConfig, data, "base", _READERS)
    if "steps" in matrix:
        base = replace(base, steps=inputs.steps(matrix["steps"], "steps"))
    return interventions, worlds, seeds, base


def _report_row(config: RunConfig, totals: dict, agent: Agent) -> dict:
    by_timescale = totals["by_timescale"]
    return dict(zip(REPORT_COLUMNS, (
        config.intervention.name, world_name(config.world), str(config.seed), "ok",
        totals["total"], totals["weighted_total"], by_timescale[Timescale.STEP.value],
        by_timescale[Timescale.PLAN.value], by_timescale[Timescale.SELF_EVAL.value],
        agent.obtained_total, agent.episodes)))


def _class_rows(config: RunConfig, ivs: list) -> list:
    """Report rows of interventions that ``apply`` gives the same behaviour:
    the first is simulated, and the loss sites of its run are re-scored
    under the equation terms of each of the others."""
    configs = [replace(config, intervention=iv) for iv in ivs]
    agent, summary = run(configs[0])
    confusion = agent.world.observation_confusion
    rows = [_report_row(configs[0], summary["totals"], agent)]
    for member in configs[1:]:
        ledger = rescore(agent.sites, terms(member, confusion))
        rows.append(_report_row(member, ledger_totals(ledger), agent))
    return rows


def experiment(matrix: dict, out_dir=None) -> tuple[list, int]:
    """Run interventions x worlds x seeds; one report row per cell plus
    per-(intervention, world) medians. Failed cells are marked and kept.

    Interventions that ``apply`` gives the same (p_wander, goal_threshold)
    act the same, so each (world, seed) simulates each class once and
    re-scores the rest of the class; a simulation that raises fails every
    cell of its class.
    """
    interventions, worlds, seeds, base = _matrix(matrix)
    classes: dict[tuple, list] = {}
    for i, iv in enumerate(interventions):
        classes.setdefault(apply(base, iv), []).append(i)

    cells = {(i, w): [] for i in range(len(interventions)) for w in range(len(worlds))}
    failures = 0
    for w, world in enumerate(worlds):
        for seed in seeds:
            config = replace(base, world=world, seed=seed)
            for members in classes.values():
                ivs = [interventions[i] for i in members]
                try:
                    class_rows = _class_rows(config, ivs)
                except Exception as exc:  # noqa: BLE001 - classes fail independently
                    failures += len(members)
                    class_rows = [{**dict.fromkeys(REPORT_COLUMNS, ""),
                                   "intervention": iv.name, "world": str(world),
                                   "seed": str(seed), "status": f"failed: {exc}"}
                                  for iv in ivs]
                for i, row in zip(members, class_rows):
                    cells[i, w].append(row)

    rows = []
    for cell_rows in cells.values():
        ok = [r for r in cell_rows if r["status"] == "ok"]
        if ok:
            med = {
                "intervention": cell_rows[0]["intervention"],
                "world": cell_rows[0]["world"],
                "seed": "median",
                "status": "ok",
            }
            for col in REPORT_COLUMNS[4:]:
                med[col] = statistics.median(r[col] for r in ok)
            cell_rows.append(med)
        rows.extend(cell_rows)

    rows.sort(key=lambda r: (r["intervention"], r["world"], r["seed"] == "median",
                             int(r["seed"]) if r["seed"].isdigit() else -1))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
    return rows, failures
