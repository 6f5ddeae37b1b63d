"""Run configuration, seeded execution, experiment matrices, reporting.

Every random draw in a run descends from the single run seed through a
named sub-stream (world, exploration, wandering, observation), so adding
draws to one stream never shifts another; see rng.py.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import sys
import time
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
from .replay import MAX_ROLLOUT_DEPTH, WanderingParams
from .suffering import (NAMES, FrustrationEvent, Ledger, Source, Timescale, event_rows, events,
                        rescore)
from .values import LearningParams
from .world import WorldError, WorldModel

VERSION = "0.1.0"

EVENT_COLUMNS = ("run_id", *FrustrationEvent._fields)

REPORT_COLUMNS = ("intervention", "world", "seed", "status", "total_frustration",
                  "weighted_total", "step_total", "plan_total", "self_eval_total",
                  "obtained_reward", "episodes")

SWEEP_COLUMNS = ("threshold", "false_alarms", "misses", "realized_cost")


def say(msg: str):
    """One line on stderr when GRIDMIND_VERBOSE is set (not 0); never to a file."""
    if os.environ.get("GRIDMIND_VERBOSE", "") not in ("", "0"):
        print(msg, file=sys.stderr)


ConfigError = inputs.InputError  # bad input, with the dotted path of the value

# The longest intervention, world and threshold lists, far above the shipped
# ones: a matrix lays out a report cell per (intervention, world) before it
# simulates, and a sweep scans every trajectory once per threshold.
MAX_INTERVENTIONS = MAX_THRESHOLDS = 1000
MAX_WORLDS = 100


@dataclass(frozen=True)
class RunConfig:
    world: str = "corridor"   # preset or file, built as a run starts; or a built WorldModel
    steps: Annotated[int, Range(0, inputs.MAX_STEPS)] = 1000
    seed: Annotated[int, inputs.SEED] = 0
    learning: LearningParams = field(default_factory=LearningParams)
    planning: PlanSearchParams = field(default_factory=PlanSearchParams)
    wandering: WanderingParams = field(default_factory=WanderingParams)
    interrupts: InterruptPolicy = field(default_factory=InterruptPolicy)
    self_model: SelfModel = field(default_factory=SelfModel)
    intervention: InterventionConfig = field(default_factory=InterventionConfig)
    # suggest_goals' other reach is wandering.rollout_depth: one ceiling for both
    goal_reach: Annotated[int, Range(1, MAX_ROLLOUT_DEPTH)] = 4
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
    """The run a config names; its world is built, and checked, by ``open_world``."""
    return inputs.section(RunConfig, data, "", _READERS)


def load_config(path) -> RunConfig:
    return config_from_dict(inputs.load_json(path))


def open_world(world) -> WorldModel:
    """The world a run or a sweep names, built; one that fails to build is bad input."""
    if isinstance(world, WorldModel):
        return world
    try:
        return get_world(world)
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


def write_table(path, columns, rows):
    """Write a CSV file: the ``columns`` header, then each row, a sequence in
    column order, creating the file's directory. ``csv`` formats every
    number: a float as its ``repr``, an int as its digits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


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
        "episode_reward_loss_total": agent.episode_loss_total,
        "threat_interrupts": agent.threat_interrupts,
        "desire_interrupts": agent.desire_interrupts,
        "positive_wanderings": agent.positive_wanderings,
    }


def run(config: RunConfig, out_dir=None) -> tuple[Agent, dict]:
    """Execute one seeded run and score its loss sites in columns. With
    out_dir, write there events.csv (its ``event_rows``, read from the
    slot columns: no ``FrustrationEvent`` is built), summary.json and, when
    tracing, trace.csv; each CSV through ``write_table``. Deterministic."""
    world = open_world(config.world)
    agent = Agent(config, world, config.seed)
    agent.run(config.steps)
    summary = summarize(agent, config, rescore(agent.sites, agent.terms))
    if out_dir is None:
        return agent, summary
    out = Path(out_dir)
    rid = config.run_id()
    write_table(out / f"{rid}_events.csv", EVENT_COLUMNS,
                event_rows(agent.sites, agent.terms, NAMES, (rid,)))
    with open(out / f"{rid}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if config.trace:
        write_table(out / f"{rid}_trace.csv", ("t", "kind", "detail"),
                    ((item.t, item.kind, json.dumps(item.detail, sort_keys=True))
                     for item in agent.trace))
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
    for path, axis in (("interventions", interventions), ("worlds", worlds)):
        if not axis:
            raise inputs.InputError(path, "need at least one")
    data = inputs.record(matrix.get("base", {}), "base", _BASE_KEYS)
    base = inputs.section(RunConfig, data, "base", _READERS)
    if "steps" in matrix:
        base = replace(base, steps=inputs.steps(matrix["steps"], "steps"))
    return interventions, worlds, seeds, base


def _report_row(config: RunConfig, world: str, totals: dict, agent: Agent) -> dict:
    by_timescale = totals["by_timescale"]
    return dict(zip(REPORT_COLUMNS, (
        config.intervention.name, world, str(config.seed), "ok",
        totals["total"], totals["weighted_total"], by_timescale[Timescale.STEP.value],
        by_timescale[Timescale.PLAN.value], by_timescale[Timescale.SELF_EVAL.value],
        agent.obtained_total, agent.episodes)))


def _class_rows(config: RunConfig, world: str, ivs: list) -> list:
    """Report rows, naming ``world``, of interventions that ``apply`` gives
    the same behaviour: the first is simulated, and the loss sites of its
    run are re-scored under the equation terms of each of the others."""
    configs = [replace(config, intervention=iv) for iv in ivs]
    agent, summary = run(configs[0])
    confusion = agent.world.observation_confusion
    rows = [_report_row(configs[0], world, summary["totals"], agent)]
    for member in configs[1:]:
        ledger = rescore(agent.sites, terms(member, confusion))
        rows.append(_report_row(member, world, ledger_totals(ledger), agent))
    return rows


def experiment(matrix: dict, out_dir=None) -> tuple[list, int]:
    """Run interventions x worlds x seeds; one report row per cell plus
    per-(intervention, world) medians. Failed cells are marked and kept.

    Each world is built once and its runs copy it; one that fails to build
    fails its own cells. Interventions that ``apply`` gives the same
    (p_wander, goal_threshold) act the same, so each (world, seed)
    simulates each class once and re-scores the rest of the class; a
    simulation that raises fails every cell of its class. Each (world,
    seed) done ``say``s the cells done and failed so far, and an ETA."""
    interventions, worlds, seeds, base = _matrix(matrix)
    classes: dict[tuple, list] = {}
    for i, iv in enumerate(interventions):
        classes.setdefault(apply(base, iv), []).append(i)

    cells = {(i, w): [] for i in range(len(interventions)) for w in range(len(worlds))}
    failures, done, total = 0, 0, len(cells) * len(seeds)
    began = time.monotonic()
    for w, name in enumerate(worlds):
        try:
            world, error = open_world(name), None
        except ConfigError as exc:
            world, error = None, exc
        for seed in seeds:
            config = replace(base, world=world, seed=seed)
            for members in classes.values():
                ivs = [interventions[i] for i in members]
                try:
                    if error is not None:
                        raise error.with_traceback(None)  # no traceback kept per raise
                    class_rows = _class_rows(config, world_name(name), ivs)
                except Exception as exc:  # noqa: BLE001 - classes fail independently
                    failures += len(members)
                    class_rows = [{**dict.fromkeys(REPORT_COLUMNS, ""),
                                   "intervention": iv.name, "world": name,
                                   "seed": str(seed), "status": f"failed: {exc}"}
                                  for iv in ivs]
                for i, row in zip(members, class_rows):
                    cells[i, w].append(row)
            done += len(interventions)
            eta = (time.monotonic() - began) / done * (total - done)
            say(f"world {name} seed {seed}: {done}/{total} cells done, {failures} failed, "
                f"ETA {eta:.1f} s")

    rows = []
    for cell_rows in cells.values():
        ok = [r for r in cell_rows if r["status"] == "ok"]
        if ok:
            cell_rows.append({**cell_rows[0], "seed": "median", "status": "ok", **{
                col: statistics.median(r[col] for r in ok) for col in REPORT_COLUMNS[4:]}})
        rows.extend(cell_rows)

    rows.sort(key=lambda r: (r["intervention"], r["world"], r["seed"] == "median",
                             int(r["seed"]) if r["seed"].isdigit() else -1))
    if out_dir is not None:
        write_table(Path(out_dir) / "report.csv", REPORT_COLUMNS,
                    ([row[c] for c in REPORT_COLUMNS] for row in rows))
    return rows, failures
