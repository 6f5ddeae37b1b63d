"""Run configuration, seeded execution, experiment matrices, reporting.

Every random draw in a run descends from the single run seed through a
named sub-stream (world, exploration, wandering, observation), so adding
draws to one stream never shifts another; see rng.py.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import statistics
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .agent import Agent
from .affect import InterruptPolicy, SelfModel
from .interventions import (InterventionConfig, behaviour_key, by_name,
                            canonical_suite, terms)
from .interventions import apply as apply_intervention
from .planning import PlanSearchParams
from .presets import PRESETS, get_world
from .replay import WanderingParams
from .suffering import Source, Timescale, rescore
from .values import LearningParams

VERSION = "0.1.0"

EVENT_COLUMNS = ("run_id", "t", "source", "timescale", "expected", "obtained",
                 "certainty", "attention", "count", "frustration")

REPORT_COLUMNS = ("intervention", "world", "seed", "status", "total_frustration",
                  "weighted_total", "step_total", "plan_total", "self_eval_total",
                  "obtained_reward", "episodes")


class ConfigError(Exception):
    """Invalid run configuration; carries a dotted path to the bad field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass
class RunConfig:
    world: object = "corridor"   # preset name, file path, or WorldModel
    steps: int = 1000
    seed: int = 0
    learning: LearningParams = field(default_factory=LearningParams)
    planning: PlanSearchParams = field(default_factory=PlanSearchParams)
    wandering: WanderingParams = field(default_factory=WanderingParams)
    interrupts: InterruptPolicy = field(default_factory=InterruptPolicy)
    self_model: SelfModel = field(default_factory=SelfModel)
    intervention: InterventionConfig = field(default_factory=InterventionConfig)
    goal_reach: int = 4
    goal_threshold: float = 0.1
    attention: float = 1.0
    policy: str = "learned"
    episode_step_limit: int = 200
    buffer_capacity: int = 10_000
    baseline_level: float = 0.0
    baseline_rate: float = 0.1
    desire_cost: float = 0.0
    meta_aversion: bool = False
    meta_aversion_scale: float = 0.5
    depression_stay_bias: float = 0.75
    trace: bool = False

    def world_name(self) -> str:
        if isinstance(self.world, str):
            return Path(self.world).stem if self.world not in PRESETS else self.world
        return "inline"

    def run_id(self) -> str:
        return f"{self.intervention.name}_{self.world_name()}_{self.seed}"


def _build_section(cls, data: dict, path: str):
    allowed = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # A check that names its field ("alpha must be ...") points at it.
        name, _, rest = str(exc).partition(" ")
        if name in allowed and rest:
            raise ConfigError(f"{path}.{name}", rest) from None
        raise ConfigError(path, str(exc)) from None


def _build_learning(data: dict) -> LearningParams:
    data = dict(data)
    if "step_penalty" in data and data.get("step_penalty") is not None:
        data.setdefault("gamma", None)
        if data["gamma"] is not None:
            raise ConfigError("learning", "set either gamma or step_penalty, not both")
    return _build_section(LearningParams, data, "learning")


def _intervention(value, path: str) -> InterventionConfig:
    """An intervention given by canonical name or as an object."""
    if isinstance(value, dict):
        return _build_section(InterventionConfig, value, path)
    if not isinstance(value, str):
        raise ConfigError(path, "must be a name or an object")
    try:
        return by_name(value)
    except KeyError as exc:
        raise ConfigError(path, str(exc)) from None


def config_from_dict(data: dict) -> RunConfig:
    return validate_config(_parse_config(data))


def _parse_config(data: dict) -> RunConfig:
    sections = {
        "learning": _build_learning,
        "planning": lambda d: _build_section(PlanSearchParams, d, "planning"),
        "wandering": lambda d: _build_section(WanderingParams, d, "wandering"),
        "interrupts": lambda d: _build_section(InterruptPolicy, d, "interrupts"),
        "self_model": lambda d: _build_section(SelfModel, d, "self_model"),
    }
    kwargs = {}
    top_level = {f.name for f in fields(RunConfig)}
    for key, value in data.items():
        if key in sections:
            if not isinstance(value, dict):
                raise ConfigError(key, "must be an object")
            kwargs[key] = sections[key](value)
        elif key == "intervention":
            kwargs[key] = _intervention(value, key)
        elif key in top_level:
            kwargs[key] = value
        else:
            raise ConfigError(key, "unknown field")
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("run", str(exc)) from None


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except OSError as exc:
        raise ConfigError(str(path), str(exc)) from None
    return config_from_dict(data)


def validate_config(config: RunConfig) -> RunConfig:
    _check_fields(config)
    try:
        world = get_world(config.world)
    except Exception as exc:
        raise ConfigError("world", str(exc)) from None
    if config.learning.subtractive and config.learning.step_penalty != world.step_cost:
        raise ConfigError(
            "learning.step_penalty",
            f"subtractive runs must match the world's step_cost "
            f"({world.step_cost}), got {config.learning.step_penalty}")
    return config


def _integer(v) -> bool:
    """An integer count or seed; bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _seed(v) -> bool:
    return _integer(v) and 0 <= v < 2 ** 64


# (field, check, message) of the run fields that need no world to check.
_FIELD_CHECKS = (
    ("steps", lambda v: _integer(v) and v >= 0, "must be an integer >= 0"),
    ("seed", _seed, "must be an integer that fits in 64 unsigned bits"),
    ("policy", lambda v: v in ("learned", "random"), "must be 'learned' or 'random'"),
    ("episode_step_limit", lambda v: _integer(v) and v >= 1, "must be a positive integer"),
    ("goal_reach", lambda v: _integer(v) and v >= 1, "must be a positive integer"),
    ("attention", lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0"),
    ("depression_stay_bias", lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    ("desire_cost", lambda v: v >= 0, "must be >= 0"),
)


def _check_fields(config: RunConfig):
    """The checks that need no world. A value of the wrong type (a string
    for ``steps``) fails its check instead of raising TypeError."""
    for name, check, message in _FIELD_CHECKS:
        try:
            ok = check(getattr(config, name))
        except TypeError:
            ok = False
        if not ok:
            raise ConfigError(name, message)


# -- running ---------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def event_rows(agent: Agent, run_id: str):
    for ev in agent.ledger.events:
        yield (run_id, ev.t, ev.source.value, ev.timescale.value, _fmt(ev.expected),
               _fmt(ev.obtained), _fmt(ev.certainty), _fmt(ev.attention),
               ev.count, _fmt(ev.frustration))


def summarize(agent: Agent, config: RunConfig) -> dict:
    ledger = agent.ledger
    return {
        "version": VERSION,
        "run_id": config.run_id(),
        "seed": config.seed,
        "steps": agent.t,
        "world": config.world_name(),
        "intervention": config.intervention.name,
        "episodes": agent.episodes,
        "obtained_reward": agent.obtained_total,
        "totals": {
            "total": ledger.total,
            "weighted_total": ledger.weighted_total(),
            "by_source": {s.value: ledger.by_source[s] for s in Source},
            "by_timescale": {ts.value: ledger.by_timescale[ts] for ts in Timescale},
        },
        "baseline_level": agent.baseline.level,
        "episode_reward_loss_total": sum(agent.episode_losses),
        "threat_interrupts": agent.threat_interrupts,
        "desire_interrupts": agent.desire_interrupts,
        "positive_wanderings": agent.positive_wanderings,
    }


def run(config: RunConfig, out_dir=None) -> tuple[Agent, dict]:
    """Execute one seeded run; optionally write events.csv / summary.json
    (and trace.csv when tracing) into out_dir. Deterministic per config."""
    validate_config(config)
    world = get_world(config.world)
    agent = Agent(config, world, config.seed)
    agent.run(config.steps)
    summary = summarize(agent, config)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rid = config.run_id()
        with open(out / f"{rid}_events.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EVENT_COLUMNS)
            writer.writerows(event_rows(agent, rid))
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


def audit(agent: Agent) -> dict:
    """Cross-check the action trace against the ledger.

    Each auditable trace item must map to exactly one ledger event with
    the matching (t, source); multiplicities are compared as multisets.
    """
    if not agent.trace_enabled:
        raise ValueError("audit requires a run with trace enabled")
    expect: dict[tuple, int] = {}

    def bump(key):
        expect[key] = expect.get(key, 0) + 1

    for item in agent.trace:
        if item.kind == "step" and item.detail["loss"] > 0:
            bump((item.t, Source.STEP_LOSS))
        elif item.kind == "intention_terminal":
            bump((item.t, Source.PLAN_LOSS))
        elif item.kind == "self_eval_fired":
            bump((item.t, Source.SELF_EVAL))
        elif item.kind == "interrupt_threat":
            bump((item.t, Source.THREAT_INTERNAL))
        elif item.kind == "wander_negative":
            bump((item.t, Source(item.detail["source"])))

    got: dict[tuple, int] = {}
    audited = {Source.STEP_LOSS, Source.PLAN_LOSS, Source.SELF_EVAL,
               Source.THREAT_INTERNAL, Source.REPLAYED, Source.IMAGINED}
    for ev in agent.ledger.events:
        if ev.source in audited:
            got[(ev.t, ev.source)] = got.get((ev.t, ev.source), 0) + 1

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


def _matrix_interventions(spec) -> list:
    if spec in (None, "canonical"):
        return canonical_suite()
    if not isinstance(spec, list):
        raise ConfigError("interventions", "must be 'canonical' or a list")
    return [_intervention(item, f"interventions[{i}]") for i, item in enumerate(spec)]


def _matrix_worlds(spec) -> list:
    if not isinstance(spec, list):
        raise ConfigError("worlds", "must be a list of world names or paths")
    for i, world in enumerate(spec):
        if not isinstance(world, str):
            raise ConfigError(f"worlds[{i}]", "must be a world name or path")
    return spec


def _matrix_seeds(spec) -> list:
    """A seed count (seeds 0..n-1) or a list of seeds."""
    if _integer(spec) and spec >= 0:
        return list(range(spec))
    if not isinstance(spec, list):
        raise ConfigError("seeds", "must be a non-negative integer or a list of seeds")
    for i, seed in enumerate(spec):
        if not _seed(seed):
            raise ConfigError(f"seeds[{i}]", "must be an integer that fits in 64 unsigned bits")
    return spec


def _matrix_base(matrix: dict) -> RunConfig:
    """The run configuration every cell starts from, checked once before any
    simulation. World and seed come per cell, so the checks that need a
    world wait for the cells."""
    data = matrix.get("base", {})
    if not isinstance(data, dict):
        raise ConfigError("base", "must be an object")
    try:
        base = _parse_config({k: v for k, v in data.items() if k not in ("world", "seed")})
        _check_fields(base)
    except ConfigError as exc:
        raise ConfigError(f"base.{exc.path}", exc.message) from None
    if "steps" in matrix:
        base = replace(base, steps=matrix["steps"])
        _check_fields(base)
    return base


def _report_row(config: RunConfig, ledger, agent: Agent) -> dict:
    by_timescale = ledger.by_timescale
    return dict(zip(REPORT_COLUMNS, (
        config.intervention.name, config.world_name(), str(config.seed), "ok",
        ledger.total, ledger.weighted_total(), by_timescale[Timescale.STEP],
        by_timescale[Timescale.PLAN], by_timescale[Timescale.SELF_EVAL],
        agent.obtained_total, agent.episodes)))


def _class_rows(config: RunConfig, ivs: list) -> list:
    """Report rows of interventions that share a behaviour key: the first
    is simulated, and the loss sites of its run are re-scored under the
    equation terms of each of the others."""
    configs = [apply_intervention(config, iv) for iv in ivs]
    agent, _ = run(configs[0])
    confusion = agent.world.observation_confusion
    rows = [_report_row(configs[0], agent.ledger, agent)]
    for member in configs[1:]:
        rows.append(_report_row(member, rescore(agent.sites, terms(member, confusion)), agent))
    return rows


def experiment(matrix: dict, out_dir=None) -> tuple[list, int]:
    """Run interventions x worlds x seeds; one report row per cell plus
    per-(intervention, world) medians. Failed cells are marked and kept.

    Interventions with equal behaviour keys act the same, so each (world,
    seed) simulates each class once and re-scores the rest of the class;
    a simulation that raises fails every cell of its class.
    """
    interventions = _matrix_interventions(matrix.get("interventions"))
    worlds = _matrix_worlds(matrix.get("worlds", ["corridor"]))
    seeds = _matrix_seeds(matrix.get("seeds", 5))
    base = _matrix_base(matrix)
    classes: dict[tuple, list] = {}
    for i, iv in enumerate(interventions):
        classes.setdefault(behaviour_key(iv), []).append(i)

    cells = {(i, w): [] for i in range(len(interventions)) for w in range(len(worlds))}
    failures = 0
    for w, world_name in enumerate(worlds):
        for seed in seeds:
            config = replace(base, world=world_name, seed=seed)
            for members in classes.values():
                ivs = [interventions[i] for i in members]
                try:
                    class_rows = _class_rows(config, ivs)
                except Exception as exc:  # noqa: BLE001 - classes fail independently
                    failures += len(members)
                    class_rows = [{**dict.fromkeys(REPORT_COLUMNS, ""),
                                   "intervention": iv.name, "world": str(world_name),
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
