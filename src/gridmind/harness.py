"""Run configuration, seeded execution, experiment matrices, reporting.

Every random draw in a run descends from the single run seed through a
named sub-stream (world, exploration, wandering, observation), so adding
draws to one stream never shifts another; see rng.py.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path

from .agent import Agent
from .affect import InterruptPolicy, SelfModel
from .interventions import InterventionConfig, by_name, canonical_suite
from .interventions import apply as apply_intervention
from .planning import PlanSearchParams
from .presets import PRESETS, get_world
from .replay import WanderingParams
from .suffering import Source, Timescale
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
        config = RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("run", str(exc)) from None
    validate_config(config)
    return config


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except OSError as exc:
        raise ConfigError(str(path), str(exc)) from None
    return config_from_dict(data)


def validate_config(config: RunConfig) -> RunConfig:
    if config.steps < 0:
        raise ConfigError("steps", "must be >= 0")
    if not 0 <= config.seed < 2 ** 64:
        raise ConfigError("seed", "must fit in 64 unsigned bits")
    if config.policy not in ("learned", "random"):
        raise ConfigError("policy", "must be 'learned' or 'random'")
    if config.episode_step_limit < 1:
        raise ConfigError("episode_step_limit", "must be positive")
    if config.goal_reach < 1:
        raise ConfigError("goal_reach", "must be positive")
    if not (math.isfinite(config.attention) and config.attention >= 0):
        raise ConfigError("attention", "must be finite and >= 0")
    if not 0.0 <= config.depression_stay_bias <= 1.0:
        raise ConfigError("depression_stay_bias", "must be in [0, 1]")
    if config.desire_cost < 0:
        raise ConfigError("desire_cost", "must be >= 0")
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


def experiment(matrix: dict, out_dir=None) -> tuple[list, int]:
    """Run interventions x worlds x seeds; one report row per cell plus
    per-(intervention, world) medians. Failed cells are marked and kept."""
    interventions = _matrix_interventions(matrix.get("interventions"))
    worlds = matrix.get("worlds", ["corridor"])
    seeds_spec = matrix.get("seeds", 5)
    seeds = list(range(seeds_spec)) if isinstance(seeds_spec, int) else list(seeds_spec)
    base_data = matrix.get("base", {})

    rows = []
    failures = 0
    for iv in interventions:
        for world_name in worlds:
            cell_rows = []
            for seed in seeds:
                try:
                    base = config_from_dict(
                        {**base_data, "world": world_name, "seed": seed,
                         **({"steps": matrix["steps"]} if "steps" in matrix else {})})
                    config = apply_intervention(base, iv)
                    _, summary = run(config)
                    row = {
                        "intervention": iv.name,
                        "world": config.world_name(),
                        "seed": str(seed),
                        "status": "ok",
                        "total_frustration": summary["totals"]["total"],
                        "weighted_total": summary["totals"]["weighted_total"],
                        "step_total": summary["totals"]["by_timescale"]["Step"],
                        "plan_total": summary["totals"]["by_timescale"]["Plan"],
                        "self_eval_total": summary["totals"]["by_timescale"]["SelfEval"],
                        "obtained_reward": summary["obtained_reward"],
                        "episodes": summary["episodes"],
                    }
                except Exception as exc:  # noqa: BLE001 - cells fail independently
                    failures += 1
                    row = {
                        "intervention": iv.name,
                        "world": str(world_name),
                        "seed": str(seed),
                        "status": f"failed: {exc}",
                        "total_frustration": "", "weighted_total": "",
                        "step_total": "", "plan_total": "", "self_eval_total": "",
                        "obtained_reward": "", "episodes": "",
                    }
                cell_rows.append(row)
            ok = [r for r in cell_rows if r["status"] == "ok"]
            if ok:
                med = {
                    "intervention": cell_rows[0]["intervention"],
                    "world": cell_rows[0]["world"],
                    "seed": "median",
                    "status": "ok",
                }
                for col in ("total_frustration", "weighted_total", "step_total",
                            "plan_total", "self_eval_total", "obtained_reward",
                            "episodes"):
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
