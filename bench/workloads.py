"""The benchmark's workloads: what each one runs, at which size, and why.

A run of one workload is a sequence of passes. Pass ``j`` of a run started
with ``--seed n`` uses pool entry ``k = (n + j % size.entries) % size.pool``:
the run cycles over ``size.entries`` consecutive entries. Every pool entry
has pinned sha256 digests of its outputs in ``digests.json``, and every
pass is checked byte for byte. An untraced run makes at least
``size.min_passes`` passes and then starts another while its median pass
would still end within ``--seconds``. A traced run makes exactly
``size.trace_passes`` passes, so its counts repeat exactly.

The host this was built on runs the same Python work up to 1.9 times
slower in phases of seconds to several minutes, while CPU time stays
equal to wall time: the slowdown comes from the shared machine, not from
descheduling. A phase can outlast a whole run, so no statistic over one
run's own times is steady from run to run. Each workload therefore has a
twin, a fixed seeded run of the same kind on a frozen copy of gridmind
(``gridmind_frozen/``), which ``run.Yardstick`` runs in step with the
program, a fifth of a second at a time; every time a run reports is
divided by how much slower than nominal its twin ran (``setup_s`` by how
much slower the twin's own set-up ran in fresh interpreters alternating
with the program's). The raw figures and the twin's slowdowns are
printed with every run, so the noise still shows.

The gridmind functions are reached through their modules
(``harness.experiment``, not a ``from`` import), so that the timers and
the tracer, which rebind module attributes, see every call.

Why each workload exists, and which end-to-end metric a change to each
layer should move, are written down here so that later changes can cite
them by name:

``matrix``
    ``harness.experiment`` on the canonical matrix shape of
    ``configs/matrix.json``: 8 canonical interventions x {corridor,
    loss_heavy} x one seed per pass x 800 steps, ``report.csv`` written
    to a temporary directory. It is the paper's headline experiment and
    is made of many short runs whose replay buffer stays under about 900
    items; a traced 3-seed run put 25% of self time in
    ``planning.suggest_goals``, 17% in the ``step_once`` loop itself, 12%
    in ``rng.per_step`` and 8% in ``replay.priorities``. It is the only
    workload where re-scoring instead of re-simulating, a process pool,
    or per-run set-up cost (such as preallocating replay columns for
    every cell) can show. The 20 pool entries are the canonical seeds
    0..19, so the pool as a whole is the canonical matrix; a run takes
    each pass from the next seed, since the median step differs by up to
    15% from seed to seed.
``long_run``
    One baseline ``loss_heavy`` run (``configs/run.json`` with ``steps``
    raised to 12,000), every ``Agent.step_once`` timed. The replay buffer
    holds one experience per step or more, so it reaches its 10,000
    capacity by step 10,000 and evicts from then on; a pass whose buffer
    is not full at the end counts as failed, because it did not exercise
    what the workload is for. It is the only workload with full-buffer
    priority scans and ``del _items[0]`` eviction: at 10k steps
    ``replay.priorities`` and ``replay.sample_from`` take about half of
    the wall time, and throughput falls as the buffer grows.
``sweep``
    ``affect.sweep_threshold`` on ``hazard_alley`` with the thresholds and
    costs of ``configs/policy.json``, 20 seeds per call. A uniform random
    walker calls ``world.step``, ``world.observe``,
    ``WorldModel.active_hazards`` and ``affect.threat_level`` and never
    touches ``values``, ``planning``, ``replay`` or ``suffering``, so
    changes there should leave it unchanged, while geometry or
    threat-field tables should show here first.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# The end-to-end metric, and workload, that a faster version of each layer
# should move; a traced run prints it beside the per-layer metrics. A change
# to a layer that moves none of these, or moves one on a workload not named
# here, has its claim to explain.
LAYER_MOVES = {
    "agent": "steps_per_s on matrix",
    "rng": "steps_per_s on matrix (12% of self time)",
    "world": "steps_per_s on sweep, then on matrix",
    "affect": "steps_per_s on sweep",
    "planning": "steps_per_s and run_s_p50 on matrix",
    "values": "steps_per_s on matrix",
    "replay": "steps_per_s and step_us_tail on long_run",
    "suffering": "steps_per_s on matrix",
    "interventions": "none; a control",
    "harness": "steps_per_s on matrix; setup_s",
    "presets": "setup_s, and run_s_p50 on matrix",
}


@dataclass(frozen=True)
class Size:
    pool: int               # distinct pass inputs, each with pinned digests
    entries: int            # distinct pool entries an untraced run cycles over
    min_passes: int         # passes an untraced run makes at least
    trace_passes: int       # passes a traced run makes
    steps: int              # simulated steps per seeded run
    # One twin run, the median twin step (None: steps are not timed), and a
    # fresh interpreter's way to the twin's first unit, on a quiet host
    # (Intel Xeon, 2 vCPUs, Python 3.11): the nominal speed that reported
    # times are scaled to.
    twin_s: float
    twin_step_us: float | None
    twin_setup_s: float
    seeds_per_pass: int = 1
    buffer_capacity: int | None = None


@dataclass
class PassResult:
    steps: int              # simulated steps completed
    cells: int              # seeded runs the pass asked for
    failed: int             # seeded runs that failed
    outputs: dict           # output name -> bytes


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: Callable[[Path, Size, int, Path], PassResult]
    sizes: dict
    # (module, attribute path) of the call that is one seeded run, and of
    # the call that is one simulated step (None: steps are timed per pass).
    run_unit: tuple
    step_unit: tuple | None
    # The frozen twin of one seeded run: an iterator that does one unit
    # (a step, or a whole run when steps are not timed) per item.
    twin: Callable[[Size], Iterator]

    @property
    def first_step(self) -> tuple:
        """The call at which set-up ends and simulation starts."""
        return self.step_unit or self.run_unit


# The seeded run of the twins, on the frozen copy in gridmind_frozen/: a
# literal copy of configs/run.json, so that no change to configs/ or src/
# moves the yardstick.
TWIN_RUN = {
    "world": "loss_heavy", "seed": 0,
    "learning": {"alpha": 0.1, "gamma": 0.9, "epsilon": 0.1, "curiosity_kappa": 0.0},
    "planning": {"max_depth": 12, "branching_cap": 5, "heuristic_weight": 1.0},
    "wandering": {"p_wander": 0.2, "batch_size": 4, "mode_mix": 0.7, "realness": 0.5},
    "interrupts": {"threat_threshold": 0.8, "desire_threshold": 0.8,
                   "miss_cost": 1.0, "false_alarm_cost": 0.1, "decay_length": 1.0},
    "self_model": {"evaluation_window": 5, "standard": 1.0, "failure_limit": 3},
    "intervention": "baseline", "goal_reach": 4, "goal_threshold": 0.1,
}
TWIN_SWEEP = {"thresholds": [0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 1e9],   # configs/policy.json
              "miss_cost": 1.0, "false_alarm_cost": 0.1, "decay_length": 1.0}


def agent_twin(size: Size) -> Iterator:
    """The steps of one fixed baseline loss_heavy run as long as the
    workload's runs: the buffer fills, and at full size evicts, in step
    with the program's."""
    from gridmind_frozen import agent, harness, presets

    data = dict(TWIN_RUN, steps=size.steps)
    if size.buffer_capacity is not None:
        data["buffer_capacity"] = size.buffer_capacity
    config = harness.config_from_dict(data)
    twin = agent.Agent(config, presets.get_world(config.world), config.seed)
    for _ in range(size.steps):
        yield twin.step_once()


def sweep_twin(size: Size) -> Iterator:
    """One fixed threshold sweep of the size's seeds and steps."""
    from gridmind_frozen import affect, presets

    spec = dict(TWIN_SWEEP)
    thresholds = spec.pop("thresholds")
    yield affect.sweep_threshold(presets.get_world("hazard_alley"), thresholds,
                                 affect.InterruptPolicy(**spec),
                                 list(range(size.seeds_per_pass)), steps=size.steps)


def matrix_pass(root: Path, size: Size, k: int, out: Path) -> PassResult:
    from gridmind import harness

    matrix = json.loads((root / "configs" / "matrix.json").read_text())
    matrix["seeds"] = [k * size.seeds_per_pass + i for i in range(size.seeds_per_pass)]
    matrix["steps"] = size.steps
    rows, failures = harness.experiment(matrix, out_dir=out)
    cells = sum(row["seed"] != "median" for row in rows)
    return PassResult(steps=(cells - failures) * size.steps, cells=cells, failed=failures,
                      outputs={"report.csv": (out / "report.csv").read_bytes()})


def long_run_pass(root: Path, size: Size, k: int, out: Path) -> PassResult:
    from gridmind import harness

    data = json.loads((root / "configs" / "run.json").read_text())
    data.update(steps=size.steps, seed=k)
    if size.buffer_capacity is not None:
        data["buffer_capacity"] = size.buffer_capacity
    config = harness.config_from_dict(data)
    agent, _ = harness.run(config, out_dir=out)
    rid = config.run_id()
    evicting = len(agent.buffer) == agent.buffer.capacity
    return PassResult(
        steps=agent.t, cells=1, failed=0 if evicting else 1,
        outputs={"events.csv": (out / f"{rid}_events.csv").read_bytes(),
                 "summary.json": (out / f"{rid}_summary.json").read_bytes()})


SWEEP_COLUMNS = ("threshold", "false_alarms", "misses", "realized_cost")


def sweep_pass(root: Path, size: Size, k: int, out: Path) -> PassResult:
    from gridmind import affect, presets

    spec = json.loads((root / "configs" / "policy.json").read_text())
    thresholds = spec.pop("thresholds")
    del spec["seeds"], spec["steps"]
    seeds = list(range(k * size.seeds_per_pass, (k + 1) * size.seeds_per_pass))
    table = affect.sweep_threshold(presets.get_world("hazard_alley"), thresholds,
                                   affect.InterruptPolicy(**spec), seeds, steps=size.steps)
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=SWEEP_COLUMNS)  # as `gridmind sweep-threshold`
    writer.writeheader()
    writer.writerows(table)
    return PassResult(steps=len(seeds) * size.steps, cells=1, failed=0,
                      outputs={"sweep.csv": text.getvalue().encode()})


WORKLOADS = {
    "matrix": Workload(
        name="matrix", run_pass=matrix_pass,
        sizes={"full": Size(pool=20, entries=20, min_passes=2, trace_passes=2, steps=800,
                            twin_s=0.2, twin_step_us=160.0, twin_setup_s=0.25),
               "smoke": Size(pool=2, entries=1, min_passes=2, trace_passes=1, steps=60,
                             twin_s=0.012, twin_step_us=130.0, twin_setup_s=0.25)},
        run_unit=("harness", "run"), step_unit=("agent", "Agent.step_once"),
        twin=agent_twin),
    "long_run": Workload(
        name="long_run", run_pass=long_run_pass,
        sizes={"full": Size(pool=10, entries=1, min_passes=1, trace_passes=1, steps=12_000,
                            twin_s=8.0, twin_step_us=200.0, twin_setup_s=0.25),
               "smoke": Size(pool=2, entries=1, min_passes=2, trace_passes=1, steps=300,
                             twin_s=0.06, twin_step_us=140.0, twin_setup_s=0.25,
                             buffer_capacity=100)},
        run_unit=("harness", "run"), step_unit=("agent", "Agent.step_once"),
        twin=agent_twin),
    "sweep": Workload(
        name="sweep", run_pass=sweep_pass,
        sizes={"full": Size(pool=20, entries=10, min_passes=30, trace_passes=10, steps=300,
                            twin_s=0.1, twin_step_us=None, twin_setup_s=0.32, seeds_per_pass=20),
               "smoke": Size(pool=2, entries=1, min_passes=2, trace_passes=1, steps=50,
                             twin_s=0.003, twin_step_us=None, twin_setup_s=0.18, seeds_per_pass=2)},
        run_unit=("affect", "sweep_threshold"), step_unit=None, twin=sweep_twin),
}
