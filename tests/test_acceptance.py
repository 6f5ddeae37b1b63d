"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import csv
import json
import math
import re
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import cell_of, flat_at, intended_next, neighbor_cells
from gridmind.affect import InterruptPolicy, SelfModel, sweep_threshold
from gridmind.harness import RunConfig, experiment, run
from gridmind.interventions import InterventionConfig
from gridmind.planning import count_paths, split_cost
from gridmind.presets import corridor
from gridmind.replay import (Experience, ReplayBuffer, backward_sweep,
                             priorities)
from gridmind.suffering import evaluate
from gridmind.values import (ExpectationBaseline, LearningParams, ValueStore,
                             chain_mdp, epsilon_greedy, reward_loss, td_error,
                             td_update, update_baseline, value_iteration,
                             world_mdp)
from gridmind.world import Action, WorldModel, WorldObject, step


def ok(n, msg):
    print(f"[acceptance] criterion {n:>2} PASS  {msg}")


def test_criterion_01_bellman_chain():
    params = LearningParams(gamma=None)
    mdp = chain_mdp(3, terminal_value=1.0, step_penalty=0.1)
    value_iteration(mdp, params, tol=1e-12)  # warm the path
    t0 = time.perf_counter()
    store = value_iteration(mdp, params, tol=1e-12)
    elapsed = time.perf_counter() - t0
    for s, v in enumerate((0.8, 0.9, 1.0)):
        assert abs(store.v(s) - v) < 1e-9
    assert elapsed < 0.001
    ok(1, f"chain values (0.8, 0.9, 1.0) within 1e-9 in {elapsed*1e6:.0f} us")


def test_criterion_02_path_count_identities():
    assert count_paths(2, 5) == 32
    assert count_paths(2, 30) == 1_073_741_824
    assert split_cost(2, 20, 2) == 2_048
    assert split_cost(2, 20, 1) == 1_048_576
    ok(2, "32 / 1,073,741,824 paths; split cost 2,048 vs 1,048,576 exact")


def test_criterion_03_reward_loss_contract():
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        e, o = rng.normal(scale=20, size=2)
        loss = reward_loss(e, o)
        assert loss >= 0.0
        assert (loss == 0.0) == (o >= e)
    assert reward_loss(5, 0) == 5.0
    ok(3, "10,000 random pairs: loss >= 0, zero iff obtained >= expected; (5,0) -> 5")


def _tick_experiences(world, s, a):
    cell = cell_of(world, s)
    landed = intended_next(world, cell, a)
    obj = world.object_at(flat_at(world, landed))
    s2 = world.state_id(landed)
    if obj is not None and obj.kind == "reward" and obj.consumable:
        return [Experience(s=s, a=a, r=-world.step_cost, s_next=s2),
                Experience(s=s2, a=Action.STAY, r=obj.magnitude, s_next=s2, terminal=True)]
    r = -world.step_cost + (obj.signed_magnitude() if obj is not None else 0.0)
    return [Experience(s=s, a=a, r=r, s_next=s2)]


def _bfs_distance(world, start, goal_cell):
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if cell == goal_cell:
            return seen[cell]
        for nxt in neighbor_cells(world, cell):
            if nxt not in seen:
                seen[nxt] = seen[cell] + 1
                queue.append(nxt)
    return None


def test_criterion_04_td_fixed_point_and_greedy_paths():
    t0 = time.perf_counter()
    checked = 0
    for seed, params in [(0, LearningParams(gamma=0.9)),
                         (1, LearningParams(gamma=None)),
                         (2, LearningParams(gamma=0.9))]:
        rng = np.random.default_rng(seed)
        walls = {(int(x), int(y)) for x, y in rng.integers(1, 7, size=(6, 2))}
        walls -= {(0, 0), (7, 7)}
        w = WorldModel(width=8, height=8, walls=frozenset(walls),
                       objects={"g": WorldObject("g", "reward", 1.0, True, (7, 7))},
                       step_cost=0.1, start=(0, 0))
        store = value_iteration(world_mdp(w), params, tol=1e-12)
        goal = w.state_id((7, 7))
        for s in world_mdp(w).states:
            if s == goal:
                continue
            a = store.greedy_action(s)
            for exp in _tick_experiences(w, s, a):
                v_after = 0.0 if exp.terminal else store.v(exp.s_next)
                assert abs(td_error(exp.r, store.v(exp.s), v_after, params)) < 1e-6
                checked += 1
        # greedy path length equals the BFS oracle distance
        dist = _bfs_distance(w, (0, 0), (7, 7))
        cell = (0, 0)
        for taken in range(1, 300):
            cell = intended_next(w, cell, store.greedy_action(w.state_id(cell)))
            if cell == (7, 7):
                break
        assert taken == dist
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(4, f"|td_error| < 1e-6 on {checked} greedy transitions; paths = BFS; {elapsed:.2f} s")


def _interactions_to_optimal(seed, use_replay, max_steps=20_000):
    w = corridor(20)
    params = LearningParams(alpha=0.5, gamma=0.9, epsilon=0.2)
    rng = np.random.default_rng([seed, int(use_replay)])
    store = ValueStore()
    buf = ReplayBuffer()
    non_goal = [w.state_id((x, 0)) for x in range(19)]
    s = w.state_id(w.start)
    for t in range(1, max_steps + 1):
        a = epsilon_greedy(store, s, params, rng)
        s2, r, consumed = step(w, s, a, rng)
        if consumed:
            e1 = Experience(s=s, a=a, r=r - 1.0, s_next=s2)
            e2 = Experience(s=s2, a=Action.STAY, r=1.0, s_next=s2,
                            terminal=True)
            for e in (e1, e2):
                buf.append(e)
                td_update(store, e, params)
            if use_replay:
                for _ in range(3):
                    pri = priorities(buf, store, params)
                    backward_sweep(buf, int(pri.argmax()), k=60, store=store,
                                   params=params)
            w.restore_consumed()
            s = w.state_id(w.start)
        else:
            e = Experience(s=s, a=a, r=r, s_next=s2)
            buf.append(e)
            td_update(store, e, params)
            s = s2
        if all(store.greedy_action(x) is Action.EAST for x in non_goal):
            return t
    return max_steps


def test_criterion_05_prioritized_sweeping_efficiency():
    t0 = time.perf_counter()
    ratios = sorted(
        _interactions_to_optimal(seed, True) / _interactions_to_optimal(seed, False)
        for seed in range(20)
    )
    elapsed = time.perf_counter() - t0
    median = (ratios[9] + ratios[10]) / 2
    assert median <= 0.5
    assert elapsed < 10.0
    ok(5, f"median interaction ratio {median:.3f} <= 0.5 over 20 seeds; {elapsed:.1f} s")


def test_criterion_06_rooms_backward_sweep():
    buf = ReplayBuffer()
    for exp in (Experience(s=21, a=Action.EAST, r=-0.1, s_next=13),
                Experience(s=13, a=Action.EAST, r=-0.1, s_next=42),
                Experience(s=42, a=Action.STAY, r=1.0, s_next=42, terminal=True)):
        buf.append(exp)
    store = ValueStore()
    backward_sweep(buf, seed_index=2, k=3, store=store,
                   params=LearningParams(alpha=1.0, gamma=None))
    assert abs(store.v(42) - 1.0) < 1e-9
    assert abs(store.v(13) - 0.9) < 1e-9
    assert abs(store.v(21) - 0.8) < 1e-9
    assert store.v(42) > store.v(13) > store.v(21)
    ok(6, "one sweep over 21 -> 13 -> 42 gives V = 1.0 > 0.9 > 0.8 within 1e-9")


def test_criterion_07_frustration_equation_laws():
    rng = np.random.default_rng(707)
    for _ in range(10_000):
        e, o = rng.normal(scale=8, size=2)
        c = float(rng.random())
        a = float(rng.random() * 3)
        n = int(rng.integers(1, 8))
        f = evaluate(e, o, c, a, n)
        assert f >= 0.0
        assert evaluate(e, o, 0.0, a, n) == 0.0            # zero laws
        assert evaluate(e, o, c, 0.0, n) == 0.0
        lam = 0.5 + float(rng.random())
        if e > o and c > 0 and a > 0:                      # homogeneity
            assert math.isclose(evaluate(e, o, c, lam * a, n), lam * f, rel_tol=1e-12)
            if lam * c <= 1.0:
                assert math.isclose(evaluate(e, o, lam * c, a, n), lam * f, rel_tol=1e-12)
        assert evaluate(e + 1, o, c, a, n) >= f            # monotonicity
        assert evaluate(e, o - 1, c, a, n) >= f
        assert evaluate(e, o, c, a + 1, n) >= f
        assert evaluate(e, o, c, a, n + 1) >= f
    assert evaluate(5, 3, 0.5, 0.5, 4) == 2.0
    ok(7, "zero-laws, homogeneity, monotonicity on 10,000 tuples; (5,3,.5,.5,4) -> 2")


def test_criterion_08_hedonic_treadmill():
    r_hi, r_lo = 10.0, 2.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        baseline = ExpectationBaseline(level=0.0, adaptation_rate=0.1)
        for _ in range(10_000):
            baseline = update_baseline(baseline, r_hi + rng.normal(scale=0.2))
            if abs(baseline.level - r_hi) <= 0.05 * r_hi:
                break
        assert abs(baseline.level - r_hi) <= 0.05 * r_hi
        assert reward_loss(baseline.level, r_lo + rng.normal(scale=0.2)) > 0.0
    ok(8, "boost-then-revert yields reward_loss > 0 on the first lean episode, 20/20 seeds")


def test_criterion_09_signal_detection_sweep():
    w = WorldModel(width=7, height=3, walls=frozenset(),
                   objects={"h": WorldObject("h", "hazard", 2.0, False, (3, 1)),
                            "h2": WorldObject("h2", "hazard", 1.0, False, (5, 0))},
                   observation_confusion=0.2, start=(0, 1))
    policy = InterruptPolicy()
    thresholds = [0.0, 0.05, 0.2, 0.5, 1.0, 2.0, math.inf]
    for seed in range(6):
        table = sweep_threshold(w, thresholds, policy, seeds=[seed], steps=200)
        fas = [row["false_alarms"] for row in table]
        misses = [row["misses"] for row in table]
        assert all(b <= a for a, b in zip(fas, fas[1:])), f"seed {seed}"
        assert all(b >= a for a, b in zip(misses, misses[1:])), f"seed {seed}"
        assert table[0]["misses"] == 0          # threshold 0 misses nothing
        assert table[-1]["false_alarms"] == 0   # threshold inf never fires
    ok(9, "FA non-increasing, misses non-decreasing per seed; extremes exact")


LOSSY = dict(world="loss_heavy", steps=600,
             interrupts=InterruptPolicy(threat_threshold=0.8),
             self_model=SelfModel(standard=1.0))


def _total(iv: InterventionConfig, seed: int, **kw) -> float:
    config = replace(RunConfig(seed=seed, **{**LOSSY, **kw}), intervention=iv)
    _, summary = run(config)
    return summary["totals"]["total"]


def test_criterion_10_intervention_monotonicity():
    seeds = (0, 1, 2)
    for knob in ("expectation_scale", "certainty_scale", "attention_scale"):
        for seed in seeds:
            totals = [_total(InterventionConfig(name="k", **{knob: x}), seed)
                      for x in (1.0, 0.6, 0.3, 0.0)]
            assert all(b <= a for a, b in zip(totals, totals[1:])), (knob, seed)
            assert totals[0] > 0.0 and totals[-1] < totals[0], (knob, seed)
    for seed in seeds:
        totals = [_total(InterventionConfig(name="w", p_wander_override=p), seed,
                         policy="random")
                  for p in (1.0, 0.5, 0.25, 0.0)]
        assert all(b <= a for a, b in zip(totals, totals[1:])), ("p_wander", seed)
        assert totals[0] > totals[-1]
    for seed in seeds:
        assert _total(InterventionConfig(name="m", attention_scale=0.0), seed) == 0.0
    ok(10, "beta / certainty / attention / p_wander reductions monotone, strict; "
           "attention 0 -> total exactly 0")


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    """The canonical matrix, run once: (rows, failures, seconds, output directory)."""
    matrix = json.loads((ROOT / "configs" / "matrix.json").read_text())
    out = tmp_path_factory.mktemp("canonical")
    t0 = time.perf_counter()
    rows, failures = experiment(matrix, out_dir=out)
    return rows, failures, time.perf_counter() - t0, out


def test_criterion_11_determinism_and_canonical_budget(tmp_path, canonical):
    config = RunConfig(seed=4, **LOSSY)
    run(config, out_dir=tmp_path / "a")
    run(config, out_dir=tmp_path / "b")
    rid = config.run_id()
    assert (tmp_path / "a" / f"{rid}_events.csv").read_bytes() == \
           (tmp_path / "b" / f"{rid}_events.csv").read_bytes()

    rows, failures, elapsed, _ = canonical
    assert failures == 0
    data_rows = [r for r in rows if r["seed"] != "median"]
    assert len(data_rows) == 8 * 2 * 20
    assert elapsed < 300.0
    ok(11, f"byte-identical reruns; 8 x 2 x 20 canonical matrix in {elapsed:.0f} s < 300 s")


def test_canonical_report_holds_no_numpy_scalars(canonical):
    """Totals leave numpy as plain floats: under numpy 2 the repr of an
    np.float64 reads ``np.float64(...)``."""
    assert "np." not in (canonical[3] / "report.csv").read_text()


def test_readme_results_table_matches_the_canonical_matrix(canonical):
    """Each row of the README's results table is the loss_heavy median of its
    intervention in the canonical report.csv, rounded to 0.1."""
    with open(canonical[3] / "report.csv", newline="") as fh:
        medians = {row["intervention"]: row for row in csv.DictReader(fh)
                   if row["world"] == "loss_heavy" and row["seed"] == "median"}
    readme = (ROOT / "README.md").read_text()
    table = re.findall(r"^\| (\w+) +\| +(-?\d+\.\d) \| +(-?\d+\.\d) \|$", readme, re.M)
    assert [name for name, *_ in table] == sorted(
        medians, key=lambda name: -float(medians[name]["total_frustration"]))
    for name, total, reward in table:
        got = (medians[name]["total_frustration"], medians[name]["obtained_reward"])
        assert [round(float(v), 1) for v in got] == [float(total), float(reward)], name


def test_criterion_12_trace_completeness():
    from gridmind.harness import audit
    config = RunConfig(seed=12, world="loss_heavy", steps=10_000, trace=True,
                       interrupts=InterruptPolicy(threat_threshold=0.8),
                       self_model=SelfModel(standard=1.0, evaluation_window=3))
    agent, _ = run(config)
    result = audit(agent)
    assert result["ok"], result
    assert result["expected_items"] == result["ledger_items"]
    assert result["expected_items"] > 1000
    ok(12, f"10,000-step audit: {result['expected_items']} trace items map "
           f"one-to-one onto ledger events")
