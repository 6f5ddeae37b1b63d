import dataclasses
import math
import time
from collections import deque
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (all_cells, cell_of, flat_at, intended_next, make_world, neighbor_cells,
                      reward, store_from)
from gridmind.replay import Experience
from gridmind.values import (ExpectationBaseline, LearningParams, ValueStore,
                             chain_mdp, curiosity_bonus, epsilon_greedy,
                             reward_loss, td_error, td_update, update_baseline,
                             value_iteration, world_mdp)
from gridmind.world import ACTIONS, Action


SUBTRACTIVE = dict(gamma=None)


# -- reward loss -------------------------------------------------------------

def test_reward_loss_clamps_at_zero():
    assert reward_loss(5, 7) == 0.0


def test_reward_loss_chocolate_example():
    # expected = 0.5 * 10 pieces, none obtained
    assert reward_loss(0.5 * 10, 0) == 5.0


def test_reward_loss_plain_subtraction():
    assert reward_loss(5, 3) == 2.0


def test_reward_loss_contract_10k():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        e, o = rng.normal(scale=10, size=2)
        loss = reward_loss(e, o)
        assert loss >= 0.0
        assert (loss == 0.0) == (o >= e)


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_reward_loss_property(e, o):
    loss = reward_loss(e, o)
    assert loss >= 0.0
    assert (loss == 0.0) == (o >= e)


# -- TD error ----------------------------------------------------------------

def test_td_error_zero_when_reward_matches_value_drop():
    p = LearningParams(**SUBTRACTIVE)
    assert td_error(0.7, 0.9, 0.2, p) == pytest.approx(0.0)


def test_td_error_bad_news():
    p = LearningParams(**SUBTRACTIVE)
    assert td_error(0.0, 0.9, 0.2, p) == pytest.approx(-0.7)


def test_td_error_bare_reward():
    p = LearningParams(**SUBTRACTIVE)
    assert td_error(1.0, 0.0, 0.0, p) == 1.0


def test_td_error_discounted():
    p = LearningParams(alpha=0.1, gamma=0.5)
    assert td_error(1.0, 0.2, 0.6, p) == pytest.approx(1.0 + 0.3 - 0.2)


# -- TD update ---------------------------------------------------------------

def test_td_update_full_step_assignment():
    p = LearningParams(alpha=1.0, **{k: SUBTRACTIVE[k] for k in SUBTRACTIVE})
    store = ValueStore()
    exp = Experience(s=0, a=Action.STAY, r=1.0, s_next=0, terminal=True)
    td_update(store, exp, p)
    assert store.v(0) == 1.0
    assert store.q(0, Action.STAY) == 1.0
    assert store.visits(0, Action.STAY) == 1


def test_td_update_zero_alpha_changes_nothing():
    with pytest.raises(ValueError):
        LearningParams(alpha=0.0, gamma=0.9)
    # smallest legal alpha barely moves the store
    p = LearningParams(alpha=1e-12, gamma=0.9)
    store = ValueStore()
    store.V[0] = 0.5
    exp = Experience(s=0, a=Action.STAY, r=1.0, s_next=1)
    td_update(store, exp, p)
    assert store.v(0) == pytest.approx(0.5, abs=1e-9)


# Thirds round, so a reordered float expression shows in the last bits.
entry = st.integers(-30, 30).map(lambda i: i / 3) | st.floats(-10, 10)


def table(keys, entries=entry):
    """A store table over ``keys``, each entry present or unseen."""
    return st.lists(st.none() | entries, min_size=len(keys), max_size=len(keys)).map(
        lambda vals: {k: v for k, v in zip(keys, vals) if v is not None})


@pytest.mark.guard
@given(V=table(range(4)), Q=table([(s, a) for s in range(4) for a in ACTIONS]),
       s=st.integers(0, 3), a=st.sampled_from(ACTIONS), r=entry,
       s_next=st.integers(0, 3), terminal=st.booleans(),
       alpha=st.floats(0.01, 1), gamma=st.one_of(st.none(), st.floats(0, 1)),
       count_visit=st.booleans())
@settings(max_examples=300, deadline=None)
def test_td_update_equals_the_reference_rule(V, Q, s, a, r, s_next, terminal, alpha, gamma,
                                             count_visit):
    """Bit for bit on random stores, self-loops and terminal steps included,
    in both schemes: every entry is read before either is written."""
    disc = 1.0 if gamma is None else gamma
    v_after = 0.0 if terminal else V.get(s_next, 0.0)
    q_after = 0.0 if terminal else max(Q.get((s_next, b), 0.0) for b in ACTIONS)
    want_v = V.get(s, 0.0) + alpha * (r + disc * v_after - V.get(s, 0.0))
    want_q = Q.get((s, a), 0.0) + alpha * (r + disc * q_after - Q.get((s, a), 0.0))

    store = store_from(V, Q, visit_counts={(s, a): 2})
    td_update(store, Experience(s, a, r, s_next, terminal),
              LearningParams(alpha=alpha, gamma=gamma), count_visit=count_visit)
    assert store.V == {**V, s: want_v}
    assert math.copysign(1.0, store.V[s]) == math.copysign(1.0, want_v)
    want = {**Q, (s, a): want_q}
    for s2 in range(4):
        for b in ACTIONS:
            got, ref = store.q(s2, b), want.get((s2, b), 0.0)
            assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)
    assert store.visit_counts == {(s, a): 3 if count_visit else 2}


CHAIN_EXPERIENCES = [
    Experience(s=0, a=Action.EAST, r=-0.1, s_next=1),
    Experience(s=1, a=Action.EAST, r=-0.1, s_next=2),
    Experience(s=2, a=Action.STAY, r=1.0, s_next=2, terminal=True),
]


def test_td_update_converges_to_value_iteration_fixed_point():
    oracle = value_iteration(chain_mdp(3, 1.0, 0.1), LearningParams(**SUBTRACTIVE), tol=1e-12)
    p = LearningParams(alpha=0.5, **SUBTRACTIVE)
    store = ValueStore()
    for _ in range(200):
        for exp in CHAIN_EXPERIENCES:
            td_update(store, exp, p)
    for s in range(3):
        assert store.v(s) == pytest.approx(oracle.v(s), abs=1e-6)


# -- value iteration ----------------------------------------------------------

def test_bellman_chain_paper_values():
    start = time.perf_counter()
    store = value_iteration(chain_mdp(3, 1.0, 0.1), LearningParams(**SUBTRACTIVE), tol=1e-12)
    elapsed = time.perf_counter() - start
    assert store.v(0) == pytest.approx(0.8, abs=1e-9)
    assert store.v(1) == pytest.approx(0.9, abs=1e-9)
    assert store.v(2) == pytest.approx(1.0, abs=1e-9)
    assert elapsed < 0.001


def test_value_iteration_null_fixed_point():
    w = make_world(width=3, height=3, step_cost=0.0)
    store = value_iteration(world_mdp(w), LearningParams(gamma=0.9), tol=1e-10)
    assert all(v == 0.0 for v in store.V.values())


def finite_horizon_dp(world, gamma, horizon):
    """Oracle: backward induction over an explicit horizon."""
    free = [c for c in all_cells(world) if world.is_free(c)]

    def terminal(cell):
        obj = world.object_at(flat_at(world, cell))
        return obj is not None and obj.kind == "reward" and obj.consumable

    def landing_reward(cell):
        obj = world.object_at(flat_at(world, cell))
        r = -world.step_cost
        if obj is not None and not terminal(cell):
            r += obj.signed_magnitude()
        return r

    V = {c: (world.object_at(flat_at(world, c)).magnitude if terminal(c) else 0.0) for c in free}
    for _ in range(horizon):
        V_new = {}
        for c in free:
            if terminal(c):
                V_new[c] = V[c]
                continue
            best = max(
                landing_reward(intended_next(world, c, a)) + gamma * V[intended_next(world, c, a)]
                for a in ACTIONS
            )
            V_new[c] = best
        V = V_new
    return {world.state_id(c): v for c, v in V.items()}


def test_value_iteration_matches_horizon_dp_oracle():
    w = make_world(width=4, height=4, objects={"g": reward("g", 1.0, (3, 3))},
                   step_cost=0.0)
    params = LearningParams(gamma=0.9)
    store = value_iteration(world_mdp(w), params, tol=1e-12)
    oracle = finite_horizon_dp(w, 0.9, horizon=100)
    for s, v in oracle.items():
        assert store.v(s) == pytest.approx(v, abs=1e-6)


def test_value_iteration_reports_divergence():
    # A recurring positive reward with no discounting cannot converge.
    w = make_world(width=3, height=1,
                   objects={"g": reward("g", 1.0, (2, 0), consumable=False)},
                   step_cost=0.0)
    from gridmind.values import ValueIterationError
    with pytest.raises(ValueIterationError):
        value_iteration(world_mdp(w), LearningParams(gamma=None),
                        tol=1e-9, max_sweeps=500)


def bfs_distance(world, start, goal_cell):
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


def tick_experiences(world, s, a):
    """The live-loop learning convention for one deterministic tick."""
    cell = cell_of(world, s)
    landed = intended_next(world, cell, a)
    obj = world.object_at(flat_at(world, landed))
    s2 = world.state_id(landed)
    if obj is not None and obj.kind == "reward" and obj.consumable:
        return [Experience(s=s, a=a, r=-world.step_cost, s_next=s2),
                Experience(s=s2, a=Action.STAY, r=obj.magnitude, s_next=s2,
                           terminal=True)]
    r = -world.step_cost + (obj.signed_magnitude() if obj is not None else 0.0)
    return [Experience(s=s, a=a, r=r, s_next=s2)]


@pytest.mark.parametrize("scheme", ["multiplicative", "subtractive"])
@pytest.mark.parametrize("seed", range(3))
def test_td_error_vanishes_on_greedy_transitions(scheme, seed):
    rng = np.random.default_rng(seed)
    walls = {(int(x), int(y)) for x, y in rng.integers(1, 7, size=(6, 2))}
    walls -= {(0, 0), (7, 7)}
    w = make_world(width=8, height=8, walls=walls,
                   objects={"g": reward("g", 1.0, (7, 7))}, step_cost=0.1,
                   start=(0, 0))
    params = (LearningParams(gamma=0.9) if scheme == "multiplicative"
              else LearningParams(gamma=None))
    start = time.perf_counter()
    store = value_iteration(world_mdp(w), params, tol=1e-12)
    goal_sid = w.state_id((7, 7))
    for s in world_mdp(w).states:
        if s == goal_sid:
            continue
        a = store.greedy_action(s)
        for exp in tick_experiences(w, s, a):
            v_after = 0.0 if exp.terminal else store.v(exp.s_next)
            assert abs(td_error(exp.r, store.v(exp.s), v_after, params)) < 1e-6
    assert time.perf_counter() - start < 1.0


def test_greedy_path_length_equals_bfs(seed=3):
    rng = np.random.default_rng(seed)
    walls = {(int(x), int(y)) for x, y in rng.integers(1, 7, size=(8, 2))}
    walls -= {(0, 0), (7, 7)}
    w = make_world(width=8, height=8, walls=walls,
                   objects={"g": reward("g", 1.0, (7, 7))}, step_cost=0.1,
                   start=(0, 0))
    store = value_iteration(world_mdp(w), LearningParams(gamma=0.9), tol=1e-12)
    dist = bfs_distance(w, (0, 0), (7, 7))
    assert dist is not None
    cell = (0, 0)
    for taken in range(1, 200):
        cell = intended_next(w, cell, store.greedy_action(w.state_id(cell)))
        if cell == (7, 7):
            assert taken == dist
            return
    pytest.fail("greedy policy never reached the reward")


# Few distinct values, signed zeros among them, so rows tie often.
tie_entry = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3]) | st.floats(-10, 10)
# (Action.EAST,): the actions of the store a solved chain returns
CHAIN_ACTIONS = value_iteration(chain_mdp(3, 1.0, 0.1), LearningParams(gamma=0.9),
                                tol=1e-12).actions


def ref_greedy(Q, s, actions):
    """The per-action loop on an ``(s, a)`` table: the first action whose
    value no later action beats, and that value."""
    best, best_q = actions[0], Q.get((s, actions[0]), 0.0)
    for a in actions[1:]:
        qa = Q.get((s, a), 0.0)
        if qa > best_q:
            best, best_q = a, qa
    return best, best_q


@pytest.mark.guard
@given(data=st.data(), actions=st.sampled_from([ACTIONS, CHAIN_ACTIONS]))
@settings(max_examples=300, deadline=None)
def test_greedy_reads_equal_the_reference_loop(data, actions):
    """max_q, greedy_action and epsilon_greedy at epsilon 0 read a state's
    row as the per-action loop reads the table: the same first maximum, the
    same bits, signed zeros included; a state without a row included."""
    Q = data.draw(table([(s, a) for s in range(4) for a in actions], tie_entry))
    store = store_from(Q=Q, actions=actions)
    p = LearningParams(epsilon=0.0)
    for s in range(5):
        best, best_q = ref_greedy(Q, s, actions)
        assert store.max_q(s).hex() == best_q.hex()
        assert store.greedy_action(s) is best
        assert epsilon_greedy(store, s, p, np.random.default_rng(s)) is best


@pytest.mark.guard
@given(n=st.integers(2, 6), terminal_value=entry, step_penalty=st.floats(0, 1),
       gamma=st.one_of(st.none(), st.floats(0, 0.95)), slip=st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_value_iteration_rows_equal_the_left_fold(n, terminal_value, step_penalty, gamma,
                                                  slip):
    """Every Q entry value_iteration writes is the per-(s, a) left fold
    from 0.0 over that pair's transitions, bit for bit, and 0.0 for a pair
    without any: on the one-action chain and on a slippery five-action world."""
    params = LearningParams(gamma=gamma)
    world = make_world(width=3, height=2, objects={"g": reward("g", 1.0, (2, 1))},
                       slip_probability=slip, step_cost=0.1)
    for mdp in (chain_mdp(n, terminal_value, step_penalty), world_mdp(world)):
        store = value_iteration(mdp, params, tol=1e-9)
        assert store.actions == mdp.actions
        for s in mdp.states:
            for a in mdp.actions:
                trans = mdp.transitions.get((s, a), ()) if s not in mdp.terminal else ()
                want = reduce(add, (p * (r + params.disc * store.v(s2)) for p, s2, r in trans),
                              0.0)
                assert store.q(s, a).hex() == want.hex()


def test_disc_is_computed_per_params_object():
    """disc is read once per params object; a replaced copy never sees an
    earlier object's value, and reading it changes neither equality nor hash."""
    multiplicative, subtractive = LearningParams(gamma=0.5), LearningParams(gamma=None)
    assert multiplicative.disc == 0.5 and subtractive.disc == 1.0
    assert dataclasses.replace(multiplicative, gamma=None).disc == 1.0
    assert dataclasses.replace(subtractive, gamma=0.25).disc == 0.25
    assert multiplicative.disc == 0.5 and subtractive.disc == 1.0
    assert multiplicative == LearningParams(gamma=0.5)
    assert hash(multiplicative) == hash(LearningParams(gamma=0.5))


# -- exploration ---------------------------------------------------------------


def test_epsilon_zero_pure_exploitation(rng):
    store = store_from(Q={(0, Action.SOUTH): 1.0, (0, Action.EAST): 0.5})
    p = LearningParams(epsilon=0.0)
    assert all(epsilon_greedy(store, 0, p, rng) is Action.SOUTH for _ in range(100))


def test_epsilon_one_uniform(rng):
    store = ValueStore()
    p = LearningParams(epsilon=1.0)
    n = 10_000
    counts = {a: 0 for a in ACTIONS}
    for _ in range(n):
        counts[epsilon_greedy(store, 0, p, rng)] += 1
    sigma = (n * 0.2 * 0.8) ** 0.5
    for a in ACTIONS:
        assert abs(counts[a] - n / 5) <= 3 * sigma


def test_epsilon_mixture_law(rng):
    store = store_from(Q={(0, Action.NORTH): 5.0})
    p = LearningParams(epsilon=0.1)
    n = 10_000
    non_argmax = sum(epsilon_greedy(store, 0, p, rng) is not Action.NORTH
                     for _ in range(n))
    expected = n * 0.1 * (4 / 5)
    sigma = (n * 0.08 * 0.92) ** 0.5
    assert abs(non_argmax - expected) <= 3 * sigma


def test_ties_break_by_action_order(rng):
    store = store_from(Q={(0, Action.EAST): 1.0, (0, Action.WEST): 1.0})
    p = LearningParams(epsilon=0.0)
    assert epsilon_greedy(store, 0, p, rng) is Action.EAST


@pytest.mark.guard
@given(st.floats(0.001, 1e6), st.lists(st.floats(-100, 100), min_size=5, max_size=5))
@example(scale=0.5, qs=[0.0, 0.0, 0.0, 0.0, 5e-324])  # the product rounds to 0.0: a new tie
@settings(max_examples=200)
def test_argmax_invariant_under_positive_scaling(scale, qs):
    """Scaling by a positive factor keeps the greedy action wherever the
    float products keep every pairwise order and tie; where rounding
    merges or splits values, the choice still follows the tie rule: the
    first position of the scaled row's max."""
    scaled_qs = [scale * q for q in qs]
    store = store_from(Q={(0, a): q for a, q in zip(ACTIONS, qs)})
    scaled = store_from(Q={(0, a): q for a, q in zip(ACTIONS, scaled_qs)})
    assert scaled.greedy_action(0) is ACTIONS[scaled_qs.index(max(scaled_qs))]
    pairs = [(i, j) for i in range(len(qs)) for j in range(len(qs))]
    if all((qs[i] < qs[j]) == (scaled_qs[i] < scaled_qs[j])
           and (qs[i] == qs[j]) == (scaled_qs[i] == scaled_qs[j]) for i, j in pairs):
        assert store.greedy_action(0) is scaled.greedy_action(0)


# -- curiosity -----------------------------------------------------------------

def test_curiosity_disabled():
    store = ValueStore()
    p = LearningParams(curiosity_kappa=0.0)
    assert curiosity_bonus(store, 0, Action.NORTH, p) == 0.0


def test_curiosity_unvisited():
    store = ValueStore()
    p = LearningParams(curiosity_kappa=1.0)
    assert curiosity_bonus(store, 0, Action.NORTH, p) == 1.0


def test_curiosity_decays_with_visits():
    store = ValueStore()
    store.visit_counts[(0, Action.NORTH)] = 3
    p = LearningParams(curiosity_kappa=1.0)
    assert curiosity_bonus(store, 0, Action.NORTH, p) == pytest.approx(0.5)


@pytest.mark.slow
def test_curiosity_coverage_on_reward_free_world():
    # Bonus must decay below the step cost within a few visits, otherwise
    # freshly boosted pairs outrank the unseen-entry default of 0 for ages.
    from gridmind.presets import open_room
    from gridmind.world import step
    params = LearningParams(alpha=1.0, gamma=None, epsilon=0.0, curiosity_kappa=1.0)
    for seed in range(20):
        w = open_room(5, step_cost=0.5)
        rng = np.random.default_rng(seed)
        store = ValueStore()
        all_pairs = {(w.state_id(c), a) for c in all_cells(w) for a in ACTIONS}
        bound = 60 * len(all_pairs)
        s = w.state_id(w.start)
        seen = set()
        for _ in range(bound):
            a = epsilon_greedy(store, s, params, rng)
            bonus = curiosity_bonus(store, s, a, params)
            s2, r, _ = step(w, s, a, rng)
            td_update(store, Experience(s=s, a=a, r=r + bonus, s_next=s2), params)
            seen.add((s, a))
            s = s2
            if seen == all_pairs:
                break
        assert seen == all_pairs, f"seed {seed}: {len(all_pairs) - len(seen)} pairs unvisited"


# -- baseline (insatiability) ----------------------------------------------------

def test_baseline_frozen():
    b = ExpectationBaseline(level=1.0, adaptation_rate=0.0)
    assert update_baseline(b, 100.0).level == 1.0


def test_baseline_full_replacement():
    b = ExpectationBaseline(level=1.0, adaptation_rate=1.0)
    assert update_baseline(b, 7.0).level == 7.0


def test_baseline_ema_arithmetic():
    b = ExpectationBaseline(level=0.0, adaptation_rate=0.5)
    for r in (10.0, 10.0):
        b = update_baseline(b, r)
    assert b.level == 7.5


def test_hedonic_treadmill_property():
    """Boost-then-revert: the first lean episode after adapting to a rich
    environment always yields a positive reward loss."""
    r_hi, r_lo = 10.0, 2.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        b = ExpectationBaseline(level=0.0, adaptation_rate=0.1)
        for _ in range(10_000):
            b = update_baseline(b, r_hi + rng.normal(scale=0.2))
            if abs(b.level - r_hi) <= 0.05 * r_hi:
                break
        assert abs(b.level - r_hi) <= 0.05 * r_hi
        first_lean = r_lo + rng.normal(scale=0.2)
        assert reward_loss(b.level, first_lean) > 0.0

