import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_world, reward, store_from
from gridmind import rng as rngmod
from gridmind import suffering
from gridmind.agent import Agent
from gridmind.harness import RunConfig, run
from gridmind.presets import get_world
from gridmind.replay import (Experience, ReplayBuffer, WanderingParams,
                             backward_sweep, priorities, priority_cdf,
                             sample_from, wandering_step)
from gridmind.suffering import Source
from gridmind.values import LearningParams, ValueStore, td_update
from gridmind.world import Action


SUB = dict(gamma=None)

# The rooms trajectory: 21 -> 13 -> 42, reward found in room 42.
ROOMS = [
    Experience(s=21, a=Action.EAST, r=-0.1, s_next=13),
    Experience(s=13, a=Action.EAST, r=-0.1, s_next=42),
    Experience(s=42, a=Action.STAY, r=1.0, s_next=42, terminal=True),
]


def filled(items, capacity=10_000):
    buf = ReplayBuffer(capacity=capacity)
    for exp in items:
        buf.append(exp)
    return buf


def rooms_buffer():
    return filled(ROOMS)


def test_priority_zero_at_fixed_point():
    store = ValueStore()
    store.V.update({21: 0.8, 13: 0.9, 42: 1.0})
    p = LearningParams(**SUB)
    assert priorities(rooms_buffer(), store, p).tolist() == pytest.approx([0.0] * 3)


def test_priority_first_reward():
    store = ValueStore()
    p = LearningParams(**SUB)
    assert priorities(filled([ROOMS[2]]), store, p)[0] == pytest.approx(1.0)


def test_priority_bad_news_transition():
    store = ValueStore()
    store.V.update({0: 0.9, 1: 0.2})
    p = LearningParams(**SUB)
    exp = Experience(s=0, a=Action.EAST, r=0.0, s_next=1)
    assert priorities(filled([exp]), store, p)[0] == pytest.approx(0.7)


def test_priorities_of_empty_buffer():
    assert len(priorities(ReplayBuffer(), ValueStore(), LearningParams(**SUB))) == 0


# State ids grow as epoch * cells + flat, so a world at the size caps
# reaches ids near 10^8. Ids near 0 and near 10^7 in one buffer: an offset
# by the smallest id would still span them all.
@pytest.mark.parametrize("ids", [range(10 ** 7, 10 ** 7 + 100),
                                 [*range(50), *range(10 ** 7, 10 ** 7 + 50)]],
                         ids=["near 10^7", "near 0 and 10^7"])
def test_priorities_memory_follows_the_keys_not_the_state_ids(ids):
    items = [Experience(s=s, a=Action.EAST, r=-0.1, s_next=s + 1) for s in ids]
    store = ValueStore(V={s: 0.25 * (s % 7) for s in ids})
    params = LearningParams()
    buf = filled(items)
    tracemalloc.start()
    try:
        got = priorities(buf, store, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert got.tolist() == [abs(e.r + params.disc * store.v(e.s_next) - store.v(e.s))
                            for e in items]


def test_backward_sweep_rooms_example():
    store = ValueStore()
    p = LearningParams(alpha=1.0, **SUB)
    backward_sweep(rooms_buffer(), seed_index=2, k=3, store=store, params=p)
    assert store.v(42) == pytest.approx(1.0, abs=1e-9)
    assert store.v(13) == pytest.approx(0.9, abs=1e-9)
    assert store.v(21) == pytest.approx(0.8, abs=1e-9)
    assert store.v(42) > store.v(13) > store.v(21)


def test_backward_sweep_k1_is_single_update():
    p = LearningParams(alpha=0.7, **SUB)
    V, Q = {13: 0.5, 42: 0.25}, {(13, Action.EAST): -0.5, (42, Action.NORTH): 0.75}
    store_a, store_b = store_from(V, Q), store_from(V, Q)
    backward_sweep(rooms_buffer(), seed_index=1, k=1, store=store_a, params=p)
    td_update(store_b, ROOMS[1], p, count_visit=False)
    assert store_a.V == store_b.V
    assert store_a.Q == store_b.Q
    assert store_a.q(13, Action.EAST) == -0.5 + 0.7 * (-0.1 + 0.75 + 0.5)


def test_backward_sweep_truncates_at_trajectory_start():
    store = ValueStore()
    p = LearningParams(alpha=1.0, **SUB)
    backward_sweep(rooms_buffer(), seed_index=1, k=10, store=store, params=p)
    # only experiences 0 and 1 touched
    assert store.v(42) == 0.0


def test_backward_sweep_stops_at_episode_boundary():
    buf = ReplayBuffer()
    buf.append(Experience(s=5, a=Action.STAY, r=2.0, s_next=5, terminal=True))
    for exp in ROOMS:
        buf.append(exp)
    store = ValueStore()
    p = LearningParams(alpha=1.0, **SUB)
    backward_sweep(buf, 3, 10, store, p)
    assert store.v(5) == 0.0  # previous episode untouched


def test_forward_replay_needs_three_passes_backward_one():
    """Derived by direct simulation of both replay orders (alpha=1)."""
    p = LearningParams(alpha=1.0, **SUB)

    forward = ValueStore()
    passes_needed = 0
    for n in range(1, 10):
        for exp in ROOMS:
            td_update(forward, exp, p, count_visit=False)
        if abs(forward.v(21) - 0.8) < 1e-9:
            passes_needed = n
            break
    assert passes_needed == 3

    backward = ValueStore()
    backward_sweep(rooms_buffer(), seed_index=2, k=3, store=backward, params=p)
    assert backward.v(21) == pytest.approx(0.8, abs=1e-9)


def test_ring_buffer_evicts_oldest():
    buf = ReplayBuffer(capacity=3)
    for i in range(5):
        buf.append(Experience(s=i, a=Action.STAY, r=0.0, s_next=i))
    assert len(buf) == 3
    assert [e.s for e in buf] == [2, 3, 4]


# -- the columnar ring against a plain list ----------------------------------

MAX_STATE = 40

experience_st = st.builds(
    Experience,
    s=st.integers(0, MAX_STATE), a=st.sampled_from(list(Action)),
    r=st.floats(-10.0, 10.0, allow_nan=False), s_next=st.integers(0, MAX_STATE),
    terminal=st.booleans())

# Values for a random subset of states, some beyond any state in the buffer.
values_st = st.dictionaries(st.integers(0, MAX_STATE + 20),
                            st.floats(-50.0, 50.0, allow_nan=False), max_size=60)

params_st = st.one_of(
    st.builds(lambda g: LearningParams(gamma=g), st.floats(0.0, 1.0)),
    st.just(LearningParams(gamma=None)))


# Few distinct transitions, so items share transition keys, and more items
# than twice the largest capacity, so the ring wraps more than once; r = 0.0
# and r = -0.0 (a zero step cost) fall on the same (s, s_next).
repeated_st = st.builds(
    Experience,
    s=st.integers(0, 3), a=st.sampled_from(list(Action)),
    r=st.sampled_from([0.0, -0.0, -0.1, 1.0]), s_next=st.integers(0, 3),
    terminal=st.booleans())

items_st = st.lists(experience_st, max_size=200) | st.lists(repeated_st, min_size=101,
                                                           max_size=200)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 50), items=items_st, V=values_st, params=params_st)
def test_priorities_bit_identical_to_scalar_rule(capacity, items, V, params):
    store = ValueStore(V=V)
    kept = items[-capacity:] if items else []
    expected = [abs(e.r + params.disc * (0.0 if e.terminal else store.v(e.s_next))
                    - store.v(e.s)) for e in kept]
    got = priorities(filled(items, capacity), store, params)
    assert got.dtype == np.float64
    assert len(got) == len(expected)
    for g, e in zip(got.tolist(), expected):
        assert g == e


def test_signed_zero_rewards_keep_their_own_sign():
    items = [Experience(s=1, a=Action.EAST, r=r, s_next=2) for r in (0.0, -0.0, -0.0, 0.0)]
    buf = filled(items, capacity=3)
    assert [math.copysign(1.0, exp.r) for exp in buf] == [-1.0, -1.0, 1.0]


@settings(max_examples=100, deadline=None)
@given(pri=st.lists(st.floats(0.0, 1e6), max_size=50))
def test_priority_cdf_leaves_its_input_alone(pri):
    pri = np.array(pri)
    before = pri.copy()
    priority_cdf(pri)
    assert pri.tobytes() == before.tobytes()


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 50), items=items_st)
def test_ring_reads_back_like_a_list(capacity, items):
    buf = filled(items, capacity)
    kept = items[-capacity:] if items else []
    assert len(buf) == len(kept)
    assert buf.n_keys <= 2 * capacity   # the key table stays bounded by the ring
    assert list(buf) == kept
    for i, exp in enumerate(kept):
        assert buf[i] == exp
        assert buf[i - len(kept)] == exp
        assert math.copysign(1.0, buf[i].r) == math.copysign(1.0, exp.r)
    if kept:
        assert buf[-1] == kept[-1]
        got = buf[0]
        assert (type(got.s), type(got.a), type(got.r), type(got.s_next),
                type(got.terminal)) == (int, Action, float, int, bool)
    with pytest.raises(IndexError):
        buf[len(kept)]
    with pytest.raises(IndexError):
        buf[-len(kept) - 1]


def reference_sweep(items, seed_index, k, store, params):
    """The backward walk over a plain list: update, then step back while the
    previous item continues the same trajectory."""
    i, done = seed_index, 0
    while True:
        td_update(store, items[i], params, count_visit=False)
        done += 1
        if done >= k or i == 0:
            return store
        prev = items[i - 1]
        if prev.terminal or prev.s_next != items[i].s:
            return store
        i -= 1


# (restart here?, restart state, next state, terminal?, reward) per tick
tick_st = st.tuples(st.integers(0, 9).map(lambda x: x == 0), st.integers(0, MAX_STATE),
                    st.integers(0, MAX_STATE), st.integers(0, 9).map(lambda x: x == 0),
                    st.floats(-5.0, 5.0))


# A starting store: a few values on the states the ticks visit
start_st = st.tuples(
    st.dictionaries(st.integers(0, MAX_STATE), st.floats(-5.0, 5.0), max_size=8),
    st.dictionaries(st.tuples(st.integers(0, MAX_STATE), st.sampled_from(list(Action))),
                    st.floats(-5.0, 5.0), max_size=8))


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 50), ticks=st.lists(tick_st, min_size=1, max_size=150),
       pick=st.tuples(st.floats(0.0, 1.0), st.integers(1, 51)), params=params_st,
       start=start_st)
def test_backward_sweep_matches_list_walk_across_the_wrap(capacity, ticks, pick, params,
                                                          start):
    # chained trajectories with occasional breaks and terminals
    items, s = [], 0
    for restart, s_restart, s_next, terminal, r in ticks:
        s = s_restart if restart else s
        items.append(Experience(s=s, a=Action.EAST, r=r, s_next=s_next,
                                terminal=terminal))
        s = s_next
    kept = items[-capacity:]
    seed_index = min(int(pick[0] * len(kept)), len(kept) - 1)
    k = pick[1]
    got = backward_sweep(filled(items, capacity), seed_index, k, store_from(*start), params)
    want = reference_sweep(kept, seed_index, k, store_from(*start), params)
    assert got.V == want.V
    assert got.Q == want.Q


def test_backward_sweep_crosses_the_physical_wrap():
    chain = [Experience(s=i, a=Action.EAST, r=-0.1, s_next=i + 1) for i in range(6)]
    chain.append(Experience(s=6, a=Action.STAY, r=1.0, s_next=6, terminal=True))
    buf = filled(chain, capacity=5)   # keeps items 2..6; the oldest sits in row 2
    assert buf.head == 2
    p = LearningParams(alpha=1.0, **SUB)
    store = backward_sweep(buf, seed_index=4, k=5, store=ValueStore(), params=p)
    assert [round(store.v(s), 9) for s in (2, 3, 4, 5, 6)] == [0.6, 0.7, 0.8, 0.9, 1.0]
    assert store.v(1) == 0.0  # evicted, never replayed


def test_priority_proportional_sampling():
    store = ValueStore()
    p = LearningParams(alpha=1.0, **SUB)
    buf = ReplayBuffer()
    # priorities 1.0, 3.0, 0.0, 4.0 by construction (V all zero)
    for i, r in enumerate((1.0, 3.0, 0.0, 4.0)):
        buf.append(Experience(s=100 + i, a=Action.STAY, r=r, s_next=200 + i, terminal=True))
    rng = np.random.default_rng(0)
    n = 10_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample_from(priority_cdf(priorities(buf, store, p)), rng)] += 1
    probs = np.array([1.0, 3.0, 0.0, 4.0]) / 8.0
    for i in range(4):
        sigma = (n * probs[i] * (1 - probs[i])) ** 0.5
        assert abs(counts[i] - n * probs[i]) <= 3 * max(sigma, 1.0)


def test_uniform_fallback_when_all_priorities_zero():
    store = ValueStore()
    p = LearningParams(alpha=1.0, **SUB)
    buf = ReplayBuffer()
    for i in range(4):
        buf.append(Experience(s=i, a=Action.STAY, r=0.0, s_next=i))
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    n = 4000
    for _ in range(n):
        counts[sample_from(priority_cdf(priorities(buf, store, p)), rng)] += 1
    for c in counts:
        assert abs(c - n / 4) <= 3 * (n * 0.25 * 0.75) ** 0.5


# -- wandering ----------------------------------------------------------------


def loss_agent(p_wander=1.0, realness=1.0, mode_mix=1.0, seed=0, **config_kw):
    """An agent over a tiny world, preloaded with one stored loss event."""
    w = make_world(width=3, height=1, step_cost=0.0)
    config = RunConfig(
        world=w, steps=0, seed=seed,
        learning=LearningParams(alpha=0.5, gamma=None, epsilon=0.0),
        wandering=WanderingParams(p_wander=p_wander, batch_size=1,
                                  mode_mix=mode_mix, realness=realness),
        **config_kw,
    )
    agent = Agent(config, w, seed)
    # a remembered disappointment: V promised 1.0, the episode ended with nothing
    agent.store.V[agent.s_true] = 1.0
    agent.buffer.append(Experience(s=agent.s_true, a=Action.STAY, r=0.0,
                                   s_next=agent.s_true, terminal=True))
    return agent


def wander_events(agent, t):
    """Wandering tick t, its loss sites scored under the agent's terms."""
    return list(suffering.events(wandering_step(agent, t), agent.terms))


def test_wandering_disabled_means_no_events_no_updates():
    agent = loss_agent(p_wander=0.0)
    v_before = dict(agent.store.V)
    for t in range(50):
        assert wandering_step(agent, t) == []
    assert agent.store.V == v_before


def test_wandering_zero_realness_scores_zero():
    agent = loss_agent(realness=0.0)
    events = wander_events(agent, 0)
    assert events  # the loss is replayed
    assert all(ev.frustration == 0.0 for ev in events)
    assert all(ev.attention == 0.0 for ev in events)


def test_each_replay_of_a_loss_scores_one_event():
    agent = loss_agent()
    emitted = []
    for t in range(3):
        # alpha pulls V down after each replay; pin it back to keep the
        # loss alive for the count check
        agent.store.V[agent.s_true] = 1.0
        emitted += wander_events(agent, t)
    assert len(emitted) == 3
    assert all(ev.count == 1 for ev in emitted)


def test_empty_buffer_wanders_in_imagination_only():
    w = make_world(width=3, height=1, step_cost=0.0,
                   objects={"g": reward("g", 1.0, (2, 0))})
    config = RunConfig(world=w, steps=0, seed=3,
                       learning=LearningParams(alpha=0.5, gamma=None, epsilon=0.0),
                       wandering=WanderingParams(p_wander=1.0, batch_size=2,
                                                 mode_mix=1.0, realness=1.0))
    agent = Agent(config, w, 3)
    assert len(agent.buffer) == 0
    events = wandering_step(agent, 0)
    assert all(ev.source is Source.IMAGINED for ev in events)


def test_wandering_never_mutates_world():
    agent = loss_agent()
    world = agent.world
    snapshot = (dict((oid, o.at) for oid, o in world.objects.items()),
                set(world.consumed), world.epoch)
    for t in range(100):
        wandering_step(agent, t)
    assert snapshot == (dict((oid, o.at) for oid, o in world.objects.items()),
                        set(world.consumed), world.epoch)


def test_frustration_monotone_in_p_wander():
    """Fixed random policy, paired seeds: wandering steps nest as p drops,
    so total frustration is pathwise non-decreasing in p_wander."""
    from gridmind.harness import run
    from gridmind.presets import loss_heavy

    totals = []
    for p in (0.0, 0.3, 0.6, 1.0):
        config = RunConfig(world="loss_heavy", steps=400, seed=11, policy="random",
                           wandering=WanderingParams(p_wander=p, batch_size=2,
                                                     mode_mix=0.8, realness=1.0))
        _, summary = run(config)
        totals.append(summary["totals"]["total"])
    assert all(b >= a for a, b in zip(totals, totals[1:]))
    assert totals[-1] > totals[0]


def gated_steps(monkeypatch, config):
    """The steps of a run that took their wandering stream's Generator from
    the gate table: those that passed the gate."""
    taken, generator = [], rngmod.FirstDraws.generator

    def recording(table, t):
        taken.append(t)
        return generator(table, t)

    with monkeypatch.context() as patch:
        patch.setattr(rngmod.FirstDraws, "generator", recording)
        run(config)
    return taken


def test_gated_steps_nest_in_p_wander(monkeypatch):
    """Less wandering is a subset of more wandering for the same seed: on the
    gate table, and on a learned-policy run, whose wander steps are exactly
    those whose own stream's first double falls below p_wander."""
    seed, steps = 4, 300
    table = rngmod.first_draws(seed, "wandering", 0, steps)[0]
    first = [np.random.default_rng([seed, 3, t]).random() for t in range(steps)]
    ps = (0.0, 0.1, 0.3, 0.6, 1.0)
    runs = []
    for p in ps:
        config = RunConfig(world="loss_heavy", steps=steps, seed=seed,
                           wandering=WanderingParams(p_wander=p, batch_size=2))
        runs.append(gated_steps(monkeypatch, config))
        assert runs[-1] == [t for t in range(steps) if first[t] < p]
    for i in range(len(ps) - 1):
        assert set(np.flatnonzero(table < ps[i])) <= set(np.flatnonzero(table < ps[i + 1]))
        assert set(runs[i]) <= set(runs[i + 1])
    assert runs[0] == [] and runs[-1] == list(range(steps))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), mode_mix=st.floats(0.0, 1.0),
       batch_size=st.integers(1, 6))
def test_wandering_settings_leave_world_and_observation_draws_alone(seed, mode_mix,
                                                                     batch_size):
    """Named streams never perturb each other: under a random policy,
    changing only settings that draw from the wandering stream leaves every
    ``world`` and ``observation`` draw of the run as it was."""
    def draws(wandering):
        config = RunConfig(world="loss_heavy", steps=120, seed=seed, policy="random",
                           wandering=wandering)
        agent = Agent(config, get_world("loss_heavy"), seed)
        out = []
        for _ in range(config.steps):
            agent.step_once()
            out.append((agent.s_true, agent.s_obs,
                        agent.rng_world.bit_generator.state["state"],
                        agent.rng_obs.bit_generator.state["state"]))
        return out

    assert draws(WanderingParams(p_wander=0.5)) == draws(
        WanderingParams(p_wander=0.5, mode_mix=mode_mix, batch_size=batch_size))
