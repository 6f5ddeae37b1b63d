import math

import pytest

from conftest import hazard, make_world, run_events
from gridmind.affect import (InterruptKind, InterruptPolicy,
                             SelfModel, SelfState, check_interrupts,
                             depression_gate, release_depression, self_evaluate,
                             sweep_threshold, threat_level, tick_depression)
from gridmind.agent import Agent
from gridmind.harness import RunConfig
from gridmind.planning import Goal, Intention
from gridmind.suffering import Source, Terms, Timescale, events
from gridmind.world import Action


def alley():
    return make_world(width=7, height=1, objects={"h": hazard("h", 2.0, (3, 0))},
                      start=(0, 0))


def test_threat_level_no_hazards():
    w = make_world()
    assert threat_level(w, w.state_id((0, 0)), InterruptPolicy()) == 0.0


def test_threat_level_on_hazard():
    w = alley()
    assert threat_level(w, w.state_id((3, 0)), InterruptPolicy()) == pytest.approx(2.0)


def test_threat_level_decays_with_distance():
    w = alley()
    lvl = threat_level(w, w.state_id((0, 0)), InterruptPolicy(decay_length=1.0))
    assert lvl == pytest.approx(2.0 * math.exp(-3.0))


class StubAgent:
    def __init__(self, world, store=None, intention=None, reach=3):
        from gridmind.values import ValueStore
        self.world = world
        self.store = store or ValueStore()
        self.intention = intention
        self.goal_reach = reach


def test_infinite_threshold_never_fires():
    w = alley()
    agent = StubAgent(w)
    policy = InterruptPolicy(threat_threshold=math.inf)
    s = w.state_id((3, 0))
    assert check_interrupts(agent, s, policy) is None


def test_corrupted_observation_false_alarm():
    """The detector trusts the channel: a corrupted report from a
    hazard-adjacent state fires even though the agent stands clear."""
    w = alley()
    agent = StubAgent(w)
    policy = InterruptPolicy(threat_threshold=1.0)
    true_state = w.state_id((0, 0))            # far from the hazard
    reported = w.state_id((3, 0))              # channel says: on it
    assert threat_level(w, true_state, policy) < policy.threat_threshold
    itr = check_interrupts(agent, reported, policy)
    assert itr is not None and itr.kind is InterruptKind.THREAT
    assert itr.payload["threat_level"] == pytest.approx(2.0)


def test_desire_interrupt_during_active_intention():
    w = make_world(width=5, height=1)
    from gridmind.values import ValueStore
    store = ValueStore()
    shiny = w.state_id((1, 0))
    store.V[shiny] = 0.95
    goal = Goal(target=w.state_id((4, 0)), anticipated_value=0.3)
    intention = Intention(goal=goal, plan=[Action.EAST], expected_cells=[(4, 0)])
    agent = StubAgent(w, store=store, intention=intention)
    policy = InterruptPolicy(desire_threshold=0.9)
    s = w.state_id((0, 0))
    itr = check_interrupts(agent, s, policy)
    assert itr is not None and itr.kind is InterruptKind.DESIRE
    assert itr.payload["candidate"].target == shiny


def test_no_desire_interrupt_without_intention():
    w = make_world(width=5, height=1)
    from gridmind.values import ValueStore
    store = ValueStore()
    store.V[w.state_id((1, 0))] = 0.95
    agent = StubAgent(w, store=store, intention=None)
    s = w.state_id((0, 0))
    assert check_interrupts(agent, s, InterruptPolicy(desire_threshold=0.9)) is None


def test_threat_outranks_desire():
    w = alley()
    from gridmind.values import ValueStore
    store = ValueStore()
    store.V[w.state_id((1, 0))] = 5.0
    goal = Goal(target=w.state_id((6, 0)), anticipated_value=0.1)
    intention = Intention(goal=goal, plan=[Action.EAST], expected_cells=[(6, 0)])
    agent = StubAgent(w, store=store, intention=intention)
    policy = InterruptPolicy(threat_threshold=0.01, desire_threshold=0.5)
    s = w.state_id((2, 0))  # near the hazard AND next to the shiny state
    itr = check_interrupts(agent, s, policy)
    assert itr.kind is InterruptKind.THREAT


def test_threat_interrupt_emits_one_internal_reward_event():
    w = alley()
    config = RunConfig(world=w, steps=40, seed=2,
                       interrupts=InterruptPolicy(threat_threshold=0.5),
                       policy="random")
    agent = Agent(config, w, 2)
    agent.run(40)
    events = [e for e in run_events(agent) if e.source is Source.THREAT_INTERNAL]
    assert agent.threat_interrupts > 0
    assert len(events) == agent.threat_interrupts
    for ev in events:
        assert ev.expected == 0.0
        assert ev.obtained < 0.0


# -- threshold sweep ---------------------------------------------------------


def test_sweep_extremes():
    w = alley()
    policy = InterruptPolicy()
    table = sweep_threshold(w, [0.0, math.inf], policy, seeds=range(4), steps=150)
    by_theta = {row["threshold"]: row for row in table}
    assert by_theta[0.0]["misses"] == 0
    assert by_theta[math.inf]["false_alarms"] == 0


def test_sweep_monotone_per_trace():
    w = make_world(width=7, height=3, start=(0, 1),
                   objects={"h": hazard("h", 2.0, (3, 1)),
                            "h2": hazard("h2", 1.0, (5, 0))},
                   observation_confusion=0.2)
    policy = InterruptPolicy()
    thresholds = [0.0, 0.05, 0.2, 0.5, 1.0, 2.0, math.inf]
    table = sweep_threshold(w, thresholds, policy, seeds=range(6), steps=200)
    fas = [row["false_alarms"] for row in table]
    misses = [row["misses"] for row in table]
    assert all(b <= a for a, b in zip(fas, fas[1:]))
    assert all(b >= a for a, b in zip(misses, misses[1:]))


def test_sweep_argmin_shifts_down_when_misses_cost_more():
    w = make_world(width=7, height=3, start=(0, 1),
                   objects={"h": hazard("h", 2.0, (3, 1))},
                   observation_confusion=0.2)
    thresholds = [0.0, 0.05, 0.2, 0.5, 1.0, 2.0, math.inf]

    def argmin_threshold(policy):
        table = sweep_threshold(w, thresholds, policy, seeds=range(6), steps=200)
        best = min(table, key=lambda row: (row["realized_cost"], row["threshold"]))
        return thresholds.index(best["threshold"])

    cheap_misses = argmin_threshold(InterruptPolicy(miss_cost=1.0, false_alarm_cost=0.1))
    dear_misses = argmin_threshold(InterruptPolicy(miss_cost=10.0, false_alarm_cost=0.1))
    assert dear_misses <= cheap_misses


def test_no_misses_with_clean_channel_and_low_threshold():
    w = make_world(width=7, height=1, objects={"h": hazard("h", 2.0, (3, 0))},
                   observation_confusion=0.0, start=(0, 0))
    policy = InterruptPolicy()
    # on-path field minimum is exp(-3)*2 at the far end; threshold below it
    table = sweep_threshold(w, [0.01, math.inf], policy, seeds=range(5), steps=200)
    assert table[0]["misses"] == 0


def test_sweep_requires_two_thresholds():
    with pytest.raises(ValueError):
        sweep_threshold(alley(), [1.0], InterruptPolicy(), seeds=[0])


# -- self evaluation -----------------------------------------------------------


def self_eval_event(sm, rewards, standard_scale=1.0):
    """The SelfEval event an evaluation scores, or None."""
    site = self_evaluate(sm, SelfState(sm.standard), rewards)
    if site is None:
        return None
    return next(events((site,), Terms(standard_scale=standard_scale)), None)


def test_self_evaluate_shortfall():
    sm = SelfModel(evaluation_window=3, standard=0.5)
    ev = self_eval_event(sm, [0.2, 0.2, 0.2])
    assert ev is not None
    assert ev.expected - ev.obtained == pytest.approx(0.3)
    assert ev.timescale is Timescale.SELF_EVAL


def test_self_evaluate_satisfied():
    sm = SelfModel(evaluation_window=3, standard=0.5)
    assert self_eval_event(sm, [0.6, 0.5, 0.7]) is None


def test_self_evaluate_zeroed_standard_never_fires():
    sm = SelfModel(evaluation_window=3, standard=0.5)
    assert self_eval_event(sm, [-1.0, -1.0, -1.0], standard_scale=0.0) is None


def test_scaled_negative_standard_can_fire_where_the_unscaled_one_does_not():
    # standard -1 against a mean of -0.8 is met; halved to -0.5 it is not
    sm = SelfModel(evaluation_window=1, standard=-1.0)
    assert self_eval_event(sm, [-0.8]) is None
    ev = self_eval_event(sm, [-0.8], standard_scale=0.5)
    assert ev.expected == -0.5
    assert ev.expected - ev.obtained == pytest.approx(0.3)


def test_self_evaluate_needs_full_window():
    sm = SelfModel(evaluation_window=5, standard=0.5)
    assert self_evaluate(sm, SelfState(sm.standard), [0.0, 0.0]) is None  # not even a site


def test_meta_rate_drifts_standard():
    sm = SelfModel(evaluation_window=2, standard=1.0, meta_rate=0.5)
    state = SelfState(sm.standard)
    self_evaluate(sm, state, [0.0, 0.0])
    assert state.standard == pytest.approx(0.5)
    assert sm.standard == 1.0  # the config does not drift


# -- depression gate -------------------------------------------------------------


def test_gate_never_fires_with_huge_limit():
    state = SelfState(0.0)
    depression_gate(SelfModel(failure_limit=10**9), state, 10**6)
    assert state.wait_remaining == 0


def test_gate_threshold_semantics():
    sm, state = SelfModel(failure_limit=3), SelfState(0.0)
    depression_gate(sm, state, 2)
    assert state.wait_remaining == 0
    depression_gate(sm, state, 3)
    assert state.wait_remaining == sm.cooldown


def test_positive_reward_releases_waiting():
    state = SelfState(0.0)
    depression_gate(SelfModel(failure_limit=1), state, 1)
    assert state.wait_remaining > 0
    release_depression(state)
    assert state.wait_remaining == 0


def test_cooldown_expires():
    state = SelfState(0.0)
    depression_gate(SelfModel(failure_limit=1, cooldown=3), state, 1)
    for _ in range(3):
        assert state.wait_remaining > 0
        tick_depression(state)
    assert state.wait_remaining == 0
