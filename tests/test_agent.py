import pytest

from conftest import cell_of, flat_at, hazard, make_world, reward, run_events, store_from
from gridmind.affect import InterruptPolicy, SelfModel
from gridmind.agent import Agent
from gridmind.harness import RunConfig, audit, open_world, run
from gridmind.planning import IntentionStatus
from gridmind.replay import WanderingParams
from gridmind.suffering import Source
from gridmind.values import LearningParams, value_iteration, world_mdp
from gridmind.world import Relocation


def quiet_config(world, **kw):
    """No wandering, no exploration noise, no interrupts unless asked for."""
    import math
    defaults = dict(
        world=world, steps=0, seed=0, trace=True,
        learning=LearningParams(alpha=0.5, gamma=0.9, epsilon=0.0),
        wandering=WanderingParams(p_wander=0.0),
        interrupts=InterruptPolicy(desire_threshold=math.inf),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def primed_agent(world, config=None, episodes_of_training=40):
    """An agent whose store already knows the world (via value iteration)."""
    config = config or quiet_config(world)
    agent = Agent(config, world, config.seed)
    solved = value_iteration(world_mdp(world), config.learning, tol=1e-10)
    agent.store = store_from(solved.V, {(s, a): solved.q(s, a)
                                        for s in solved.V for a in solved.actions})
    return agent


def test_commitment_issued_actions_are_plan_prefix():
    w = make_world(width=6, height=1, objects={"g": reward("g", 1.0, (5, 0))},
                   step_cost=0.1)
    agent = primed_agent(w)
    for _ in range(20):
        agent.step_once()
        if any(i.kind == "intention_terminal" for i in agent.trace):
            break
    commits = [i for i in agent.trace if i.kind == "commit"]
    assert commits, "the primed agent should commit to the reward"
    terminal = [i for i in agent.trace if i.kind == "intention_terminal"]
    assert terminal and terminal[0].detail["status"] in ("Reached", "Failed")
    # exactly one plan event per terminal intention
    plan_events = [e for e in run_events(agent) if e.source is Source.PLAN_LOSS]
    assert len(plan_events) == len(terminal)


def test_issued_actions_are_exactly_the_plan_prefix():
    w = make_world(width=8, height=1,
                   objects={"g": reward("g", 1.0, (7, 0)),
                            "h": hazard("h", 2.0, (4, 0))},
                   step_cost=0.1)
    config = quiet_config(w, interrupts=InterruptPolicy(threat_threshold=1.0),
                          goal_reach=7)
    agent = primed_agent(w, config)
    agent.run(40)
    items = agent.trace
    for i, item in enumerate(items):
        if item.kind != "commit":
            continue
        plan = item.detail["plan"]
        issued = []
        for later in items[i:]:
            if later.kind == "step":
                issued.append(later.detail["action"])
            elif later.kind == "intention_terminal":
                status = later.detail["status"]
                break
        if status == "Aborted":
            assert issued == plan[: len(issued)]
            assert len(issued) < len(plan)
        else:
            assert issued[: len(plan)] == plan
    statuses = [i.detail["status"] for i in items if i.kind == "intention_terminal"]
    assert "Aborted" in statuses  # the hazard interrupt cuts at least one plan short


def test_reaching_the_goal_ends_episode_and_restores_world():
    w = make_world(width=4, height=1, objects={"g": reward("g", 1.0, (3, 0))},
                   step_cost=0.1)
    agent = primed_agent(w)
    agent.run(12)
    assert agent.episodes >= 2
    goal = flat_at(agent.world, (3, 0))
    assert agent.world.object_at(goal) is not None  # restored after collection
    assert cell_of(agent.world, agent.s_true)  # valid somewhere
    assert agent.episode_rewards
    assert agent.episode_rewards[0] == pytest.approx(1.0 - 0.1 * 3)


def test_step_loss_events_when_values_overpromise():
    w = make_world(width=4, height=1, step_cost=0.0)
    config = quiet_config(w)
    agent = Agent(config, w, 0)
    # inflate V at the start state; greedy on all-zero Q rams the north
    # wall and stays put, so the prediction is V(s) - gamma * V(s)
    agent.store.V[agent.s_true] = 1.0
    agent.step_once()
    steps = [e for e in run_events(agent) if e.source is Source.STEP_LOSS]
    assert len(steps) == 1
    assert steps[0].expected == pytest.approx(1.0 - 0.9 * 1.0)
    assert steps[0].obtained == 0.0
    assert steps[0].frustration > 0


def test_epoch_bump_rekeys_agent_state():
    w = make_world(width=4, height=1, objects={"g": reward("g", 1.0, (3, 0))},
                   schedule=(Relocation(3, "g", (0, 0)),))
    agent = Agent(quiet_config(w), w, 0)
    for _ in range(6):
        agent.step_once()
    assert agent.world.epoch == 1
    assert cell_of(agent.world, agent.s_true)  # state id valid for new epoch


def test_mid_plan_relocation_fails_on_arrival():
    w = make_world(width=6, height=1, objects={"g": reward("g", 1.0, (5, 0))},
                   step_cost=0.1, schedule=(Relocation(2, "g", (0, 0)),))
    agent = primed_agent(w)
    agent.run(8)
    terminal = [i for i in agent.trace if i.kind == "intention_terminal"]
    assert terminal
    assert terminal[0].detail["status"] == "Failed"
    # full anticipated value charged
    plan_events = [e for e in run_events(agent) if e.source is Source.PLAN_LOSS]
    assert plan_events[0].obtained == 0.0
    assert plan_events[0].frustration > 0


def test_depression_gate_end_to_end():
    # goals exist but plans keep dying: heavy slip diverges them fast
    # (on a 1-row world a lateral slip leaves the agent in place)
    w = make_world(width=8, height=1, objects={"g": reward("g", 1.0, (7, 0))},
                   step_cost=0.1, slip_probability=0.6)
    config = quiet_config(w, self_model=SelfModel(failure_limit=2, cooldown=10))
    agent = primed_agent(w, config)
    waiting_seen = False
    for _ in range(60):
        agent.step_once()
        if agent.self_state.wait_remaining > 0:
            waiting_seen = True
            break
    assert waiting_seen
    assert agent.consecutive_failed >= 2
    # while waiting: no new commitments
    commits_before = sum(1 for i in agent.trace if i.kind == "commit")
    for _ in range(3):
        agent.step_once()
        if agent.self_state.wait_remaining == 0:
            break
    commits_during = sum(1 for i in agent.trace if i.kind == "commit")
    assert commits_during == commits_before


def test_positive_reward_releases_depression():
    w = make_world(width=3, height=1, objects={"g": reward("g", 1.0, (2, 0))},
                   step_cost=0.0)
    config = quiet_config(w, self_model=SelfModel(failure_limit=1, cooldown=500))
    agent = primed_agent(w, config)
    agent.self_state.wait_remaining = 500
    agent.consecutive_failed = 1
    # Stay-biased walking eventually lands on the reward two cells away
    for _ in range(200):
        agent.step_once()
        if agent.self_state.wait_remaining == 0:
            break
    assert agent.self_state.wait_remaining == 0


def test_threat_interrupt_aborts_active_intention():
    import math
    w = make_world(width=8, height=1,
                   objects={"g": reward("g", 1.0, (7, 0)),
                            "h": hazard("h", 2.0, (4, 0))},
                   step_cost=0.1)
    config = quiet_config(w, interrupts=InterruptPolicy(threat_threshold=1.0,
                                                        desire_threshold=math.inf),
                          goal_reach=7)
    agent = primed_agent(w, config)
    statuses = []
    for _ in range(30):
        agent.step_once()
        statuses = [i.detail["status"] for i in agent.trace
                    if i.kind == "intention_terminal"]
        if "Aborted" in statuses:
            break
    assert "Aborted" in statuses
    threat_events = [e for e in run_events(agent)
                     if e.source is Source.THREAT_INTERNAL]
    assert threat_events
    assert all(e.expected == 0.0 for e in threat_events)


def test_desire_cost_knob_defaults_off():
    w = make_world(width=6, height=1, objects={"g": reward("g", 1.0, (5, 0))},
                   step_cost=0.1)
    agent = primed_agent(w)
    agent.run(10)
    assert not any(e.source is Source.DESIRE_COST for e in run_events(agent))


def test_desire_cost_knob_charges_active_desire():
    w = make_world(width=6, height=1, objects={"g": reward("g", 1.0, (5, 0))},
                   step_cost=0.1)
    config = quiet_config(w, desire_cost=0.2)
    agent = primed_agent(w, config)
    agent.run(10)
    costs = [e for e in run_events(agent) if e.source is Source.DESIRE_COST]
    assert costs
    assert all(e.expected == 0.2 and e.obtained == 0.0 for e in costs)


def test_audit_on_busy_run():
    config = RunConfig(world="loss_heavy", steps=800, seed=9, trace=True,
                       interrupts=InterruptPolicy(threat_threshold=0.8),
                       self_model=SelfModel(standard=1.0, evaluation_window=3))
    agent, _ = run(config)
    result = audit(agent)
    assert result["ok"], result
    assert result["expected_items"] > 0


def test_certainty_factor_follows_channel():
    w = make_world(width=4, height=1, observation_confusion=0.25)
    agent = Agent(quiet_config(w), w, 0)
    assert agent.terms.certainty == pytest.approx(0.75)


def test_an_intention_is_none_or_active_after_every_step():
    """``_finalize_intention`` clears an intention whenever it leaves Active
    (abort, advance, episode end), so the agent never holds a terminal one."""
    config = RunConfig(world="loss_heavy", steps=2000, seed=0, trace=True,
                       interrupts=InterruptPolicy(threat_threshold=0.8, desire_threshold=0.8))
    agent = Agent(config, open_world(config.world), config.seed)
    held = 0
    for _ in range(config.steps):
        agent.step_once()
        assert agent.intention is None or agent.intention.status is IntentionStatus.ACTIVE
        held += agent.intention is not None
    ended = {i.detail["status"] for i in agent.trace if i.kind == "intention_terminal"}
    assert agent.desire_interrupts > 0 and held > 0
    assert {"Aborted", "Failed", "Reached"} <= ended


def desire_config(desire_threshold, goal_threshold, **kw):
    return RunConfig(world="loss_heavy", seed=0, goal_threshold=goal_threshold,
                     interrupts=InterruptPolicy(threat_threshold=0.8,
                                                desire_threshold=desire_threshold), **kw)


@pytest.mark.guard
@pytest.mark.parametrize("desire_threshold, goal_threshold", [(0.8, 0.1), (0.05, 0.3)])
def test_a_desire_step_ranks_its_goals_once(monkeypatch, desire_threshold, goal_threshold):
    """A step whose desire interrupt aborts the intention commits from the
    list the interrupt ranked: ``check_interrupts`` and ``_select_action``
    together call ``suggest_goals`` at most once a step, whichever
    threshold is the lower."""
    import gridmind.affect
    import gridmind.agent
    calls = []
    for module in (gridmind.affect, gridmind.agent):
        def counted(*args, _original=module.suggest_goals, **kwargs):
            calls.append(None)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, "suggest_goals", counted)
    config = desire_config(desire_threshold, goal_threshold, steps=2000)
    agent = Agent(config, open_world(config.world), config.seed)
    most = recommitted = 0
    for _ in range(config.steps):
        before, desires = len(calls), agent.desire_interrupts
        agent.step_once()
        most = max(most, len(calls) - before)
        recommitted += agent.desire_interrupts > desires and agent.intention is not None
    assert recommitted > 0
    assert most == 1


@pytest.mark.guard
@pytest.mark.parametrize("desire_threshold, goal_threshold",
                         [(0.8, 0.1), (0.05, 0.3), (0.3, 0.3), (-0.5, -1.0)])
def test_a_desire_step_commits_as_if_it_ranked_again(monkeypatch, desire_threshold,
                                                     goal_threshold):
    """Committing from the interrupt's list gives the run that ranks the
    ball again at the goal threshold: the same sites, bit for bit, and the
    same trace."""
    config = desire_config(desire_threshold, goal_threshold, steps=1500, trace=True)
    shared = Agent(config, open_world(config.world), config.seed).run(config.steps)
    select = Agent._select_action
    monkeypatch.setattr(Agent, "_select_action", lambda self, ranked=None: select(self))
    again = Agent(config, open_world(config.world), config.seed).run(config.steps)
    assert shared.desire_interrupts > 0
    assert [(t, s, e.hex(), o.hex()) for t, s, e, o in shared.sites] == \
        [(t, s, e.hex(), o.hex()) for t, s, e, o in again.sites]
    assert repr(shared.trace) == repr(again.trace)
