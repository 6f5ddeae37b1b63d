"""The agent loop.

Each tick runs: observe, check interrupts, pick an action (plan step,
goal suggestion + commitment, or habit), act on the world, learn from the
outcome, wander, and settle the ledger. Action selection and goal
suggestion run on the observed state; learning runs on true states; the
threat detector runs on the observed state so the alarm can be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import rng as rngmod
from .affect import (InterruptKind, SelfMode, check_interrupts, depression_gate,
                     release_depression, self_evaluate, threat_event,
                     tick_depression)
from .planning import IntentionStatus, commit, plan_frustration, suggest_goals
from .replay import Experience, ReplayBuffer, wandering_step
from .suffering import Ledger, Source, Timescale, certainty_of, make_event
from .values import (ExpectationBaseline, curiosity_bonus, epsilon_greedy,
                     reward_loss, td_update, update_baseline)
from .world import ACTIONS, Action, apply_schedule, observe, step


@dataclass
class TraceItem:
    t: int
    kind: str
    detail: dict = field(default_factory=dict)


class Agent:
    """One seeded run over one world copy. Owns all mutable state."""

    def __init__(self, config, world, seed: int):
        self.config = config
        self.world = world.copy()
        self.seed = int(seed)

        self.learning = config.learning
        self.plan_params = config.planning
        self.wandering = config.wandering
        self.interrupts = config.interrupts
        self.self_model = replace(config.self_model)  # agent-local, it mutates
        self.goal_reach = config.goal_reach
        self.goal_threshold = config.goal_threshold

        iv = config.intervention
        self.expectation_scale = iv.expectation_scale
        self.attention_factor = iv.attention_scale * config.attention
        self.certainty_factor = certainty_of(self.world.observation_confusion,
                                             iv.certainty_scale)
        self.acceptance = iv.acceptance
        self.coupled = iv.coupled

        self.store = config.make_store()
        self.baseline = ExpectationBaseline(level=config.baseline_level,
                                            adaptation_rate=config.baseline_rate)
        self.buffer = ReplayBuffer(capacity=config.buffer_capacity)
        self.ledger = Ledger()
        self.sim_tally: dict[int, int] = {}
        self.positive_wanderings = 0

        self.rng_world = rngmod.substream(seed, "world")
        self.rng_expl = rngmod.substream(seed, "exploration")
        self.rng_obs = rngmod.substream(seed, "observation")

        self.t = 0
        self.s_true = self.world.state_id(self.world.start)
        self.s_obs = self.s_true
        self.intention = None
        self.replan_cooldown = 0
        self.consecutive_failed = 0

        self.episodes = 0
        self.episode_reward = 0.0
        self.episode_steps = 0
        self.episode_rewards: list[float] = []
        self.episode_losses: list[float] = []
        self.obtained_total = 0.0
        self.threat_interrupts = 0
        self.desire_interrupts = 0

        self.trace: list[TraceItem] = []
        self.trace_enabled = bool(getattr(config, "trace", False))

    # -- bookkeeping -------------------------------------------------------

    def _trace(self, kind: str, **detail):
        if self.trace_enabled:
            self.trace.append(TraceItem(t=self.t, kind=kind, detail=detail))

    def scale_expectation(self, raw: float) -> float:
        """Expectation lowering scales positive expectations only; scaling a
        negative one (an expected cost) toward zero would raise it."""
        return self.expectation_scale * raw if raw > 0 else raw

    def record(self, event):
        self.ledger.record(event)
        if (self.config.meta_aversion and not self.acceptance
                and event.frustration > 0
                and event.source is not Source.META_AVERSION):
            meta = make_event(
                t=event.t, source=Source.META_AVERSION, timescale=event.timescale,
                expected=self.config.meta_aversion_scale * event.frustration,
                obtained=0.0, certainty=1.0, attention=self.attention_factor)
            self.ledger.record(meta)

    # -- intention lifecycle -------------------------------------------------

    def _finalize_intention(self):
        intention = self.intention
        ev = plan_frustration(
            intention,
            expected=self.scale_expectation(intention.goal.anticipated_value),
            obtained=intention.obtained,
            certainty=self.certainty_factor,
            attention=self.attention_factor,
            t=self.t)
        self.record(ev)
        self._trace("intention_terminal", status=intention.status.value,
                    target=intention.goal.target)
        if intention.status is IntentionStatus.FAILED:
            self.consecutive_failed += 1
            depression_gate(self.self_model, self.consecutive_failed)
            self.replan_cooldown = 1
        elif intention.status is IntentionStatus.REACHED:
            self.consecutive_failed = 0
        self.intention = None

    # -- action selection ------------------------------------------------------

    def _select_action(self):
        if self.intention is not None and not self.intention.terminal:
            return self.intention.next_action(), True
        if self.config.policy == "random":
            return ACTIONS[int(self.rng_expl.integers(len(ACTIONS)))], False
        if self.self_model.mode is SelfMode.WAITING:
            if self.rng_expl.random() < self.config.depression_stay_bias:
                return Action.STAY, False
            return epsilon_greedy(self.store, self.s_obs, self.learning, self.rng_expl), False
        if self.replan_cooldown > 0:
            self.replan_cooldown -= 1
        else:
            goals = self._suggest()
            intent = commit(self.world, self.s_obs, goals, self.store,
                            self.plan_params, t=self.t)
            if intent is not None:
                self.intention = intent
                self._trace("commit", target=intent.goal.target,
                            plan=[int(a) for a in intent.plan])
                return intent.next_action(), True
        return epsilon_greedy(self.store, self.s_obs, self.learning, self.rng_expl), False

    def suggestion_threshold(self):
        """Effective desire threshold; None when the coupled intervention
        has scaled all anticipations to nothing."""
        if not self.coupled:
            return self.goal_threshold
        if self.expectation_scale == 0.0:
            return None
        return self.goal_threshold / self.expectation_scale

    def _suggest(self):
        threshold = self.suggestion_threshold()
        if threshold is None:
            return []
        return suggest_goals(self.world, self.store, self.s_obs,
                             reach=self.goal_reach, threshold=threshold, t=self.t)

    # -- the loop ----------------------------------------------------------

    def step_once(self):
        t = self.t
        world = self.world

        cell = world.cell_of(self.s_true)
        apply_schedule(world, t)
        self.s_true = world.state_id(cell)  # re-key after any epoch bump

        obs = observe(world, self.s_true, self.rng_obs)
        self.s_obs = obs.reported_state

        itr = check_interrupts(self, self.s_obs, obs, self.interrupts)
        if itr is not None:
            if itr.kind is InterruptKind.THREAT:
                self.threat_interrupts += 1
                self.record(threat_event(t, itr.payload["threat_level"],
                                         self.interrupts,
                                         certainty=self.certainty_factor,
                                         attention=self.attention_factor))
                self._trace("interrupt_threat", level=itr.payload["threat_level"])
            else:
                self.desire_interrupts += 1
                self._trace("interrupt_desire")
            if self.intention is not None and not self.intention.terminal:
                self.intention.abort()
                self._finalize_intention()

        tick_depression(self.self_model)

        a, from_plan = self._select_action()
        if (self.intention is not None and not self.intention.terminal
                and self.config.desire_cost > 0):
            self.record(make_event(
                t=t, source=Source.DESIRE_COST, timescale=Timescale.STEP,
                expected=self.config.desire_cost, obtained=0.0,
                certainty=self.certainty_factor, attention=self.attention_factor))

        s = self.s_true
        s_next, r, consumed = step(world, s, a, self.rng_world)
        self.episode_reward += r
        self.obtained_total += r
        self.episode_steps += 1
        if r > 0 and self.self_model.mode is SelfMode.WAITING:
            release_depression(self.self_model)

        self._learn(s, a, r, s_next, consumed)
        self.s_true = s_next

        if from_plan and self.intention is not None:
            self.intention.advance(world.cell_of(s_next), s_next, r)
            if self.intention.terminal:
                self._finalize_intention()

        wander_events = wandering_step(self, rngmod.per_step(self.seed, "wandering", t))
        for ev in wander_events:
            self.record(ev)
            self._trace("wander_negative", source=ev.source.value)

        if consumed is not None or self.episode_steps >= self.config.episode_step_limit:
            self._finish_episode()

        self.t += 1

    def _learn(self, s, a, r, s_next, consumed):
        store = self.store
        disc = self.learning.disc
        terminal_tick = consumed is not None
        v_after = 0.0 if terminal_tick else store.v(s_next)
        raw_expected = store.v(s) - disc * v_after

        if terminal_tick:
            magnitude = self.world.objects[consumed].magnitude
            experiences = [
                Experience(s=s, a=a, r=r - magnitude, s_next=s_next, t=self.t),
                Experience(s=s_next, a=Action.STAY, r=magnitude, s_next=s_next,
                           t=self.t, terminal=True),
            ]
        else:
            experiences = [Experience(s=s, a=a, r=r, s_next=s_next, t=self.t)]

        bonus = (curiosity_bonus(store, s, a, self.learning)
                 if self.learning.curiosity_kappa > 0 else 0.0)
        for i, exp in enumerate(experiences):
            self.buffer.append(exp)
            if i == 0 and bonus:
                exp = Experience(s=exp.s, a=exp.a, r=exp.r + bonus,
                                 s_next=exp.s_next, t=exp.t, terminal=exp.terminal)
            td_update(store, exp, self.learning)

        loss = raw_expected - r
        self._trace("step", action=int(a), raw_expected=raw_expected, obtained=r,
                    loss=max(0.0, loss))
        if loss > 0.0:
            self.record(make_event(
                t=self.t, source=Source.STEP_LOSS, timescale=Timescale.STEP,
                expected=self.scale_expectation(raw_expected), obtained=r,
                certainty=self.certainty_factor, attention=self.attention_factor))

    def _finish_episode(self):
        if self.intention is not None and not self.intention.terminal:
            self.intention.status = IntentionStatus.FAILED
            self._finalize_intention()
        self.episodes += 1
        self.episode_rewards.append(self.episode_reward)
        self.episode_losses.append(reward_loss(self.baseline.level, self.episode_reward))
        self.baseline = update_baseline(self.baseline, self.episode_reward)
        ev = self_evaluate(self.self_model, self.episode_rewards, t=self.t,
                           certainty=self.certainty_factor,
                           attention=self.attention_factor)
        if ev is not None:
            self.record(ev)
            self._trace("self_eval_fired", shortfall=ev.expected - ev.obtained)
        self.episode_reward = 0.0
        self.episode_steps = 0
        self.world.restore_consumed()
        self.s_true = self.world.state_id(self.world.start)

    def run(self, steps: int):
        for _ in range(steps):
            self.step_once()
        return self
