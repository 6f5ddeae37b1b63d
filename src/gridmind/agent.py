"""The agent loop.

Each tick runs: observe, check interrupts, pick an action (plan step,
goal suggestion + commitment, or habit), act on the world, learn from the
outcome, and wander. Action selection and goal suggestion run on the
observed state; learning runs on true states; the threat detector runs on
the observed state so the alarm can be wrong.

Every shortfall is kept as a raw loss site (``sites``); that is all a run
records, and the agent scores nothing. No site feeds back into what the
agent does, so ``harness.run`` scores the sites once under the run's
``terms``, and a matrix under those of any intervention that acts the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import rng as rngmod
from .affect import (InterruptKind, SelfState, check_interrupts, depression_gate,
                     release_depression, self_evaluate, threat_site,
                     tick_depression)
from .interventions import apply, terms
from .planning import IntentionStatus, commit, plan_site, suggest_goals
from .replay import ReplayBuffer, experiences, wandering_step
from .suffering import LossSite, SiteLog, Source, events
from .values import (ExpectationBaseline, ValueStore, curiosity_bonus,
                     epsilon_greedy, reward_loss, step_expectation, td_update,
                     update_baseline)
from .world import ACTIONS, Action, apply_schedule, observe, step


@dataclass
class TraceItem:
    t: int
    kind: str
    detail: dict = field(default_factory=dict)


class Agent:
    """One seeded run over one world copy. Owns all mutable state; the
    config is read-only."""

    def __init__(self, config, world, seed: int):
        self.config = config
        self.world = world.copy()
        self.seed = int(seed)

        self.learning = config.learning
        self.plan_params = config.planning
        # an imagined rollout plans as the agent does, as deep as the rollout
        self.rollout_search = replace(config.planning, max_depth=config.wandering.rollout_depth)
        self.wandering = config.wandering
        self.interrupts = config.interrupts
        self.self_model = config.self_model
        self.self_state = SelfState(config.self_model.standard)
        self.goal_reach = config.goal_reach
        self.p_wander, self.goal_threshold = apply(config, config.intervention)

        self.terms = terms(config, self.world.observation_confusion)

        self.store = ValueStore()
        self.baseline = ExpectationBaseline(level=config.baseline_level,
                                            adaptation_rate=config.baseline_rate)
        self.buffer = ReplayBuffer(capacity=config.buffer_capacity)
        self.sites = SiteLog()
        self.positive_wanderings = 0

        self.rng_world = rngmod.substream(seed, "world")
        self.rng_expl = rngmod.substream(seed, "exploration")
        self.rng_obs = rngmod.substream(seed, "observation")
        self.wander_gate = rngmod.FirstDraws(self.seed, "wandering", horizon=config.steps)

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
        self.trace_enabled = config.trace

    # -- bookkeeping -------------------------------------------------------

    def _trace(self, kind: str, **detail):
        if self.trace_enabled:
            self.trace.append(TraceItem(t=self.t, kind=kind, detail=detail))

    # -- intention lifecycle -------------------------------------------------

    def _finalize_intention(self):
        intention = self.intention
        self.sites.append(plan_site(intention, t=self.t))
        self._trace("intention_terminal", status=intention.status.value,
                    target=intention.goal.target)
        if intention.status is IntentionStatus.FAILED:
            self.consecutive_failed += 1
            depression_gate(self.self_model, self.self_state, self.consecutive_failed)
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
        if self.self_state.wait_remaining > 0:  # Waiting
            if self.rng_expl.random() < self.config.depression_stay_bias:
                return Action.STAY, False
            return epsilon_greedy(self.store, self.s_obs, self.learning, self.rng_expl), False
        if self.replan_cooldown > 0:
            self.replan_cooldown -= 1
        else:
            goals = suggest_goals(self.world, self.store, self.s_obs, reach=self.goal_reach,
                                  threshold=self.goal_threshold)
            intent = commit(self.world, self.s_obs, goals, self.store, self.plan_params)
            if intent is not None:
                self.intention = intent
                self._trace("commit", target=intent.goal.target,
                            plan=[int(a) for a in intent.plan])
                return intent.next_action(), True
        return epsilon_greedy(self.store, self.s_obs, self.learning, self.rng_expl), False

    # -- the loop ----------------------------------------------------------

    def step_once(self):
        t = self.t
        world = self.world

        flat = world.flat_of(self.s_true)
        apply_schedule(world, t)
        self.s_true = world.epoch * world.geometry.n + flat  # re-key after any epoch bump

        self.s_obs = observe(world, self.s_true, self.rng_obs)

        itr = check_interrupts(self, self.s_obs, self.interrupts)
        if itr is not None:
            if itr.kind is InterruptKind.THREAT:
                self.threat_interrupts += 1
                self.sites.append(threat_site(t, itr.payload["threat_level"], self.interrupts))
                self._trace("interrupt_threat", level=itr.payload["threat_level"])
            else:
                self.desire_interrupts += 1
                self._trace("interrupt_desire")
            if self.intention is not None and not self.intention.terminal:
                self.intention.abort()
                self._finalize_intention()

        tick_depression(self.self_state)

        a, from_plan = self._select_action()
        if (self.intention is not None and not self.intention.terminal
                and self.config.desire_cost > 0):
            self.sites.append(LossSite(t, Source.DESIRE_COST, self.config.desire_cost, 0.0))

        s = self.s_true
        s_next, r, consumed = step(world, s, a, self.rng_world)
        self.episode_reward += r
        self.obtained_total += r
        self.episode_steps += 1
        if r > 0:
            release_depression(self.self_state)

        self._learn(s, a, r, s_next, consumed)
        self.s_true = s_next

        if from_plan and self.intention is not None:
            self.intention.advance(world.cell_of(s_next), s_next, r)
            if self.intention.terminal:
                self._finalize_intention()

        for site in wandering_step(self, t):
            self.sites.append(site)
            self._trace("wander_negative", source=site.source.value)

        if consumed is not None or self.episode_steps >= self.config.episode_step_limit:
            self._finish_episode()

        self.t += 1

    def _learn(self, s, a, r, s_next, consumed):
        store = self.store
        raw_expected = step_expectation(store, s, s_next, consumed is not None,
                                        self.learning.disc)
        if consumed is not None:
            magnitude = self.world.objects[consumed].magnitude
            tick = experiences(s, a, r - magnitude, s_next, consumed=magnitude)
        else:
            tick = experiences(s, a, r, s_next)

        bonus = (curiosity_bonus(store, s, a, self.learning)
                 if self.learning.curiosity_kappa > 0 else 0.0)
        for i, exp in enumerate(tick):
            self.buffer.append(exp)
            if i == 0 and bonus:
                exp = replace(exp, r=exp.r + bonus)
            td_update(store, exp, self.learning)

        loss = raw_expected - r
        self._trace("step", action=int(a), raw_expected=raw_expected, obtained=r,
                    loss=max(0.0, loss))
        if loss > 0.0:
            self.sites.append(LossSite(self.t, Source.STEP_LOSS, raw_expected, r))

    def _finish_episode(self):
        if self.intention is not None and not self.intention.terminal:
            self.intention.status = IntentionStatus.FAILED
            self._finalize_intention()
        self.episodes += 1
        self.episode_rewards.append(self.episode_reward)
        self.episode_losses.append(reward_loss(self.baseline.level, self.episode_reward))
        self.baseline = update_baseline(self.baseline, self.episode_reward)
        site = self_evaluate(self.self_model, self.self_state, self.episode_rewards, t=self.t)
        if site is not None:
            self.sites.append(site)
            if self.trace_enabled:
                for ev in events((site,), self.terms):
                    if ev.source is Source.SELF_EVAL:
                        self._trace("self_eval_fired", shortfall=ev.expected - ev.obtained)
        self.episode_reward = 0.0
        self.episode_steps = 0
        self.world.restore_consumed()
        self.s_true = self.world.state_id(self.world.start)

    def run(self, steps: int):
        for _ in range(steps):
            self.step_once()
        return self
