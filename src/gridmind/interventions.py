"""Named interventions: each maps to equation-term scalings or scheduler
knobs on an agent configuration.

Equation-term interventions (expectation, certainty, attention,
realness, self-standard, acceptance) touch frustration evaluation only,
leaving the policy fixed, so their effect is a pure monotone transform of
the ledger: ``terms`` builds them, and ``suffering.rescore`` applies them to
the loss sites of a run. The wandering override, the desire threshold and
the coupled flag change what the agent does: ``apply`` turns them into
the run's wander rate and goal threshold, which the agent runs with and
the experiment matrix groups interventions by, and the report measures
the reward consequences instead of asserting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

from .inputs import Range, check
from .suffering import Terms, certainty_of


@dataclass(frozen=True)
class InterventionConfig:
    name: str = "baseline"
    expectation_scale: Annotated[float, Range(0, 1)] = 1.0
    certainty_scale: Annotated[float, Range(0, 1)] = 1.0
    attention_scale: Annotated[float, Range(0, 1)] = 1.0
    p_wander_override: Annotated[float | None, Range(0, 1)] = None
    realness_override: Annotated[float | None, Range(0, 1)] = None
    desire_threshold_delta: Annotated[float, Range(0)] = 0.0
    self_standard_scale: Annotated[float, Range(0, 1)] = 1.0
    acceptance: bool = False
    coupled: bool = False  # when set, expectation_scale also scales desire

    def __post_init__(self):
        check(self)
        if "/" in self.name or "\0" in self.name:
            raise ValueError("name must not contain '/' or NUL: it names output files")


def apply(config, iv: InterventionConfig) -> tuple:
    """The behaviour ``iv`` gives a run of ``config`` (a harness RunConfig):
    ``(p_wander, goal_threshold)``. The only reader of the behavioural
    fields. Interventions with equal results act the same on the same base
    and seed. When coupled, the expectation scale also scales every
    anticipated value, so the threshold is divided by it, and nothing
    clears it at scale 0."""
    p_wander = config.wandering.p_wander
    if iv.p_wander_override is not None:
        p_wander = iv.p_wander_override
    threshold = config.goal_threshold + iv.desire_threshold_delta
    if iv.coupled:
        threshold = threshold / iv.expectation_scale if iv.expectation_scale else math.inf
    return p_wander, threshold


def terms(config, observation_confusion: float) -> Terms:
    """The equation terms of a run configuration and its intervention, in a
    world with this confusion rate."""
    iv = config.intervention
    realness = config.wandering.realness
    if iv.realness_override is not None:
        realness = iv.realness_override
    return Terms(
        expectation_scale=iv.expectation_scale,
        certainty=certainty_of(observation_confusion, iv.certainty_scale),
        attention=iv.attention_scale * config.attention,
        realness=realness,
        standard_scale=iv.self_standard_scale,
        meta_aversion=config.meta_aversion and not iv.acceptance,
        meta_aversion_scale=config.meta_aversion_scale)


def canonical_suite() -> list:
    """The eight named presets the experiment matrix sweeps."""
    return [
        InterventionConfig(name="baseline"),
        InterventionConfig(name="stoic_expectations", expectation_scale=0.5),
        InterventionConfig(name="skeptic", certainty_scale=0.5),
        InterventionConfig(name="meta_awareness", attention_scale=0.3),
        InterventionConfig(name="empty_mind", p_wander_override=0.0),
        InterventionConfig(name="fewer_desires", desire_threshold_delta=0.3),
        InterventionConfig(name="no_self_eval", self_standard_scale=0.0),
        InterventionConfig(name="acceptance", acceptance=True),
    ]


def by_name(name: str) -> InterventionConfig:
    for iv in canonical_suite():
        if iv.name == name:
            return iv
    raise KeyError(f"unknown intervention {name!r}")
