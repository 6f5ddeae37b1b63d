"""Named interventions: each maps to equation-term scalings or scheduler
knobs on an agent configuration.

Equation-term interventions (expectation, certainty, attention scales)
touch frustration evaluation only, leaving the policy fixed, so their
effect is a pure monotone transform of the ledger. Raising the desire
threshold is the behavioral class: it changes what the agent does, and
the report measures the reward consequences instead of asserting them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class InterventionConfig:
    name: str = "baseline"
    expectation_scale: float = 1.0
    certainty_scale: float = 1.0
    attention_scale: float = 1.0
    p_wander_override: float | None = None
    realness_override: float | None = None
    desire_threshold_delta: float = 0.0
    self_standard_scale: float = 1.0
    acceptance: bool = False
    coupled: bool = False  # when set, expectation_scale also scales desire

    def __post_init__(self):
        for field_name in ("expectation_scale", "certainty_scale",
                           "attention_scale", "self_standard_scale"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        for field_name in ("p_wander_override", "realness_override"):
            v = getattr(self, field_name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        if self.desire_threshold_delta < 0:
            raise ValueError("desire_threshold_delta must be >= 0")


def apply(config, iv: InterventionConfig):
    """Return a run configuration with the intervention folded in.

    config is a harness RunConfig; the returned copy carries the scaled
    knobs. Action selection is untouched except through the documented
    behavioral knobs (desire threshold, coupled flag, wandering overrides).
    self_standard_scale is applied at each self-evaluation, not folded in.
    """
    wandering = config.wandering
    if iv.p_wander_override is not None:
        wandering = replace(wandering, p_wander=iv.p_wander_override)
    if iv.realness_override is not None:
        wandering = replace(wandering, realness=iv.realness_override)
    return replace(
        config,
        wandering=wandering,
        goal_threshold=config.goal_threshold + iv.desire_threshold_delta,
        intervention=iv,
    )


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
