"""The frustration ledger.

Every scored event applies the same multiplicative rule:

    frustration = max(0, expected - obtained) * certainty * attention * count

Any factor at zero annihilates the event; certainty lives in [0, 1];
count records how many times the underlying loss was perceived or
simulated. Events are append-only and the ledger keeps running sums per
source and per timescale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class LedgerError(Exception):
    """An event violated the frustration-equation invariant."""


class Source(Enum):
    STEP_LOSS = "StepLoss"
    PLAN_LOSS = "PlanLoss"
    SELF_EVAL = "SelfEval"
    THREAT_INTERNAL = "ThreatInternal"
    REPLAYED = "Replayed"
    IMAGINED = "Imagined"
    # Optional knob-gated streams, off by default.
    DESIRE_COST = "DesireCost"
    META_AVERSION = "MetaAversion"


class Timescale(Enum):
    STEP = "Step"
    PLAN = "Plan"
    SELF_EVAL = "SelfEval"


DEFAULT_TIMESCALE_WEIGHTS = {
    Timescale.STEP: 1.0,
    Timescale.PLAN: 2.0,
    Timescale.SELF_EVAL: 4.0,
}


def evaluate(expected: float, obtained: float, certainty: float,
             attention: float, count: int) -> float:
    """Score one event with the frustration equation."""
    if not 0.0 <= certainty <= 1.0:
        raise LedgerError(f"certainty {certainty} outside [0, 1]")
    if attention < 0:
        raise LedgerError(f"attention {attention} must be >= 0")
    if count < 1:
        raise LedgerError(f"count {count} must be >= 1")
    return max(0.0, expected - obtained) * certainty * attention * count


def certainty_of(observation_confusion: float, certainty_scale: float = 1.0) -> float:
    """Certainty attributed to perception: 1 - confusion, times the
    intervention's certainty scale."""
    if not 0.0 <= observation_confusion < 1.0:
        raise LedgerError(f"observation_confusion {observation_confusion} outside [0, 1)")
    return (1.0 - observation_confusion) * certainty_scale


@dataclass(frozen=True)
class FrustrationEvent:
    t: int
    source: Source
    timescale: Timescale
    expected: float
    obtained: float
    certainty: float
    attention: float
    count: int
    frustration: float


def make_event(t: int, source: Source, timescale: Timescale, expected: float,
               obtained: float, certainty: float, attention: float,
               count: int = 1) -> FrustrationEvent:
    return FrustrationEvent(
        t=t, source=source, timescale=timescale, expected=expected,
        obtained=obtained, certainty=certainty, attention=attention,
        count=count, frustration=evaluate(expected, obtained, certainty, attention, count),
    )


class Ledger:
    """Append-only event log with per-source / per-timescale running sums."""

    def __init__(self):
        self.events: list[FrustrationEvent] = []
        self.by_source = {s: 0.0 for s in Source}
        self.by_timescale = {ts: 0.0 for ts in Timescale}
        self.total = 0.0

    def __len__(self):
        return len(self.events)

    def record(self, event: FrustrationEvent) -> "Ledger":
        check = evaluate(event.expected, event.obtained, event.certainty,
                         event.attention, event.count)
        if event.frustration != check:
            raise LedgerError(
                f"event at t={event.t} carries frustration {event.frustration!r}, "
                f"equation gives {check!r}")
        self.events.append(event)
        self.by_source[event.source] += event.frustration
        self.by_timescale[event.timescale] += event.frustration
        self.total += event.frustration
        return self

    def weighted_total(self, weights: dict | None = None) -> float:
        w = weights or DEFAULT_TIMESCALE_WEIGHTS
        return sum(w[ts] * v for ts, v in self.by_timescale.items())
