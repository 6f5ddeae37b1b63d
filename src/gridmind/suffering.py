"""The frustration ledger.

Every scored event applies the same multiplicative rule:

    frustration = max(0, expected - obtained) * certainty * attention * count

Any factor at zero annihilates the event; certainty lives in [0, 1];
count records how many times the underlying loss was perceived or
simulated. Events are append-only and the ledger keeps running sums per
source and per timescale.

The agent records each raw shortfall once, as a ``LossSite``: what was
expected before any intervention scaled it, and what was obtained. One
function, ``score``, turns a site into events under a set of equation
``Terms``. The live run scores its sites as they happen; a run under
other terms that would act the same is scored from the same sites.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


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


class FrustrationEvent(NamedTuple):
    """One scored event (a tuple: cheap to build and small to keep)."""
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
    return FrustrationEvent(t, source, timescale, expected, obtained, certainty, attention,
                            count, evaluate(expected, obtained, certainty, attention, count))


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


class LossSite(NamedTuple):
    """One raw shortfall, before any equation term is applied.

    ``expected`` is the unscaled expectation; for a SelfEval site it is the
    unscaled standard and ``obtained`` the window mean, recorded at every
    evaluation with a full window, since a scaled standard can fall short
    where the unscaled one did not.
    """
    t: int
    source: Source
    timescale: Timescale
    expected: float
    obtained: float


_SOURCES = tuple(Source)
_TIMESCALES = tuple(Timescale)


class SiteLog:
    """A run's loss sites in compact columns: tick, source and timescale
    codes, expected and obtained, 26 bytes a site. Iteration reads back the
    same LossSites, in order."""

    def __init__(self):
        self.t = array("q")
        self.source = array("B")
        self.timescale = array("B")
        self.expected = array("d")
        self.obtained = array("d")

    def append(self, site: LossSite):
        t, source, timescale, expected, obtained = site
        self.t.append(t)
        self.source.append(_SOURCES.index(source))
        self.timescale.append(_TIMESCALES.index(timescale))
        self.expected.append(expected)
        self.obtained.append(obtained)

    def __len__(self):
        return len(self.t)

    def __iter__(self):
        for t, source, timescale, expected, obtained in zip(
                self.t, self.source, self.timescale, self.expected, self.obtained):
            yield LossSite(t, _SOURCES[source], _TIMESCALES[timescale], expected, obtained)


@dataclass(frozen=True)
class Terms:
    """The equation terms a run scores its loss sites with."""
    expectation_scale: float = 1.0
    certainty: float = 1.0
    attention: float = 1.0
    realness: float = 1.0            # attention multiplier of wander events
    standard_scale: float = 1.0
    meta_aversion: bool = False      # already gated off by acceptance
    meta_aversion_scale: float = 0.5


# Sources whose expectation the expectation scale lowers; threat and desire
# costs are charges, not anticipations, and SelfEval has its own standard.
_ANTICIPATED = frozenset({Source.STEP_LOSS, Source.PLAN_LOSS,
                          Source.REPLAYED, Source.IMAGINED})
_WANDER = frozenset({Source.REPLAYED, Source.IMAGINED})


def score(site: LossSite, terms: Terms) -> list:
    """The 0-2 events a site yields under ``terms``: the event itself (a
    SelfEval site only when the scaled standard falls short), then its
    MetaAversion child when that stream is on and the event hurt."""
    expected = site.expected
    if site.source is Source.SELF_EVAL:
        expected = expected * terms.standard_scale
        if expected == 0.0 or expected - site.obtained <= 0:
            return []
    elif site.source in _ANTICIPATED and expected > 0:
        # Lowering scales positive expectations only; scaling an expected
        # cost toward zero would raise it.
        expected = terms.expectation_scale * expected
    attention = terms.attention
    if site.source in _WANDER:
        attention = attention * terms.realness
    event = make_event(t=site.t, source=site.source, timescale=site.timescale,
                       expected=expected, obtained=site.obtained,
                       certainty=terms.certainty, attention=attention)
    if not (terms.meta_aversion and event.frustration > 0):
        return [event]
    return [event, make_event(
        t=site.t, source=Source.META_AVERSION, timescale=site.timescale,
        expected=terms.meta_aversion_scale * event.frustration, obtained=0.0,
        certainty=1.0, attention=terms.attention)]


def rescore(sites, terms: Terms) -> Ledger:
    """The ledger a run with these sites records under ``terms``."""
    ledger = Ledger()
    for site in sites:
        for event in score(site, terms):
            ledger.record(event)
    return ledger
