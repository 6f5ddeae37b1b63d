"""The frustration ledger.

Every scored event applies the same multiplicative rule:

    frustration = max(0, expected - obtained) * certainty * attention * count

Any factor at zero annihilates the event; certainty lives in [0, 1];
count records how many times the underlying loss was perceived or
simulated. A ledger keeps only sums per source and per timescale. A
source's events all fall on one timescale (``TIMESCALE``).

A run keeps only its raw shortfalls, each once, as a ``LossSite``: its
source, what was expected before any intervention scaled it, and what was
obtained.
One function, ``score``, turns a site into events under a set of equation
``Terms``, and ``events`` scores a run's sites in order, for the rows of
``events.csv``. ``rescore`` scores a ledger of the run, under its own terms
or another intervention's, in columns: one numpy pass over the ``SiteLog``
applies ``score``'s rules to every site, and each sum is added in event
order, so it equals the fold of ``events`` through ``Ledger.record`` bit
for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Annotated, NamedTuple

import numpy as np

from .inputs import Range, check


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


# The timescale of each source's events; a MetaAversion child takes its
# parent's.
TIMESCALE = {
    Source.STEP_LOSS: Timescale.STEP, Source.THREAT_INTERNAL: Timescale.STEP,
    Source.REPLAYED: Timescale.STEP, Source.IMAGINED: Timescale.STEP,
    Source.DESIRE_COST: Timescale.STEP, Source.PLAN_LOSS: Timescale.PLAN,
    Source.SELF_EVAL: Timescale.SELF_EVAL,
}

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
    if not attention >= 0:
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
    """Per-source and per-timescale sums of a run's events: folded one event
    at a time by ``record``, or computed in columns by ``rescore``."""

    def __init__(self):
        self.by_source = {s: 0.0 for s in Source}
        self.by_timescale = {ts: 0.0 for ts in Timescale}
        self.total = 0.0

    def record(self, event: FrustrationEvent):
        check = evaluate(event.expected, event.obtained, event.certainty,
                         event.attention, event.count)
        if event.frustration != check:
            raise LedgerError(
                f"event at t={event.t} carries frustration {event.frustration!r}, "
                f"equation gives {check!r}")
        self.by_source[event.source] += event.frustration
        self.by_timescale[event.timescale] += event.frustration
        self.total += event.frustration

    def weighted_total(self) -> float:
        return sum(DEFAULT_TIMESCALE_WEIGHTS[ts] * v for ts, v in self.by_timescale.items())


class LossSite(NamedTuple):
    """One raw shortfall, before any equation term is applied.

    ``expected`` is the unscaled expectation; for a SelfEval site it is the
    unscaled standard and ``obtained`` the window mean, recorded at every
    evaluation with a full window, since a scaled standard can fall short
    where the unscaled one did not.
    """
    t: int
    source: Source
    expected: float
    obtained: float


_SOURCES = tuple(Source)


class SiteLog:
    """A run's loss sites in compact columns: tick, source code, expected
    and obtained, 25 bytes a site. Iteration reads back the same sites, in
    order, as plain ``(t, source, expected, obtained)`` tuples."""

    def __init__(self):
        self.t = array("q")
        self.source = array("B")
        self.expected = array("d")
        self.obtained = array("d")

    def append(self, site: LossSite):
        t, source, expected, obtained = site
        self.t.append(t)
        self.source.append(_SOURCES.index(source))
        self.expected.append(expected)
        self.obtained.append(obtained)

    def __len__(self):
        return len(self.t)

    def __iter__(self):
        return zip(self.t, map(_SOURCES.__getitem__, self.source), self.expected, self.obtained)


@dataclass(frozen=True)
class Terms:
    """The equation terms a run scores its loss sites with."""
    expectation_scale: Annotated[float, Range(0, 1)] = 1.0
    certainty: Annotated[float, Range(0, 1)] = 1.0
    attention: Annotated[float, Range(0)] = 1.0
    realness: Annotated[float, Range(0, 1)] = 1.0  # attention multiplier of wander events
    standard_scale: Annotated[float, Range(0, 1)] = 1.0
    meta_aversion: bool = False      # already gated off by acceptance
    meta_aversion_scale: Annotated[float, Range(0)] = 0.5

    def __post_init__(self):
        check(self)


# Sources whose expectation the expectation scale lowers; threat and desire
# costs are charges, not anticipations, and SelfEval has its own standard.
_ANTICIPATED = frozenset({Source.STEP_LOSS, Source.PLAN_LOSS,
                          Source.REPLAYED, Source.IMAGINED})
_WANDER = frozenset({Source.REPLAYED, Source.IMAGINED})


def score(site, terms: Terms) -> list:
    """The 0-2 events a site ``(t, source, expected, obtained)`` yields
    under ``terms``: the event itself (a SelfEval site only when the scaled
    standard falls short), then its MetaAversion child when that stream is
    on and the event hurt."""
    t, source, expected, obtained = site
    if source is Source.SELF_EVAL:
        expected = expected * terms.standard_scale
        if expected == 0.0 or expected - obtained <= 0:
            return []
    elif source in _ANTICIPATED and expected > 0:
        # Lowering scales positive expectations only; scaling an expected
        # cost toward zero would raise it.
        expected = terms.expectation_scale * expected
    attention = terms.attention
    if source in _WANDER:
        attention = attention * terms.realness
    timescale = TIMESCALE[source]
    event = make_event(t=t, source=source, timescale=timescale,
                       expected=expected, obtained=obtained,
                       certainty=terms.certainty, attention=attention)
    if not (terms.meta_aversion and event.frustration > 0):
        return [event]
    return [event, make_event(
        t=t, source=Source.META_AVERSION, timescale=timescale,
        expected=terms.meta_aversion_scale * event.frustration, obtained=0.0,
        certainty=1.0, attention=terms.attention)]


def events(sites, terms: Terms):
    """The events a run with these sites records under ``terms``, in order."""
    for site in sites:
        yield from score(site, terms)


# ``score``'s rules as tables indexed by a SiteLog source code. A MetaAversion
# child takes its parent's timescale; no site has that source, so its code
# maps to no timescale.
_TIMESCALES = tuple(Timescale)
_META = _SOURCES.index(Source.META_AVERSION)
_SELF_EVAL = _SOURCES.index(Source.SELF_EVAL)
_IS_ANTICIPATED = np.array([s in _ANTICIPATED for s in _SOURCES])
_IS_WANDER = np.array([s in _WANDER for s in _SOURCES])
_TIMESCALE_CODE = np.array([_TIMESCALES.index(TIMESCALE[s]) if s in TIMESCALE
                            else len(_TIMESCALES) for s in _SOURCES])


def _fold(x) -> float:
    """``0.0 + x[0] + x[1] + ...`` added in order, as ``Ledger.record``'s
    ``+=`` adds: ``np.cumsum`` adds in sequence where ``np.sum`` adds in
    pairs. The leading 0.0 turns a -0.0 sum into 0.0, as ``+=`` from 0.0
    does, and lets a zero-event sum read 0.0."""
    return np.cumsum(np.concatenate(([0.0], x)))[-1].item()


def _column_sums(log: SiteLog, terms: Terms) -> tuple:
    """(per-source sums, per-timescale sums, total) of the events ``events``
    yields, by code, computed in columns. A site with no event scores 0.0,
    and so does a parent with no MetaAversion child; adding 0.0 to a sum
    that started from 0.0 changes no bit."""
    source = np.frombuffer(log.source, dtype=np.uint8)
    expected = np.frombuffer(log.expected)
    obtained = np.frombuffer(log.obtained)
    self_eval = source == _SELF_EVAL
    expected = np.where(self_eval, expected * terms.standard_scale, np.where(
        _IS_ANTICIPATED[source] & (expected > 0), terms.expectation_scale * expected, expected))
    shortfall = expected - obtained
    fires = ~self_eval | ((expected != 0.0) & ~(shortfall <= 0))
    attention = np.where(_IS_WANDER[source], terms.attention * terms.realness, terms.attention)
    frustration = np.where(fires, np.where(shortfall > 0, shortfall, 0.0)
                           * terms.certainty * attention, 0.0)
    child = np.zeros_like(frustration)
    if terms.meta_aversion:
        # Certainty 1.0 and obtained 0.0 leave a child's terms bit-unchanged.
        child_expected = terms.meta_aversion_scale * frustration
        child = np.where(child_expected > 0, child_expected * terms.attention, 0.0)
    stream = np.column_stack((frustration, child)).ravel()  # each event, then its child
    codes = np.column_stack((source, np.full_like(source, _META))).ravel()
    timescales = _TIMESCALE_CODE[source].repeat(2)
    return ([_fold(stream[codes == k]) for k in range(len(_SOURCES))],
            [_fold(stream[timescales == k]) for k in range(len(_TIMESCALES))],
            _fold(stream))


def rescore(sites, terms: Terms) -> Ledger:
    """The ledger a run with these sites records under ``terms``: the sums
    of ``events(sites, terms)``, bit for bit, computed in columns. The terms
    are checked once, as ``evaluate`` checks each event's."""
    if not 0.0 <= terms.certainty <= 1.0:
        raise LedgerError(f"certainty {terms.certainty} outside [0, 1]")
    for attention in (terms.attention, terms.attention * terms.realness):
        if not attention >= 0:
            raise LedgerError(f"attention {attention} must be >= 0")
    if not isinstance(sites, SiteLog):
        log, sites = sites, SiteLog()
        for site in log:
            sites.append(site)
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic is silent
        by_source, by_timescale, total = _column_sums(sites, terms)
    if math.isnan(total):  # an event's frustration is NaN, which no check equals
        raise LedgerError("an event's frustration is not a number")
    ledger = Ledger()
    ledger.by_source = dict(zip(_SOURCES, by_source))
    ledger.by_timescale = dict(zip(_TIMESCALES, by_timescale))
    ledger.total = total
    return ledger
