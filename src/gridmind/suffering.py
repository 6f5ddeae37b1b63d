"""The frustration ledger.

Every scored event applies the same multiplicative rule:

    frustration = max(0, expected - obtained) * certainty * attention * count

Any factor at zero annihilates the event; certainty lives in [0, 1];
count records how many times the underlying loss was perceived or
simulated. A ledger keeps only sums per source and per timescale. A
source's events all fall on one timescale (``TIMESCALE``).

A run keeps only its raw shortfalls, each once, as a ``LossSite``: its
source, what was expected before any intervention scaled it, and what was
obtained. One column pass scores a ``SiteLog`` of them under a set of
equation ``Terms``, a block of sites at a time: ``rescore`` sums the
blocks into a ``Ledger``, adding each sum in event order, and ``events``
reads the same columns back as the ``FrustrationEvent`` rows of
``events.csv``, the trace audit and the traced self-evaluation.
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


# ``evaluate``, ``make_event`` and ``Ledger.record`` apply the equation one
# event at a time. Nothing in the package calls them, since the column pass
# scores every run; the tests fold events through them as the reference the
# columns must equal, and ``bench/tracing.py`` resolves ``make_event`` and
# ``Ledger.record`` by name.
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
    """Per-source and per-timescale sums of a run's events: computed in
    columns by ``rescore``, or folded one event at a time by ``record``."""

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

# The scoring rules as tables indexed by a SiteLog source code. A
# MetaAversion child takes its parent's timescale; no site has that source,
# so its code maps to no timescale.
_TIMESCALES = tuple(Timescale)
_META = _SOURCES.index(Source.META_AVERSION)
_SELF_EVAL = _SOURCES.index(Source.SELF_EVAL)
_IS_ANTICIPATED = np.array([s in _ANTICIPATED for s in _SOURCES])
_IS_WANDER = np.array([s in _WANDER for s in _SOURCES])
_TIMESCALE_CODE = np.array([_TIMESCALES.index(TIMESCALE[s]) if s in TIMESCALE
                            else len(_TIMESCALES) for s in _SOURCES])

# Sites scored at once: a long run's columns stay small, and numpy's
# per-call cost is spread over many sites.
BLOCK = 8192


class _Block(NamedTuple):
    """The event columns of one block of sites, one entry per site."""
    t: array                   # ticks, read back as Python ints
    source: np.ndarray         # source codes
    expected: np.ndarray       # the expectation, scaled by the terms
    obtained: np.ndarray
    fires: np.ndarray          # False for a SelfEval site that does not fall short
    frustration: np.ndarray    # the event's; 0.0 where none fires
    child_expected: np.ndarray
    child: np.ndarray          # the MetaAversion child's frustration; 0.0 where none
    has_child: np.ndarray


def _site_log(sites) -> SiteLog:
    """``sites`` as a SiteLog: a copy when they are another iterable."""
    if isinstance(sites, SiteLog):
        return sites
    log = SiteLog()
    for site in sites:
        log.append(site)
    return log


def _blocks(log: SiteLog, terms: Terms):
    """The events of ``log`` under ``terms`` as columns, ``BLOCK`` sites at a
    time, in site order. A site yields its event unless it is a SelfEval
    site whose scaled standard is zero or does not fall short, then a
    MetaAversion child when that stream is on and the event hurt. Each
    frustration takes the equation's factors in its order, so every value
    equals ``evaluate``'s bit for bit (count is always 1). The terms are
    checked once, as ``evaluate`` checks each event's. Each block reads a
    copy of the log's columns, so the log stays appendable."""
    if not 0.0 <= terms.certainty <= 1.0:
        raise LedgerError(f"certainty {terms.certainty} outside [0, 1]")
    for attention in (terms.attention, terms.attention * terms.realness):
        if not attention >= 0:
            raise LedgerError(f"attention {attention} must be >= 0")
    for lo in range(0, len(log), BLOCK):
        hi = lo + BLOCK
        source = np.frombuffer(log.source[lo:hi], dtype=np.uint8)
        expected = np.frombuffer(log.expected[lo:hi])
        obtained = np.frombuffer(log.obtained[lo:hi])
        with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic is silent
            self_eval = source == _SELF_EVAL
            # Lowering scales positive expectations only; scaling an
            # expected cost toward zero would raise it.
            expected = np.where(self_eval, expected * terms.standard_scale, np.where(
                _IS_ANTICIPATED[source] & (expected > 0),
                terms.expectation_scale * expected, expected))
            shortfall = expected - obtained
            fires = ~self_eval | ((expected != 0.0) & ~(shortfall <= 0))
            attention = np.where(_IS_WANDER[source], terms.attention * terms.realness,
                                 terms.attention)
            frustration = np.where(fires, np.where(shortfall > 0, shortfall, 0.0)
                                   * terms.certainty * attention, 0.0)
            # A child's certainty 1.0 and obtained 0.0 leave its terms bit-unchanged.
            child_expected = terms.meta_aversion_scale * frustration
            has_child = (frustration > 0) & terms.meta_aversion
            child = np.where(has_child, np.where(child_expected > 0, child_expected, 0.0)
                             * terms.attention, 0.0)
        yield _Block(log.t[lo:hi], source, expected, obtained, fires, frustration,
                     child_expected, child, has_child)


def events(sites, terms: Terms):
    """The events a run with these sites ``(t, source, expected, obtained)``
    records under ``terms``, in order, read from the columns that
    ``rescore`` sums. Certainty and attention are the terms' own values."""
    attention = [terms.attention * terms.realness if s in _WANDER else terms.attention
                 for s in _SOURCES]
    for block in _blocks(_site_log(sites), terms):
        for t, code, expected, obtained, fires, frustration, child_expected, child, \
                has_child in zip(block.t, *(column.tolist() for column in block[1:])):
            if not fires:
                continue
            source = _SOURCES[code]
            timescale = TIMESCALE[source]
            yield FrustrationEvent(t, source, timescale, expected, obtained,
                                   terms.certainty, attention[code], 1, frustration)
            if has_child:
                yield FrustrationEvent(t, Source.META_AVERSION, timescale, child_expected,
                                       0.0, 1.0, terms.attention, 1, child)


def _fold(carry: float, x) -> float:
    """``carry + x[0] + x[1] + ...`` added in order, as ``Ledger.record``'s
    ``+=`` adds: ``np.cumsum`` adds in sequence where ``np.sum`` adds in
    pairs. A first carry of 0.0 turns a -0.0 sum into 0.0, as ``+=`` from
    0.0 does, and lets a zero-event sum read 0.0."""
    return np.cumsum(np.concatenate(([carry], x)))[-1].item()


def rescore(sites, terms: Terms) -> Ledger:
    """The ledger a run with these sites records under ``terms``: the sums
    of ``events(sites, terms)``, bit for bit, added block by block with
    each sum carried across blocks. A site with no event scores 0.0, and so
    does a parent with no MetaAversion child; adding 0.0 to a sum that
    started from 0.0 changes no bit."""
    by_source = [0.0] * len(_SOURCES)
    by_timescale = [0.0] * len(_TIMESCALES)
    total = 0.0
    with np.errstate(over="ignore"):  # a sum past the largest float reads inf
        for block in _blocks(_site_log(sites), terms):
            # each event, then its child
            stream = np.column_stack((block.frustration, block.child)).ravel()
            codes = np.column_stack((block.source, np.full_like(block.source, _META))).ravel()
            timescales = _TIMESCALE_CODE[block.source].repeat(2)
            by_source = [_fold(s, stream[codes == k]) for k, s in enumerate(by_source)]
            by_timescale = [_fold(s, stream[timescales == k]) for k, s in enumerate(by_timescale)]
            total = _fold(total, stream)
    if math.isnan(total):  # an event's frustration is NaN, which no check equals
        raise LedgerError("an event's frustration is not a number")
    ledger = Ledger()
    ledger.by_source = dict(zip(_SOURCES, by_source))
    ledger.by_timescale = dict(zip(_TIMESCALES, by_timescale))
    ledger.total = total
    return ledger
