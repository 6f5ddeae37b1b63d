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
equation ``Terms`` into event slots, two a site: its event, then its
MetaAversion child. ``rescore`` sums the slots into a ``Ledger`` with
``np.add.at``, in slot order; ``fired`` yields the fired slots in
columns, which ``events`` reads as events and ``events.csv`` is written
from.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import reduce
from enum import Enum
from itertools import repeat
from operator import add
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

    def weighted_total(self) -> float:  # a left fold: from Python 3.12 on, sum() compensates
        return reduce(add, (DEFAULT_TIMESCALE_WEIGHTS[ts] * v
                            for ts, v in self.by_timescale.items()), 0.0)


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
_CODE = {source: code for code, source in enumerate(_SOURCES)}


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
        self.source.append(_CODE[source])
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
_TIMESCALE_CODE = np.array([_TIMESCALES.index(TIMESCALE[s]) if s in TIMESCALE
                            else len(_TIMESCALES) for s in _SOURCES], dtype=np.uint8)

# The names that events.csv writes, by source and by timescale code.
NAMES = (tuple(s.value for s in _SOURCES), tuple(ts.value for ts in _TIMESCALES))

# Sites scored at once: a long run's columns stay small, and numpy's
# per-call cost is spread over many sites.
BLOCK = 8192


class _Block(NamedTuple):
    """A block's event slots, two a site: its event, then its MetaAversion
    child; ``FrustrationEvent``'s fields but certainty, attention and count."""
    fires: np.ndarray          # the slots that hold an event
    t: np.ndarray
    source: np.ndarray         # source codes; a child's is _META
    timescale: np.ndarray      # timescale codes; a child's is its parent's
    expected: np.ndarray       # a site's expectation scaled by the terms
    obtained: np.ndarray
    frustration: np.ndarray    # 0.0 in a slot that holds no event


def _site_log(sites) -> SiteLog:
    """``sites`` as a SiteLog: a copy when they are another iterable."""
    if isinstance(sites, SiteLog):
        return sites
    log = SiteLog()
    for site in sites:
        log.append(site)
    return log


def factors(terms: Terms) -> tuple:
    """Each source code's certainty and attention, checked once as ``evaluate``
    checks an event's: the terms' own (an int stays an int), but attention
    times realness for a wander source, and certainty 1.0 for a child."""
    wander = terms.attention * terms.realness
    if not 0.0 <= terms.certainty <= 1.0:
        raise LedgerError(f"certainty {terms.certainty} outside [0, 1]")
    for attention in (terms.attention, wander):
        if not attention >= 0:
            raise LedgerError(f"attention {attention} must be >= 0")
    return (tuple(1.0 if s is Source.META_AVERSION else terms.certainty for s in _SOURCES),
            tuple(wander if s in _WANDER else terms.attention for s in _SOURCES))


def _slots(n: int, parent, child, dtype=np.float64) -> np.ndarray:
    """2n slots: each site's ``parent`` value, then its ``child`` value."""
    slots = np.empty((n, 2), dtype)
    slots[:, 0] = parent
    slots[:, 1] = child
    return slots.ravel()


def _blocks(log: SiteLog, terms: Terms):
    """The event slots of ``log`` under ``terms``, ``BLOCK`` sites at a time.
    A site's slot fires unless it is a SelfEval site whose scaled standard
    is zero or does not fall short; its child's, when MetaAversion is on
    and the event hurt. Each frustration takes the equation's factors in
    its order, so it equals ``evaluate``'s bit for bit. Each block reads a
    copy of the log's columns, so the log stays appendable."""
    attention_of = np.array(factors(terms)[1], dtype=float)
    for lo in range(0, len(log), BLOCK):
        hi = lo + BLOCK
        t = np.frombuffer(log.t[lo:hi], dtype=np.int64)
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
            frustration = np.where(fires, np.where(shortfall > 0, shortfall, 0.0)
                                   * terms.certainty * attention_of[source], 0.0)
            # A child's certainty 1.0 and obtained 0.0 leave its terms bit-unchanged.
            child_expected = terms.meta_aversion_scale * frustration
            has_child = (frustration > 0) & terms.meta_aversion
            child = np.where(has_child, np.where(child_expected > 0, child_expected, 0.0)
                             * terms.attention, 0.0)
        n = len(t)
        yield _Block(_slots(n, fires, has_child, bool), t.repeat(2),
                     _slots(n, source, _META, np.uint8), _TIMESCALE_CODE[source].repeat(2),
                     _slots(n, expected, child_expected), _slots(n, obtained, 0.0),
                     _slots(n, frustration, child))


def fired(sites, terms: Terms):
    """The fired slots of ``sites`` under ``terms``, a block at a time: the
    columns t, source code, timescale code, expected, obtained and
    frustration, as numpy arrays. A slot's certainty and attention are its
    source code's in ``factors(terms)``."""
    for block in _blocks(_site_log(sites), terms):
        yield tuple(column[block.fires] for column in block[1:])


def events(sites, terms: Terms):
    """The events a run with these sites ``(t, source, expected, obtained)``
    records under ``terms``, in order: a ``FrustrationEvent`` a fired slot.
    Certainty and attention are the terms' own values."""
    certainty, attention = factors(terms)
    for t, source, timescale, expected, obtained, frustration in fired(sites, terms):
        codes = source.tolist()
        yield from map(FrustrationEvent._make, zip(
            t.tolist(), map(_SOURCES.__getitem__, codes),
            map(_TIMESCALES.__getitem__, timescale.tolist()), expected.tolist(),
            obtained.tolist(), map(certainty.__getitem__, codes),
            map(attention.__getitem__, codes), repeat(1), frustration.tolist()))


def rescore(sites, terms: Terms) -> Ledger:
    """The ledger a run with these sites records under ``terms``: the sums
    of ``events(sites, terms)``, bit for bit. ``np.add.at`` adds the slots
    one at a time in index order, as ``Ledger.record``'s ``+=`` does, and
    each sum carries across blocks from +0.0, to which a -0.0 frustration
    or a slot with no event (0.0) adds no bit."""
    by_source = np.zeros(len(_SOURCES))
    by_timescale = np.zeros(len(_TIMESCALES))
    total = np.zeros(1)
    with np.errstate(over="ignore"):  # a sum past the largest float reads inf
        for block in _blocks(_site_log(sites), terms):
            np.add.at(by_source, block.source, block.frustration)
            np.add.at(by_timescale, block.timescale, block.frustration)
            np.add.at(total, np.zeros(len(block.t), np.intp), block.frustration)
    if math.isnan(total[0]):  # an event's frustration is NaN, which no check equals
        raise LedgerError("an event's frustration is not a number")
    ledger = Ledger()
    ledger.by_source = dict(zip(_SOURCES, by_source.tolist()))
    ledger.by_timescale = dict(zip(_TIMESCALES, by_timescale.tolist()))
    ledger.total = total.item()
    return ledger
