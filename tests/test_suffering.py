import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.suffering import (DEFAULT_TIMESCALE_WEIGHTS, FrustrationEvent,
                                Ledger, LedgerError, LossSite, SiteLog, Source,
                                Terms, Timescale, certainty_of, evaluate,
                                make_event, rescore)


def test_worked_example_identity_multipliers():
    assert evaluate(5, 0, 1, 1, 1) == 5.0


def test_zero_certainty_annihilates():
    assert evaluate(5, 0, 0, 1, 3) == 0.0


def test_worked_example_all_factors():
    assert evaluate(5, 3, 0.5, 0.5, 4) == 2.0


def test_certainty_out_of_range_rejected():
    with pytest.raises(LedgerError):
        evaluate(5, 0, 1.2, 1, 1)
    with pytest.raises(LedgerError):
        evaluate(5, 0, -0.1, 1, 1)


def test_certainty_of_channel():
    assert certainty_of(0.0) == 1.0
    assert certainty_of(0.2) == pytest.approx(0.8)
    assert certainty_of(0.2, certainty_scale=0.0) == 0.0
    with pytest.raises(LedgerError):
        certainty_of(1.0)


factors = st.tuples(
    st.floats(-100, 100),          # expected
    st.floats(-100, 100),          # obtained
    st.floats(0, 1),               # certainty
    st.floats(0, 100),             # attention
    st.integers(1, 20),            # count
)


@given(factors)
@settings(max_examples=300)
def test_equation_nonnegative_and_zero_laws(tup):
    e, o, c, a, n = tup
    f = evaluate(e, o, c, a, n)
    assert f >= 0.0
    if c == 0.0 or a == 0.0 or e <= o:
        assert f == 0.0


def test_equation_laws_10k_tuples():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        e, o = rng.normal(scale=5, size=2)
        c = rng.random()
        a = rng.random() * 4
        n = int(rng.integers(1, 10))
        f = evaluate(e, o, c, a, n)
        assert f >= 0.0
        # zero laws
        assert evaluate(e, o, 0.0, a, n) == 0.0
        assert evaluate(e, o, c, 0.0, n) == 0.0
        assert evaluate(o, o, c, a, n) == 0.0
        if e > o and c > 0 and a > 0:
            # homogeneity in each positive factor
            lam = 1.0 + rng.random() * 3
            assert evaluate(e, o, c, lam * a, n) == pytest.approx(lam * f)
            if lam * c <= 1.0:
                assert evaluate(e, o, lam * c, a, n) == pytest.approx(lam * f)
        # monotonicity
        assert evaluate(e + 1, o, c, a, n) >= f
        assert evaluate(e, o - 1, c, a, n) >= f
        assert evaluate(e, o, min(1.0, c + 0.1), a, n) >= f
        assert evaluate(e, o, c, a + 1, n) >= f
        assert evaluate(e, o, c, a, n + 1) >= f


def test_record_and_total():
    led = Ledger()
    ev = make_event(0, Source.STEP_LOSS, Timescale.STEP, 3, 1, 1, 1)
    led.record(ev)
    assert led.total == 2.0
    assert led.by_source[Source.STEP_LOSS] == 2.0
    assert led.by_timescale[Timescale.STEP] == 2.0


def test_replay_delta_semantics():
    """Each replay of a loss adds one more unit of the base frustration,
    not a recount of the whole history."""
    led = Ledger()
    base = make_event(0, Source.STEP_LOSS, Timescale.STEP, 2, 0, 1, 1)
    led.record(base)
    for t in (1, 2, 3):
        led.record(make_event(t, Source.REPLAYED, Timescale.STEP, 2, 0, 1, 1))
    assert led.total == 4 * base.frustration
    # count factor: 1 real + 3 simulated perceptions of the same loss
    assert sum(ev.count for ev in led.events) == 4


def test_invariant_violation_rejected():
    led = Ledger()
    bad = FrustrationEvent(t=0, source=Source.STEP_LOSS, timescale=Timescale.STEP,
                           expected=3, obtained=1, certainty=1, attention=1,
                           count=1, frustration=99.0)
    with pytest.raises(LedgerError):
        led.record(bad)


def test_1000_random_events_match_fold_oracle():
    rng = np.random.default_rng(21)
    led = Ledger()
    events = []
    for i in range(1000):
        ev = make_event(i, Source.STEP_LOSS, Timescale.STEP,
                        float(rng.normal(scale=3)), float(rng.normal(scale=3)),
                        float(rng.random()), float(rng.random() * 2),
                        int(rng.integers(1, 5)))
        events.append(ev)
        led.record(ev)
    fold = 0.0
    for ev in events:
        fold += max(0.0, ev.expected - ev.obtained) * ev.certainty * ev.attention * ev.count
    assert led.total == fold


def test_totals_order_independent():
    rng = np.random.default_rng(4)
    events = [make_event(i, Source.STEP_LOSS, Timescale.STEP,
                         float(rng.normal()), float(rng.normal()),
                         float(rng.random()), 1.0)
              for i in range(200)]
    totals = []
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(len(events))
        led = Ledger()
        for i in perm:
            led.record(events[int(i)])
        totals.append(led.total)
    for t in totals[1:]:
        assert math.isclose(t, totals[0], rel_tol=1e-12)


def test_weighted_total_default_weights():
    led = Ledger()
    led.record(make_event(0, Source.STEP_LOSS, Timescale.STEP, 1, 0, 1, 1))
    led.record(make_event(1, Source.PLAN_LOSS, Timescale.PLAN, 1, 0, 1, 1))
    led.record(make_event(2, Source.SELF_EVAL, Timescale.SELF_EVAL, 1, 0, 1, 1))
    assert led.weighted_total() == 1 * 1.0 + 2 * 1.0 + 4 * 1.0
    assert DEFAULT_TIMESCALE_WEIGHTS[Timescale.PLAN] == 2.0


# -- re-scoring is monotone in every equation term ----------------------------------

_TIMESCALE_OF = {Source.PLAN_LOSS: Timescale.PLAN, Source.SELF_EVAL: Timescale.SELF_EVAL}
SITE_SOURCES = [s for s in Source if s is not Source.META_AVERSION]  # a child, never a site


@st.composite
def loss_sites(draw):
    n = draw(st.integers(0, 30))
    sites = []
    for t in range(n):
        source = draw(st.sampled_from(SITE_SOURCES))
        sites.append(LossSite(t, source, _TIMESCALE_OF.get(source, Timescale.STEP),
                              draw(st.floats(-10, 10)), draw(st.floats(-10, 10))))
    return sites


@settings(max_examples=200, deadline=None)
@given(sites=loss_sites())
def test_site_log_reads_back_the_same_sites(sites):
    log = SiteLog()
    for site in sites:
        log.append(site)
    assert len(log) == len(sites)
    back = list(log)
    assert back == sites
    assert [tuple(map(type, s)) for s in back] == [tuple(map(type, s)) for s in sites]
    assert [math.copysign(1.0, s.obtained) for s in back] == [
        math.copysign(1.0, s.obtained) for s in sites]


unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
equation_terms = st.builds(Terms, expectation_scale=unit, certainty=unit,
                           attention=st.floats(0.0, 4.0), realness=unit,
                           standard_scale=unit, meta_aversion=st.booleans(),
                           meta_aversion_scale=unit)


def assert_no_more_frustration(lower: Ledger, higher: Ledger):
    assert lower.total <= higher.total
    assert lower.weighted_total() <= higher.weighted_total()
    for source in Source:
        assert lower.by_source[source] <= higher.by_source[source]


@settings(max_examples=300, deadline=None)
@given(sites=loss_sites(), terms=equation_terms,
       knob=st.sampled_from(["expectation_scale", "certainty", "attention", "realness",
                             "standard_scale"]),
       factor=unit)
def test_rescored_total_never_rises_as_a_term_falls(sites, terms, knob, factor):
    """Lowering any equation term never raises a re-scored total. A negative
    self-standard fires only when scaled toward 0, so standard_scale is
    monotone on non-negative standards only."""
    if knob == "standard_scale":
        sites = [s for s in sites if not (s.source is Source.SELF_EVAL and s.expected < 0)]
    lowered = replace(terms, **{knob: getattr(terms, knob) * factor})
    assert_no_more_frustration(rescore(sites, lowered), rescore(sites, terms))


@settings(max_examples=200, deadline=None)
@given(sites=loss_sites(), terms=equation_terms)
def test_rescored_total_never_rises_when_meta_aversion_is_off(sites, terms):
    assert_no_more_frustration(rescore(sites, replace(terms, meta_aversion=False)),
                               rescore(sites, replace(terms, meta_aversion=True)))
