import csv
import io
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scored, typed
from gridmind import suffering
from gridmind.harness import EVENT_COLUMNS, ledger_totals, write_events
from gridmind.suffering import (DEFAULT_TIMESCALE_WEIGHTS, TIMESCALE, FrustrationEvent,
                                Ledger, LedgerError, LossSite, SiteLog, Source, Terms,
                                Timescale, certainty_of, evaluate, events, make_event,
                                rescore)


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


def test_nan_attention_rejected():
    with pytest.raises(LedgerError):
        evaluate(5, 0, 1, math.nan, 1)


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
    replays = [make_event(t, Source.REPLAYED, Timescale.STEP, 2, 0, 1, 1) for t in (1, 2, 3)]
    for ev in [base, *replays]:
        led.record(ev)
    assert led.total == 4 * base.frustration
    # count factor: 1 real + 3 simulated perceptions of the same loss
    assert sum(ev.count for ev in [base, *replays]) == 4


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


def test_weighted_total_folds_left_to_right():
    """1e16 + 1.0 rounds back to 1e16, so a left fold gives 0.0 on every
    Python; from 3.12 on, the builtin sum() compensates and gives 1.0."""
    led = Ledger()
    led.by_timescale = {Timescale.STEP: 1e16, Timescale.PLAN: 0.5,
                        Timescale.SELF_EVAL: -2.5e15}
    assert led.weighted_total() == 0.0


# -- re-scoring is monotone in every equation term ----------------------------------

SITE_SOURCES = [s for s in Source if s is not Source.META_AVERSION]  # a child, never a site


def test_a_site_scores_on_its_sources_timescale():
    """Plan and self-evaluation losses have their own timescales, every other
    source is a step loss, and a MetaAversion child takes its parent's."""
    assert sorted(TIMESCALE, key=SITE_SOURCES.index) == SITE_SOURCES
    want = {Source.PLAN_LOSS: Timescale.PLAN, Source.SELF_EVAL: Timescale.SELF_EVAL}
    for source in SITE_SOURCES:
        evs = events((LossSite(3, source, 2.0, 0.0),), Terms(meta_aversion=True))
        assert [(ev.source, ev.timescale) for ev in evs] == [
            (source, want.get(source, Timescale.STEP)),
            (Source.META_AVERSION, want.get(source, Timescale.STEP))]


@st.composite
def loss_sites(draw, values=st.floats(-10, 10)):
    n = draw(st.integers(0, 30))
    sites = []
    for t in range(n):
        source = draw(st.sampled_from(SITE_SOURCES))
        sites.append(LossSite(t, source, draw(values), draw(values)))
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
    assert [math.copysign(1.0, obtained) for *_, obtained in back] == [
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


# -- a ledger scored in columns equals the per-event fold, bit for bit --------------


def folded(sites, terms: Terms) -> Ledger:
    """The ledger ``Ledger.record`` folds from the scalar reference events,
    one event at a time: the reference the column sums of ``rescore`` must
    equal bit for bit."""
    ledger = Ledger()
    for event in scored(sites, terms):
        ledger.record(event)
    return ledger


def site_log(sites) -> SiteLog:
    log = SiteLog()
    for site in sites:
        log.append(site)
    return log


def assert_bit_identical(sites, terms: Terms):
    """Column totals equal the fold's by ``repr``, and are plain floats: under
    numpy 2 the repr of an np.float64 reads ``np.float64(...)``."""
    want = repr(ledger_totals(folded(sites, terms)))
    totals = ledger_totals(rescore(site_log(sites), terms))
    assert repr(totals) == want
    assert repr(ledger_totals(rescore(list(sites), terms))) == want  # any iterable of sites
    values = [totals["total"], totals["weighted_total"],
              *totals["by_source"].values(), *totals["by_timescale"].values()]
    assert len(values) == 2 + len(Source) + len(Timescale)
    assert all(type(v) is float for v in values)


signed = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-10, 10)
signed_unit = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
any_terms = st.builds(Terms, expectation_scale=signed_unit, certainty=signed_unit,
                      attention=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 4.0)
                      | st.integers(0, 4),
                      realness=signed_unit, standard_scale=signed_unit,
                      meta_aversion_scale=signed_unit | st.floats(0.0, 4.0))


@pytest.mark.guard
@settings(max_examples=400, deadline=None)
@given(sites=loss_sites(signed), terms=any_terms, meta_aversion=st.booleans())
def test_column_totals_bit_identical_to_event_fold(sites, terms, meta_aversion):
    assert_bit_identical(sites, replace(terms, meta_aversion=meta_aversion))


S = Source

EDGE_CASES = pytest.mark.parametrize("sites, terms", [
    ([], Terms(meta_aversion=True)),
    ([LossSite(0, S.STEP_LOSS, 0.0, -0.0), LossSite(1, S.REPLAYED, -0.0, 0.0),
      LossSite(2, S.SELF_EVAL, -0.0, -1.0)], Terms(meta_aversion=True)),
    ([LossSite(0, S.STEP_LOSS, 2.0, 1.0), LossSite(1, S.PLAN_LOSS, 3.0, 0.0)],
     Terms(certainty=-0.0, meta_aversion=True)),
    ([LossSite(0, S.IMAGINED, 2.0, 1.0), LossSite(1, S.DESIRE_COST, 1.0, 0.0)],
     Terms(attention=-0.0, meta_aversion=True, meta_aversion_scale=-0.0)),
    ([LossSite(t, S.SELF_EVAL, 2.0, -1.0) for t in range(3)], Terms(standard_scale=0.0)),
    ([LossSite(0, S.SELF_EVAL, -2.0, -3.0), LossSite(1, S.SELF_EVAL, -2.0, -1.5),
      LossSite(2, S.SELF_EVAL, -0.5, -0.75)], Terms(standard_scale=0.5, meta_aversion=True)),
    ([LossSite(0, S.STEP_LOSS, -1.0, -3.0), LossSite(1, S.PLAN_LOSS, -0.5, -2.0),
      LossSite(2, S.THREAT_INTERNAL, 1.0, 0.25), LossSite(3, S.REPLAYED, -1.0, -1.5)],
     Terms(expectation_scale=0.5, realness=0.25, meta_aversion=True)),
    ([LossSite(t, S.STEP_LOSS, 0.1, 0.0) for t in range(50)]
     + [LossSite(50, S.STEP_LOSS, 1e16, 0.0), LossSite(51, S.STEP_LOSS, 1.0, 0.0)],
     Terms(certainty=0.3, meta_aversion=True, meta_aversion_scale=0.7)),
    ([LossSite(0, S.STEP_LOSS, 2.0, 0.5), LossSite(1, S.REPLAYED, 1.0, 0.0),
      LossSite(2, S.SELF_EVAL, 1.0, 0.0), LossSite(3, S.THREAT_INTERNAL, 0.5, 0.0)],
     Terms(attention=2, realness=0.5, meta_aversion=True)),
], ids=["empty", "signed-zero-sites", "signed-zero-certainty", "signed-zero-attention",
        "standard-scale-zero", "negative-standards", "negative-expected-costs",
        "order-sensitive-sums", "integer-attention"])


@pytest.mark.guard
@EDGE_CASES
def test_column_totals_edge_cases(sites, terms):
    assert_bit_identical(sites, terms)
    assert_bit_identical(sites, replace(terms, meta_aversion=not terms.meta_aversion))


def forced(**changes) -> Terms:
    """Terms with values their declared ranges refuse, forced past the check."""
    terms = Terms()
    for name, value in changes.items():
        object.__setattr__(terms, name, value)
    return terms


@pytest.mark.parametrize("changes", [
    {"certainty": 1.5}, {"certainty": -0.1}, {"certainty": math.nan},
    {"attention": -1.0}, {"attention": math.nan}, {"realness": -0.5}])
def test_rescore_checks_its_terms_once(changes):
    sites = [LossSite(0, Source.STEP_LOSS, 2.0, 0.0), LossSite(1, Source.REPLAYED, 2.0, 0.0)]
    with pytest.raises(LedgerError):
        folded(sites, forced(**changes))
    with pytest.raises(LedgerError):
        rescore(site_log(sites), forced(**changes))
    with pytest.raises(LedgerError):  # checked per Terms, so with no event as well
        rescore(SiteLog(), forced(**changes))


def test_a_nan_frustration_is_refused_as_the_fold_refuses_it():
    """A shortfall that overflows to inf times a zero certainty is NaN, which
    ``Ledger.record``'s re-check never equals."""
    sites = [LossSite(0, Source.STEP_LOSS, 1e308, -1e308)]
    with pytest.raises(LedgerError):
        folded(sites, Terms(certainty=0.0))
    with pytest.raises(LedgerError):
        rescore(site_log(sites), Terms(certainty=0.0))


def test_rescore_leaves_its_log_appendable():
    """No column view of the log's buffers outlives the call: an array that
    exports its buffer cannot grow."""
    log = site_log([LossSite(0, Source.STEP_LOSS, 2.0, 0.0)])
    rescore(log, Terms())
    log.append(LossSite(1, Source.PLAN_LOSS, 3.0, 0.0))
    assert rescore(log, Terms()).total == 5.0


# -- the events read from the columns equal the scalar reference, field by field -----


def rendered(rows) -> str:
    """Rows as ``csv`` writes them to a file."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def written(write, *args) -> str:
    """What ``write(path, *args)`` writes to the file at ``path``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write(path, *args)
        return path.read_bytes().decode()


def rendered_events(run_id: str, sites, terms: Terms) -> str:
    """events.csv as ``csv`` writes the reference events' rows."""
    return rendered([EVENT_COLUMNS, *((run_id, ev.t, ev.source.value, ev.timescale.value,
                                       *ev[3:]) for ev in scored(sites, terms))])


def assert_same_events(sites, terms: Terms, run_id="r"):
    """``events`` equals the scalar reference field by field, types and signed
    zeros included: ``repr`` tells ``-0.0`` from ``0.0`` and ``2`` from ``2.0``.
    events.csv, written from the same slots, holds the bytes ``csv`` writes
    of the reference events' rows."""
    reference = scored(site_log(sites), terms)
    want = repr(typed(reference))
    assert repr(typed(events(site_log(sites), terms))) == want
    assert repr(typed(events(list(sites), terms))) == want  # any iterable of sites
    assert written(write_events, run_id, site_log(sites), terms) == rendered_events(
        run_id, sites, terms)


@pytest.mark.guard
@settings(max_examples=400, deadline=None)
@given(sites=loss_sites(signed), terms=any_terms, meta_aversion=st.booleans())
def test_column_events_equal_the_scalar_reference(sites, terms, meta_aversion):
    assert_same_events(sites, replace(terms, meta_aversion=meta_aversion))


@pytest.mark.guard
@EDGE_CASES
def test_column_events_edge_cases(sites, terms):
    assert_same_events(sites, terms)
    assert_same_events(sites, replace(terms, meta_aversion=not terms.meta_aversion))


# -- sums carry across the blocks of a column pass ----------------------------------


def edge_sites(n: int, source=S.STEP_LOSS) -> list:
    """Sites whose sums change if a block's sum is added as a whole: the
    first is 1e16, and adding 1.0 to 1e16 rounds back to it, one site at a
    time, while adding 2.0 or more does not."""
    return [LossSite(t, source, 1e16 if t == 0 else 1.0, 0.0) for t in range(n)]


@pytest.mark.guard
@pytest.mark.parametrize("source", [S.STEP_LOSS, S.PLAN_LOSS, S.REPLAYED, S.SELF_EVAL])
@pytest.mark.parametrize("block", [1, 2, 5])
def test_blocks_carry_each_sum_across_their_edges(monkeypatch, block, source):
    monkeypatch.setattr(suffering, "BLOCK", block)
    sites = edge_sites(1 + 2 * block + 3, source)  # past two block edges
    for terms in (Terms(), Terms(meta_aversion=True, meta_aversion_scale=1.0)):
        assert_bit_identical(sites, terms)
        assert_same_events(sites, terms)
    assert rescore(sites, Terms()).total == folded(sites, Terms()).total == 1e16


@pytest.mark.guard
def test_a_log_longer_than_two_blocks_scores_as_the_reference():
    rng = np.random.default_rng(7)
    n = 2 * suffering.BLOCK + 3
    sources = rng.choice(len(SITE_SOURCES), n)
    values = rng.normal(0.0, 2.0, (n, 2))
    sites = edge_sites(1) + [LossSite(t, SITE_SOURCES[k], e, o) for t, k, (e, o)
                             in zip(range(1, n), sources.tolist(), values.tolist())]
    terms = Terms(expectation_scale=0.7, certainty=0.9, realness=0.5, standard_scale=0.8,
                  meta_aversion=True)
    assert_bit_identical(sites, terms)
    assert_same_events(sites, terms)

