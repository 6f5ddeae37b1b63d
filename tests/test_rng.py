"""Guards on the draws gridmind computes by numpy's algorithm instead of
asking numpy: the wander gate's table of first draws (``rng.first_draws``,
``rng.FirstDraws``), the Generator that table loads for a gated step
(``FirstDraws.generator``), the per-batch CDF of replay sampling
(``replay.priority_cdf`` with ``replay.sample_from``), the one batch
of bounded integers the threshold sweep draws per seed for its actions,
and the scalar ``random()`` and ``integers(n)`` that ``rng.ScalarStream``
reads from blocks of raw PCG64 output.

Every check compares with numpy itself (``default_rng`` and
``Generator.choice``), never with a copy of its algorithm, so a numpy
release that changes either one fails here rather than drifting the
outputs in silence.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmind import rng as rngmod
from gridmind.replay import priority_cdf, sample_from

WANDERING = rngmod.STREAMS["wandering"]

seeds = st.sampled_from([0, 1, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
# t = 0, the 2**32 boundary where a two-word seed's entropy outgrows the
# pool (and first_draws refuses it), and steps far past it.
starts = st.sampled_from([0, 2**32 - 3, 2**32, 2**40]) | st.integers(0, 2**34)


def numpy_gate(seed, t):
    return np.random.default_rng([seed, WANDERING, t]).random()


@pytest.mark.guard
@settings(deadline=None)
@given(seed=seeds, start=starts, count=st.integers(1, 8))
@example(seed=0, start=0, count=1)
@example(seed=2**32, start=0, count=1)
@example(seed=2**64 - 1, start=0, count=1)
@example(seed=2**32, start=2**32 - 3, count=6)      # refused: past the pool
@example(seed=2**64 - 1, start=2**32 - 3, count=6)
@example(seed=2**32, start=2**32 - 4, count=4)      # the last block that fits
@example(seed=5, start=2**32 - 3, count=6)          # a one-word seed fits at any t
def test_first_doubles_equal_default_rng(seed, start, count):
    if seed > 2**32 - 1 and start + count - 1 > 2**32 - 1:  # five entropy words
        with pytest.raises(ValueError, match="SeedSequence pool"):
            rngmod.first_draws(seed, "wandering", start, count)
        return
    got = rngmod.first_draws(seed, "wandering", start, count)[0]
    assert got.tolist() == [numpy_gate(seed, t) for t in range(start, start + count)]


@pytest.mark.guard
def test_first_doubles_match_a_whole_run():
    """A run-sized table, every stream id: the vector path on every lane."""
    for label, stream in rngmod.STREAMS.items():
        got = rngmod.first_draws(11, label, 0, 2000)[0]
        assert got.tolist() == [np.random.default_rng([11, stream, t]).random()
                                for t in range(2000)], label


@pytest.mark.guard
@settings(deadline=None)
@given(seed=seeds, horizon=st.integers(1, 7),
       steps=st.lists(st.integers(0, 40), min_size=1, max_size=30))
@example(seed=0, horizon=4, steps=[0, 3, 4, 5, 2051, 2052, 2053, 1, 0])  # refills at 4, 2052, 1, 0
def test_first_draws_serve_any_step_across_blocks(seed, horizon, steps):
    gate = rngmod.FirstDraws(seed, "wandering", horizon=horizon)
    assert [gate[t] for t in steps] == [numpy_gate(seed, t) for t in steps]


def numpy_after_gate(seed, t):
    rng = rngmod.per_step(seed, "wandering", t)
    rng.random()
    return rng


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(8).tolist() == want.random(8).tolist()
    assert got.integers(5, size=8).tolist() == want.integers(5, size=8).tolist()


@pytest.mark.guard
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_table_generator_equals_per_step_after_its_first_draw(seed):
    """The Generator the table loads for step t is ``per_step(seed, label,
    t)`` after its own first ``random()``: same state, same draws, across
    block refills (at 4, 2052, 2**32 and back at 1). At t = 2**32 a
    one-word seed still fits the pool; a two-word seed is refused."""
    table = rngmod.FirstDraws(seed, "wandering", horizon=4)
    for t in [0, 4, 2051, 2052, 2**32, 1]:
        if seed > 2**32 - 1 and t == 2**32:
            for u in (t, t + 5):  # a refused refill leaves the old block in place
                with pytest.raises(ValueError, match="SeedSequence pool"):
                    table.generator(u)
            continue
        assert_same_stream(table.generator(t), numpy_after_gate(seed, t))
        assert table[t] == numpy_gate(seed, t)


@pytest.mark.guard
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**63, 2**64 - 1])
def test_every_lane_of_a_full_block_loads_per_step_after_its_first_draw(seed):
    """Every lane of a BLOCK-lane table, every stream: all-ones seed words
    carry through every limb of the 128-bit seeding arithmetic."""
    steps = rngmod.FirstDraws.BLOCK
    for label in rngmod.STREAMS:
        table = rngmod.FirstDraws(seed, label, horizon=steps)
        for t in range(steps):
            want = rngmod.per_step(seed, label, t)
            assert table[t] == want.random()
            assert table.generator(t).bit_generator.state == want.bit_generator.state
        assert table.start == 0  # one table served them all


@pytest.mark.guard
def test_draws_at_one_gated_step_leave_the_next_alone():
    """The table reuses one Generator, so a gated step's stream must not
    depend on what the gated step before it drew, a buffered 32-bit half
    included."""
    seed = 9
    table = rngmod.FirstDraws(seed, "wandering", horizon=200)
    gated = [t for t in range(200) if table[t] < 0.3]
    assert len(gated) > 20
    halves = 0
    for n, t in enumerate(gated):
        rng = table.generator(t)
        assert_same_stream(rng, numpy_after_gate(seed, t))
        rng.random(n)
        rng.integers(7, size=n % 3 + 1, dtype=np.int32)
        halves += rng.bit_generator.state["has_uint32"]
    assert halves > 0


# -- one CDF per batch ------------------------------------------------------------

priority_vectors = st.lists(
    st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 1e6), min_size=1, max_size=60,
).map(np.array)

# A full buffer's worth of items (the default capacity) sharing about 200
# distinct priorities, as a long run's transition keys do.
FULL_BUFFER = np.random.default_rng(10).choice(np.linspace(0.0, 3.0, 200), 10_000)


@pytest.mark.guard
@settings(deadline=None)
@given(pri=priority_vectors, seed=st.integers(0, 2**32), draws=st.integers(1, 6))
@example(pri=np.array([3.0]), seed=0, draws=3)                # one-item buffer
@example(pri=np.array([0.0]), seed=0, draws=3)                # one item, all zero
@example(pri=np.array([0.0, 2.0, 0.0, 0.0, 5.0, 0.0]), seed=1, draws=6)
@example(pri=np.zeros(7), seed=2, draws=4)                    # the uniform fallback
# The running sums end one ulp under 1.0, and seed 649's first double falls
# between cdf[1] and cdf[1] / last: a search for u itself would draw 2, not 1.
@example(pri=np.array([5.0, 32.354806329621795, 9.0, 7.0]), seed=649, draws=3)
@example(pri=FULL_BUFFER, seed=3, draws=40)
def test_cdf_draws_equal_choice(pri, seed, draws):
    """One CDF reused for a batch draws what a fresh ``choice`` per item
    draws, and leaves the generator in the same state."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = priority_cdf(pri)
    got = [sample_from(cdf, ours) for _ in range(draws)]
    total = pri.sum()
    if total > 0:
        want = [int(theirs.choice(len(pri), p=pri / total)) for _ in range(draws)]
        assert all(pri[i] > 0 for i in got)
    else:
        want = [int(theirs.integers(len(pri))) for _ in range(draws)]
    assert got == want
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.guard
@settings(deadline=None)
@given(steps=st.lists(st.integers(1, 9) | st.floats(1e-3, 1e3), min_size=1, max_size=30),
       seed=st.integers(0, 2**32), draws=st.integers(1, 6))
# Found by a seeded scan: searchsorted(u * last) lands one past the index
# (seed 322) and one short of it (seed 980), so each fix-up step runs.
@example(steps=[4.0, 0.32121785249916535, 7.678782147500835, 2.0], seed=322, draws=1)
@example(steps=[9.0, 3.7893086909652585, 4.2106913090347415, 3.0], seed=980, draws=1)
def test_draws_take_the_choice_rule_on_any_scale(steps, seed, draws):
    """On running sums of any scale, not only the near-1 ones of
    ``priority_cdf``, a draw is the index ``Generator.choice`` takes in its
    last two steps: the first i with ``cdf[i] / cdf[-1] > u``."""
    cdf = np.cumsum(steps)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [sample_from(cdf, ours) for _ in range(draws)]
    want = [int((cdf / cdf[-1]).searchsorted(theirs.random(), side="right"))
            for _ in range(draws)]
    assert got == want


@pytest.mark.guard
@pytest.mark.parametrize("pri", [
    [1.0, np.inf, 2.0],
    [np.nan, 1.0],
    [1e308, 1e308, 1e308],  # each finite, the sum overflows
])
def test_non_finite_total_raises_as_choice_does(pri):
    pri = np.array(pri)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(pri), p=pri / pri.sum())
        with pytest.raises(ValueError):
            priority_cdf(pri)


# -- one batch of bounded integers ------------------------------------------------


@pytest.mark.guard
@pytest.mark.parametrize("n", range(1, 9))
def test_batched_integers_equal_scalar_draws(n):
    """``affect.sweep_threshold`` draws a seed's actions in one
    ``integers(n, size=k)`` call: it must give what k scalar calls give
    and leave the stream where they leave it, a buffered 32-bit half
    included (odd k)."""
    for seed in (0, 5, 2**32, 2**64 - 1):
        for label in ("exploration", "world"):
            for k in (1, 2, 257, 3000):
                batch, scalar = rngmod.substream(seed, label), rngmod.substream(seed, label)
                assert batch.integers(n, size=k).tolist() == [
                    int(scalar.integers(n)) for _ in range(k)]
                assert batch.bit_generator.state == scalar.bit_generator.state
                assert batch.random() == scalar.random()


# -- scalar draws from blocks of raw output ---------------------------------------

# Lemire rejects about half of all words at 2**31 + 1; 2**32 - 1 is the widest
# bound the 32-bit rule takes; n = 1 draws nothing.
bounds = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 2**31 + 1, 2**32 - 1])
# Runs of one kind of draw: None for random(), n for integers(n).
interleavings = st.lists(st.tuples(st.none() | bounds, st.integers(1, 600)),
                         min_size=1, max_size=8)


@pytest.mark.guard
@settings(deadline=None, max_examples=60)
@given(seed=st.sampled_from([0, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
       label=st.sampled_from(sorted(rngmod.STREAMS)), runs=interleavings)
# A half is buffered when the block runs out: the refill must keep it for the
# next word, and a double must skip it.
@example(seed=0, label="world", runs=[(None, rngmod.RAW_BLOCK - 1), (5, 1), (None, 1), (5, 2)])
@example(seed=2**32, label="observation", runs=[(2**31 + 1, 700), (None, 3)])
@example(seed=2**64 - 1, label="exploration", runs=[(2**32 - 1, 3), (1, 5), (None, 1)])
def test_scalar_stream_equals_the_substream_generator(seed, label, runs):
    """``ScalarStream`` gives what ``substream``'s Generator gives, draw for
    draw, over any interleaving of ``random()`` and ``integers(n)`` repeated
    past three block refills, and stands where that Generator stands: the
    same raws drawn and the same buffered 32-bit half."""
    ours, theirs = rngmod.ScalarStream(seed, label), rngmod.substream(seed, label)
    while ours.consumed[0] <= 3 * rngmod.RAW_BLOCK:
        for n, k in runs:
            for _ in range(k):
                if n is None:
                    assert ours.random() == theirs.random()
                else:
                    got = ours.integers(n)
                    assert type(got) is int and got == theirs.integers(n)
        assert ours.random() == theirs.random()  # after equal sequences, the same next double
    raws, buffered = ours.consumed
    at = rngmod.substream(seed, label).bit_generator
    at.advance(raws)
    state = theirs.bit_generator.state
    assert at.state["state"] == state["state"] and buffered == bool(state["has_uint32"])
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            ours.integers(n)
    assert ours.consumed == (raws, buffered)
    assert ours.random() == theirs.random()


@pytest.mark.guard
def test_a_scalar_stream_fills_at_its_first_draw():
    stream = rngmod.ScalarStream(3, "world")
    before = stream.bit_generator.state
    assert stream.integers(1) == 0
    assert stream.bit_generator.state == before and stream.consumed == (0, False)
    stream.integers(2)
    assert stream.consumed == (1, True)
