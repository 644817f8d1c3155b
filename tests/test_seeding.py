"""Seed validation and the bulk per-trial stream states.

``SeedSpec.pcg64_states`` reimplements numpy's SeedSequence hash and PCG64
seeding over arrays. numpy itself is the oracle: every state must equal
``PCG64(SeedSequence(seed, spawn_key=(stream_index, *subkeys, t))).state``.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import DomainError, SeedSpec, as_seed


def numpy_state(seed, stream_index, subkeys, t):
    sequence = np.random.SeedSequence(seed, spawn_key=(stream_index, *subkeys, t))
    return np.random.PCG64(sequence).state


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [1.5, 1.0, "7", b"7", None, [1]])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            SeedSpec(seed)
        with pytest.raises(DomainError, match="seed must be an integer"):
            as_seed(seed)

    @pytest.mark.parametrize("stream_index", [0.5, 2.0, "2", np.float64(3)])
    def test_non_integer_stream_index_is_refused(self, stream_index):
        with pytest.raises(DomainError, match="stream_index must be an integer"):
            SeedSpec(1, stream_index)

    def test_numpy_integers_are_plain_ints(self):
        spec = SeedSpec(np.uint64(2**64 - 1), np.int64(3))
        assert spec == SeedSpec(2**64 - 1, 3)
        assert type(spec.seed) is int and type(spec.stream_index) is int
        assert as_seed(np.uint64(7)) == SeedSpec(7)
        assert as_seed(np.uint64(7)).rng().random() == SeedSpec(7).rng().random()

    @pytest.mark.parametrize("seed, stream_index", [(-1, 0), (2**64, 0), (0, -1)])
    def test_out_of_range_is_refused(self, seed, stream_index):
        with pytest.raises(DomainError):
            SeedSpec(seed, stream_index)


# Stream indices and trial indices of 2^32 or more are two words of the
# spawn key; seeds of 2^32 or more are two words of the entropy.
words = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_index=words,
    subkeys=st.lists(words, max_size=2),
    first=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 4)),
    count=st.integers(1, 4),
)
def test_bulk_states_equal_numpy(seed, stream_index, subkeys, first, count):
    trials = range(first, first + count)
    got = SeedSpec(seed, stream_index).pcg64_states(trials, *subkeys)
    assert got == [numpy_state(seed, stream_index, subkeys, t) for t in trials]


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**64 - 1])
def test_bulk_states_across_two_word_trial_indices(seed):
    trials = range(2**32 - 3, 2**32 + 3)
    got = SeedSpec(seed, 2**33 + 1).pcg64_states(trials, 0)
    assert got == [numpy_state(seed, 2**33 + 1, (0,), t) for t in trials]
    assert SeedSpec(seed).pcg64_states(range(5, 5), 0) == []


@pytest.mark.parametrize("trials", [range(-1, 2), range(2**64 - 1, 2**64 + 1), range(0, 4, 2)])
def test_bulk_states_refuse_other_ranges(trials):
    with pytest.raises(DomainError, match="consecutive indices below 2"):
        SeedSpec(1).pcg64_states(trials, 0)


def test_bulk_states_refuse_negative_subkeys():
    with pytest.raises(DomainError, match="subkeys must be non-negative"):
        SeedSpec(1).pcg64_states(range(3), -1)


def test_golden_trial_states():
    # The Monte Carlo trial streams of seed 1, written out: a numpy that
    # changed SeedSequence or PCG64 seeding (NEP 19) would fail here too.
    want = [
        (30137537481401368852565400476152925649, 64581346786212243337025975267334687751),
        (269155758869031888792252377103934394350, 124024628531167478636645590363723341121),
        (18783552897200036885582375298590595142, 327483068990120203136079375753085420007),
    ]
    for t, (state, inc) in enumerate(want):
        assert numpy_state(1, 0, (0,), t)["state"] == {"state": state, "inc": inc}
    got = SeedSpec(1).pcg64_states(range(3), 0)
    assert [(s["state"]["state"], s["state"]["inc"]) for s in got] == want


def test_assigned_state_draws_the_trial_stream():
    spec = SeedSpec(5, 2)
    rng = np.random.Generator(np.random.PCG64(0))
    for t, state in zip(range(10, 14), spec.pcg64_states(range(10, 14), 0)):
        rng.bit_generator.state = state
        want = spec.rng(0, t)
        assert np.array_equal(rng.normal(size=5), want.normal(size=5))
        assert np.array_equal(rng.uniform(size=3), want.uniform(size=3))
