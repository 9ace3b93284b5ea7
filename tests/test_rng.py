import pytest
from hypothesis import example, given, settings, strategies as st

from boxrep.rng import _BATCH_FROM, SplitMix64


def list_sample(rng, population, k):
    """The dense partial Fisher-Yates that SplitMix64.sample must match."""
    pool = list(range(population))
    for i in range(k):
        j = i + rng.below(population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


@given(st.integers(0, 2**64 - 1), st.integers(0, 300), st.data())
@settings(max_examples=300)
def test_sample_matches_dense_fisher_yates(seed, population, data):
    k = data.draw(st.integers(0, population))
    fast, dense = SplitMix64(seed), SplitMix64(seed)
    assert fast.sample(population, k) == list_sample(dense, population, k)
    # the same draws were made, so both streams continue alike
    assert fast.next_u64() == dense.next_u64()


def test_sample_costs_k_not_population():
    values = SplitMix64(1).sample(2**62, 3)
    assert len(values) == 3 and len(set(values)) == 3
    assert values == sorted(values)
    assert all(0 <= v < 2**62 for v in values)


def below_uncached(rng, n):
    """SplitMix64.below written out: the rejection limit is the largest
    multiple of n <= 2^64."""
    limit = 2**64 - 2**64 % n
    while True:
        u = rng.next_u64()
        if u < limit:
            return u % n


@given(st.integers(0, 2**64 - 1),
       st.lists(st.integers(1, 2**64), min_size=1, max_size=50))
def test_below_matches_the_uncached_limit(seed, ns):
    drawn, plain = SplitMix64(seed), SplitMix64(seed)
    # each n twice in a row, as a caller drawing repeatedly makes them
    assert ([drawn.below(n) for n in ns for _ in range(2)]
            == [below_uncached(plain, n) for n in ns for _ in range(2)])


def test_below_rejects_nonpositive_n_after_a_cached_one():
    rng = SplitMix64(0)
    rng.below(5)
    for n in (0, -1, -5):
        with pytest.raises(ValueError):
            rng.below(n)


@given(st.integers(0, 2**64 - 1), st.integers(0, 300),
       st.one_of(st.integers(1, 2**64 - 1), st.integers(2**63 + 1, 2**63 + 2**62)))
@example(seed=0, count=50, n=2**63 + 1)
@example(seed=0, count=300, n=2**63 + 1)
@example(seed=3, count=300, n=2**64 - 1)
@example(seed=1, count=_BATCH_FROM, n=5)
@example(seed=1, count=_BATCH_FROM - 1, n=5)
def test_below_many_is_successive_below_calls(seed, count, n):
    # an n just above 2**63 rejects nearly half the raw draws, so a long
    # run of them leaves the arrays for the scalar loop
    batched, scalar = SplitMix64(seed), SplitMix64(seed)
    assert batched.below_many(n, count) == [scalar.below(n) for _ in range(count)]
    assert batched.next_u64() == scalar.next_u64()


def test_below_many_rejects_nonpositive_n():
    for n in (0, -3):
        with pytest.raises(ValueError):
            SplitMix64(0).below_many(n, 4)


def test_below_rejects_n_past_two_to_the_64():
    # one 64-bit draw has no multiple of such an n to accept below it
    for n in (2**64 + 1, 2**65):
        with pytest.raises(ValueError, match="at most"):
            SplitMix64(0).below(n)
    assert 0 <= SplitMix64(0).below(2**64) < 2**64
