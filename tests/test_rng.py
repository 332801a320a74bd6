"""The batch kernels of polyext.rng against the random.Random calls they stand for.

Each kernel must return what the stream's own call returns and leave the
stream in the same state, for every seed.  Only the standard library and
pytest are imported, so this file runs on every supported Python without numpy.
"""

import random

import pytest

from polyext import rng

SEEDS = range(300)

#: 1, 2, 3, powers of two, both sides of 2^32 (getrandbits joins 32-bit words)
#: and one bound wider than 64 bits.
BOUNDS = [1, 2, 3, 4, 5, 7, 8, 255, 256, 257, 1 << 16, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 70) + 3]


def _outcome(seed, draw):
    """What ``draw`` returns on a fresh stream (or the type it raises), and the state after."""
    stream = random.Random(seed)
    try:
        value = draw(stream)
    except (TypeError, ValueError) as exc:
        value = type(exc)
    return value, stream.getstate()


def _shuffled(shuffle, x):
    x = list(x)
    shuffle(x)
    return x


def test_below_is_randrange_of_each_bound():
    for seed in SEEDS:
        bounds = BOUNDS + [random.Random(-seed).randrange(1, 1 << 40) for _ in range(8)] + BOUNDS[::-1]
        assert _outcome(seed, lambda s: rng.below(s, bounds)) == _outcome(
            seed, lambda s: [s.randrange(b) for b in bounds]
        )


@pytest.mark.parametrize("bounds", [[], [1], (6, 9) * 4])
def test_below_takes_any_sequence(bounds):
    for seed in SEEDS:
        assert _outcome(seed, lambda s: rng.below(s, bounds)) == _outcome(
            seed, lambda s: [s.randrange(b) for b in bounds]
        )


@pytest.mark.parametrize("bounds", [[0], [-3], [5, 0]])
def test_below_refuses_an_empty_range_before_drawing(bounds):
    stream = random.Random(1)
    before = stream.getstate()
    with pytest.raises(ValueError):
        rng.below(stream, bounds)
    assert stream.getstate() == before


@pytest.mark.parametrize("length", [0, 1, 2, 3, 31, 32, 33, 256, 700])
def test_shuffle_is_the_streams_shuffle(length):
    items = [f"p{i}" for i in range(length)]
    for seed in SEEDS:
        got = _outcome(seed, lambda s: _shuffled(lambda x: rng.shuffle(s, x), items))
        assert got == _outcome(seed, lambda s: _shuffled(s.shuffle, items))


@pytest.mark.parametrize(
    "population, k",
    [
        (range(1024), 256),  # the energy-partition draw
        (range(1045), 256),  # n = setsize at k = 256: the inlined pool branch
        (range(1046), 256),  # n = setsize + 1: the stream's set branch
        ([3 * i + 1 for i in range(21)], 5),  # n = setsize at k <= 5
        ([3 * i + 1 for i in range(22)], 5),  # n = setsize + 1 at k <= 5
        (list("abcdefghij"), 10),  # k = n
        (range(40), 0),  # k = 0
        (range(8), 3),
        (range(1 << 70, (1 << 70) + 9), 9),
        (tuple(range(100)), 64),
    ],
)
def test_sample_is_the_streams_sample(population, k):
    for seed in SEEDS:
        assert _outcome(seed, lambda s: rng.sample(s, population, k)) == _outcome(
            seed, lambda s: s.sample(population, k)
        )


@pytest.mark.parametrize("k", [12, 40, -1])
def test_sample_refuses_k_outside_the_population(k):
    stream = random.Random(2)
    with pytest.raises(ValueError):
        rng.sample(stream, range(11), k)
    assert stream.getstate() == random.Random(2).getstate()


def test_sample_of_a_non_sequence_is_the_streams():
    population = {5, 6, 7, 8}
    for seed in range(20):
        assert _outcome(seed, lambda s: rng.sample(s, population, 2)) == _outcome(
            seed, lambda s: s.sample(population, 2)
        )
