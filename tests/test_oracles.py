"""Energy partitions, shift-orbit counts, structure attacks, and evasiveness audits."""

import dataclasses
import hashlib
import warnings
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from polyext import oracles, rng
from polyext.anf import Polynomial, eval_bits, sample_poly, truth_table
from polyext.constructions import EvasiveDescriptor, build_evasive_h, lift_point
from polyext.errors import BudgetExceededError, PreconditionError, RetryExhaustedError
from polyext.gf2 import BitVector, enumerate_span, span_rank
from polyext.reports import render_json
from polyext.oracles import (
    additive_energy,
    cw_shift_count,
    dichotomy_check,
    disperser_attack,
    energy_partition,
    monochromatic_sumset_search,
    sample_vanishing_poly,
    subspace_count,
    subspace_evasive_audit,
    sumset_evasive_audit,
    verify_constancy,
)

MASTER = 20260823


def word(text: str) -> int:
    return BitVector.from_string(text).bits


def point_set(n: int, values) -> tuple[int, list[int]]:
    """An explicit audit subject: n and the n-bit words."""
    return n, list(values)


# ---------------------------------------------------------------------------
# additive energy


def test_energy_of_singletons():
    assert additive_energy([0b10], [0b01]) == 1


def test_energy_of_full_group():
    # X = Y = F_2^k: every sum has multiplicity 2^k, so E = 2^(3k)
    for k in (1, 2, 3):
        full = list(range(1 << k))
        assert additive_energy(full, full) == 1 << (3 * k)


def test_energy_equals_product_iff_sums_distinct():
    x = [0b00, 0b01]
    y = [0b00, 0b10]
    assert additive_energy(x, y) == 4  # all four sums distinct


def test_energy_lower_bound_and_distinctness():
    stream = rng.derive(MASTER, "oracles", "energy-bounds")
    for _ in range(30):
        n = stream.randrange(1, 7)
        x = [stream.getrandbits(n) for _ in range(stream.randrange(1, 7))]
        y = [stream.getrandbits(n) for _ in range(stream.randrange(1, 7))]
        e = additive_energy(x, y)
        product = len(x) * len(y)
        assert e >= product
        distinct = len({xv ^ yv for xv in x for yv in y}) == product
        assert (e == product) == distinct


def test_energy_quadruple_oracle():
    """E really is the number of sum-equal quadruples, counted the slow way."""
    stream = rng.derive(MASTER, "oracles", "energy-quad")
    for _ in range(30):
        n = stream.randrange(1, 5)
        x = [stream.getrandbits(n) for _ in range(stream.randrange(1, 6))]
        y = [stream.getrandbits(n) for _ in range(stream.randrange(1, 6))]
        slow = sum(1 for a in x for b in y for c in x for d in y if a ^ b == c ^ d)
        assert additive_energy(x, y) == slow


def test_energy_symmetry_and_translation():
    stream = rng.derive(MASTER, "oracles", "energy-sym")
    for _ in range(20):
        n = stream.randrange(1, 6)
        x = [stream.getrandbits(n) for _ in range(4)]
        y = [stream.getrandbits(n) for _ in range(4)]
        c = stream.getrandbits(n)
        shifted = [v ^ c for v in x]
        assert additive_energy(x, y) == additive_energy(y, x)
        assert additive_energy(shifted, y) == additive_energy(x, y)


def test_energy_pair_budget():
    x = list(range(1 << 13))
    y = list(range((1 << 13) + 1))
    with pytest.raises(BudgetExceededError):
        additive_energy(x, y)


def test_pair_oracles_refuse_sets_of_different_lengths():
    x, y = [5, 6], [1, 2]
    for call in (
        lambda: dichotomy_check(2, x, y),
        lambda: dichotomy_check(2, y, x + y),
        lambda: dichotomy_check(2, y, [-1]),
    ):
        with pytest.raises(PreconditionError, match="one ambient length"):
            call()


# ---------------------------------------------------------------------------
# energy partitions


def test_partition_into_singletons():
    full = list(range(4))
    stream = rng.derive(MASTER, "oracles", "partition-singleton")
    part = energy_partition(full, full, t=2, ell=4, stream=stream)
    assert part.retries_used == 0
    assert all(len(p) == 1 for p in part.x_parts)
    assert part.max_fiber == 1
    assert part.verify(full, full)


def test_partition_full_scale_spot_run():
    """k=8 points in F_2^10, 128 parts of size 2, fiber cap 5."""
    stream = rng.derive(MASTER, "oracles", "partition-full")
    x = stream.sample(range(1 << 10), 256)
    y = stream.sample(range(1 << 10), 256)
    part = energy_partition(x, y, t=7, ell=5, stream=stream)
    assert part.verify(x, y)
    assert part.energy_cap() == 100
    for xp in part.x_parts:
        for yp in part.y_parts:
            assert additive_energy(xp, yp) <= 100


def test_partition_warns_outside_sufficient_condition():
    full = list(range(8))
    stream = rng.derive(MASTER, "oracles", "partition-warn")
    with pytest.warns(UserWarning):
        part = energy_partition(full, full, t=1, ell=4, stream=stream)
    assert part.verify(full, full)


def test_partition_exhausts_on_impossible_cap():
    # F_2^2 against itself in one part: every fiber has exactly 4 pairs
    full = list(range(4))
    stream = rng.derive(MASTER, "oracles", "partition-fail")
    with pytest.warns(UserWarning):
        with pytest.raises(RetryExhaustedError):
            energy_partition(full, full, t=0, ell=3, stream=stream, retries=3)


def test_partition_verify_rejects_wrong_sets():
    full = list(range(4))
    stream = rng.derive(MASTER, "oracles", "partition-verify")
    part = energy_partition(full, full, t=2, ell=4, stream=stream)
    assert not part.verify(full[:3] + [full[0]], full)
    assert part.verify(list(reversed(full)), full)  # order does not matter
    # the same points in parts of sizes 1 and 3 are not 2^t equal parts
    uneven = dataclasses.replace(part, x_parts=(tuple(full[:1]), tuple(full[1:])))
    assert not uneven.verify(full, full)


def test_partition_preconditions():
    stream = rng.derive(MASTER, "oracles", "partition-pre")
    three = [0, 1, 2]
    four = list(range(4))
    with pytest.raises(PreconditionError):
        energy_partition(three, three, t=0, ell=4, stream=stream)
    with pytest.raises(PreconditionError):
        energy_partition(four, three, t=0, ell=4, stream=stream)
    with pytest.raises(PreconditionError):
        energy_partition(four, four, t=3, ell=4, stream=stream)


def test_partition_verify_recounts_the_fiber_cap():
    full = list(range(4))
    stream = rng.derive(MASTER, "oracles", "partition-recount")
    part = energy_partition(full, full, t=2, ell=4, stream=stream)
    # one part holding F_2^2 on both sides has every fiber of size 4 > ell = 3
    forged = dataclasses.replace(
        part, x_parts=(tuple(full),), y_parts=(tuple(full),), t=0, ell=3, max_fiber=3, max_energy=64
    )
    assert not forged.verify(full, full)
    assert dataclasses.replace(forged, ell=4, max_fiber=4).verify(full, full)
    # a stored max_fiber that disagrees with the parts is rejected even under the cap
    assert not dataclasses.replace(part, max_fiber=0).verify(full, full)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_partition_verify_recounts_the_largest_energy():
    full = list(range(4))
    stream = rng.derive(MASTER, "oracles", "partition-recount-energy")
    part = energy_partition(full, full, t=1, ell=4, stream=stream)
    truth = max(additive_energy(xp, yp) for xp in part.x_parts for yp in part.y_parts)
    assert part.max_energy == truth and part.verify(full, full)
    # a stored max_energy off the recount fails, above or below it, under the same fiber cap
    for forged in (truth - 1, truth + 1, 0):
        assert not dataclasses.replace(part, max_energy=forged).verify(full, full)


def test_partition_with_no_parts_or_words_is_refused():
    empty = oracles.EnergyPartition((), (), 0, 4, 1, 0, 0)
    with pytest.raises(PreconditionError, match="no parts"):
        empty.energy_cap()
    assert not empty.verify([], [])
    # one part of no words is no partition of two empty sets either
    assert not dataclasses.replace(empty, x_parts=((),), y_parts=((),)).verify([], [])


def scalar_energy_partition(x, y, t, ell, stream, retries):
    """Dict-count reference: the same shuffles, every fiber counted one sum at a time."""
    part_size = len(x) >> t
    for attempt in range(retries):
        xs = list(x)
        ys = list(y)
        stream.shuffle(xs)
        stream.shuffle(ys)
        x_parts = tuple(tuple(xs[i : i + part_size]) for i in range(0, len(xs), part_size))
        y_parts = tuple(tuple(ys[i : i + part_size]) for i in range(0, len(ys), part_size))
        max_fiber = max(
            max(Counter(a ^ b for a in xp for b in yp).values())
            for xp in x_parts
            for yp in y_parts
        )
        if max_fiber <= ell:
            return x_parts, y_parts, max_fiber, attempt
    return None


# (k, t, n, ell, word shift): the shift moves every word up, so wide words
# keep the collisions of n - shift bits.
KERNEL_CASES = [
    (3, 0, 5, 8, 0),  # t = 0: one part holds all points
    (3, 0, 5, 4, 0),
    (4, 4, 6, 1, 0),  # t = k: singleton parts
    (6, 5, 7, 2, 0),  # part size 2
    (6, 4, 7, 3, 0),  # part size 4
    (6, 3, 7, 3, 0),  # part size 8, cap forces a retry
    (5, 2, 6, 2, 0),  # cap exhausts every resample
    (4, 2, 60, 4, 54),  # int64 words whose (pair, sum) keys need Python ints
    (5, 3, 70, 2, 64),  # 70-bit words
    (4, 0, 70, 16, 64),
]


def _kernel_case(k, t, n, ell, shift):
    stream = rng.derive(MASTER, "oracles", "partition-kernel", k, t, n, ell)
    x = [b << shift for b in stream.sample(range(1 << (n - shift)), 1 << k)]
    y = [b << shift for b in stream.sample(range(1 << (n - shift)), 1 << k)]
    expected = scalar_energy_partition(x, y, t, ell, rng.derive(MASTER, n, k, t), retries=20)
    return x, y, expected


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k,t,n,ell,shift", KERNEL_CASES)
def test_partition_kernel_matches_scalar_reference(k, t, n, ell, shift):
    x, y, expected = _kernel_case(k, t, n, ell, shift)
    _assert_kernel_matches(x, y, t, ell, rng.derive(MASTER, n, k, t), expected)


def pair_energies(x_parts, y_parts):
    """E(X_i, Y_j) for every part pair, by the kernel ``energy_partition`` runs."""
    return oracles._energies(oracles._pack(x_parts), oracles._pack(y_parts))


def _assert_kernel_matches(x, y, t, ell, stream, expected):
    """``energy_partition`` on the stream gives the reference's outcome, the
    batched energies of its parts equal ``additive_energy`` on every pair, and
    its ``max_energy`` is their largest."""
    if expected is None:
        with pytest.raises(RetryExhaustedError):
            energy_partition(x, y, t, ell, stream, retries=20)
        return
    part = energy_partition(x, y, t, ell, stream, retries=20)
    assert (part.x_parts, part.y_parts, part.max_fiber, part.retries_used) == expected
    assert part.verify(x, y)
    energies = pair_energies(part.x_parts, part.y_parts)
    assert energies.shape == (1 << t, 1 << t)
    for i, xp in enumerate(part.x_parts):
        for j, yp in enumerate(part.y_parts):
            assert energies[i, j] == additive_energy(xp, yp)
    assert part.max_energy == energies.max()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("n, dtype", [(10, np.int64), (70, object)])
def test_max_energy_is_the_brute_force_maximum_over_part_pairs(n, dtype):
    """Over 8 seeds, ``max_energy`` is the largest ``additive_energy(X_i, Y_j)``;
    the words' top 7 bits collide, so energies sit above the floor |X_i| * |Y_j|."""
    retried = 0
    for seed in range(8):
        stream = rng.derive(MASTER, "oracles", "max-energy", n, seed)
        x = [b << (n - 7) for b in stream.sample(range(1 << 7), 32)]
        y = [b << (n - 7) for b in stream.sample(range(1 << 7), 32)]
        part = energy_partition(x, y, t=2, ell=3, stream=stream, retries=50)
        assert oracles._pack(part.x_parts).dtype == dtype
        truth = max(additive_energy(xp, yp) for xp in part.x_parts for yp in part.y_parts)
        assert part.max_energy == truth > 8 * 8
        retried += part.retries_used > 0
    assert retried


def test_kernel_cases_cover_retries_and_exhaustion():
    outcomes = {case: _kernel_case(*case)[2] for case in KERNEL_CASES}
    assert any(r is None for r in outcomes.values())
    assert any(r is not None and r[3] > 0 for r in outcomes.values())
    # some wide case has a fiber above 1, so equal Python-int sums are counted
    assert any(r is not None and r[2] > 1 for case, r in outcomes.items() if case[2] > 63)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_kernels_agree_across_block_sizes(monkeypatch):
    stream = rng.derive(MASTER, "oracles", "partition-blocks")
    x = stream.sample(range(256), 32)
    y = stream.sample(range(256), 32)
    seed = stream.getrandbits(32)
    for t in (0, 2, 5):
        part = energy_partition(x, y, t, 64, rng.derive(seed, t))
        whole = pair_energies(part.x_parts, part.y_parts)
        for live in (1, 7, 64):
            monkeypatch.setattr(oracles, "LIVE_SUMS", live)
            again = energy_partition(x, y, t, 64, rng.derive(seed, t))
            assert again == part
            assert (pair_energies(part.x_parts, part.y_parts) == whole).all()
            monkeypatch.undo()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_repeated_points_alone_make_a_fiber():
    # the parts share no nonzero difference, yet 5 + 1 and 5 + 2 are each hit twice
    x, y = [5, 5], [1, 2]
    assert pair_energies([x], [y]).tolist() == [[additive_energy(x, y)]] == [[8]]
    part = energy_partition(x, y, t=0, ell=4, stream=rng.derive(MASTER, "oracles", "repeats"))
    assert (part.max_fiber, part.max_energy) == (2, 8)
    assert part.verify(x, y)


# (k, t, n, ell) for multisets drawn from 2^(k-1) words: every case repeats
# points, so fibers above 1 come from repeats as well as from sums.
MULTISET_CASES = [
    (2, 0, 3, 8),  # t = 0, one fiber holds every pair
    (3, 1, 5, 6),  # 12 resamples
    (4, 2, 6, 3),  # cap exhausts every resample
    (5, 3, 4, 4),
    (5, 2, 8, 7),
    (4, 3, 70, 2),  # 70-bit words
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k,t,n,ell", MULTISET_CASES)
def test_partition_kernel_matches_scalar_reference_on_multisets(k, t, n, ell):
    stream = rng.derive(MASTER, "oracles", "partition-multiset", k, t, n)
    pool = [stream.getrandbits(n) for _ in range(1 << (k - 1))]
    x = [stream.choice(pool) for _ in range(1 << k)]
    y = [stream.choice(pool) for _ in range(1 << k)]
    assert len(set(x)) < len(x) and len(set(y)) < len(y)
    expected = scalar_energy_partition(x, y, t, ell, rng.derive(MASTER, n, k, t), retries=20)
    _assert_kernel_matches(x, y, t, ell, rng.derive(MASTER, n, k, t), expected)


@pytest.mark.parametrize("error", [-1, 1])
def test_fiber_check_recounts_every_energy_it_sorts(monkeypatch, error):
    """An energy kernel that is off on one pair fails the fiber check's run count."""
    stream = rng.derive(MASTER, "oracles", "partition-miscount")
    x = stream.sample(range(1 << 10), 256)
    y = stream.sample(range(1 << 10), 256)
    part = energy_partition(x, y, t=7, ell=5, stream=stream)
    xs, ys = oracles._pack(part.x_parts), oracles._pack(part.y_parts)
    energies = oracles._energies(xs, ys)
    # undercount a pair whose fibers are not all 1, or lift a pair at the floor 4 above it
    target = tuple(np.argwhere(energies > 4 if error < 0 else energies == 4)[0])
    miscounted = energies.copy()
    miscounted[target] += error
    monkeypatch.setattr(oracles, "_energies", lambda *_: miscounted)
    with pytest.raises(AssertionError, match="this is a bug"):
        oracles._max_fiber(xs, ys)


def test_partition_oracles_refuse_pairs_past_the_budget(monkeypatch):
    big = list(range(1 << 14))
    monkeypatch.setattr(oracles, "_pack", lambda parts: pytest.fail("packed past the budget"))
    stream = rng.derive(MASTER, "oracles", "partition-budget")
    with pytest.raises(BudgetExceededError):
        energy_partition(big, big, t=7, ell=5, stream=stream, retries=0)


def test_pair_energies_match_additive_energy_across_the_int64_boundary():
    """Words up to 2^63 - 1 pack as int64 and wider ones as Python ints; both
    count every pair's energy as the dict count does, repeated sums included."""
    top = 1 << 63
    x_parts = [[top - 1, top - 2], [0, 1]]
    for y_parts, dtype in (
        ([[0, 1], [top - 1, top - 2]], np.int64),
        ([[top, top + 1], [top + 2, 0]], object),
    ):
        assert oracles._pack(y_parts).dtype == dtype
        expected = [[additive_energy(xp, yp) for yp in y_parts] for xp in x_parts]
        assert expected[0][0] == 8  # top - 1 and top - 2 against a pair differing in bit 0
        assert pair_energies(x_parts, y_parts).tolist() == expected


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_partition_oracles_refuse_negative_words_and_ragged_parts(monkeypatch):
    stream = rng.derive(MASTER, "oracles", "partition-words")
    with pytest.raises(PreconditionError, match="nonnegative words"):
        energy_partition([0, -1], [0, 1], t=0, ell=4, stream=stream)
    negative = oracles.EnergyPartition(((1,), (2,)), ((-3,), (4,)), 1, 4, 1, 1, 0)
    with pytest.raises(PreconditionError, match="nonnegative words"):
        negative.verify([1, 2], [-3, 4])
    # sizes 2, 1, 3, 2 hold 4 x 2 words, so a reshape alone would accept them
    x, y = list(range(8)), list(range(8, 16))
    ragged = oracles.EnergyPartition(
        ((0, 1), (2,), (3, 4, 5), (6, 7)), tuple(zip(y[::2], y[1::2])), 2, 4, 1, 4, 0
    )
    monkeypatch.setattr(oracles, "_pack", lambda parts: pytest.fail("packed ragged parts"))
    assert not ragged.verify(x, y)


# ---------------------------------------------------------------------------
# shift orbits


def test_shift_count_zero_polynomial():
    f = Polynomial.from_monomials(3, 2, [])
    count, bound, ok = cw_shift_count(f, 3, [word("100")])
    assert (count, bound, ok) == (8, 8, True)


def test_shift_count_linear_example():
    f = Polynomial.from_monomials(3, 1, [[0]])  # x1 over three variables
    count, bound, ok = cw_shift_count(f, 3, [word("010")])
    assert (count, bound, ok) == (4, 4, True)


def test_shift_count_fractional_bound():
    f = Polynomial.from_monomials(4, 2, [[0, 1]])  # x1 x2
    basis = [word("0100"), word("0010"), word("0001")]
    count, bound, ok = cw_shift_count(f, 4, basis)
    assert count == 8
    assert bound == Fraction(1, 2)
    assert ok


def test_shift_count_requires_vanishing():
    f = Polynomial.from_monomials(2, 1, [[0]])
    with pytest.raises(PreconditionError):
        cw_shift_count(f, 2, [word("10")])


def test_shift_count_rejects_width_mismatch():
    with pytest.raises(PreconditionError, match="width"):
        cw_shift_count(Polynomial.from_monomials(3, 1, []), 2, [word("10")])
    with pytest.raises(PreconditionError, match="one ambient length"):
        cw_shift_count(Polynomial.from_monomials(3, 1, []), 3, [0b1000])


def test_shift_count_budget():
    with pytest.raises(BudgetExceededError):
        cw_shift_count(Polynomial.from_monomials(25, 1, []), 25, [1])


def test_shift_count_random_vanishing_trials():
    stream = rng.derive(MASTER, "oracles", "cw-random")
    for _ in range(20):
        n = stream.randrange(2, 9)
        d = stream.randrange(1, min(n, 3) + 1)
        t = stream.randrange(1, min(n, 3) + 1)
        basis = [1 << i for i in stream.sample(range(n), t)]
        f = sample_vanishing_poly(n, d, basis, stream)
        count, bound, ok = cw_shift_count(f, n, basis)
        assert ok, f"count {count} fell below {bound}"
        # independent recount without the vectorized path
        table = truth_table(f)
        span = enumerate_span(basis)
        slow = sum(
            1 for x in range(1 << n) if all(table[x ^ v] == 0 for v in span)
        )
        assert count == slow


def test_shift_count_matches_a_recount_on_dependent_bases():
    """Span doubling over the kept basis words agrees with a walk over the whole
    span, also when the basis repeats a vector, holds a sum of two, or holds zero."""
    stream = rng.derive(MASTER, "oracles", "cw-dependent")
    for _ in range(40):
        n = stream.randrange(2, 9)
        d = stream.randrange(1, min(n, 3) + 1)
        words = [stream.getrandbits(n) for _ in range(stream.randrange(1, 4))]
        words += [words[0], words[0] ^ words[-1], 0][: stream.randrange(0, 4)]
        f = sample_vanishing_poly(n, d, words, stream)
        count, bound, ok = cw_shift_count(f, n, words)
        table = truth_table(f)
        span = enumerate_span(words)
        assert count == sum(1 for x in range(1 << n) if all(table[x ^ v] == 0 for v in span))
        t, deg = span_rank(words), f.degree()
        exponent = n - sum((deg - j) * comb(t, j) for j in range(deg))
        assert bound == Fraction(2) ** exponent
        assert ok == (count >= bound)


def test_vanishing_sampler_vanishes():
    stream = rng.derive(MASTER, "oracles", "vanish")
    for _ in range(20):
        n = stream.randrange(1, 8)
        d = stream.randrange(1, min(n, 3) + 1)
        width = stream.randrange(0, min(n, 3) + 1)
        basis = [stream.getrandbits(n) for _ in range(width)]
        f = sample_vanishing_poly(n, d, basis, stream)
        table = truth_table(f)
        for p in enumerate_span(basis):
            assert table[p] == 0


def test_vanishing_sampler_empty_basis_only_pins_origin():
    stream = rng.derive(MASTER, "oracles", "vanish-empty")
    saw_nonzero = False
    for _ in range(50):
        f = sample_vanishing_poly(3, 2, [], stream)
        assert truth_table(f)[0] == 0
        saw_nonzero |= f.coeffs != 0
    assert saw_nonzero


def test_vanishing_sampler_full_span_forces_zero():
    stream = rng.derive(MASTER, "oracles", "vanish-full")
    for _ in range(20):
        f = sample_vanishing_poly(2, 2, [word("10"), word("01")], stream)
        assert f.coeffs == 0
    with pytest.raises(PreconditionError, match="one ambient length"):
        sample_vanishing_poly(2, 2, [0b100], stream)


# ---------------------------------------------------------------------------
# disperser attack


def _linear_family(n: int) -> list[Polynomial]:
    """family[y] is the inner-product polynomial x -> <y, x>."""
    return [
        Polynomial.from_monomials(n, 1, [[i] for i in range(n) if (y >> i) & 1])
        for y in range(1 << n)
    ]


def test_disperser_attack_zero_family():
    family = [Polynomial.from_monomials(3, 2, []) for _ in range(8)]
    stream = rng.derive(MASTER, "oracles", "disperser-zero")
    w = disperser_attack(family, t=2, budget=4, stream=stream)
    assert w.verified
    assert w.value == 0
    assert len(w.set_a) == 4
    assert len(w.set_b) == 8  # every seed survives
    assert w.params["success"]


def test_disperser_attack_leaves_the_family_masks_unbuilt():
    stream = rng.derive(MASTER, "oracles", "disperser-lazy-masks")
    family = [sample_poly(5, 2, stream) for _ in range(32)]
    assert disperser_attack(family, t=2, budget=20, stream=stream).verified
    assert all(f._mask_tuple is None for f in family)


def test_disperser_attack_linear_family_finds_dual():
    family = _linear_family(4)
    stream = rng.derive(MASTER, "oracles", "disperser-linear")
    w = disperser_attack(family, t=2, budget=50, stream=stream)
    assert w.verified and w.params["success"]
    assert len(w.set_b) == 4  # 2^(n-t) seeds orthogonal to the subspace
    dual = {
        y
        for y in range(16)
        if all((y & x).bit_count() & 1 == 0 for x in w.set_a)
    }
    assert set(w.set_b) == dual


def test_disperser_attack_witness_reverifies():
    family = _linear_family(3)
    stream = rng.derive(MASTER, "oracles", "disperser-verify")
    w = disperser_attack(family, t=1, budget=20, stream=stream)
    assert w.n == 3
    assert verify_constancy(family, 3, w.set_a, w.set_b, w.value)
    assert not verify_constancy(family, 3, w.set_a, w.set_b, 1 - w.value)
    # an empty side certifies nothing
    assert not verify_constancy(family, 3, (), w.set_b, w.value)
    assert not verify_constancy(family, 3, w.set_a, (), w.value)
    # a word outside F_2^3 is refused, not read
    for xs, ys in (((0b1000,), w.set_b), (w.set_a, (-1,))):
        with pytest.raises(PreconditionError, match="one ambient length"):
            verify_constancy(family, 3, xs, ys, w.value)


def test_disperser_attack_exhausts_on_affine_family():
    # both members evaluate to 1 at the nonzero point, never constant 0 on a line
    f = Polynomial.from_monomials(1, 1, [[0]])
    stream = rng.derive(MASTER, "oracles", "disperser-stuck")
    with pytest.raises(RetryExhaustedError):
        disperser_attack([f, f], t=1, budget=5, stream=stream)


class _ZeroBits:
    """A stream whose every draw is the zero word, which no basis keeps."""

    def getrandbits(self, k):
        return 0


def test_disperser_attack_gives_up_when_no_subspace_is_drawn():
    # every seed of the zero family survives any subspace, but no trial gets one
    family = [Polynomial.from_monomials(2, 1, []) for _ in range(4)]
    with pytest.raises(RetryExhaustedError, match="in 3 subspace trials"):
        disperser_attack(family, t=1, budget=3, stream=_ZeroBits())


class _Unread:
    """A stream whose first read fails the test."""

    def __getattr__(self, name):
        pytest.fail(f"read the stream ({name}) before refusing")


_UNIT_POINTS = (4, (0b0001, 0b0010, 0b0100, 0b1000))


@pytest.mark.parametrize("budget", [0, -3])
@pytest.mark.parametrize(
    "search",
    [
        lambda budget, s: disperser_attack(_linear_family(2), t=1, budget=budget, stream=s),
        lambda budget, s: monochromatic_sumset_search(
            Polynomial.from_monomials(3, 2, []), 2, budget, s
        ),
        lambda budget, s: subspace_evasive_audit(
            _UNIT_POINTS, 1, 2, mode="randomized", budget=budget, stream=s
        ),
        lambda budget, s: sumset_evasive_audit(_UNIT_POINTS, 1, budget, s),
    ],
    ids=["disperser-attack", "sumset-search", "subspace-audit", "sumset-audit"],
)
def test_a_search_with_no_budget_is_refused_before_any_draw(search, budget):
    """A search that may look at nothing has no verdict: it used to pass an
    audit, report a miss or exhaust, each on zero trials."""
    with pytest.raises(PreconditionError, match="budget must be positive"):
        search(budget, _Unread())


def test_disperser_attack_preconditions():
    stream = rng.derive(MASTER, "oracles", "disperser-pre")
    family = _linear_family(2)
    with pytest.raises(BudgetExceededError, match=r"attack family \(n=13\)"):
        disperser_attack(family[:1] * (1 << 13), t=1, budget=1, stream=stream)
    with pytest.raises(PreconditionError, match="one monomial order"):
        disperser_attack(family[:3] + [Polynomial.from_monomials(2, 2, [])], t=1, budget=1,
                         stream=stream)
    with pytest.raises(PreconditionError):
        disperser_attack(family[:3], t=1, budget=1, stream=stream)
    with pytest.raises(PreconditionError):
        disperser_attack(family, t=0, budget=1, stream=stream)
    with pytest.raises(PreconditionError):
        disperser_attack(family, t=3, budget=1, stream=stream)


# ---------------------------------------------------------------------------
# monochromatic sumsets


def test_mono_search_constant_functions():
    stream = rng.derive(MASTER, "oracles", "mono-zero")
    w = monochromatic_sumset_search(Polynomial.from_monomials(4, 2, []), 3, 5000, stream)
    assert w is not None and w.verified and w.value == 0
    w1 = monochromatic_sumset_search(
        Polynomial.from_monomials(4, 2, [[]]), 3, 5000, stream
    )
    assert w1 is not None and w1.value == 1


def test_mono_search_linear_function():
    f = Polynomial.from_monomials(6, 1, [[0]])  # x1
    stream = rng.derive(MASTER, "oracles", "mono-linear")
    w = monochromatic_sumset_search(f, 4, 5000, stream)
    assert w is not None
    assert len(w.set_a) >= 4 and len(w.set_b) >= 4
    table = truth_table(f)
    for a in w.set_a:
        for b in w.set_b:
            assert table[a ^ b] == w.value


def test_mono_search_gives_up_on_random_cubic():
    stream = rng.derive(MASTER, "oracles", "mono-cubic")
    f = sample_poly(10, 3, stream)
    assert monochromatic_sumset_search(f, 32, 20000, stream) is None


def test_mono_search_rejects_empty_target():
    stream = rng.derive(MASTER, "oracles", "mono-pre")
    with pytest.raises(PreconditionError):
        monochromatic_sumset_search(Polynomial.from_monomials(2, 1, []), 0, 10, stream)


# ---------------------------------------------------------------------------
# subspace counting and evasiveness


def test_subspace_count_values():
    for n in range(1, 7):
        assert subspace_count(n, 1) == (1 << n) - 1
    assert subspace_count(4, 2) == 35
    assert subspace_count(3, 3) == 1
    assert subspace_count(5, 0) == 1


def test_rref_enumeration_is_complete():
    from polyext.oracles import _rref_subspaces

    seen = set()
    for rows in _rref_subspaces(4, 2):
        assert span_rank(rows) == 2
        seen.add(frozenset(enumerate_span(rows)))
    assert len(seen) == 35


def test_subspace_audit_flags_a_subspace():
    spanned = point_set(4, enumerate_span([0b0001, 0b0010]))
    report = subspace_evasive_audit(spanned, ell=2, threshold=4)
    assert not report.verdict
    extra = report.per_source[0]
    assert extra["max_intersection"] == 4
    rows = [word(s) for s in extra["witness_basis"]]
    hits = sum(1 for p in enumerate_span(rows) if p in set(spanned[1]))
    assert hits >= 4


def test_subspace_audit_standard_basis_is_evasive():
    basis_pts = point_set(4, [1 << i for i in range(4)])
    report = subspace_evasive_audit(basis_pts, ell=2, threshold=3)
    assert report.verdict
    assert report.per_source[0]["max_intersection"] == 2


def test_subspace_audit_descriptor_consistency():
    desc = build_evasive_h(3, 2, seed=5, r=2)
    report = subspace_evasive_audit(desc, ell=2, threshold=3)
    extra = report.per_source[0]
    assert extra["ambient"] == 5
    if extra["witness_basis"] is None:
        assert report.verdict and extra["max_intersection"] < 3
    else:
        assert not report.verdict


def test_subspace_audit_randomized_identity_block():
    # graph of the zero map: images of any 4 distinct domain points span <= 3
    desc = EvasiveDescriptor(k=3, d=1, r=1, polys=(Polynomial.from_monomials(3, 1, []),), seed=0)
    stream = rng.derive(MASTER, "oracles", "audit-random")
    report = subspace_evasive_audit(
        desc, ell=3, threshold=4, mode="randomized", budget=20, stream=stream
    )
    assert not report.verdict
    assert report.per_source[0]["flag_rate"] == 1.0


def test_subspace_audit_randomized_on_a_point_set():
    stream = rng.derive(MASTER, "oracles", "audit-random-points")
    # any 3 points of a 2-dimensional subspace span at most 2 dimensions
    spanned = point_set(4, enumerate_span([0b0001, 0b0010]))
    report = subspace_evasive_audit(spanned, 2, 3, mode="randomized", budget=10, stream=stream)
    extra = report.per_source[0]
    assert not report.verdict and extra["flag_rate"] == 1.0
    flagged = extra["first_flagged_image"]
    assert len(set(flagged)) == 3 and all(len(p) == 4 for p in flagged)
    assert {word(p) for p in flagged} <= set(spanned[1])
    # any 3 unit vectors span 3 dimensions
    units = point_set(4, [1, 2, 4, 8])
    report = subspace_evasive_audit(units, 2, 3, mode="randomized", budget=10, stream=stream)
    assert report.verdict and report.per_source[0]["first_flagged_image"] is None
    with pytest.raises(PreconditionError, match="more points than the set holds"):
        subspace_evasive_audit(units, 2, 5, mode="randomized", budget=10, stream=stream)


def test_subspace_audit_mode_errors():
    pts = point_set(4, [1])
    with pytest.raises(PreconditionError):
        subspace_evasive_audit(pts, ell=2, threshold=2, mode="guess")
    with pytest.raises(PreconditionError):
        subspace_evasive_audit(pts, ell=2, threshold=2, mode="randomized")
    with pytest.raises(PreconditionError):
        subspace_evasive_audit(point_set(11, [1]), ell=2, threshold=2)
    with pytest.raises(PreconditionError):
        subspace_evasive_audit(pts, ell=4, threshold=2)
    with pytest.raises(PreconditionError):
        subspace_evasive_audit(pts, ell=2, threshold=0)
    with pytest.raises(PreconditionError, match="nonempty"):
        subspace_evasive_audit(point_set(4, []), ell=2, threshold=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ell": 1, "threshold": 2},
        {"ell": 1, "threshold": 0},
        {"ell": 1, "threshold": 2, "mode": "guess"},
        {"ell": 1, "threshold": 2, "mode": "randomized"},
        {"ell": 1, "threshold": 9, "mode": "randomized", "stream": rng.derive(MASTER, "refuse")},
    ],
    ids=["ambient", "threshold", "mode", "stream", "domain"],
)
def test_subspace_audit_refuses_before_it_lifts_a_point(monkeypatch, kwargs):
    """Each refusal comes before the 2^k lifts through all r polynomials."""
    desc = build_evasive_h(3, 2, seed=1, r=20)
    lifts = []
    monkeypatch.setattr(oracles, "lift_point", lambda *args: lifts.append(args))
    with pytest.raises(PreconditionError):
        subspace_evasive_audit(desc, **kwargs)
    assert lifts == []


def test_subspace_audit_budget():
    with pytest.raises(BudgetExceededError):
        subspace_evasive_audit(point_set(10, [1]), ell=3, threshold=2)


@pytest.mark.parametrize(
    "audit",
    [
        lambda subject: subspace_evasive_audit(subject, 1, 2),
        lambda subject: subspace_evasive_audit(
            subject, 1, 2, mode="randomized", budget=10, stream=rng.derive(MASTER, "wide")
        ),
        lambda subject: sumset_evasive_audit(subject, 1, 100, rng.derive(MASTER, "wide")),
    ],
    ids=["subspace-exhaustive", "subspace-randomized", "sumset"],
)
@pytest.mark.parametrize("stray", [31, 8, -1])
def test_evasive_audits_refuse_a_word_outside_the_ambient_space(audit, stray):
    """A 5-bit point in a set over F_2^3 was audited, and printed, masked to 3 bits."""
    with pytest.raises(PreconditionError, match="one ambient length"):
        audit(point_set(3, [1, stray, 6]))


# ---------------------------------------------------------------------------
# sumset evasiveness


def test_sumset_audit_full_space_fails():
    full = point_set(3, range(8))
    stream = rng.derive(MASTER, "oracles", "sumset-full")
    report = sumset_evasive_audit(full, t=1, budget=2000, stream=stream)
    assert not report.verdict
    witness = report.per_source[0]["witness"]
    assert witness is not None and witness["verified"]


def test_sumset_audit_linear_graph_fails():
    lin = Polynomial.from_monomials(3, 1, [[0]])
    desc = EvasiveDescriptor(k=3, d=1, r=1, polys=(lin,), seed=0)
    stream = rng.derive(MASTER, "oracles", "sumset-lin")
    report = sumset_evasive_audit(desc, t=1, budget=2000, stream=stream)
    assert not report.verdict  # the graph of a linear map is closed under sums
    witness = report.per_source[0]["witness"]
    pts = {lift_point(desc.polys, xb) for xb in range(8)}
    for a in witness["set_a"]:
        for b in witness["set_b"]:
            assert len(a) == len(b) == 4
            assert word(a) ^ word(b) in pts


def test_sumset_audit_single_quadratic_is_breakable():
    desc = build_evasive_h(6, 2, seed=17, r=2)
    stream = rng.derive(MASTER, "oracles", "sumset-quad-r", 2)
    report = sumset_evasive_audit(desc, t=2, budget=5000, stream=stream)
    assert not report.verdict


def test_sumset_audit_many_appendices_hold():
    desc = build_evasive_h(6, 2, seed=17, r=8)
    stream = rng.derive(MASTER, "oracles", "sumset-quad-r", 8)
    report = sumset_evasive_audit(desc, t=2, budget=5000, stream=stream)
    assert report.verdict
    assert report.per_source[0]["witness"] is None


def test_sumset_audit_rejects_negative_t():
    stream = rng.derive(MASTER, "oracles", "sumset-pre")
    with pytest.raises(PreconditionError):
        sumset_evasive_audit(point_set(2, [0]), t=-1, budget=1, stream=stream)


# sha256 of the witness (or null) and the stream's next getrandbits(64):
# case -> (n, degree of f, target size, budget)
PINNED_SEARCHES = {
    "deg1": ((8, 1, 6, 5000), "e9b0ad262f030aba0729863825734ea36f751a2706f5bf529ff3369d2f06964d"),
    "deg2": ((8, 2, 4, 5000), "3e52732591f1475e94cc68e6704f074000b8351a5d1b716ca8170296d3651225"),
    "deg3": ((8, 3, 3, 5000), "2630d662695624067ef10f3a9075eff0054348287cc4ddb6dd7ed8290ae2a1c5"),
    "deg3-none": ((10, 3, 32, 20000), "dd4fd0f4e29640390890ec79ce80148f111f63f026b9709d13cbb174789b44da"),
}

# sha256 of the audit report JSON and the stream's next getrandbits(64)
PINNED_AUDITS = {
    "r2": "e233580daf286a73f4fd3db6953f1f443af2ca43cfbf745d541784f0bc1c1bc5",
    "r3": "d6421b5594166f1fb20219a06d681b93cfd0355cddfe389e5bdb3c99a45a61fe",
    "r8": "1dce5a8bca39282ece4af308b3bb6b8aceda4e55f38c3279804a14248c376e42",
    "points": "5838122cb8b0f982c66a77f4b2fd3bd1aff180777a0c19e0da3630d4a1714a47",
}


@pytest.mark.parametrize("case", sorted(PINNED_SEARCHES))
def test_monochromatic_search_is_pinned(case):
    (n, d, size, budget), digest = PINNED_SEARCHES[case]
    s = rng.derive(MASTER, "oracles", "pinned-search", case)
    w = monochromatic_sumset_search(sample_poly(n, d, s), size, budget, s)
    text = render_json({"witness": w.to_json_dict() if w else None, "next": s.getrandbits(64)})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(PINNED_AUDITS))
def test_sumset_audit_is_pinned(case):
    """Evasive graphs with r = 2 (breakable), r = 3 (holds after many stall
    restarts) and r = 8 (holds), and a 40-point set."""
    s = rng.derive(MASTER, "oracles", "pinned-audit", case)
    if case == "points":
        subject, t = point_set(6, s.sample(range(64), 40)), 1
    else:
        subject, t = build_evasive_h(6, 2, seed=17, r=int(case[1:])), 2
    text = sumset_evasive_audit(subject, t, 5000, s).to_json() + str(s.getrandbits(64))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_AUDITS[case]


# ---------------------------------------------------------------------------
# inner-product dichotomy


def test_dichotomy_on_origin():
    assert dichotomy_check(2, [word("00")], [word("00")]) == (0, 0, {0})


def test_dichotomy_single_overlap():
    assert dichotomy_check(2, [word("10")], [word("10")]) == (1, 1, {1})


def test_dichotomy_mixed_values():
    dims_a, dims_b, values = dichotomy_check(2, [0, 1], [1])
    assert (dims_a, dims_b) == (1, 1)
    assert values == {0, 1}


def test_dichotomy_rejects_empty():
    with pytest.raises(PreconditionError):
        dichotomy_check(1, [], [word("1")])


def test_dichotomy_large_spans_see_both_values():
    stream = rng.derive(MASTER, "oracles", "dichotomy")
    accepted = 0
    while accepted < 100:
        n = stream.randrange(2, 7)
        a = [stream.getrandbits(n) for _ in range(2 * n)]
        b = [stream.getrandbits(n) for _ in range(2 * n)]
        dim_a, dim_b, values = dichotomy_check(n, a, b)
        if dim_a + dim_b <= n + 1:
            continue
        assert values == {0, 1}
        accepted += 1


# ---------------------------------------------------------------------------
# energy vs bias spot check


def test_low_energy_pairs_keep_quadratics_unbiased():
    """Random 16-point sets have near-minimal energy and small quadratic bias."""
    hits = 0
    for seed in range(100):
        s = rng.derive(MASTER, "oracles", "bias-energy", seed)
        xs = s.sample(range(256), 16)
        ys = s.sample(range(256), 16)
        assert additive_energy(xs, ys) <= 16 * 16 * 16
        f = sample_poly(8, 2, s)
        coeffs = f.coeffs
        acc = 0
        for x in xs:
            for y in ys:
                v = (coeffs & eval_bits(x ^ y, f.order)).bit_count() & 1
                acc += 1 - 2 * v
        if abs(acc) / 256 <= 0.25:
            hits += 1
    assert hits >= 95
