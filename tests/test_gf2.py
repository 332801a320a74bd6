"""Packed GF(2) linear algebra: rank, samplers, and combinatorial generators."""

import hashlib
import math
import re
from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyext import gf2, rng
from polyext.errors import PreconditionError, RetryExhaustedError
from polyext.gf2 import (
    AffineSolver,
    BitMatrix,
    BitVector,
    XorBasis,
    binom_sum,
    canonical_key,
    enumerate_span,
    hamming_ball,
    nullspace_basis,
    rank,
    sample_invertible,
    sample_uniform_matrix,
    span_rank,
    subset_xor,
    weight_slice,
)

MASTER = 20260823


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


# ---------------------------------------------------------------------------
# BitVector / BitMatrix basics


def test_vector_string_round_trip():
    for text in ("", "0", "1", "0101", "11100", "0" * 40 + "1"):
        assert bv(text).to_string() == text


def test_vector_rejects_bad_characters():
    for text, bad in (("01x0", "x"), ("1_0", "_"), (" 10", " "), ("-1", "-"), ("10+", "+")):
        with pytest.raises(ValueError, match=re.escape(f"invalid bit character '{bad}'")):
            BitVector.from_string(text)


@given(st.integers(min_value=0, max_value=80).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))))
def test_word_string_and_parse_word_are_inverse(case):
    n, word = case
    text = gf2.word_string(n, word)
    assert len(text) == n and text == "".join(str((word >> i) & 1) for i in range(n))
    assert gf2.parse_word(text) == word


def support(v: BitVector) -> tuple[int, ...]:
    """Sorted 0-based indices of the nonzero coordinates, read one coordinate at a time."""
    return tuple(i for i in range(v.n) if v[i])


def test_vector_support_and_weight():
    v = bv("10110")
    assert v.bits.bit_count() == 3
    assert support(v) == (0, 2, 3)
    assert BitVector.from_support(5, (0, 2, 3)) == v


@given(st.text(alphabet="01", max_size=80))
def test_vector_xor_self_is_zero(text):
    v = bv(text)
    assert (v ^ v).bits == 0
    assert (v ^ v).n == v.n


@given(st.text(alphabet="01", max_size=40), st.text(alphabet="01", max_size=40))
def test_vector_xor_commutes(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            bv(a) ^ bv(b)
    else:
        assert bv(a) ^ bv(b) == bv(b) ^ bv(a)


@pytest.mark.parametrize(
    "call, error, says",
    [
        (lambda: BitVector(-1, 0), ValueError, "nonnegative"),
        (lambda: BitVector.from_support(3, (3,)), ValueError, "out of range"),
        (lambda: bv("010")[3], IndexError, "3"),
        (lambda: BitMatrix(-1, 2, []), ValueError, "nonnegative"),
        (lambda: BitMatrix(2, 2, [1]), ValueError, "row count"),
        (lambda: BitMatrix.from_string("\n"), ValueError, "empty matrix"),
        (lambda: BitMatrix.from_string("01\n1"), ValueError, "ragged"),
        (lambda: hamming_ball(-1, 0), ValueError, "nonnegative"),
    ],
    ids=["vector-length", "support-index", "coordinate", "matrix-shape", "row-count",
         "empty-rows", "ragged-rows", "ball-radius"],
)
def test_malformed_shapes_are_refused(call, error, says):
    with pytest.raises(error, match=says):
        call()


def test_matrix_row_column_consistency():
    m = BitMatrix.from_string("110\n011")
    assert m.row_words[0] == bv("110").bits
    assert [(w >> 1) & 1 for w in m.row_words] == [1, 1]  # middle column hits both rows


def test_matrix_apply_is_row_dot():
    m = BitMatrix.from_string("110\n011\n101")
    x = bv("101")
    out = BitVector(m.rows, m.apply_word(x.bits))
    expected = [(w & x.bits).bit_count() & 1 for w in m.row_words]
    assert [out[i] for i in range(3)] == expected


# ---------------------------------------------------------------------------
# rank


def test_rank_identity():
    assert rank(BitMatrix(3, 3, [1 << i for i in range(3)])) == 3


def test_rank_zero_matrix():
    assert rank(BitMatrix(4, 7, [0] * 4)) == 0


def test_rank_dependent_rows():
    # third row is the sum of the first two
    m = BitMatrix.from_string("110\n011\n101")
    assert rank(m) == 2


def _oracle_independent_count(words):
    """Greedy maximal independent subset, membership by brute-force subset XOR."""
    chosen = []
    for w in words:
        spanned = False
        for size in range(len(chosen) + 1):
            for combo in combinations(chosen, size):
                acc = 0
                for c in combo:
                    acc ^= c
                if acc == w:
                    spanned = True
                    break
            if spanned:
                break
        if not spanned:
            chosen.append(w)
    return len(chosen)


def test_rank_matches_greedy_oracle():
    stream = rng.derive(MASTER, "gf2", "rank-oracle")
    for _ in range(60):
        n = stream.randrange(1, 13)
        r = stream.randrange(1, 9)
        m = sample_uniform_matrix(r, n, stream)
        assert rank(m) == _oracle_independent_count(m.row_words)


def test_rank_invariant_under_row_operations():
    stream = rng.derive(MASTER, "gf2", "rank-rowops")
    for _ in range(1000):
        r = stream.randrange(1, 9)
        c = stream.randrange(1, 17)
        m = sample_uniform_matrix(r, c, stream)
        perm = list(range(r))
        stream.shuffle(perm)
        permuted = BitMatrix(r, c, [m.row_words[i] for i in perm])
        assert rank(permuted) == rank(m)
        if r >= 2:
            i, j = stream.sample(range(r), 2)
            added = list(m.row_words)
            added[i] ^= added[j]
            assert rank(BitMatrix(r, c, added)) == rank(m)


# ---------------------------------------------------------------------------
# samplers


def test_sample_uniform_matrix_zero_rows():
    m = sample_uniform_matrix(0, 5, rng.derive(MASTER, "gf2", "empty"))
    assert (m.rows, m.cols) == (0, 5)


def test_sample_uniform_matrix_deterministic():
    a = sample_uniform_matrix(2, 2, rng.derive(MASTER, "gf2", "det"))
    b = sample_uniform_matrix(2, 2, rng.derive(MASTER, "gf2", "det"))
    assert a == b


def test_sample_uniform_matrix_rank_rarely_deficient():
    """Random 64x64 matrices have rank >= 58 essentially always."""
    hits = 0
    for trial in range(1000):
        stream = rng.derive(MASTER, "gf2", "rank64", trial)
        if rank(sample_uniform_matrix(64, 64, stream)) >= 58:
            hits += 1
    assert hits >= 990


def test_sample_invertible_one_by_one():
    m = sample_invertible(1, rng.derive(MASTER, "gf2", "inv1"))
    assert m.row_words == (1,)


def test_sample_invertible_always_full_rank():
    stream = rng.derive(MASTER, "gf2", "invrank")
    for _ in range(50):
        m = stream.randrange(1, 12)
        assert rank(sample_invertible(m, stream)) == m


def test_sample_invertible_uniform_over_gl2():
    """Histogram over 60000 draws: each invertible 2x2 matrix near 1/6."""
    invertible = [
        (a, b)
        for a in range(4)
        for b in range(4)
        if rank(BitMatrix(2, 2, (a, b))) == 2
    ]
    assert len(invertible) == 6
    counts = dict.fromkeys(invertible, 0)
    stream = rng.derive(MASTER, "gf2", "gl2-histogram")
    draws = 60000
    for _ in range(draws):
        m = sample_invertible(2, stream)
        counts[(m.row_words[0], m.row_words[1])] += 1
    for key in invertible:
        assert abs(counts[key] / draws - 1 / 6) <= 0.01


def _matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    cols = [sum(((w >> j) & 1) << i for i, w in enumerate(b.row_words)) for j in range(b.cols)]
    rows = []
    for i in range(a.rows):
        w = 0
        for j, col in enumerate(cols):
            w |= ((a.row_words[i] & col).bit_count() & 1) << j
        rows.append(w)
    return BitMatrix(a.rows, b.cols, rows)


def _invert(m: BitMatrix) -> BitMatrix:
    """Inverse by augmented elimination; independent of the library rank path."""
    n = m.rows
    work = [m.row_words[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if (work[i] >> col) & 1)
        work[col], work[pivot] = work[pivot], work[col]
        for i in range(n):
            if i != col and (work[i] >> col) & 1:
                work[i] ^= work[col]
    return BitMatrix(n, n, [w >> n for w in work])


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 33, 64])
def test_sample_invertible_times_inverse_is_identity(m):
    mat = sample_invertible(m, rng.derive(MASTER, "gf2", "inverse", m))
    assert _matmul(mat, _invert(mat)) == BitMatrix(m, m, [1 << i for i in range(m)])


def test_sample_invertible_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        sample_invertible(0, rng.derive(MASTER, "gf2", "bad"))


def test_sample_invertible_gives_up_on_a_stuck_stream(monkeypatch):
    class ZeroStream(Random):
        def getrandbits(self, k):
            return 0  # never an independent column

    monkeypatch.setattr(gf2, "COLUMN_RETRIES", 3)
    with pytest.raises(RetryExhaustedError):
        sample_invertible(2, ZeroStream())


# ---------------------------------------------------------------------------
# hamming_ball / weight_slice / binom_sum


def test_ball_radius_zero():
    assert hamming_ball(3, 0) == [bv("000")]


def test_ball_radius_one_canonical_order():
    assert hamming_ball(3, 1) == [bv("000"), bv("100"), bv("010"), bv("001")]


def test_ball_full_space():
    for n in range(7):
        assert len(set(hamming_ball(n, n))) == 1 << n


def test_ball_size_matches_binom_sum():
    for n in range(17):
        for r in range(n + 1):
            assert len(hamming_ball(n, r)) == binom_sum(n, r)


def reference_key(v: BitVector) -> tuple[int, tuple[int, ...]]:
    """The canonical order by its definition: weight, then the sorted support."""
    return (v.bits.bit_count(), support(v))


def test_ball_sorted_by_canonical_key():
    ball = hamming_ball(6, 6)
    keys = [reference_key(v) for v in ball]
    assert keys == sorted(keys)


def test_support_and_canonical_key_match_the_coordinate_definition():
    for n in range(9):
        by_coords = {}
        for bits in range(1 << n):
            coords = support(BitVector(n, bits))
            assert BitVector.from_support(n, coords).bits == bits
            by_coords[bits] = (len(coords), coords)
        assert sorted(range(1 << n), key=canonical_key(n)) == sorted(range(1 << n), key=by_coords.get)


def test_weight_slice_first_window():
    assert weight_slice(6, 1, 1, 2) == [bv("100000"), bv("010000")]


def test_weight_slice_last_window():
    assert weight_slice(6, 1, 5, 6) == [bv("000010"), bv("000001")]


def test_weight_slice_pair_count():
    out = weight_slice(8, 2, 1, 4)
    assert len(out) == 6
    assert all(v.bits.bit_count() == 2 and max(support(v)) <= 3 for v in out)


def test_weight_slice_rejects_bad_window():
    with pytest.raises(PreconditionError):
        weight_slice(6, 1, 4, 3)
    with pytest.raises(PreconditionError):
        weight_slice(6, 3, 1, 2)


def test_binom_sum_values():
    assert binom_sum(4, 2) == 11
    assert binom_sum(3, 5) == 8
    for n in (0, 1, 7, 40):
        assert binom_sum(n, 0) == 1


@given(st.integers(min_value=0, max_value=200))
def test_binom_sum_saturates_at_power_of_two(n):
    assert binom_sum(n, n) == 1 << n


def test_binom_sum_large_values_exact():
    # far beyond 64-bit range; exactness is the point
    assert binom_sum(200, 100) == sum(math.comb(200, i) for i in range(101))


# ---------------------------------------------------------------------------
# canonical_key / subset_xor / enumerate_span / nullspace / solver


def test_canonical_key_sorts_into_the_ball_order():
    """Through the table (n <= 12) and past it (n = 13)."""
    for n in [*range(1, 9), 13]:
        assert sorted(range(1 << n), key=canonical_key(n)) == [v.bits for v in hamming_ball(n, n)]


def test_subset_xor_on_ints_and_arrays():
    words = [0b0011, 0b0101, 0b1000]
    for r in range(8):
        expected = 0b1111
        for k in range(3):
            if (r >> k) & 1:
                expected ^= words[k]
        assert subset_xor(words, r, 0b1111) == expected
    assert subset_xor(words, 0) == 0
    tables = [np.array([1, 0, 1], dtype=np.uint8), np.array([1, 1, 0], dtype=np.uint8)]
    offset = np.zeros(3, dtype=np.uint8)
    snapshot = [t.copy() for t in tables]
    assert subset_xor(tables, 0b11, offset).tolist() == [0, 1, 1]
    assert subset_xor(tables, 0b01, offset).tolist() == [1, 0, 1]
    # the caller's arrays are never XORed in place
    assert offset.tolist() == [0, 0, 0]
    assert all(np.array_equal(t, u) for t, u in zip(tables, snapshot))


def test_enumerate_span_counts():
    stream = rng.derive(MASTER, "gf2", "span")
    h = hashlib.sha256()
    for _ in range(50):
        n = stream.randrange(1, 11)
        words = [stream.getrandbits(n) for _ in range(stream.randrange(0, 6))]
        span = enumerate_span(words)
        assert len(span) == len(set(span)) == 1 << span_rank(words)
        assert span[0] == 0
        member = set(span)
        for w in words:
            assert w in member
        h.update(f"{span}\n".encode())
    # the exact lists, order included
    assert h.hexdigest() == "3c11fb2636cbd12a2e7f858f9a7d6881fdc0cbb888d2a63134330ecd9a2896e7"


def test_nullspace_dimension_and_orthogonality():
    stream = rng.derive(MASTER, "gf2", "nullspace")
    h = hashlib.sha256()
    for _ in range(80):
        cols = stream.randrange(1, 13)
        rows = [stream.getrandbits(cols) for _ in range(stream.randrange(0, 7))]
        basis = nullspace_basis(rows, cols)
        assert len(basis) == cols - span_rank(rows)
        assert span_rank(basis) == len(basis)
        for b in basis:
            for r in rows:
                assert (r & b).bit_count() % 2 == 0
        h.update(f"{basis}\n".encode())
    # sample_vanishing_poly draws its combination in basis order, so the
    # order is pinned too
    assert h.hexdigest() == "8a1dc7e084b52589b1a70a32c1bc637d2fb6a5c6f3898dd146917cd504ea71f5"


def test_affine_solver_fiber_membership():
    """onto refuses exactly the maps without full row rank; every sample lies in its fiber."""
    stream = rng.derive(MASTER, "gf2", "solver")
    refused = 0
    for _ in range(200):
        cols = stream.randrange(1, 10)
        m = stream.randrange(1, 7)
        rows = [stream.getrandbits(cols) for _ in range(m)]
        solver = AffineSolver.onto(rows, cols)
        if span_rank(rows) < m:
            assert solver is None
            refused += 1
            continue
        assert solver is not None
        z = stream.getrandbits(m)
        brute = [
            x
            for x in range(1 << cols)
            if all(((rows[i] & x).bit_count() & 1) == ((z >> i) & 1) for i in range(m))
        ]
        for _ in range(4):
            assert solver.sample(z, stream) in brute
    assert 0 < refused < 200  # both branches ran


def test_affine_solver_samples_fiber_uniformly():
    # one equation over 3 variables: fiber of size 4, frequencies near 1/4
    solver = AffineSolver.onto([0b101], 3)
    stream = rng.derive(MASTER, "gf2", "solver-uniform")
    counts: dict[int, int] = {}
    for _ in range(8000):
        sol = solver.sample(1, stream)
        counts[sol] = counts.get(sol, 0) + 1
    assert sorted(counts) == [x for x in range(8) if (x & 0b101).bit_count() % 2 == 1]
    assert all(abs(c / 8000 - 0.25) < 0.03 for c in counts.values())


def test_xor_basis_tracks_span():
    basis = XorBasis()
    assert basis.add(0b011)
    assert basis.add(0b110)
    assert not basis.add(0b101)  # dependent: sum of the first two
    assert not basis.add(0b000)  # add reports membership: False for span elements
    assert not basis.add(0b110)
    assert len(basis) == 2
    assert basis.add(0b001)  # outside the span, so it enlarges it
    assert len(basis) == 3


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=10))
def test_span_rank_never_exceeds_word_count(words):
    r = span_rank(words)
    assert 0 <= r <= len(words)
    assert r == rank(BitMatrix(len(words), 12, words))
