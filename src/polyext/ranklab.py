"""Evaluation-rank certificates and high-rank sumset machinery.

The central quantity is the GF(2) rank of the monomial-evaluation vectors of
a point set, under a degree cap d.  Rank claims are never taken on faith:
every certificate carries an explicit independent witness subset that is
re-eliminated on construction.

Two samplers build structured pairs (A', B') whose sumset has provably high
evaluation rank: one selects preimages of a small Hamming ball under a random
surjection, the other draws the special product-form pair whose sumset
evaluation matrix has full rank |A'| * |B'|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from random import Random
from typing import Callable, Optional, Sequence

from .anf import check_order, eval_bits, monomial_order
from .errors import PreconditionError, RetryExhaustedError
from .gf2 import (
    AffineSolver,
    BitMatrix,
    BitVector,
    apply_rows,
    binom_sum,
    canonical_key,
    check_words,
    hamming_ball,
    sample_invertible,
    sample_uniform_matrix,
    span_rank,
    subset_xors,
    weight_slice,
    word_string,
)
from .sources import Flat

__all__ = [
    "RankCertificate",
    "HighRankSelection",
    "SpecialSumsetDraw",
    "eval_rank",
    "eval_rank_words",
    "full_rank_check",
    "find_high_rank_subsets",
    "special_sumset_sampler",
]


@dataclass(frozen=True)
class RankCertificate:
    """Evaluation rank of a point set, with an independence witness.

    ``witness`` lists the packed n-bit words of points whose evaluation
    vectors are linearly independent; there are exactly ``rank`` of them and
    they were verified independent when the certificate was built.
    """

    n: int
    degree: int
    point_count: int
    rank: int
    witness: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "point_count": self.point_count,
            "rank": self.rank,
            "witness": [word_string(self.n, w) for w in self.witness],
        }


def _sorted_sums(xs: Sequence[int], ys: Sequence[int], n: int) -> list[int]:
    """The distinct words x ^ y of X + Y, in canonical order."""
    return sorted({x ^ y for x in xs for y in ys}, key=canonical_key(n))


def _independent_points(points: Sequence[int], n: int, d: int) -> list[int]:
    """The greedy subset, in the order given, of points with independent eval vectors.

    The elimination keeps each witness's ``eval_bits`` word, and a separate
    elimination of those stored words re-verifies the witness; a failure
    raises :class:`AssertionError`, since it can only be a bug.
    """
    order = monomial_order(n, d)
    pivots = [0] * (order.size + 1)  # XorBasis.add inlined, as in gf2.span_rank
    witness, words = [], []
    for p in points:
        word = e = eval_bits(p, order)
        while word:
            lead = word.bit_length()
            pivot = pivots[lead]
            if not pivot:
                pivots[lead] = word
                witness.append(p)
                words.append(e)
                break
            word ^= pivot
    if span_rank(words) != len(words):
        raise AssertionError("witness re-verification failed; this is a bug")
    return witness


def _sumset_witness(xs: Sequence[int], ys: Sequence[int], n: int, d: int) -> tuple[list[int], list[int]]:
    """The packed full-rank core: the canonical sums of X + Y and their eval-rank witness.

    X + Y has full eval-rank exactly when the witness has |X| * |Y| points;
    a collision leaves fewer distinct sums than that, so it fails too.
    """
    sums = _sorted_sums(xs, ys, n)
    return sums, _independent_points(sums, n, d)


def eval_rank(points: Sequence[BitVector], d: int) -> RankCertificate:
    """:func:`eval_rank_words` of the points' words; they must share one length."""
    n = points[0].n if points else 0
    if any(p.n != n for p in points):
        raise PreconditionError("points must share one ambient length")
    return eval_rank_words(n, [p.bits for p in points], d)


def eval_rank_words(n: int, points: Sequence[int], d: int) -> RankCertificate:
    """Rank of the degree-<=d evaluation vectors of the given n-bit words.

    Duplicates are ignored.  The witness is the greedy independent subset in
    input order, found by the packed core's elimination and re-checked by a
    separate elimination of its stored evaluation words.  The (n, d) order is
    refused as a polynomial file's is (:func:`anf.check_order`) before it is built.
    """
    pts = list(dict.fromkeys(points))
    if not pts:
        raise PreconditionError("need at least one point")
    check_words(n, pts)
    check_order(n, d, f"evaluation rank: n={n}, d={d}")
    witness = _independent_points(pts, n, d)
    return RankCertificate(n, d, len(pts), len(witness), tuple(witness))


def full_rank_check(
    n: int, a: Sequence[int], b: Sequence[int], d: int
) -> tuple[bool, RankCertificate]:
    """Does eval-rank of A+B equal |A| * |B|?  Collisions alone already fail.

    A and B are nonempty sets of n-bit words.  The packed core forms the
    sums, sorts them canonically, eliminates their evaluation words and
    re-verifies the witness; the verdict comes with the rank certificate of
    the (distinct) sums, so a failure is inspectable.
    """
    _check_sets(n, a, b)
    sums, witness = _sumset_witness(a, b, n, d)
    cert = RankCertificate(n, d, len(sums), len(witness), tuple(witness))
    return len(witness) == len(a) * len(b), cert


def _check_sets(n: int, a: Sequence[int], b: Sequence[int]) -> None:
    if not a or not b:
        raise PreconditionError("both sets must be nonempty")
    check_words(n, a, b)


@dataclass(frozen=True)
class HighRankSelection:
    """Hamming-ball preimage subsets with their sumset rank certificate."""

    a_points: tuple[int, ...]
    b_points: tuple[int, ...]
    certificate: RankCertificate
    attempts: int


def _image_index(points: Sequence[int], image: Callable[[int], int]) -> dict[int, int]:
    """First preimage, in the order given, for each attained image value."""
    fibers: dict[int, int] = {}
    for p in points:
        fibers.setdefault(image(p), p)
    return fibers


def find_high_rank_subsets(
    n: int,
    a: Sequence[int],
    b: Sequence[int],
    d: int,
    m: int,
    trials: int,
    stream: Random,
) -> HighRankSelection:
    """Select A' and B' of size binom_sum(m, d/2) whose sumset has rank >= binom_sum(m, d).

    Samples uniform linear maps to F_2^m until the images of both A and B
    cover the radius-d/2 Hamming ball — the only fibers the selection draws
    from, so this acceptance test is exactly what the rank argument needs.
    A' collects, for every ball point, the canonically-first preimage in A;
    likewise B'.  The rank guarantee on A' + B' is certified by elimination,
    not assumed.

    Requires even d.  Raises :class:`RetryExhaustedError` when no sampled map
    covers the ball on both sets within ``trials``.
    """
    if d % 2 != 0 or d <= 0:
        raise PreconditionError("the ball-splitting argument needs even d >= 2")
    _check_sets(n, a, b)
    if m > n or m <= 0:
        raise PreconditionError("need 1 <= m <= n")
    need = binom_sum(m, d // 2)
    if len(a) < need or len(b) < need:
        raise PreconditionError(f"sets must have at least binom_sum(m, d/2) = {need} points")
    ball_half = [z.bits for z in hamming_ball(m, d // 2)]
    key = canonical_key(n)
    a, b = sorted(a, key=key), sorted(b, key=key)
    # One entry of a table of all 2^n images costs one XOR in subset_xors,
    # about an eighth of one apply_rows, so the table (built once per map and
    # shared by A and B) replaces the per-point calls only where
    # 2^n <= 8 * (|A| + |B|); the registry's n = 8 with 32 + 32 points is one.
    tabulate = 1 << n <= 8 * (len(a) + len(b))
    for attempts in range(1, trials + 1):
        rows = sample_uniform_matrix(m, n, stream)
        if tabulate:
            image = subset_xors([apply_rows(rows, 1 << j) for j in range(n)]).__getitem__
        else:
            image = partial(apply_rows, rows)
        fibers_a = _image_index(a, image)
        if any(z not in fibers_a for z in ball_half):
            continue
        fibers_b = _image_index(b, image)
        if any(z not in fibers_b for z in ball_half):
            continue
        a_sel = tuple(fibers_a[z] for z in ball_half)
        b_sel = tuple(fibers_b[z] for z in ball_half)
        _full, cert = full_rank_check(n, a_sel, b_sel, d)
        if cert.rank < binom_sum(m, d):
            raise AssertionError("sumset rank fell below the guaranteed floor; this is a bug")
        return HighRankSelection(a_sel, b_sel, cert, attempts)
    raise RetryExhaustedError(f"no ball-covering map within {trials} samples")


@dataclass(frozen=True)
class SpecialSumsetDraw:
    """One draw of the product-form sumset pair with its full-rank verdict.

    ``surjection`` maps the ambient space onto F_2^m; ``mixer`` is the
    invertible matrix applied to the two disjoint-support ball slices
    ``b_zero`` / ``b_one``; ``x_star`` and ``y_star`` are the conditional
    preimages, one per slice point, and ``surjection`` restricted to
    ``x_star`` is a bijection onto mixer(b_zero).  The draw runs on row words;
    the two matrices are built as ``BitMatrix`` only for this result.
    """

    surjection: BitMatrix
    mixer: BitMatrix
    b_zero: tuple[BitVector, ...]
    b_one: tuple[BitVector, ...]
    x_star: tuple[BitVector, ...]
    y_star: tuple[BitVector, ...]
    full_rank: bool


class _FiberSampler:
    """Uniform fiber draws for one map over one partial flat support."""

    __slots__ = ("_buckets",)

    def __init__(self, support_bits: Sequence[int], rows: Sequence[int]):
        buckets: dict[int, list[int]] = {}
        for xb in support_bits:
            buckets.setdefault(apply_rows(rows, xb), []).append(xb)
        self._buckets = buckets

    def covers(self, m: int) -> bool:
        return len(self._buckets) == 1 << m

    def sample(self, z_bits: int, stream: Random) -> int:
        bucket = self._buckets[z_bits]
        return bucket[stream.randrange(len(bucket))]


def _onto_fibers(
    support_bits: Optional[Sequence[int]], n: int, rows: Sequence[int]
) -> Optional[AffineSolver | _FiberSampler]:
    """Fiber sampler of the map ``rows`` over a support, or None unless it maps onto F_2^m.

    ``support_bits`` None stands for all of F_2^n: the map is then onto exactly
    when it has rank m, and each fiber is an affine solution set, so one
    elimination of the map both decides that and yields the fiber solver.
    """
    if support_bits is None:
        return AffineSolver.onto(rows, n)
    fibers = _FiberSampler(support_bits, rows)
    return fibers if fibers.covers(len(rows)) else None


def _support_bits(source: Flat) -> Optional[Sequence[int]]:
    """Packed support words, or None when the support is all of F_2^n."""
    return None if len(source.support) == 1 << source.n else source.support


@lru_cache(maxsize=64)
def _ball_slices(m: int, half: int, third: int) -> tuple[tuple[BitVector, ...], ...]:
    """The weight-``half`` slices on the first and on the last ``third`` coordinates."""
    return tuple(weight_slice(m, half, 1, third)), tuple(weight_slice(m, half, m - third + 1, m))


def special_sumset_sampler(
    x_source: Flat,
    y_source: Flat,
    d: int,
    m: int,
    trials: int,
    stream: Random,
) -> SpecialSumsetDraw:
    """Draw the special pair (X*, Y*) whose sumset always has full eval-rank.

    A uniform map E onto F_2^m is rejected until surjective on both supports;
    over a full support one elimination of E decides that and yields its
    fiber solver.  The two slices of the weight-floor(d/2) sphere — supports
    confined to the first and to the last floor(m/3) coordinates — are pushed
    through one uniform invertible mixer L, and one uniform conditional
    preimage is drawn over each resulting fiber; E is onto both supports, so
    no fiber is empty and one mixer always serves.  The full-rank property
    of X* + Y* is then re-verified on every draw by the packed core, on the
    int words of X* and Y*: it sorts their sums canonically, eliminates the
    sums' evaluation words and re-checks the witness by a separate
    elimination.  Full rank holds on every draw by construction, so a failure
    would expose a bug rather than bad luck.  BitVectors and BitMatrix
    objects are built only for the returned draw.
    """
    if d < 1:
        raise PreconditionError("degree must be at least 1")
    if m < 3:
        raise PreconditionError("need m >= 3 so the coordinate thirds are nonempty")
    third = m // 3
    half = d // 2
    if half > third:
        raise PreconditionError("floor(d/2) must fit inside floor(m/3) coordinates")
    n = x_source.n
    if y_source.n != n:
        raise PreconditionError("sources must share one ambient length")
    if m > n:
        raise PreconditionError(f"need m <= n: no map F_2^{n} -> F_2^{m} is onto")
    b_zero, b_one = _ball_slices(m, half, third)
    xs_bits = _support_bits(x_source)
    ys_bits = xs_bits if y_source is x_source else _support_bits(y_source)
    # Over one support (or two full ones) the fibers depend only on the map.
    shared = y_source is x_source or (xs_bits is None and ys_bits is None)

    for _ in range(trials):
        surjection = sample_uniform_matrix(m, n, stream)
        fibers_x = _onto_fibers(xs_bits, n, surjection)
        if fibers_x is not None:
            fibers_y = fibers_x if shared else _onto_fibers(ys_bits, n, surjection)
            if fibers_y is not None:
                break
    else:
        raise RetryExhaustedError(f"no surjective map within {trials} samples")

    # Both samplers cover all of F_2^m, so every fiber the mixer asks for is nonempty.
    mixer = sample_invertible(m, stream)
    x_star_bits = [fibers_x.sample(apply_rows(mixer, u.bits), stream) for u in b_zero]
    y_star_bits = [fibers_y.sample(apply_rows(mixer, v.bits), stream) for v in b_one]
    _sums, witness = _sumset_witness(x_star_bits, y_star_bits, n, d)
    if len(witness) != len(x_star_bits) * len(y_star_bits):
        raise AssertionError("special draw failed the full-rank check; this is a bug")
    return SpecialSumsetDraw(
        surjection=BitMatrix(m, n, surjection),
        mixer=BitMatrix(m, m, mixer),
        b_zero=b_zero,
        b_one=b_one,
        x_star=tuple([BitVector(n, xb) for xb in x_star_bits]),
        y_star=tuple([BitVector(n, yb) for yb in y_star_bits]),
        full_rank=True,
    )
