"""Concrete extractor builders: two-source, seeded subcode, and evasive maps.

Three families share the append-random-polynomials idea.  The two-source
extractor lifts both inputs through h(x) = (x, f_1(x), ..., f_r(x)) with
degree-2 f_i and takes the inner product, giving a total degree of at most 4.
The seeded extractor multiplies a random compressing matrix H into the
generator of the degree-<=d Reed-Muller-style code on t seed variables and
outputs one codeword coordinate per seed.  The evasive map is h itself, with
degree-d appendices, used by the structure audits.

All builders are deterministic functions of their integer seed; descriptors
embed that seed for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, sources
from .anf import Polynomial, check_order, eval_bits, eval_polys, monomial_order, sample_poly
from .errors import PreconditionError, check_budget
from .gf2 import BitMatrix, apply_rows, binom_sum, sample_uniform_matrix, span_rank

__all__ = [
    "TwoSourceDescriptor",
    "SeededDescriptor",
    "EvasiveDescriptor",
    "build_two_source",
    "eval_two_source",
    "two_source_table",
    "build_seeded",
    "eval_seeded",
    "seeded_table",
    "build_evasive_h",
    "lift_point",
]

#: Cap on generator-matrix work in build_seeded (entries of G and H).
SEEDED_BUILD_BUDGET = 1 << 24


@dataclass(frozen=True)
class TwoSourceDescriptor:
    """Inner-product extractor on inputs lifted by r random degree-2 polynomials."""

    n: int
    r: int
    polys: tuple[Polynomial, ...]
    seed: int

    def __post_init__(self):
        if self.r < 1 or len(self.polys) != self.r:
            raise ValueError("need r >= 1 appended polynomials")
        if any(p.order.n != self.n or p.order.d > 2 for p in self.polys):
            raise ValueError("appended polynomials must be degree <= 2 over n variables")


@dataclass(frozen=True)
class SeededDescriptor:
    """Linear seeded extractor built from a random subcode of the degree-d code.

    ``generator`` has one row per seed point of F_2^t, row y at the packed
    index y, and one column per monomial of the t-variable degree-<=d order;
    ``compressor`` is the uniform binom_sum(t, d) x n matrix H.
    """

    n: int
    t: int
    d: int
    generator: BitMatrix
    compressor: BitMatrix
    seed: int


@dataclass(frozen=True)
class EvasiveDescriptor:
    """The map h(x) = (x, f_1(x), ..., f_r(x)) with degree-<=d appendices."""

    k: int
    d: int
    r: int
    polys: tuple[Polynomial, ...]
    seed: int

    def __post_init__(self):
        if self.r < 1 or len(self.polys) != self.r:
            raise ValueError("need r >= 1 appended polynomials")
        if any(p.order.n != self.k or p.order.d > self.d for p in self.polys):
            raise ValueError("appended polynomials must be degree <= d over k variables")


def build_two_source(n: int, seed: int, r: int | None = None) -> TwoSourceDescriptor:
    """Sample the degree-4 two-source extractor descriptor.

    ``r`` defaults to 11n.  Build cost is O(r * binom_sum(n, 2)) coefficient
    draws, i.e. cubic in n at the default r, refused by
    :func:`anf.check_order` before the order is built.
    """
    if n < 1:
        raise PreconditionError("n must be positive")
    if r is None:
        r = 11 * n
    if r < 1:
        raise PreconditionError("r must be positive")
    check_order(n, 2, f"two-source descriptor: n={n}, degree 2, r={r}", r)
    stream = rng.derive(seed, "two-source", n, r)
    polys = tuple(sample_poly(n, 2, stream) for _ in range(r))
    return TwoSourceDescriptor(n=n, r=r, polys=polys, seed=seed)


def lift_point(polys: tuple[Polynomial, ...], x: int) -> int:
    """Packed (x, f_1(x), ..., f_r(x)) with the k-bit word x occupying the low bits."""
    return x | eval_polys(polys, x) << polys[0].order.n


def eval_two_source(desc: TwoSourceDescriptor, x: int, y: int) -> int:
    """Inner product of the two lifted n-bit words over n + r coordinates."""
    if not (0 <= x < 1 << desc.n and 0 <= y < 1 << desc.n):
        raise PreconditionError("inputs must have length n")
    hx = lift_point(desc.polys, x)
    hy = lift_point(desc.polys, y)
    return (hx & hy).bit_count() & 1


def two_source_table(desc: TwoSourceDescriptor) -> np.ndarray:
    """Every output bit at once, as a uint8 array of length 2^(2n).

    Entry ``x | y << n`` equals ``eval_two_source(desc, x, y)``.  Each of
    the 2^n points is lifted once, and an entry is the parity of its two
    lifts' AND.  Refuses through :func:`errors.check_budget` when 2^(2n)
    exceeds ``sources.ENUMERATION_BUDGET``.
    """
    n = desc.n
    check_budget(f"two-source joint table (n={n})", sources.ENUMERATION_BUDGET, log2=2 * n)
    lifts = [lift_point(desc.polys, x) for x in range(1 << n)]
    return np.array([(hx & hy).bit_count() & 1 for hy in lifts for hx in lifts], dtype=np.uint8)


def build_seeded(n: int, t: int, d: int, seed: int) -> SeededDescriptor:
    """Build the generator/compressor pair for the linear seeded extractor.

    G is materialized exactly — row y, at packed index y, is the degree-<=d
    evaluation vector of the seed point y — and its full column rank is
    asserted (distinct monomials have distinct truth tables).  H is uniform.
    """
    if not 1 <= d <= t:
        raise PreconditionError("need 1 <= d <= t")
    if n < 1:
        raise PreconditionError("n must be positive")
    check_budget(f"generator material (t={t})", SEEDED_BUILD_BUDGET, log2=t)
    cols = binom_sum(t, d)
    check_budget(f"generator material (t={t}, d={d})", SEEDED_BUILD_BUDGET, ((1 << t) + n) * cols)
    order = monomial_order(t, d)
    g = BitMatrix(1 << t, cols, [eval_bits(y, order) for y in range(1 << t)])
    if span_rank(g.row_words) != cols:
        raise AssertionError("degree-d generator lost column rank; this is a bug")
    stream = rng.derive(seed, "seeded", n, t, d)
    h = BitMatrix(cols, n, sample_uniform_matrix(cols, n, stream))
    return SeededDescriptor(n=n, t=t, d=d, generator=g, compressor=h, seed=seed)


def eval_seeded(desc: SeededDescriptor, x: int, y: int) -> int:
    """Output bit at n-bit x, t-bit y: compress x through H, then dot with generator row y.

    G·H is never materialized; evaluation is H first, then a single row
    lookup, so the cost is independent of the 2^t row count.
    """
    if not 0 <= x < 1 << desc.n:
        raise PreconditionError("source input must have length n")
    if not 0 <= y < 1 << desc.t:
        raise PreconditionError("seed must have length t")
    w = apply_rows(desc.compressor.row_words, x)
    row = desc.generator.row_words[y]
    return (row & w).bit_count() & 1


def seeded_table(desc: SeededDescriptor) -> np.ndarray:
    """Every output bit at once, as a uint8 array of shape (2^t, 2^n).

    Entry ``[yb, xb]`` equals ``eval_seeded(desc, xb, yb)`` and is computed
    by the same steps for all points together: W = H·x as the parity of ``xs & row`` for each compressor row,
    generator row yb, and the parity of ``row & W``.  Words wider than 64
    bits are split into 64-bit limbs whose ANDs are XORed before the one
    parity.  Refuses through :func:`errors.check_budget` when 2^(n+t)
    exceeds ``sources.ENUMERATION_BUDGET``.
    """
    n, t = desc.n, desc.t
    check_budget(f"seeded table (n={n}, t={t})", sources.ENUMERATION_BUDGET, log2=n + t)
    xs = np.arange(1 << n, dtype=np.uint64)
    h_rows = desc.compressor.row_words
    g_rows = desc.generator.row_words
    acc = np.zeros((1 << t, 1 << n), dtype=np.uint64)
    for lo in range(0, len(h_rows), 64):
        w = np.zeros(xs.size, dtype=np.uint64)
        for i, row in enumerate(h_rows[lo : lo + 64]):
            w |= _parity(xs & np.uint64(row)) << np.uint64(i)
        limb = np.array([(g >> lo) & 0xFFFFFFFFFFFFFFFF for g in g_rows], dtype=np.uint64)
        acc ^= limb[:, None] & w[None, :]
    return _parity(acc).astype(np.uint8)


def _parity(words: np.ndarray) -> np.ndarray:
    """Bitwise parity of each uint64 entry (0 or 1), by an XOR fold in place."""
    for shift in (32, 16, 8, 4, 2, 1):
        words ^= words >> np.uint64(shift)
    return words & np.uint64(1)


def build_evasive_h(k: int, d: int, seed: int, r: int | None = None) -> EvasiveDescriptor:
    """Sample the evasive lifting map with r degree-<=d appended polynomials.

    ``r`` defaults to 11k (the subspace-evasive setting).  The r polynomials'
    monomials are refused by :func:`anf.check_order` before the order is built.
    """
    if k < 1 or d < 1:
        raise PreconditionError("need k >= 1 and d >= 1")
    if r is None:
        r = 11 * k
    if r < 1:
        raise PreconditionError("r must be positive")
    check_order(k, d, f"evasive descriptor: k={k}, d={d}, r={r}", r)
    stream = rng.derive(seed, "evasive", k, d, r)
    polys = tuple(sample_poly(k, d, stream) for _ in range(r))
    return EvasiveDescriptor(k=k, d=d, r=r, polys=polys, seed=seed)
