"""Algebraic normal form of GF(2) polynomials with a fixed degree cap.

A degree-<=d polynomial over n variables is a coefficient :class:`BitVector`
against the shared monomial order: monomials sorted by degree ascending, ties
broken lexicographically on the sorted 0-based variable lists, so the constant
monomial (empty set) always comes first and there are ``binom_sum(n, d)``
coordinates in total.

The evaluation map sends a point x to the vector of all its monomial values;
its first coordinate is always 1.  Truth tables are numpy uint8 arrays of
length 2^n indexed by the packed point (coordinate i+1 = bit i of the index),
and convert to/from ANF coefficients via the subset-XOR (Mobius) transform,
which is an involution over GF(2).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from random import Random
from typing import Sequence

import numpy as np

from .errors import check_budget
from .gf2 import BitMatrix, BitVector, binom_sum

__all__ = [
    "MonomialOrder",
    "Polynomial",
    "monomial_order",
    "check_order",
    "eval_bits",
    "eval_polys",
    "eval_words",
    "evaluate",
    "sample_poly",
    "truth_table",
    "anf_from_truth_table",
    "mobius_transform",
    "compose_linear",
]

#: Point-mask pairs compared at once by :func:`eval_words`.
EVAL_BLOCK = 1 << 16

#: Most monomials an order built from outside input may range over, binom_sum(n, d);
#: n = 80, d = 3 (85,401 monomials) builds its order in about 0.1 s.
MONOMIAL_BUDGET = 1 << 17


class MonomialOrder:
    """The degree-then-lex list of all monomials on n variables up to degree d.

    ``monomials[j]`` is a sorted tuple of 0-based variable indices and
    ``masks[j]`` the same set packed into an int.  Instances are interned via
    :func:`monomial_order`, so identity comparison is safe for same (n, d).
    For n <= 12 the order also memoises :func:`eval_bits`, filled lazily, so
    it holds at most 2^n evaluation words.
    """

    __slots__ = ("n", "d", "monomials", "masks", "size", "_index", "_evals")

    def __init__(self, n: int, d: int):
        if n < 0 or d < 0:
            raise ValueError("n and d must be nonnegative")
        self.n = n
        self.d = d
        mons: list[tuple[int, ...]] = []
        for w in range(min(n, d) + 1):
            mons.extend(combinations(range(n), w))
        self.monomials = tuple(mons)
        self.masks = tuple(sum(1 << i for i in mon) for mon in mons)
        self.size = len(mons)
        self._index = {mon: j for j, mon in enumerate(mons)}
        self._evals: dict[int, int] | None = {} if n <= 12 else None

    def index_of(self, monomial: Sequence[int]) -> int:
        return self._index[tuple(sorted(monomial))]

    def __repr__(self) -> str:
        return f"MonomialOrder(n={self.n}, d={self.d})"


@lru_cache(maxsize=None)
def monomial_order(n: int, d: int) -> MonomialOrder:
    return MonomialOrder(n, d)


def check_order(n: int, d: int, what: str, polys: int = 1) -> None:
    """Refuse ``polys`` polynomials over the (n, d) order before it is built: past
    MONOMIAL_BUDGET monomials in all, or past 64 * MONOMIAL_BUDGET bits of n-bit
    monomial masks (at d = 1 they grow as n^2)."""
    # exact: at d = MONOMIAL_BUDGET.bit_length() the count is over budget unless n <= d
    size = binom_sum(n, min(d, MONOMIAL_BUDGET.bit_length()))
    check_budget(f"{what}, monomials", MONOMIAL_BUDGET, polys * size)
    check_budget(f"{what}, bits of monomial masks", 64 * MONOMIAL_BUDGET, size * n)


class Polynomial:
    """GF(2) polynomial as a coefficient vector against a monomial order.

    The active monomials are kept packed as ints.  Two more slots are filled
    on first use and kept for f's lifetime: the masks as an array, by
    :func:`eval_words`, and for n <= 16 the read-only truth table, by
    :func:`truth_table`.
    """

    __slots__ = ("order", "coeffs", "_active_masks", "_mask_array", "_table")

    def __init__(self, order: MonomialOrder, coeffs: BitVector):
        if coeffs.n != order.size:
            raise ValueError("coefficient vector length must match the monomial order")
        self.order = order
        self.coeffs = coeffs
        c = coeffs.bits
        self._active_masks = tuple(
            order.masks[j] for j in range(order.size) if (c >> j) & 1
        )
        self._mask_array: np.ndarray | None = None
        self._table: np.ndarray | None = None

    @classmethod
    def from_monomials(cls, n: int, d: int, monomials: Sequence[Sequence[int]]) -> "Polynomial":
        order = monomial_order(n, d)
        bits = 0
        for mon in monomials:
            bits |= 1 << order.index_of(mon)
        return cls(order, BitVector(order.size, bits))

    def active_monomials(self) -> tuple[tuple[int, ...], ...]:
        c = self.coeffs.bits
        return tuple(
            self.order.monomials[j] for j in range(self.order.size) if (c >> j) & 1
        )

    def degree(self) -> int:
        """Largest active monomial size; 0 for the zero polynomial."""
        return max((m.bit_count() for m in self._active_masks), default=0)

    def __xor__(self, other: "Polynomial") -> "Polynomial":
        if self.order is not other.order:
            raise ValueError("polynomials use different monomial orders")
        return Polynomial(self.order, self.coeffs ^ other.coeffs)

    __add__ = __xor__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.order is other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.order), self.coeffs))

    def __repr__(self) -> str:
        terms = ["*".join(f"x{i + 1}" for i in mon) or "1" for mon in self.active_monomials()]
        body = " + ".join(terms) if terms else "0"
        return f"Polynomial({self.order.n} vars, deg<={self.order.d}: {body})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.order.n,
            "d": self.order.d,
            "monomials": [list(mon) for mon in self.active_monomials()],
        }


def eval_bits(x_bits: int, order: MonomialOrder) -> int:
    """Packed evaluation vector of a point: bit j set iff monomial j divides x."""
    memo = order._evals
    if memo is not None and x_bits in memo:
        return memo[x_bits]
    out = 0
    for j, mask in enumerate(order.masks):
        if x_bits & mask == mask:
            out |= 1 << j
    if memo is not None:
        memo[x_bits] = out
    return out


def eval_polys(polys: Sequence[Polynomial], x_bits: int) -> int:
    """Packed values of a polynomial tuple at a packed point: bit i is polys[i](x)."""
    out = 0
    for i, f in enumerate(polys):
        acc = 0
        for mask in f._active_masks:
            if x_bits & mask == mask:
                acc ^= 1
        out |= acc << i
    return out


def eval_words(polys: Sequence[Polynomial], words: Sequence[int] | np.ndarray) -> np.ndarray:
    """Packed values of a polynomial tuple at many packed points, as uint64.

    Entry k equals ``eval_polys(polys, words[k])``.  Points are uint64 words
    for n <= 64 and Python ints (object dtype) past that.  On uint64 points a
    polynomial f on n variables is read from :func:`truth_table` when f
    already keeps that table or when 2^n is at most both ``EVAL_BLOCK`` and
    the point-mask pairs this call would compare; only the low n bits of each
    point index it.  Every other polynomial is evaluated by blocks of points,
    each ANDed against all its active masks at once, and bit i of an entry is
    the parity of the masks of ``polys[i]`` its point contains.  A block
    holds at most ``EVAL_BLOCK`` point-mask pairs, and at least one point.
    """
    if len(polys) > 64:
        raise ValueError("at most 64 polynomial values pack into one word")
    dtype = np.uint64 if all(f.order.n <= 64 for f in polys) else object
    points = np.asarray(words, dtype=dtype)
    out = np.zeros(points.size, dtype=np.uint64)
    masked = []
    for i, f in enumerate(polys):
        size = 1 << f.order.n
        if dtype is object or (
            f._table is None and size > min(EVAL_BLOCK, points.size * len(f._active_masks))
        ):
            masked.append((i, f))
            continue
        # take on an int64 view gathers directly; a uint64 index is first copied to intp
        low = (points & np.uint64(size - 1)).view(np.int64)
        out |= truth_table(f).take(low).astype(np.uint64) << np.uint64(i)
    if not masked:
        return out
    masks = np.concatenate([_mask_array(f) for _, f in masked])
    ends = np.cumsum([len(f._active_masks) for _, f in masked]).tolist()
    step = max(1, EVAL_BLOCK // max(1, masks.size))
    for lo in range(0, points.size, step):
        hits = ((points[lo : lo + step, None] & masks) == masks).view(np.uint8)
        start = 0
        for (i, _), end in zip(masked, ends):
            odd = np.bitwise_xor.reduce(hits[:, start:end], axis=1).astype(np.uint64)
            out[lo : lo + step] |= odd << np.uint64(i)
            start = end
    return out


def _mask_array(f: Polynomial) -> np.ndarray:
    """f's active masks in the dtype :func:`eval_words` uses, built once per f."""
    if f._mask_array is None:
        f._mask_array = np.array(f._active_masks, dtype=np.uint64 if f.order.n <= 64 else object)
    return f._mask_array


def evaluate(f: Polynomial, x: BitVector) -> int:
    """f(x) over GF(2)."""
    if x.n != f.order.n:
        raise ValueError("point length must match the polynomial")
    return eval_polys((f,), x.bits)


def sample_poly(n: int, d: int, stream: Random) -> Polynomial:
    """Uniformly random degree-<=d polynomial (all coefficients fair bits)."""
    order = monomial_order(n, d)
    return Polynomial(order, BitVector(order.size, stream.getrandbits(order.size)))


#: (mask, shift) of the in-word levels: bit i feeds bit i + 2^l when bit l of
#: i is clear, i.e. the mask keeps the low half of every 2^(l+1)-bit block.
_IN_WORD_LEVELS = tuple(
    (np.uint64(mask), np.uint64(1 << level))
    for level, mask in enumerate(
        (
            0x5555555555555555,
            0x3333333333333333,
            0x0F0F0F0F0F0F0F0F,
            0x00FF00FF00FF00FF,
            0x0000FFFF0000FFFF,
            0x00000000FFFFFFFF,
        )
    )
)


def mobius_transform(table: np.ndarray | Sequence[int]) -> np.ndarray:
    """Subset-XOR transform t'[x] = XOR over s subset of x of t[s], as uint8.

    Maps ANF coefficient arrays (indexed by packed monomial mask) to truth
    tables and back — it is its own inverse over GF(2).  The 0/1 entries are
    packed into little-endian 64-bit words (zero-padded to 64 entries): the
    first min(n, 6) levels, inside a word, are one mask-and-shift each, and
    the levels above XOR whole words.
    """
    bits = np.asarray(table)
    size = bits.size
    if size & (size - 1):
        raise ValueError("table length must be a power of two")
    if size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("table entries must be 0 or 1")
    words = np.zeros(max(1, size >> 6), dtype="<u8")
    packed = np.packbits(bits, bitorder="little")
    words.view(np.uint8)[: packed.size] = packed
    for mask, shift in _IN_WORD_LEVELS[: size.bit_length() - 1]:
        words ^= (words & mask) << shift
    half = 1
    while half < words.size:
        v = words.reshape(-1, 2 * half)
        v[:, half:] ^= v[:, :half]
        half <<= 1
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little")


def truth_table(f: Polynomial) -> np.ndarray:
    """Dense truth table of f over all 2^n packed points, as a read-only array.

    The one accessor of f's table, built by one Mobius transform of its
    coefficients.  A table of at most ``EVAL_BLOCK`` entries (n <= 16) is
    kept on f, so every later call returns that same array; a larger one is
    built afresh on each call and never kept.
    """
    if f._table is not None:
        return f._table
    dense = np.zeros(1 << f.order.n, dtype=np.uint8)
    for mask in f._active_masks:
        dense[mask] = 1
    table = mobius_transform(dense)
    table.setflags(write=False)
    if table.size <= EVAL_BLOCK:
        f._table = table
    return table


def anf_from_truth_table(table: np.ndarray | Sequence[int]) -> Polynomial:
    """Interpolate the unique polynomial (degree cap n) with the given table."""
    arr = np.asarray(table, dtype=np.uint8)
    size = int(arr.size)
    if size == 0 or size & (size - 1):
        raise ValueError("table length must be a nonzero power of two")
    n = size.bit_length() - 1
    dense = mobius_transform(arr)
    order = monomial_order(n, n)
    bits = 0
    for j, mask in enumerate(order.masks):
        if dense[mask]:
            bits |= 1 << j
    return Polynomial(order, BitVector(order.size, bits))


def compose_linear(q: Polynomial, matrix: BitMatrix) -> Polynomial:
    """The polynomial x -> q(Lx) for a matrix L with one row per variable of q.

    Computed symbolically: each variable of q is substituted by its row's
    linear form and the product expanded with x_i^2 = x_i, cancelling GF(2)
    pairs as they appear.  The result lives on ``matrix.cols`` variables with
    the same degree cap as q (composition with a linear map cannot raise the
    degree).
    """
    if matrix.rows != q.order.n:
        raise ValueError("matrix must have one row per polynomial variable")
    n_out = matrix.cols
    row_supports = [
        [j for j in range(n_out) if (w >> j) & 1] for w in matrix.row_words
    ]
    acc: set[int] = set()
    for mon_mask in q._active_masks:
        terms = {0}
        dead = False
        var = 0
        mm = mon_mask
        while mm:
            if mm & 1:
                supp = row_supports[var]
                if not supp:
                    dead = True  # a variable replaced by the zero form kills the term
                    break
                nxt: set[int] = set()
                for t in terms:
                    for j in supp:
                        nxt ^= {t | (1 << j)}
                terms = nxt
            mm >>= 1
            var += 1
        if dead:
            continue
        acc ^= terms
    out_order = monomial_order(n_out, q.order.d)
    bits = 0
    for mask in acc:
        idx = out_order.index_of(
            tuple(j for j in range(n_out) if (mask >> j) & 1)
        )
        bits |= 1 << idx
    return Polynomial(out_order, BitVector(out_order.size, bits))
