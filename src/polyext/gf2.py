"""Bit-packed GF(2) vectors, matrices, and combinatorial generators.

Vectors live in packed machine words: a length-``n`` vector is a Python int
whose bit ``i`` (LSB first) holds coordinate ``i + 1``.  All linear algebra is
word-level — row operations are single int XORs, never per-coordinate loops.

This module owns the canonical order of F_2^n: weight ascending, ties
broken lexicographically on the sorted 0-based support list.
``hamming_ball(n, n)`` enumerates all of F_2^n in that order, and
``canonical_key(n)`` is the sort key that puts packed n-bit words into it.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import combinations
from random import Random
from typing import Callable, Iterable, Sequence

from .errors import PreconditionError, RetryExhaustedError

__all__ = [
    "BitVector",
    "BitMatrix",
    "XorBasis",
    "AffineSolver",
    "binom_sum",
    "check_words",
    "rank",
    "sample_uniform_matrix",
    "sample_invertible",
    "hamming_ball",
    "weight_slice",
    "canonical_key",
    "enumerate_span",
    "nullspace_basis",
    "parse_word",
    "span_rank",
    "subset_xor",
    "subset_xors",
    "word_string",
]

#: Rejections allowed for any one column in :func:`sample_invertible`.
COLUMN_RETRIES = 10**6


class BitVector:
    """Immutable vector over GF(2), packed into a single int.

    The textual form is a string of ``'0'``/``'1'`` where string position i
    (0-based) is coordinate i+1, e.g. ``"100"`` is the first standard basis
    vector of F_2^3.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("vector length must be nonnegative")
        self.n = n
        self.bits = bits & ((1 << n) - 1)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse the '0'/'1' textual form."""
        return cls(len(text), parse_word(text))

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BitVector":
        """Build the vector of length n with ones at the given 0-based indices."""
        bits = 0
        for i in support:
            if not 0 <= i < n:
                raise ValueError(f"support index {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    def to_string(self) -> str:
        return word_string(self.n, self.bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.bits ^ other.bits)

    __add__ = __xor__  # addition over GF(2) is XOR

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVector({self.to_string()!r})"


class BitMatrix:
    """Immutable GF(2) matrix stored as one packed int per row.

    Bit ``j`` of ``row_words[i]`` is entry (i, j).  The textual form is the
    row strings joined by newlines.
    """

    __slots__ = ("rows", "cols", "row_words")

    def __init__(self, rows: int, cols: int, row_words: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(row_words) != rows:
            raise ValueError("row count mismatch")
        mask = (1 << cols) - 1
        self.rows = rows
        self.cols = cols
        self.row_words = tuple([w & mask for w in row_words])

    @classmethod
    def from_string(cls, text: str) -> "BitMatrix":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines:
            raise ValueError("cannot infer width of an empty matrix")
        if any(len(ln) != len(lines[0]) for ln in lines):
            raise ValueError("ragged rows")
        return cls(len(lines), len(lines[0]), [parse_word(ln) for ln in lines])

    def apply_word(self, bits: int) -> int:
        """Matrix-vector product on packed words: bit i is the parity of ``row_words[i] & bits``."""
        out = 0
        for i, w in enumerate(self.row_words):
            out |= ((w & bits).bit_count() & 1) << i
        return out

    def to_string(self) -> str:
        return "\n".join(word_string(self.cols, w) for w in self.row_words)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_words == other.row_words
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


class XorBasis:
    """Incremental row basis for GF(2) spans, keyed by leading bit.

    ``add`` returns True exactly when the word enlarged the span.  The hot
    loops (``span_rank``, ``sample_invertible``, ranklab's full-rank core)
    inline the same elimination instead of calling it per word.
    """

    __slots__ = ("_pivots",)

    def __init__(self) -> None:
        self._pivots: dict[int, int] = {}

    def add(self, word: int) -> bool:
        pivots = self._pivots
        while word:
            lead = word.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = word
                return True
            word ^= pivot
        return False

    def __len__(self) -> int:
        return len(self._pivots)


def word_string(n: int, word: int) -> str:
    """The '0'/'1' textual form of a packed n-bit word, coordinate 1 first."""
    return f"{word | 1 << n:b}"[:0:-1]


def parse_word(text: str) -> int:
    """The packed word of a '0'/'1' textual form; ValueError on any other character."""
    if text.strip("01"):
        raise ValueError(f"invalid bit character {text.strip('01')[0]!r}")
    return int("0" + text[::-1], 2)


def check_words(n: int, *sets: Iterable[int]) -> None:
    """PreconditionError unless every word of every set is a point of F_2^n, an int in [0, 2^n)."""
    if any(not isinstance(w, int) or w < 0 or w >> n for words in sets for w in words):
        raise PreconditionError(f"points must share one ambient length: ints in [0, 2^{n})")


def binom_sum(n: int, d: int) -> int:
    """Sum of binomial coefficients C(n, 0) + ... + C(n, d), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(math.comb(n, i) for i in range(min(n, d) + 1))


def rank(matrix: BitMatrix) -> int:
    """GF(2) rank by word-level XOR elimination; the input is not modified."""
    return span_rank(matrix.row_words)


def span_rank(words: Iterable[int]) -> int:
    """Rank of a collection of packed row words.

    The elimination is :meth:`XorBasis.add` inlined on a local pivot list
    indexed by bit length, which saves a method call per word on the hot
    paths.
    """
    words = list(words)
    pivots = [0] * (max(words, default=0).bit_length() + 1)
    rank = 0
    for word in words:
        while word:
            lead = word.bit_length()
            pivot = pivots[lead]
            if not pivot:
                pivots[lead] = word
                rank += 1
                break
            word ^= pivot
    return rank


def sample_uniform_matrix(rows: int, cols: int, stream: Random) -> BitMatrix:
    """Uniformly random rows x cols matrix over GF(2)."""
    getrandbits = stream.getrandbits
    return BitMatrix(rows, cols, [getrandbits(cols) for _ in range(rows)])


def sample_invertible(m: int, stream: Random) -> BitMatrix:
    """Uniformly random invertible m x m matrix over GF(2).

    Columns are drawn one at a time, each uniform conditioned on being
    linearly independent of the columns already accepted; this yields the
    uniform distribution on GL(m, 2).  Raises :class:`RetryExhaustedError`
    if any single column rejects ``COLUMN_RETRIES`` times (astronomically
    unlikely for honest streams).
    """
    if m <= 0:
        raise PreconditionError("matrix dimension must be positive")
    getrandbits = stream.getrandbits
    pivots = [0] * (m + 1)  # XorBasis.add inlined, as in span_rank
    rows = [0] * m
    for j in range(m):
        for _ in range(COLUMN_RETRIES):
            cand = word = getrandbits(m)
            while word:
                lead = word.bit_length()
                pivot = pivots[lead]
                if not pivot:
                    break
                word ^= pivot
            if word:
                pivots[lead] = word
                break
        else:
            raise RetryExhaustedError(f"no independent column {j} after {COLUMN_RETRIES} tries")
        bit = 1 << j  # column j is cand: set bit j of each row it has a one in
        while cand:
            low = cand & -cand
            rows[low.bit_length() - 1] |= bit
            cand ^= low
    return BitMatrix(m, m, rows)


def hamming_ball(n: int, radius: int) -> list[BitVector]:
    """All vectors of weight <= radius in canonical (weight, lex-support) order."""
    if n < 0 or radius < 0:
        raise ValueError("n and radius must be nonnegative")
    out = []
    for w in range(min(n, radius) + 1):
        for supp in combinations(range(n), w):
            out.append(BitVector.from_support(n, supp))
    return out


def weight_slice(n: int, w: int, lo: int, hi: int) -> list[BitVector]:
    """Weight-w vectors supported inside 1-based coordinate window [lo, hi].

    Enumerated in canonical order.  The window must satisfy
    1 <= lo <= hi <= n and w <= hi - lo + 1.
    """
    if not (1 <= lo <= hi <= n):
        raise PreconditionError(f"bad window [{lo}, {hi}] for length {n}")
    if w < 0 or w > hi - lo + 1:
        raise PreconditionError(f"weight {w} does not fit window [{lo}, {hi}]")
    return [BitVector.from_support(n, supp) for supp in combinations(range(lo - 1, hi), w)]


def _key_int(n: int, s: int) -> int:
    """Weight above n bits, then the complement of the bit-reversed word: the
    lowest coordinate where two equal-weight supports differ decides lex order."""
    return s.bit_count() << n | ((1 << n) - 1) ^ int(f"{s:0{n}b}"[::-1], 2)


@lru_cache(maxsize=None)
def canonical_key(n: int) -> Callable[[int], int]:
    """Sort key that puts packed n-bit words in canonical order.

    ``sorted(range(1 << n), key=canonical_key(n))`` lists the words of
    ``hamming_ball(n, n)``.  For n <= 12 the key is a read of a table built
    once per n; past that it computes the int key per word.
    """
    key = partial(_key_int, n)
    return tuple(map(key, range(1 << n))).__getitem__ if n <= 12 else key


def subset_xor(words: Sequence, r: int, offset=0):
    """offset XOR the words at the set bits of r.

    Works on ints and on numpy arrays alike; every XOR builds a new object,
    so neither ``offset`` nor a word is ever changed in place.
    """
    for k, w in enumerate(words):
        if (r >> k) & 1:
            offset = offset ^ w
    return offset


def subset_xors(words: Sequence[int], offset: int = 0) -> list[int]:
    """offset XOR each subset-XOR of the words, in binary-counter order.

    Entry k combines the words at the set bits of k, so there are always
    2^len(words) entries, with ``offset`` first; dependent words repeat
    elements.
    """
    out = [offset]
    for w in words:
        out.extend([x ^ w for x in out])
    return out


def enumerate_span(basis_words: Iterable[int]) -> list[int]:
    """All distinct elements of the span of the given words, as packed ints.

    Dependent inputs are tolerated: the words are first reduced to an
    independent basis, so each span element appears exactly once.  Order is
    deterministic (binary-counter over the reduced basis), with 0 first.
    """
    basis = XorBasis()
    return subset_xors([w for w in basis_words if basis.add(w)])


def nullspace_basis(row_words: Sequence[int], ncols: int) -> list[int]:
    """Basis (packed words) of {x : row . x = 0 for every row}.

    The rows are first cut to an independent subset, which spans the same
    space.  One vector per free column f of the echelon form, ascending: bit
    f, completed to a solution by the pivot columns from the highest down.
    """
    basis = XorBasis()
    mask = (1 << ncols) - 1
    solver = AffineSolver.onto([w for w in row_words if basis.add(w & mask)], ncols)
    return [solver._complete(1 << f, 0) for f in solver._free_cols]


class AffineSolver:
    """Uniform sampler over the fibers of an onto map x -> E x over GF(2).

    Rows of E are packed words over ``ncols`` variables, and E must have full
    row rank: build the solver with :meth:`onto`, whose one elimination both
    decides that and yields the echelon form.  Each fiber is then nonempty,
    and a sample costs O(m) word operations: uniformly random free
    coordinates, then the pivot coordinates solved from the highest down.
    """

    __slots__ = ("_pivots", "_free_cols")

    def __init__(self, pivots: tuple[tuple[int, int, int], ...], free_cols: tuple[int, ...]):
        # (column, row without its pivot, combo), highest column first; each
        # row holds only columns above its pivot, and combo is the mix of
        # input rows it came from.
        self._pivots = pivots
        self._free_cols = free_cols

    @classmethod
    def onto(cls, row_words: Sequence[int], ncols: int) -> AffineSolver | None:
        """The solver for E, or None when E lacks full row rank (the map is not onto).

        The forward elimination keys each row by its lowest column and stops
        at the first row that eliminates to zero.
        """
        mask = (1 << ncols) - 1
        # Each row carries, above bit ncols, the mix of input rows it holds.
        pivots = [0] * ncols  # pivots[c]: the row whose lowest bit is column c, or 0
        for i, word in enumerate(row_words):
            row = word & mask | 1 << (ncols + i)
            while True:
                low = row & mask
                if not low:
                    return None
                col = (low & -low).bit_length() - 1
                pivot = pivots[col]
                if not pivot:
                    pivots[col] = row
                    break
                row ^= pivot
        rows = [(c, row & mask ^ 1 << c, row >> ncols) for c, row in enumerate(pivots) if row]
        return cls(tuple(rows[::-1]), tuple([c for c, row in enumerate(pivots) if not row]))

    def sample(self, z_bits: int, stream: Random) -> int:
        """Uniform solution of E x = z."""
        x = 0
        r = stream.getrandbits(len(self._free_cols))  # 0 bits read nothing from the stream
        for k, col in enumerate(self._free_cols):
            x |= ((r >> k) & 1) << col
        return self._complete(x, z_bits)

    def _complete(self, x: int, z_bits: int) -> int:
        """The solution of E x = z that agrees with ``x`` on the free columns."""
        for col, rest, combo in self._pivots:
            x |= (((combo & z_bits) ^ (rest & x)).bit_count() & 1) << col
        return x
