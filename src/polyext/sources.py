"""Weak-source models over F_2^n with exact support enumeration.

Six source kinds share one tagged-union interface: explicit flat sets, affine
subspaces, sumsets of two flats, r-local functions of uniform bits, images of
bounded-degree polynomial maps, and varieties (common zero sets).  Exact
enumeration with :class:`fractions.Fraction` probabilities is the ground truth
everything else (sampling, bias estimates, audits) is judged against, so
:func:`_support_counts` refuses to run past an explicit budget rather than degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from random import Random
from typing import Optional, Sequence, Union

import numpy as np

from . import anf, rng
from .anf import Polynomial, eval_polys
from .errors import PreconditionError, RetryExhaustedError, check_budget
from .gf2 import BitVector, canonical_key, span_rank, subset_xor, subset_xors

__all__ = [
    "Flat",
    "Affine",
    "Sumset",
    "LocalBit",
    "Local",
    "PolynomialImage",
    "Variety",
    "Source",
    "ambient_length",
    "common_zeros",
    "support_of",
    "sample_source",
    "sample_words",
    "variety_reduce",
    "uniform_flat",
]

#: Hard cap on exact-enumeration work (points visited) in :func:`_support_counts`.
ENUMERATION_BUDGET = 1 << 22

#: Draws :func:`sample_source` makes on a variety too large to enumerate.
REJECTION_BUDGET = 10**6


def _hashed_once(cls):
    """Hash a frozen source's fields once, at construction: each draw looks its kept table up by it."""
    field_hash, check = cls.__hash__, cls.__post_init__

    def __post_init__(self):
        check(self)
        object.__setattr__(self, "_hash", field_hash(self))

    cls.__post_init__, cls.__hash__ = __post_init__, lambda self: self._hash
    return cls


def _words(n: int, points: Sequence) -> tuple[int, ...]:
    """Each point as its packed word: a length-n :class:`BitVector`'s bits, or an int
    in [0, 2^n) as it is; ValueError for anything else, so no int is masked."""
    words = tuple([p.bits if type(p) is BitVector and p.n == n else p for p in points])
    if words and not (set(map(type, words)) <= {int} and min(words) >= 0 and max(words) >> n == 0):
        raise ValueError(f"points must be BitVectors of length n or ints in [0, 2^n), n={n}")
    return words


@dataclass(frozen=True)
class Flat:
    """Uniform distribution over an explicit set of points, held as packed words."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", _words(self.n, self.support))
        if not self.support:
            raise ValueError("flat source needs a nonempty support")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support contains duplicates")


@dataclass(frozen=True)
class Affine:
    """Uniform distribution over offset + span(basis), held as packed words."""

    n: int
    offset: int
    basis: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "offset", _words(self.n, (self.offset,))[0])
        object.__setattr__(self, "basis", _words(self.n, self.basis))
        if span_rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors must be linearly independent")


@dataclass(frozen=True)
class Sumset:
    """X + Y for independent flat sources X and Y over the same space."""

    x: Flat
    y: Flat

    def __post_init__(self):
        if self.x.n != self.y.n:
            raise ValueError("summands must live in the same space")


@dataclass(frozen=True)
class LocalBit:
    """One output coordinate: a lookup table over a few input positions.

    The table is indexed by the packed values of the listed inputs with the
    first listed input as the least significant bit.
    """

    inputs: tuple[int, ...]
    table: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("input positions repeat")
        if len(self.table) != 1 << len(self.inputs):
            raise ValueError("table length must be 2^(number of inputs)")
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("table entries must be bits")

    def value(self, u_bits: int) -> int:
        idx = 0
        for k, pos in enumerate(self.inputs):
            idx |= ((u_bits >> pos) & 1) << k
        return self.table[idx]


@_hashed_once
@dataclass(frozen=True)
class Local:
    """Each output bit depends on at most r of m uniform input bits."""

    r: int
    m: int
    bits: tuple[LocalBit, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("local source needs at least one output bit")
        for b in self.bits:
            if len(b.inputs) > self.r:
                raise ValueError(f"output bit reads {len(b.inputs)} inputs, exceeding r={self.r}")
            if any(not 0 <= p < self.m for p in b.inputs):
                raise ValueError("input position out of range")

    def value(self, u_bits: int) -> int:
        out = 0
        for i, b in enumerate(self.bits):
            out |= b.value(u_bits) << i
        return out


@_hashed_once
@dataclass(frozen=True)
class PolynomialImage:
    """Image of the uniform distribution under a tuple of polynomials on m bits."""

    m: int
    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("polynomial-image source needs at least one output")
        if any(p.order.n != self.m for p in self.polys):
            raise ValueError("every output polynomial must read all m inputs")

    def value(self, u_bits: int) -> int:
        return eval_polys(self.polys, u_bits)


@_hashed_once
@dataclass(frozen=True)
class Variety:
    """Uniform distribution over the common zero set of a polynomial system."""

    n: int
    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("variety needs at least one polynomial")
        if any(p.order.n != self.n for p in self.polys):
            raise ValueError("polynomials must be over n variables")


Source = Union[Flat, Affine, Sumset, Local, PolynomialImage, Variety]


def uniform_flat(n: int) -> Flat:
    """The uniform distribution over all of F_2^n as an explicit flat source."""
    check_budget(f"uniform flat (n={n})", ENUMERATION_BUDGET, log2=n)
    return Flat(n, tuple(range(1 << n)))


def ambient_length(source: Source) -> int:
    """Bit length of the source's output."""
    if isinstance(source, (Flat, Affine, Variety)):
        return source.n
    if isinstance(source, Sumset):
        return source.x.n
    if isinstance(source, (Local, PolynomialImage)):
        return len(source.bits) if isinstance(source, Local) else len(source.polys)
    raise TypeError(f"not a source: {source!r}")


def common_zeros(polys: Sequence[Polynomial]) -> np.ndarray:
    """Boolean mask over F_2^n of the points where every polynomial vanishes.

    One truth table per polynomial; ``polys`` is nonempty and shares one n.
    """
    return reduce(np.logical_and, (anf.truth_table(p) == 0 for p in polys))


@lru_cache(maxsize=4)
def _variety_points(source: Variety) -> np.ndarray:
    """The variety's member points in ascending order, as a read-only array.

    Built from one truth table per polynomial and cached per (equal) source,
    so repeated draws cost one index instead of 2^n evaluations.  Callers
    check the enumeration budget first; n <= 22 makes uint32 wide enough, and
    the four cached arrays hold at most 4 x 16 MiB.
    """
    pts = np.flatnonzero(common_zeros(source.polys)).astype(np.uint32)
    pts.setflags(write=False)
    return pts


def _support_counts(source: Source) -> tuple[np.ndarray, np.ndarray, int]:
    """Distinct output words in ascending order, their integer counts, and the total.

    Probabilities are ``counts / total``.  Words are unsigned machine ints up to
    64 bits and Python ints (object dtype) beyond, so no wide point is truncated;
    local and polynomial-image words come from the :func:`_image_table` that
    draws read.  Raises :class:`BudgetExceededError` when full enumeration
    would visit more than ``ENUMERATION_BUDGET`` points, and
    :class:`PreconditionError` for an empty variety.
    """
    if isinstance(source, Variety):
        check_budget(f"variety enumeration (n={source.n})", ENUMERATION_BUDGET, log2=source.n)
        pts = _variety_points(source)
        if pts.size == 0:
            raise PreconditionError("variety is empty; no distribution to enumerate")
        return pts, np.ones(pts.size, dtype=np.int64), int(pts.size)
    dtype = np.uint64 if ambient_length(source) <= 64 else object
    if isinstance(source, Flat):
        check_budget("flat support", ENUMERATION_BUDGET, len(source.support))
        raw = np.array(source.support, dtype=dtype)
    elif isinstance(source, Affine):
        k = len(source.basis)
        check_budget(f"affine span of {k} basis vectors", ENUMERATION_BUDGET, log2=k)
        raw = np.array(subset_xors(source.basis, source.offset), dtype=dtype)
    elif isinstance(source, Sumset):
        xs, ys = (np.array(f.support, dtype=dtype) for f in (source.x, source.y))
        check_budget("sumset pairs", ENUMERATION_BUDGET, xs.size * ys.size)
        raw = np.bitwise_xor.outer(xs, ys).ravel()
    else:
        check_budget(f"input enumeration (m={source.m})", ENUMERATION_BUDGET, log2=source.m)
        table = _image_table(source)
        raw = _image_words(source, np.arange(1 << source.m, dtype=np.uint64)) if table is None else table
    words, counts = np.unique(raw, return_counts=True)
    return words, counts, int(raw.size)


def support_of(source: Source) -> list[tuple[BitVector, Fraction]]:
    """Exact output distribution as (point, probability) pairs.

    The view of :func:`_support_counts` in canonical (weight, lex-support)
    order; probabilities sum to 1 exactly, and it raises as that function does.
    """
    n = ambient_length(source)
    words, counts, total = _support_counts(source)
    key = canonical_key(n)
    pairs = sorted(zip(words.tolist(), counts.tolist()), key=lambda pair: key(pair[0]))
    return [(BitVector(n, w), Fraction(c, total)) for w, c in pairs]


def sample_words(source: Source, count: int, stream: Random) -> np.ndarray:
    """``count`` packed draws from the source, in the dtype of :func:`_support_counts`.

    Reads the stream exactly as ``count`` calls of :func:`sample_source`
    would, so entry k equals the k-th of those draws.  Each kind draws its
    random words in order and then forms the outputs in one batch: support
    words are gathered as they are held, a small affine
    span is read from its subset-XOR table, and local and polynomial-image
    inputs index their kept :func:`_image_table`, or past it go through
    :func:`_image_words`.  A variety draws one point at a time through
    :func:`sample_source`, whose rejection path tests each draw.
    """
    dtype = np.uint64 if ambient_length(source) <= 64 else object
    if isinstance(source, Flat):
        sup, size = source.support, len(source.support)
        words = [sup[i] for i in rng.below(stream, [size] * count)]
    elif isinstance(source, Affine):
        k, offset, basis = len(source.basis), source.offset, source.basis
        if 1 << k <= count * k:
            # the 2^k-entry table costs less than k XORs per draw
            table = subset_xors(basis, offset)
            words = [table[stream.getrandbits(k)] for _ in range(count)]
        else:
            words = [subset_xor(basis, stream.getrandbits(k), offset) for _ in range(count)]
    elif isinstance(source, Sumset):
        xs, ys = source.x.support, source.y.support
        nx, ny = len(xs), len(ys)
        draws = rng.below(stream, (nx, ny) * count)
        words = [xs[i] ^ ys[j] for i, j in zip(draws[::2], draws[1::2])]
    elif isinstance(source, (Local, PolynomialImage)):
        m, table = source.m, _image_table(source)
        draws = (stream.getrandbits(m) for _ in range(count))
        inputs = np.fromiter(draws, dtype=np.uint64 if m <= 64 else object, count=count)
        return _image_words(source, inputs) if table is None else table[inputs]
    else:
        words = [sample_source(source, stream).bits for _ in range(count)]
    return np.fromiter(words, dtype=dtype, count=count)


@lru_cache(maxsize=4)
def _image_table(source: Union[Local, PolynomialImage]) -> Optional[np.ndarray]:
    """``source.value`` at every input word, read-only and kept per source; None past
    ``anf.EVAL_BLOCK`` inputs or 64 output bits, so a table holds at most 512 KiB."""
    if 1 << source.m > anf.EVAL_BLOCK or ambient_length(source) > 64:
        return None
    table = _image_words(source, np.arange(1 << source.m, dtype=np.uint64))
    table.setflags(write=False)
    return table


def _image_words(source: Union[Local, PolynomialImage], inputs: np.ndarray) -> np.ndarray:
    """``source.value`` at each input word, in the dtype of :func:`_support_counts`.

    Builds :func:`_image_table` and evaluates the draws of larger sources.  Up to 64
    input and output bits this is one :func:`anf.eval_words` call or a blocked numpy
    gather of the local lookup tables; wider ones go through ``source.value``.
    """
    width = ambient_length(source)
    if width > 64 or source.m > 64:
        dtype = np.uint64 if width <= 64 else object
        return np.fromiter(map(source.value, inputs.tolist()), dtype=dtype, count=inputs.size)
    if isinstance(source, PolynomialImage):
        return anf.eval_words(source.polys, inputs)
    columns, table, base = _local_layout(source)
    places = np.arange(width, dtype=np.uint64)
    out = np.empty(inputs.size, dtype=np.uint64)
    step = max(1, anf.EVAL_BLOCK // width)
    for lo in range(0, inputs.size, step):
        u = inputs[lo : lo + step, None]
        # broadcast, so a source whose bits read no input still indexes a 2-D block
        idx = np.broadcast_to(base, (u.shape[0], width))
        for k, (pos, mask) in enumerate(columns):
            idx = idx + (((u >> pos) << np.uint64(k)) & mask)
        out[lo : lo + step] = (table[idx] << places).sum(axis=1, dtype=np.uint64)
    return out


@lru_cache(maxsize=4)
def _local_layout(source: Local) -> tuple:
    """A local source's lookup tables as arrays for :func:`_image_words`.

    Column k holds, for every output bit, the position of its k-th input and
    the mask ``1 << k``; a bit that reads fewer than k + 1 inputs gets
    position 0 and mask 0 there, so the padding adds nothing to its table
    index.  All tables sit end to end in ``table``, bit i's from ``base[i]``.
    """
    columns = []
    outputs = source.bits
    for k in range(max(len(b.inputs) for b in outputs)):
        reads = [k < len(b.inputs) for b in outputs]
        pos = np.array([b.inputs[k] if r else 0 for b, r in zip(outputs, reads)], dtype=np.uint64)
        columns.append((pos, np.array(reads, dtype=np.uint64) << np.uint64(k)))
    table = np.array([t for b in outputs for t in b.table], dtype=np.uint64)
    base = np.cumsum([0] + [len(b.table) for b in outputs[:-1]]).astype(np.uint64)
    return tuple(columns), table, base


def sample_source(source: Source, stream: Random) -> BitVector:
    """One draw from the source.

    A variety within the enumeration budget draws uniformly from its member
    points, which are enumerated once and cached for up to four distinct
    varieties; larger varieties fall back to at most ``REJECTION_BUDGET``
    rejection draws.  Every other kind is a one-draw :func:`sample_words`.
    """
    if isinstance(source, Variety):
        if 1 << source.n <= ENUMERATION_BUDGET:
            pts = _variety_points(source)
            if pts.size == 0:
                raise PreconditionError("variety is empty")
            return BitVector(source.n, int(pts[stream.randrange(int(pts.size))]))
        for _ in range(REJECTION_BUDGET):
            xb = stream.getrandbits(source.n)
            if not eval_polys(source.polys, xb):
                return BitVector(source.n, xb)
        raise RetryExhaustedError(
            f"no variety point after {REJECTION_BUDGET} rejection draws"
        )
    return BitVector(ambient_length(source), int(sample_words(source, 1, stream)[0]))


def variety_reduce(
    polys: Sequence[Polynomial], stream: Random, budget: int = 64
) -> tuple[list[Polynomial], int]:
    """Compress a polynomial system to n+1 random combinations, same variety.

    Draws uniform coefficient rows, forms the n+1 combined polynomials, and
    accepts only after exhaustively confirming the combined system has exactly
    the original zero set (the containment direction is automatic).  Both
    zero sets come from the same combination of the system's truth tables,
    the target's from the identity rows, so each polynomial is transformed
    once.  Returns the accepted system and the number of rejected rounds;
    expected rejections are below one, so the default budget is generous.
    """
    if not polys:
        raise PreconditionError("need at least one polynomial")
    order = polys[0].order
    if any(p.order is not order for p in polys):
        raise PreconditionError("system must share one monomial order")
    n = order.n
    check_budget(f"exhaustive variety comparison (n={n})", 1 << 20, log2=n)
    tables = [anf.truth_table(p) for p in polys]

    def zeros(rows: Sequence[int]) -> np.ndarray:
        return reduce(np.logical_and, (subset_xor(tables, row) == 0 for row in rows))

    target = zeros([1 << i for i in range(len(polys))])
    for attempt in range(budget):
        rows = [stream.getrandbits(len(polys)) for _ in range(n + 1)]
        if np.array_equal(zeros(rows), target):
            coeffs = [p.coeffs for p in polys]
            out = [Polynomial(order, subset_xor(coeffs, row)) for row in rows]
            return out, attempt
    raise RetryExhaustedError(f"no exact reduction in {budget} rounds")
