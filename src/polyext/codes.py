"""Balancedness, exhaustive list sizes, and Johnson-bound checks for small codes.

Every function takes a code as its generator :class:`BitMatrix` (message
dimension x block length T); codewords are XOR combinations of its rows, and
:func:`codewords` is the one enumeration of them.  Balance means every
nonzero codeword has weight within the window [(1-eps)/2 * T, (1+eps)/2 * T];
the delta-almost variant tolerates a delta fraction of nonzero exceptions.

Weight-window and radius comparisons are exact: eps and radii are rationals
compared by cross multiplication.  The Johnson radius (1 - sqrt(eps))/2 uses
an integer square root carried to 80 fractional bits, rounded the one
direction that can only widen the ball — so boundary codewords are counted
rather than silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import PreconditionError, check_budget
from .gf2 import BitMatrix, subset_xors

__all__ = [
    "codewords",
    "BalanceReport",
    "JohnsonVerdict",
    "balancedness_report",
    "measured_imbalance",
    "list_size_exhaustive",
    "johnson_check",
]

EXHAUSTIVE_DIM_LIMIT = 24
LIST_SIZE_LIMIT = 16  # both block length and dimension, per the exact enumeration budget

RationalLike = Union[Fraction, int, float]


def codewords(generator: BitMatrix) -> set[int]:
    """The distinct codewords, XORs of the generator's rows, as packed ints."""
    check_budget("codeword enumeration", 1 << EXHAUSTIVE_DIM_LIMIT, log2=generator.rows)
    return set(subset_xors(generator.row_words))


@dataclass(frozen=True)
class BalanceReport:
    """Unbalanced fraction over nonzero codewords, plus the worst offender as a packed word."""

    delta: Fraction
    worst_codeword: Optional[int]


def balancedness_report(generator: BitMatrix, eps: RationalLike) -> BalanceReport:
    """Exact fraction of nonzero codewords outside the eps-balance window.

    Enumerates the distinct codewords; the zero codeword never enters the
    statistics.  The worst codeword maximizes |2 wt - T|.
    """
    epsf = Fraction(eps)
    t = generator.cols
    nonzero = [w for w in codewords(generator) if w]
    if not nonzero:
        return BalanceReport(Fraction(0), None)
    # wt lies in the window iff |2 wt - T| <= eps T, i.e. |2 wt - T| q <= p T for eps = p/q
    p, q = epsf.numerator, epsf.denominator
    bad = sum(1 for w in nonzero if abs(2 * w.bit_count() - t) * q > p * t)
    worst = max(nonzero, key=lambda w: (abs(2 * w.bit_count() - t), w))
    return BalanceReport(Fraction(bad, len(nonzero)), worst)


def measured_imbalance(generator: BitMatrix) -> Fraction:
    """Smallest eps for which the code is eps-balanced (0 for no nonzero words)."""
    t = generator.cols
    worst = max((abs(2 * w.bit_count() - t) for w in codewords(generator) if w), default=0)
    return Fraction(worst, t) if worst else Fraction(0)


def _wht(values: np.ndarray) -> np.ndarray:
    out = values.astype(np.int64)
    half = 1
    size = out.size
    while half < size:
        v = out.reshape(-1, 2 * half)
        a = v[:, :half].copy()
        v[:, :half] += v[:, half:]
        v[:, half:] = a - v[:, half:]
        half <<= 1
    return out


def list_size_exhaustive(
    generator: BitMatrix, radius: RationalLike
) -> tuple[int, int]:
    """Exact max, over all 2^T centers, of codewords within radius*T Hamming distance.

    Computed as the XOR correlation of the code's indicator with the ball
    indicator via a Walsh-Hadamard transform — integer-exact and linear in
    T * 2^T — then maximized.  Returns the count and the first attaining
    center, a packed T-bit word.
    """
    t = generator.cols
    check_budget("exact list-size enumeration", 1 << LIST_SIZE_LIMIT, log2=max(t, generator.rows))
    cutoff = math.floor(Fraction(radius) * t)  # an integer weight is <= rho T iff <= this
    size = 1 << t
    indicator = np.zeros(size, dtype=np.int64)
    for w in codewords(generator):
        indicator[w] = 1
    ball = np.array([1 if v.bit_count() <= cutoff else 0 for v in range(size)], dtype=np.int64)
    # counts[x] = #{c in C : wt(c ^ x) <= cutoff}; XOR convolution via WHT.
    spectrum = _wht(indicator) * _wht(ball)
    counts = _wht(spectrum) // size
    center = int(np.argmax(counts))
    return int(counts[center]), center


def sqrt_widened(eps: Fraction) -> Fraction:
    """sqrt(eps) rounded down at 2^-80 — widening (1-sqrt)/2 upward."""
    if eps < 0:
        raise PreconditionError("cannot take the square root of a negative rational")
    scale = 1 << 80
    return Fraction(math.isqrt(eps.numerator * scale * scale // eps.denominator), scale)


@dataclass(frozen=True)
class JohnsonVerdict:
    """Outcome of the list-size-at-Johnson-radius check."""

    passed: bool
    eps: Fraction
    radius: Fraction
    max_list: int
    center: int
    limit: int


def johnson_check(generator: BitMatrix, eps: RationalLike) -> JohnsonVerdict:
    """Verify the list-size bound 2T at radius (1 - sqrt(eps))/2.

    The code must actually be eps-balanced — that precondition is verified
    exhaustively first and a violation raises rather than passing silently.
    The radius uses the 80-bit square root rounded toward inclusion.
    """
    epsf = Fraction(eps)
    report = balancedness_report(generator, epsf)
    if report.delta != 0:
        raise PreconditionError(
            f"code is not {epsf}-balanced (unbalanced fraction {report.delta})"
        )
    radius = (1 - sqrt_widened(epsf)) / 2
    max_list, center = list_size_exhaustive(generator, radius)
    limit = 2 * generator.cols
    return JohnsonVerdict(
        passed=max_list <= limit,
        eps=epsf,
        radius=radius,
        max_list=max_list,
        center=center,
        limit=limit,
    )
