"""Bias of polynomials on weak sources: exact, sampled, and moment identities.

The bias of f on X is E[(-1)^f(X)] = Pr[f(X)=0] - Pr[f(X)=1].  Everything
exact here comes from the integer counts of the enumerated source support,
divided once into a :class:`fractions.Fraction`; the Monte-Carlo estimator
carries an explicit concentration halfwidth instead of pretending to be exact.

The moment identity cross-checks two independent computations of
E_f[bias(f)^t] for f uniform over all degree-<=d polynomials: a brute-force
average over every polynomial, and the probability that t independent source
draws have monomial-evaluation vectors XORing to zero.  The two must agree
as exact rationals, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import anf, sources
from .anf import Polynomial, eval_bits, eval_polys, eval_words, monomial_order
from .errors import PreconditionError, check_budget
from .gf2 import binom_sum
from .reports import AuditReport
from .sources import Source, _support_counts, ambient_length, sample_words

__all__ = [
    "BiasReport",
    "bias_exact",
    "bias_mc",
    "mc_halfwidth",
    "moment_walk",
    "moment_by_poly_enumeration",
    "moment_by_eval_collision",
    "statistical_distance",
    "extractor_audit",
    "disperser_audit",
]

#: Enumeration guard for the moment computations (polynomial count / states).
MOMENT_COEFF_LIMIT = 20
MOMENT_WORK_LIMIT = 1 << 24

#: Draws :func:`bias_mc` holds at once before evaluating them in one batch.
MC_CHUNK = 1 << 12


@dataclass(frozen=True)
class BiasReport:
    """Monte-Carlo bias estimate with its concentration guarantee."""

    estimate: float
    samples: int
    halfwidth: float
    fail_prob: float


def bias_exact(f: Polynomial, source: Source) -> Fraction:
    """Exact bias of f on the source from its integer support counts, divided once.

    f is read from its truth table when 2^n is within the enumeration budget,
    and evaluated at all support words in one batch otherwise.
    """
    _check_length(f, source)
    words, counts, total = _support_counts(source)
    if 1 << f.order.n <= sources.ENUMERATION_BUDGET:
        ones = int(counts[anf.truth_table(f)[words] == 1].sum())
    else:
        ones = int(counts[eval_words((f,), words) == 1].sum())
    return Fraction(total - 2 * ones, total)


def _check_length(f: Polynomial, source: Source) -> None:
    if ambient_length(source) != f.order.n:
        raise PreconditionError("source output length must match the polynomial")


def mc_halfwidth(samples: int, fail_prob: float) -> float:
    """Concentration halfwidth sqrt(4 ln(2/delta) / N) for the bias estimate."""
    if samples <= 0 or not 0 < fail_prob < 1:
        raise PreconditionError("need samples >= 1 and 0 < fail_prob < 1")
    return math.sqrt(4.0 * math.log(2.0 / fail_prob) / samples)


def bias_mc(
    f: Polynomial, source: Source, samples: int, fail_prob: float, stream: Random
) -> BiasReport:
    """Estimate the bias from independent draws.

    Draws come from the stream in order, one :func:`sources.sample_words`
    call and one :func:`anf.eval_words` call per chunk of at most
    ``MC_CHUNK`` draws, so memory stays bounded for any sample count.  Where
    its truth table is cheaper than comparing each draw with every active
    monomial, f is read from that table, which :func:`anf.truth_table` builds
    once and keeps on f for later calls.  The estimate is
    (samples - 2 * ones) / samples, where ones counts the draws with f = 1.

    The reported halfwidth bounds |estimate - bias| except with probability
    at most ``fail_prob``; it comes from the two-sided exponential tail for
    bounded samples applied to the +-1 values.
    """
    hw = mc_halfwidth(samples, fail_prob)
    _check_length(f, source)
    ones = 0
    for start in range(0, samples, MC_CHUNK):
        chunk = sample_words(source, min(MC_CHUNK, samples - start), stream)
        ones += int(np.count_nonzero(eval_words((f,), chunk)))
    return BiasReport((samples - 2 * ones) / samples, samples, hw, fail_prob)


def _support_ints(source: Source, n: int, d: int) -> tuple[list[int], list[int], int]:
    """Support eval-vectors (packed), integer counts, and their total."""
    if ambient_length(source) != n:
        raise PreconditionError("source output length must equal n")
    order = monomial_order(n, d)
    words, counts, total = _support_counts(source)
    return [eval_bits(w, order) for w in words.tolist()], counts.tolist(), total


def moment_walk(n: int, d: int, points: int, what: str) -> int:
    """binom_sum(n, d), once :func:`moment_by_poly_enumeration`'s walk over ``points``
    points is within MOMENT_COEFF_LIMIT coefficients and MOMENT_WORK_LIMIT steps."""
    size = binom_sum(n, min(d, MOMENT_COEFF_LIMIT + 1))  # a larger d adds only refusals
    check_budget(f"{what}, coefficients", 1 << MOMENT_COEFF_LIMIT, log2=size)
    check_budget(f"{what}, walk steps", MOMENT_WORK_LIMIT, points << size)
    return size


def moment_by_poly_enumeration(source: Source, n: int, d: int, t: int) -> Fraction:
    """E over all degree-<=d polynomials of bias(f)^t, by direct enumeration.

    Walks every one of the 2^binom_sum(n, d) coefficient words against
    every support point, within the budgets of :func:`moment_walk`.
    """
    if t < 0:
        raise PreconditionError("moment index must be nonnegative")
    evals, weights, denom = _support_ints(source, n, d)
    size = moment_walk(n, d, len(evals), f"moment enumeration (n={n}, d={d})")
    total = 0
    for c in range(1 << size):
        signed = 0
        for e, w in zip(evals, weights):
            signed += -w if (c & e).bit_count() & 1 else w
        total += signed**t
    return Fraction(total, denom**t * (1 << size))


def moment_by_eval_collision(source: Source, n: int, d: int, t: int) -> Fraction:
    """Pr that t independent draws have evaluation vectors summing to zero.

    Convolves the exact distribution of the packed evaluation vector with
    itself t times and reads off the mass at zero.  This is the second,
    independent route to the t-th bias moment.
    """
    if t < 0:
        raise PreconditionError("moment index must be nonnegative")
    evals, weights, denom = _support_ints(source, n, d)
    acc: dict[int, int] = {0: 1}
    for _ in range(t):
        check_budget("eval-vector convolution", MOMENT_WORK_LIMIT, len(acc) * len(evals))
        nxt: dict[int, int] = {}
        for a, wa in acc.items():
            for e, we in zip(evals, weights):
                key = a ^ e
                nxt[key] = nxt.get(key, 0) + wa * we
        acc = nxt
    return Fraction(acc.get(0, 0), denom**t)


Distribution = Mapping[object, Fraction]


def statistical_distance(p: Distribution, q: Distribution) -> Fraction:
    """Half the L1 distance between two enumerated distributions, exactly."""
    keys = set(p) | set(q)
    total = sum(abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys)
    return Fraction(total, 2)


def _pushforward(
    polys: Sequence[Polynomial], source: Source
) -> dict[int, Fraction]:
    words, counts, total = _support_counts(source)
    keys, where = np.unique(eval_words(polys, words), return_inverse=True)
    masses = np.zeros(keys.size, dtype=np.int64)
    np.add.at(masses, where, counts)
    return {key: Fraction(c, total) for key, c in zip(keys.tolist(), masses.tolist())}


def extractor_audit(
    polys: Sequence[Polynomial],
    sources: Sequence[Source],
    epsilon: Union[Fraction, float],
) -> AuditReport:
    """Exact closeness-to-uniform audit of a polynomial tuple on each source.

    Pushes every source's exact distribution through the m output polynomials
    (m <= 16), measures statistical distance to uniform on m bits, and passes
    iff the worst source stays within epsilon.  The witness index points at
    the first source attaining the maximum distance.
    """
    m = len(polys)
    if not 1 <= m <= 16:
        raise PreconditionError("output dimension must be between 1 and 16")
    order = polys[0].order
    if any(f.order is not order for f in polys):
        raise PreconditionError("output polynomials must share a monomial order")
    if not sources:
        raise PreconditionError("need at least one source")
    eps = Fraction(epsilon)
    uniform = Fraction(1, 1 << m)
    per_source = []
    max_distance = Fraction(0)
    witness = 0
    for idx, source in enumerate(sources):
        _check_length(polys[0], source)
        push = _pushforward(polys, source)
        dist = statistical_distance(push, {z: uniform for z in range(1 << m)})
        heaviest = max(push, key=lambda z: (push[z], -z))
        per_source.append(
            {
                "source_index": idx,
                "distance_num": dist.numerator,
                "distance_den": dist.denominator,
                "heaviest_output": heaviest,
                "support_points": len(push),
            }
        )
        if dist > max_distance:
            max_distance = dist
            witness = idx
    return AuditReport(
        kind="extractor",
        verdict=max_distance <= eps,
        epsilon=eps,
        max_distance=max_distance,
        witness_source_index=witness,
        per_source=per_source,
    )


def disperser_audit(f: Polynomial, sources: Sequence[Source]) -> AuditReport:
    """Check that f hits both output values on every source."""
    if not sources:
        raise PreconditionError("need at least one source")
    per_source = []
    witness: Optional[int] = None
    for idx, source in enumerate(sources):
        _check_length(f, source)
        values = set()
        for w in _support_counts(source)[0].tolist():
            values.add(eval_polys((f,), w))
            if len(values) == 2:
                break
        ok = values == {0, 1}
        per_source.append(
            {
                "source_index": idx,
                "hits_zero": 0 in values,
                "hits_one": 1 in values,
                "pass": ok,
            }
        )
        if not ok and witness is None:
            witness = idx
    return AuditReport(
        kind="disperser",
        verdict=witness is None,
        epsilon=None,
        max_distance=None,
        witness_source_index=witness,
        per_source=per_source,
    )
