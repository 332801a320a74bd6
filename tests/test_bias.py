"""Exact and Monte-Carlo bias, moment identities, statistical distance, audits."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from polyext import rng
from polyext.anf import Polynomial, eval_bits, monomial_order, sample_poly, truth_table
from polyext.bias import (
    bias_exact,
    bias_mc,
    disperser_audit,
    extractor_audit,
    mc_halfwidth,
    moment_by_eval_collision,
    moment_by_poly_enumeration,
    statistical_distance,
)
from polyext.errors import BudgetExceededError, PreconditionError
from polyext.gf2 import BitVector, rank, sample_uniform_matrix
from polyext.sources import Flat, support_of, uniform_flat

MASTER = 20260823


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def flat(n, *texts) -> Flat:
    return Flat(n, tuple(bv(t) for t in texts))


def all_flat_sources(n):
    pts = [BitVector(n, b) for b in range(1 << n)]
    for size in range(1, (1 << n) + 1):
        for sub in combinations(pts, size):
            yield Flat(n, sub)


# ---------------------------------------------------------------------------
# bias_exact


def test_bias_of_constant_zero():
    assert bias_exact(Polynomial.from_monomials(3, 2, []), uniform_flat(3)) == 1


def test_bias_of_balanced_linear():
    f = Polynomial.from_monomials(4, 1, [[0]])
    assert bias_exact(f, uniform_flat(4)) == 0


def test_bias_of_single_and():
    f = Polynomial.from_monomials(2, 2, [[0, 1]])
    assert bias_exact(f, uniform_flat(2)) == Fraction(1, 2)


def test_bias_from_truth_table_ones_count():
    stream = rng.derive(MASTER, "bias", "table")
    for _ in range(20):
        n = stream.randrange(1, 11)
        f = sample_poly(n, min(n, 3), stream)
        ones = int(truth_table(f).sum())
        assert bias_exact(f, uniform_flat(n)) == 1 - Fraction(2 * ones, 1 << n)


# ---------------------------------------------------------------------------
# bias_mc


def test_mc_halfwidth_formula():
    assert mc_halfwidth(10**4, 1e-4) == pytest.approx(math.sqrt(4 * math.log(2 / 1e-4) / 10**4))


def test_bias_mc_constant_is_exact():
    f = Polynomial.from_monomials(2, 2, [[]])  # constant one
    report = bias_mc(f, uniform_flat(2), 500, 1e-6, rng.derive(MASTER, "bias", "const"))
    assert report.estimate == -1.0
    assert report.samples == 500
    assert report.halfwidth == mc_halfwidth(500, 1e-6)


def test_source_length_must_match_the_polynomial():
    stream = rng.derive(MASTER, "bias", "length-mismatch")
    f = sample_poly(4, 2, stream)
    with pytest.raises(PreconditionError):
        bias_exact(f, uniform_flat(6))
    with pytest.raises(PreconditionError):
        bias_mc(f, uniform_flat(6), 10, 0.1, stream)


def test_bias_mc_calibration_on_balanced_function():
    """Estimates of a zero-bias function stay inside the halfwidth run after run."""
    f = Polynomial.from_monomials(4, 1, [[0]])
    src = uniform_flat(4)
    hw = mc_halfwidth(10**4, 1e-4)
    inside = 0
    for run in range(200):
        report = bias_mc(f, src, 10**4, 1e-4, rng.derive(MASTER, "bias", "calib", run))
        if abs(report.estimate) <= hw:
            inside += 1
    assert inside >= 199


def test_bias_mc_agrees_with_exact():
    stream = rng.derive(MASTER, "bias", "agreement")
    for _ in range(100):
        n = stream.randrange(1, 13)
        size = stream.randrange(1, min(64, 1 << n) + 1)
        pts = tuple(BitVector(n, b) for b in stream.sample(range(1 << n), size))
        src = Flat(n, pts)
        f = sample_poly(n, min(n, 2), stream)
        report = bias_mc(f, src, 2000, 1e-6, stream)
        assert abs(report.estimate - float(bias_exact(f, src))) <= report.halfwidth


# ---------------------------------------------------------------------------
# the moment identity


def test_moment_one_bit_uniform_second_moment():
    src = uniform_flat(1)
    assert moment_by_poly_enumeration(src, 1, 1, 2) == Fraction(1, 2)
    assert moment_by_eval_collision(src, 1, 1, 2) == Fraction(1, 2)


def test_moment_order_zero_is_one():
    src = flat(2, "00", "10")
    assert moment_by_poly_enumeration(src, 2, 2, 0) == 1
    assert moment_by_eval_collision(src, 2, 2, 0) == 1


def test_first_moment_vanishes():
    # a single eval-vector never sums to zero: its constant coordinate is 1
    for src in (uniform_flat(2), flat(2, "01", "11"), flat(3, "000")):
        n = src.n
        assert moment_by_eval_collision(src, n, 2, 1) == 0
        assert moment_by_poly_enumeration(src, n, 2, 1) == 0


def test_second_moment_is_collision_probability():
    stream = rng.derive(MASTER, "bias", "collision")
    for _ in range(20):
        n = stream.randrange(1, 4)
        size = stream.randrange(1, (1 << n) + 1)
        pts = tuple(BitVector(n, b) for b in stream.sample(range(1 << n), size))
        src = Flat(n, pts)
        # eval vectors of distinct points are distinct, so colliding pairs
        # are exactly the diagonal
        order = monomial_order(n, n)
        assert len({eval_bits(p.bits, order) for p in pts}) == size
        assert moment_by_eval_collision(src, n, n, 2) == Fraction(1, size)


def test_moment_identity_exhaustive_over_two_bits():
    for src in all_flat_sources(2):
        for d in (0, 1, 2):
            for t in (1, 2, 3):
                lhs = moment_by_poly_enumeration(src, 2, d, t)
                rhs = moment_by_eval_collision(src, 2, d, t)
                assert lhs == rhs


def test_moment_identity_random_three_bit_sources():
    stream = rng.derive(MASTER, "bias", "moment3")
    for _ in range(10):
        size = stream.randrange(1, 9)
        pts = tuple(BitVector(3, b) for b in stream.sample(range(8), size))
        src = Flat(3, pts)
        for t in (1, 2, 3):
            assert moment_by_poly_enumeration(src, 3, 2, t) == moment_by_eval_collision(
                src, 3, 2, t
            )


def test_moment_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        moment_by_poly_enumeration(uniform_flat(6), 6, 2, 2)  # 22 coefficients


def test_moment_monotone_under_linear_maps():
    """Pushing the source through a surjective linear map cannot shrink the moment."""
    stream = rng.derive(MASTER, "bias", "pushforward")
    checked = 0
    while checked < 50:
        n = stream.randrange(2, 5)
        m = stream.randrange(1, min(n, 3) + 1)
        d = stream.randrange(1, 3)
        mat = sample_uniform_matrix(m, n, stream)
        if rank(mat) < m:
            continue
        size = stream.randrange(2, (1 << n) + 1)
        pts = tuple(BitVector(n, b) for b in stream.sample(range(1 << n), size))
        src = Flat(n, pts)
        t = stream.randrange(1, 4)
        lhs = moment_by_poly_enumeration(src, n, d, t)
        # image moment, computed against the exact pushforward distribution
        weights: dict[int, Fraction] = {}
        for p, prob in support_of(src):
            img = mat.apply_word(p.bits)
            weights[img] = weights.get(img, Fraction(0)) + prob
        order = monomial_order(m, d)
        total = Fraction(0)
        for cb in range(1 << order.size):
            bias = Fraction(0)
            for img, prob in weights.items():
                val = (cb & eval_bits(img, order)).bit_count() & 1
                bias += prob * (-1) ** val
            total += bias**t
        rhs = total / (1 << order.size)
        assert lhs <= rhs
        checked += 1


# ---------------------------------------------------------------------------
# statistical distance


def test_distance_of_identical_distributions():
    p = dict(support_of(flat(2, "00", "01")))
    assert statistical_distance(p, p) == 0


def test_distance_of_disjoint_point_masses():
    p = {bv("00"): Fraction(1)}
    q = {bv("11"): Fraction(1)}
    assert statistical_distance(p, q) == 1


def test_distance_biased_coin_vs_uniform():
    p = {BitVector(1, 0): Fraction(3, 4), BitVector(1, 1): Fraction(1, 4)}
    u = {BitVector(1, 0): Fraction(1, 2), BitVector(1, 1): Fraction(1, 2)}
    assert statistical_distance(p, u) == Fraction(1, 4)


def test_data_processing_never_increases_distance():
    stream = rng.derive(MASTER, "bias", "data-processing")
    for _ in range(200):
        n = stream.randrange(1, 7)
        m = stream.randrange(1, 4)
        p = dict(support_of(
            Flat(n, tuple(BitVector(n, b) for b in stream.sample(range(1 << n), stream.randrange(1, (1 << n) + 1))))
        ))
        q = dict(support_of(
            Flat(n, tuple(BitVector(n, b) for b in stream.sample(range(1 << n), stream.randrange(1, (1 << n) + 1))))
        ))
        table = [stream.getrandbits(m) for _ in range(1 << n)]
        gp: dict[BitVector, Fraction] = {}
        gq: dict[BitVector, Fraction] = {}
        for dist, out in ((p, gp), (q, gq)):
            for v, prob in dist.items():
                img = BitVector(m, table[v.bits])
                out[img] = out.get(img, Fraction(0)) + prob
        assert statistical_distance(gp, gq) <= statistical_distance(p, q)


# ---------------------------------------------------------------------------
# audits


def test_extractor_audit_perfect_bit():
    f = Polynomial.from_monomials(3, 1, [[0]])
    report = extractor_audit([f], [uniform_flat(3)], Fraction(0))
    assert report.verdict
    assert report.max_distance == 0


def test_extractor_audit_constant_output():
    zero = Polynomial.from_monomials(2, 2, [])
    report = extractor_audit([zero], [uniform_flat(2)], Fraction(1, 4))
    assert not report.verdict
    assert report.max_distance == Fraction(1, 2)
    assert report.witness_source_index == 0


def test_extractor_audit_quarter_distance():
    f = Polynomial.from_monomials(2, 2, [[0, 1]])
    report = extractor_audit([f], [uniform_flat(2)], Fraction(1, 4))
    assert report.verdict
    assert report.max_distance == Fraction(1, 4)


def test_extractor_audit_reports_worst_source():
    f = Polynomial.from_monomials(2, 2, [[0, 1]])
    sources = [uniform_flat(2), flat(2, "11", "01"), flat(2, "00", "01")]
    report = extractor_audit([f], sources, Fraction(1, 2))
    # f is constant only on the third source
    assert report.witness_source_index == 2
    assert report.max_distance == Fraction(1, 2)
    assert len(report.per_source) == 3


def test_extractor_audit_refuses_a_source_of_the_wrong_length():
    f = Polynomial.from_monomials(3, 1, [[0]])
    with pytest.raises(PreconditionError):
        extractor_audit([f], [uniform_flat(3), uniform_flat(5)], 0)


def test_disperser_audit_refuses_a_source_of_the_wrong_length():
    f = Polynomial.from_monomials(3, 1, [[0]])
    with pytest.raises(PreconditionError):
        disperser_audit(f, [uniform_flat(3), uniform_flat(5)])


def test_disperser_audit_passes_on_linear():
    f = Polynomial.from_monomials(3, 1, [[0]])
    assert disperser_audit(f, [uniform_flat(3)]).verdict


def test_disperser_audit_fails_on_constant():
    f = Polynomial.from_monomials(3, 2, [[]])
    report = disperser_audit(f, [uniform_flat(3)])
    assert not report.verdict
    assert report.witness_source_index == 0


def test_disperser_audit_detects_constant_restriction():
    f = Polynomial.from_monomials(2, 2, [[0, 1]])
    report = disperser_audit(f, [flat(2, "00", "01")])
    assert not report.verdict
