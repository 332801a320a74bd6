"""Weak-source models: exact enumeration, sampling, variety reduction."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from polyext import anf, bias, io, rng, sources
from polyext.anf import Polynomial, sample_poly, truth_table
from polyext.bias import (
    bias_exact,
    bias_mc,
    disperser_audit,
    extractor_audit,
    mc_halfwidth,
    moment_by_eval_collision,
    moment_by_poly_enumeration,
)
from polyext.errors import BudgetExceededError, PreconditionError, RetryExhaustedError
from polyext.gf2 import BitVector, sample_uniform_matrix, span_rank
from polyext.sources import (
    Affine,
    Flat,
    Local,
    LocalBit,
    PolynomialImage,
    Sumset,
    Variety,
    ambient_length,
    common_zeros,
    sample_source,
    sample_words,
    support_of,
    uniform_flat,
    variety_reduce,
)

MASTER = 20260823


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def flat(n, *texts) -> Flat:
    return Flat(n, tuple(bv(t) for t in texts))


# ---------------------------------------------------------------------------
# support_of


def test_flat_support_probabilities():
    assert support_of(flat(2, "00", "11")) == [
        (bv("00"), Fraction(1, 2)),
        (bv("11"), Fraction(1, 2)),
    ]


def test_affine_coset_enumeration():
    src = Affine(3, bv("100"), (bv("010"),))
    assert dict(support_of(src)) == {bv("100"): Fraction(1, 2), bv("110"): Fraction(1, 2)}


def test_sumset_one_bit_convolution():
    src = Sumset(flat(1, "0", "1"), flat(1, "0", "1"))
    assert dict(support_of(src)) == {bv("0"): Fraction(1, 2), bv("1"): Fraction(1, 2)}


def test_sumset_convolution_weights():
    # colliding sums accumulate probability: {00,01} + {00,01} gives 00 twice
    src = Sumset(flat(2, "00", "01"), flat(2, "00", "01"))
    assert dict(support_of(src)) == {bv("00"): Fraction(1, 2), bv("01"): Fraction(1, 2)}


def test_local_bit_table_indexing():
    # table index packs the listed inputs, first input least significant;
    # this bit fires only on (x1, x2) = (1, 0)
    src = Local(2, 2, (LocalBit((0, 1), (0, 1, 0, 0)),))
    assert dict(support_of(src)) == {bv("0"): Fraction(3, 4), bv("1"): Fraction(1, 4)}
    with pytest.raises(ValueError, match="entries must be bits"):
        LocalBit((0,), (0, 2))


def test_polynomial_image_identity_is_uniform():
    polys = tuple(Polynomial.from_monomials(3, 1, [[i]]) for i in range(3))
    src = PolynomialImage(3, polys)
    dist = dict(support_of(src))
    assert len(dist) == 8
    assert all(p == Fraction(1, 8) for p in dist.values())


def test_variety_support_is_zero_set():
    polys = (
        Polynomial.from_monomials(3, 2, [[0]]),
        Polynomial.from_monomials(3, 2, [[0], [1]]),
    )
    dist = dict(support_of(Variety(3, polys)))
    assert dist == {bv("000"): Fraction(1, 2), bv("001"): Fraction(1, 2)}


def test_empty_variety_rejected():
    one = Polynomial.from_monomials(2, 2, [[]])
    with pytest.raises(PreconditionError):
        support_of(Variety(2, (one,)))


def test_support_budget_enforced():
    src = Local(1, 23, (LocalBit((0,), (0, 1)),))
    with pytest.raises(BudgetExceededError):
        support_of(src)


def test_probabilities_sum_to_one_across_kinds():
    stream = rng.derive(MASTER, "sources", "mass")
    kinds = [
        flat(3, "000", "011", "101"),
        Affine(4, bv("1000"), (bv("0100"), bv("0010"))),
        Sumset(flat(2, "00", "10"), flat(2, "00", "01", "11")),
        Local(2, 3, (LocalBit((0, 2), (0, 1, 1, 1)), LocalBit((1,), (1, 0)))),
        PolynomialImage(3, (sample_poly(3, 2, stream), sample_poly(3, 2, stream))),
        Variety(3, (Polynomial.from_monomials(3, 2, [[0, 1]]),)),
    ]
    for src in kinds:
        assert sum(p for _, p in support_of(src)) == 1


def test_flat_support_entries_validated():
    with pytest.raises(ValueError):
        Flat(2, (bv("00"), bv("00")))
    with pytest.raises(ValueError):
        Flat(2, ())
    with pytest.raises(ValueError, match="length n"):
        Flat(2, (bv("001"),))


def test_affine_requires_independent_basis():
    with pytest.raises(ValueError):
        Affine(3, bv("000"), (bv("110"), bv("110")))
    with pytest.raises(ValueError, match="length n"):
        Affine(3, bv("000"), (bv("11"),))
    with pytest.raises(ValueError):
        Affine(3, 0, (0b011, 0b011))


@pytest.mark.parametrize("stray", [-1, 0b100, 0b101, 1 << 70, "01", 1.0, None])
def test_flat_and_affine_refuse_a_point_outside_f_2_n(stray):
    """An int is stored as it is, never masked as BitVector(2, 5) masks 5 to 1."""
    for build in (
        lambda: Flat(2, (0b01, stray)),
        lambda: Affine(2, stray, (0b01,)),
        lambda: Affine(2, 0, (0b01, stray)),
    ):
        with pytest.raises(ValueError, match="length n or ints in"):
            build()


def test_a_source_from_bitvectors_is_the_source_from_their_words():
    stream = rng.derive(MASTER, "sources", "words-vs-vectors")
    words = tuple(stream.sample(range(1 << 10), 50))
    basis = (0b0000000011, 0b0000011000, 0b1100000000)
    vectors = tuple(BitVector(10, w) for w in basis)
    pairs = [
        (Flat(10, tuple(BitVector(10, w) for w in words)), Flat(10, words)),
        (Affine(10, BitVector(10, 0b1010), vectors), Affine(10, 0b1010, basis)),
    ]
    pairs.append((Sumset(pairs[0][0], pairs[0][0]), Sumset(pairs[0][1], pairs[0][1])))
    for from_vectors, from_words in pairs:
        assert from_vectors == from_words and hash(from_vectors) == hash(from_words)
        a, b = rng.derive(MASTER, "twin"), rng.derive(MASTER, "twin")
        draws = [sample_words(src, 200, stream).tolist() for src, stream in ((from_vectors, a), (from_words, b))]
        assert draws[0] == draws[1]
        assert [sample_source(from_vectors, a) for _ in range(20)] == [
            sample_source(from_words, b) for _ in range(20)
        ]
        assert support_of(from_vectors) == support_of(from_words)
    assert Flat(10, words).support == words and Affine(10, 0b1010, basis).basis == basis


# ---------------------------------------------------------------------------
# sampling


def test_sample_single_point_source():
    src = flat(4, "0110")
    stream = rng.derive(MASTER, "sources", "point")
    assert all(sample_source(src, stream) == bv("0110") for _ in range(20))


def test_sample_sumset_of_singletons():
    src = Sumset(flat(3, "101"), flat(3, "011"))
    stream = rng.derive(MASTER, "sources", "singleton-sum")
    assert all(sample_source(src, stream) == bv("110") for _ in range(20))


def test_sample_polynomial_image_chi_square():
    """Identity map on 4 bits: 10^5 draws consistent with uniform (chi^2, df 15).

    One batch reads the stream as that many single draws do, so these are the
    draws of 10^5 ``sample_source`` calls, at a fraction of their cost.
    """
    polys = tuple(Polynomial.from_monomials(4, 1, [[i]]) for i in range(4))
    src = PolynomialImage(4, polys)
    stream = rng.derive(MASTER, "sources", "chi2")
    draws = 10**5
    counts = np.bincount(sample_words(src, draws, stream).astype(np.int64), minlength=16)
    expected = draws / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 37.70  # 0.999 quantile of chi^2 with 15 degrees of freedom


def test_sample_variety_stays_in_zero_set():
    poly = Polynomial.from_monomials(4, 2, [[0, 1], [2]])
    src = Variety(4, (poly,))
    zero_set = {v.bits for v, _ in support_of(src)}
    stream = rng.derive(MASTER, "sources", "variety-draws")
    for _ in range(200):
        assert sample_source(src, stream).bits in zero_set


def test_sample_flat_frequencies_match_exact():
    src = flat(3, "000", "010", "111", "110")
    stream = rng.derive(MASTER, "sources", "flat-freq")
    counts: dict[int, int] = {}
    for _ in range(20000):
        x = sample_source(src, stream)
        counts[x.bits] = counts.get(x.bits, 0) + 1
    for v, prob in support_of(src):
        assert abs(counts[v.bits] / 20000 - float(prob)) < 0.02


def _pinned_sources() -> dict:
    """One seeded source per sampler branch, the rejection branch included."""
    s = rng.derive(MASTER, "sources", "pins")

    def rand_flat(n, size):
        return Flat(n, tuple(BitVector(n, b) for b in s.sample(range(1 << n), size)))

    basis: list[BitVector] = []
    while len(basis) < 5:
        v = BitVector(12, s.getrandbits(12))
        if span_rank([b.bits for b in basis] + [v.bits]) > len(basis):
            basis.append(v)
    local_bits = tuple(
        LocalBit(tuple(s.sample(range(12), 3)), tuple(s.getrandbits(1) for _ in range(8)))
        for _ in range(10)
    )
    return {
        "flat": rand_flat(10, 100),
        "affine": Affine(12, BitVector(12, s.getrandbits(12)), tuple(basis)),
        "sumset": Sumset(rand_flat(10, 20), rand_flat(10, 30)),
        "local": Local(3, 12, local_bits),
        "polyimage": PolynomialImage(8, tuple(sample_poly(8, 2, s) for _ in range(10))),
        "variety": Variety(12, (sample_poly(12, 2, s), sample_poly(12, 2, s))),
        # n = 23 is past the enumeration budget, so draws go through rejection
        "variety-rejection": Variety(
            23, (sample_poly(23, 2, s), Polynomial.from_monomials(23, 2, [[0, 1]]))
        ),
    }


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# sha256 of the JSON list of 200 draws (0/1 strings) per source kind
PINNED_DRAWS = {
    "affine": "95d8995e69589853c5fa578ed8ca1fe0cd076838e7b731bda3ae75840e441357",
    "flat": "b0a409d7cd6e48d14daef9af41fdfe3ad633b19322807ce5a84cae9cb09ecf8f",
    "local": "7f10913ed523a7b46e7aea00f6fedc2f27916fd42c32edeb479a6da38a7d5504",
    "polyimage": "316ccf7a784f75e930b36a56e18d0ee16937b87b14ed804ee3758891a1ed543d",
    "sumset": "b1da2fbb2b9c849ad25487e95fbcd25142da3792068bd55503be193836fbe7e2",
    "variety": "51f96971d29a84175537de6182bacddea711ef5cab6ed4481fe9bb72f3dda657",
    "variety-rejection": "517659b5d1cdc94c81658da37c459c5a5d231bbc51b0e1a57c614bdb4eec7762",
}

# sha256 of the JSON list of BiasReport fields of one 200-sample bias_mc call
PINNED_ESTIMATES = {
    "affine": "056b22ac1750f7c289f694aa3b2a7851daae21959be26472a39646a65191b91d",
    "flat": "7986e17f83af2e791b81562f779c8e07314c38622eb773ef1443a410b16aa71b",
    "local": "3de2688f07fc32daf749f1f644ac7ce98a57661dee1ee00da225318651820e75",
    "polyimage": "659889098c7dff16cc2584296100459d32f536c05054a885c7a82e489fbf6c38",
    "sumset": "2d93bf9bdcbe7e53e10fca5a639ceb59aba53ca087119c0cb2c452506e1c1e4e",
    "variety": "a084caf772d21dfcaa00a4a91101fb2a6ebdb892a19a0429519ad65ac2fa6d60",
    "variety-rejection": "915ca988f8c60523a91ea0581d6de2d495a16fdade996c2e32ad882cdbd6b24d",
}


@pytest.mark.parametrize("kind", sorted(PINNED_DRAWS))
def test_sample_source_draws_are_pinned(kind):
    src = _pinned_sources()[kind]
    stream = rng.derive(MASTER, "sources", "pinned-draws", kind)
    draws = [sample_source(src, stream).to_string() for _ in range(200)]
    assert _sha(draws) == PINNED_DRAWS[kind]


@pytest.mark.parametrize("kind", sorted(PINNED_ESTIMATES))
def test_bias_mc_estimates_are_pinned(kind):
    src = _pinned_sources()[kind]
    stream = rng.derive(MASTER, "sources", "pinned-estimates", kind)
    f = sample_poly(ambient_length(src), 3, stream)
    rep = bias_mc(f, src, 200, 0.01, stream)
    assert _sha([rep.estimate, rep.samples, rep.halfwidth, rep.fail_prob]) == PINNED_ESTIMATES[kind]


def test_bias_mc_over_many_chunks_is_pinned():
    """5,000 draws span two chunks of draws and many evaluation blocks."""
    s = rng.derive(MASTER, "sources", "pinned-estimates", "chunked")
    src = Flat(16, tuple(BitVector(16, b) for b in s.sample(range(1 << 16), 256)))
    f = sample_poly(16, 5, s)
    rep = bias_mc(f, src, 5000, 0.01, s)
    assert _sha([rep.estimate, rep.samples, rep.halfwidth, rep.fail_prob]) == (
        "20b4f9d00c6a8cec6dc5ca2ac071ea22ef92d41f0adbe1ce7c2e9f4dc2fd54df"
    )


def test_bias_mc_on_a_wide_flat_is_pinned():
    """Draws of a 100-bit flat are evaluated as Python ints."""
    s = rng.derive(MASTER, "sources", "pinned-estimates", "wide-flat")
    src = Flat(100, tuple(dict.fromkeys(BitVector(100, s.getrandbits(100)) for _ in range(10))))
    f = sample_poly(100, 2, s)
    rep = bias_mc(f, src, 200, 0.01, s)
    assert _sha([rep.estimate, rep.samples, rep.halfwidth, rep.fail_prob]) == (
        "dbffd4fa1680f73dabb59e1f6b4fc89bba7f3865643ef919ebc9388aeeb0b8d5"
    )


# sha256 of [numerator, denominator] of bias_exact with one seeded degree-3 f
PINNED_EXACT = {
    "affine": "923682bea6d517dc178d480c88e129e485ed902f4fa024866666658cd4ea6836",
    "flat": "5f93a30b0fb8844aeb60c9d3e163871b7a70a43eece90489e06babd02e2d46f5",
    "local": "2924aa39cda96f2011eb1cdaa55a91cc4c44470691fbec0ceb28c12f2ee203ee",
    "polyimage": "923682bea6d517dc178d480c88e129e485ed902f4fa024866666658cd4ea6836",
    "sumset": "545245b4824b84ba2ea2029b60e022c26328587ddbf95d0f9aae04fd6a1d28c5",
    "variety": "e163dad4ca5f56f406ae89df8f399ba3a3f6b607773be1c2914408b92f809119",
}


@pytest.mark.parametrize("kind", sorted(PINNED_EXACT))
def test_bias_exact_is_pinned(kind):
    src = _pinned_sources()[kind]
    f = sample_poly(ambient_length(src), 3, rng.derive(MASTER, "sources", "pinned-exact", kind))
    value = bias_exact(f, src)
    assert _sha([value.numerator, value.denominator]) == PINNED_EXACT[kind]


# sha256 of support_of as [point string, numerator, denominator] triples
PINNED_SUPPORTS = {
    "affine": "2d1a390dc75c20fae1576b57c0e9bf50119884917d8b2ffb2c16367eaf112744",
    "flat": "146cb21a2c02970a15d1735a75e4b5bf565796d8eeda48ca4862d4d53e8f983b",
    "local": "f5a0505ed1654a6b74d6713b6dbda7cda48d6bdeb39bbd196daf7c2066e4f1e7",
    "polyimage": "1ea617e28beb8db1ff6b03aff7cfddbf327547b5f4f7e0242f4b90158bffcd7e",
    "sumset": "7add72ce00f98a25ada9c7dbf715b0696c8ad0820df8815157d40996f25212f1",
    "variety": "f74f3b08ebd4bb495aa8d2f7f5a194d476800c224020d8302ce2bb56dacd0250",
}


@pytest.mark.parametrize("kind", sorted(PINNED_SUPPORTS))
def test_support_of_is_pinned(kind):
    dist = support_of(_pinned_sources()[kind])
    triples = [[v.to_string(), p.numerator, p.denominator] for v, p in dist]
    assert _sha(triples) == PINNED_SUPPORTS[kind]


def test_bias_exact_refuses_a_variety_past_the_budget():
    src = _pinned_sources()["variety-rejection"]
    f = sample_poly(23, 1, rng.derive(MASTER, "sources", "pinned-exact", "variety-rejection"))
    with pytest.raises(BudgetExceededError):
        bias_exact(f, src)


def test_bias_exact_on_a_wide_flat_is_pinned():
    """Points of a 100-bit flat do not fit a machine word; they stay Python ints."""
    s = rng.derive(MASTER, "sources", "pinned-exact", "wide-flat")
    src = Flat(100, tuple(dict.fromkeys(BitVector(100, s.getrandbits(100)) for _ in range(10))))
    f = sample_poly(100, 2, s)
    value = bias_exact(f, src)
    assert _sha([value.numerator, value.denominator]) == (
        "f1a52988e4c6e2b0b7adfad7107ede6e9808184f50d479b1f8db8539d21ebbdf"
    )


# sha256 of the extractor audit JSON, the disperser audit JSON and the two
# moment routes (as [numerator, denominator]) for t = 2 and 4
PINNED_AUDITS = {
    "flat": "28b4a257bfb94b9de2e6c0c9aaca302ba722b86402e539a98813a18e4679e105",
    "sumset": "8e9fd8fa249afba705d5dd6ab3c1fb061d28e0399750fc96329c6bcdb00d7615",
}


@pytest.mark.parametrize("kind", sorted(PINNED_AUDITS))
def test_audits_and_moments_are_pinned(kind):
    src = _pinned_sources()[kind]
    n = ambient_length(src)
    s = rng.derive(MASTER, "sources", "pinned-audits", kind)
    polys = tuple(sample_poly(n, 2, s) for _ in range(3))
    out = [
        extractor_audit(polys, [src, uniform_flat(n)], Fraction(1, 4)).to_json(),
        disperser_audit(polys[0], [src, uniform_flat(n)]).to_json(),
    ]
    for t in (2, 4):
        for route in (moment_by_poly_enumeration, moment_by_eval_collision):
            m = route(src, n, 1, t)
            out.append([m.numerator, m.denominator])
    assert _sha(out) == PINNED_AUDITS[kind]


def _count_truth_tables(monkeypatch) -> list[int]:
    calls = [0]

    def counted(f):
        calls[0] += 1
        return truth_table(f)

    monkeypatch.setattr(anf, "truth_table", counted)
    return calls


def test_variety_points_are_built_once_per_source(monkeypatch):
    """Draws stop re-evaluating the 2^n truth tables: count, don't time."""
    sources._variety_points.cache_clear()
    calls = _count_truth_tables(monkeypatch)
    stream = rng.derive(MASTER, "sources", "variety-cache")
    src = Variety(14, (sample_poly(14, 2, stream), sample_poly(14, 2, stream)))
    dist = support_of(src)
    draws = {sample_source(src, stream).bits for _ in range(500)}
    assert calls[0] == 2
    assert draws <= {v.bits for v, _ in dist}
    # an equal source rebuilt from its file form hits the same cache entry
    again = io.source_from_dict(io.source_to_dict(src))
    assert again is not src and again == src
    sample_source(again, stream)
    support_of(again)
    assert calls[0] == 2
    with pytest.raises(ValueError):
        sources._variety_points(again)[0] = 1


def test_bias_exact_on_a_variety_reads_one_truth_table(monkeypatch):
    """Exact bias gathers f's truth table at the variety points: count, don't time."""
    stream = rng.derive(MASTER, "sources", "exact-structure")
    src = Variety(14, (sample_poly(14, 2, stream), sample_poly(14, 2, stream)))
    f = sample_poly(14, 3, stream)
    expected = sum(-p if anf.evaluate(f, v) else p for v, p in support_of(src))
    real_eval, real_table = anf.eval_polys, anf.truth_table
    evals, tables_of_f = [0], [0]

    def counted_eval(polys, x_bits):
        evals[0] += 1
        return real_eval(polys, x_bits)

    def counted_table(g):
        tables_of_f[0] += g is f
        return real_table(g)

    for module in (anf, bias, sources):
        monkeypatch.setattr(module, "eval_polys", counted_eval)
    monkeypatch.setattr(anf, "truth_table", counted_table)
    assert bias_exact(f, src) == expected
    assert evals[0] == 0
    assert tables_of_f[0] == 1


def _count_transforms(monkeypatch) -> list[int]:
    calls = [0]
    real = anf.mobius_transform

    def counted(table):
        calls[0] += 1
        return real(table)

    monkeypatch.setattr(anf, "mobius_transform", counted)
    return calls


def test_exact_and_sampled_bias_of_one_polynomial_transform_it_once(monkeypatch):
    """Every table read of an n <= 16 polynomial shares one kept truth table."""
    stream = rng.derive(MASTER, "sources", "bias-transforms")
    n = 16
    f = sample_poly(n, 5, stream)
    flat = Flat(n, tuple(BitVector(n, b) for b in stream.sample(range(1 << n), 256)))
    basis = tuple(BitVector(n, 1 << i) for i in range(8))
    affine = Affine(n, BitVector(n, stream.getrandbits(n)), basis)
    calls = _count_transforms(monkeypatch)
    bias_exact(f, flat)
    bias_exact(f, affine)
    bias_mc(f, flat, 64, 0.01, stream)
    assert calls[0] == 1


def test_one_enumeration_budget_for_every_branch(monkeypatch):
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET", 1 << 4)
    calls = _count_truth_tables(monkeypatch)
    with pytest.raises(BudgetExceededError):
        uniform_flat(5)
    assert len(uniform_flat(4).support) == 16
    src = Variety(5, (Polynomial.from_monomials(5, 2, [[0, 1]]),))
    with pytest.raises(BudgetExceededError):
        support_of(src)
    # past the budget a variety draw goes through rejection, not the tables
    stream = rng.derive(MASTER, "sources", "budget-rejection")
    assert all(sample_source(src, stream).bits & 0b11 != 0b11 for _ in range(50))
    assert calls[0] == 0


def test_rejection_draw_gives_up_on_an_empty_variety(monkeypatch):
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET", 1 << 4)
    monkeypatch.setattr(sources, "REJECTION_BUDGET", 10)
    one = Polynomial.from_monomials(5, 2, [[]])
    with pytest.raises(RetryExhaustedError):
        sample_source(Variety(5, (one,)), rng.derive(MASTER, "sources", "empty-rejection"))


def test_empty_variety_draw_rejected():
    one = Polynomial.from_monomials(3, 2, [[]])
    with pytest.raises(PreconditionError):
        sample_source(Variety(3, (one,)), rng.derive(MASTER, "sources", "empty-draw"))


# ---------------------------------------------------------------------------
# sample_words: one batch reads the stream as that many sample_source calls


def _batch_sources() -> dict:
    """Sources whose batch path differs from the pinned ones in some corner."""
    s = rng.derive(MASTER, "sources", "batch-sources")
    sparse_bits = (
        LocalBit((5,), (1, 0)),
        LocalBit((), (1,)),  # reads no input: a constant bit
        LocalBit((2, 7, 0), tuple(s.getrandbits(1) for _ in range(8))),
        LocalBit((6, 1), (0, 1, 1, 1)),
    )
    wide_bits = tuple(
        LocalBit(tuple(s.sample(range(9), 2)), tuple(s.getrandbits(1) for _ in range(4)))
        for _ in range(70)
    )
    basis: list[BitVector] = []
    while len(basis) < 12:
        v = BitVector(20, s.getrandbits(20))
        if span_rank([b.bits for b in basis] + [v.bits]) > len(basis):
            basis.append(v)
    return {
        "local-sparse": Local(3, 8, sparse_bits),
        "local-wide": Local(2, 9, wide_bits),
        "local-constant": Local(1, 3, (LocalBit((), (1,)), LocalBit((), (0,)), LocalBit((), (1,)))),
        "polyimage-wide": PolynomialImage(5, tuple(sample_poly(5, 2, s) for _ in range(70))),
        "flat-wide": Flat(100, tuple(dict.fromkeys(BitVector(100, s.getrandbits(100)) for _ in range(9)))),
        "affine-empty": Affine(12, BitVector(12, s.getrandbits(12)), ()),
        # 2^12 table entries cost more than 12 XORs for each of 50 draws
        "affine-untabled": Affine(20, BitVector(20, s.getrandbits(20)), tuple(basis)),
    }


def _assert_batch_matches_draws(src, count: int, label: str) -> None:
    batch = rng.derive(MASTER, "sources", "batch", label)
    twin = rng.derive(MASTER, "sources", "batch", label)
    words = sample_words(src, count, batch)
    assert words.shape == (count,)
    assert words.dtype == (np.uint64 if ambient_length(src) <= 64 else object)
    assert words.tolist() == [sample_source(src, twin).bits for _ in range(count)]
    assert batch.getrandbits(64) == twin.getrandbits(64)


@pytest.mark.parametrize("count", [0, 1, 50])
@pytest.mark.parametrize("kind", sorted(PINNED_DRAWS) + sorted(_batch_sources()))
def test_sample_words_reads_the_stream_as_single_draws(kind, count):
    src = {**_pinned_sources(), **_batch_sources()}[kind]
    _assert_batch_matches_draws(src, count, kind)


def test_sample_words_takes_the_affine_table_path():
    """200 draws of a 5-dimensional span read the 32-entry subset-XOR table."""
    _assert_batch_matches_draws(_pinned_sources()["affine"], 200, "affine-table")


def test_sample_words_on_a_variety_drawn_by_rejection(monkeypatch):
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET", 1 << 4)
    src = Variety(6, (Polynomial.from_monomials(6, 2, [[0, 1], [2]]),))
    _assert_batch_matches_draws(src, 60, "variety-budget-rejection")


def test_sample_words_gathers_local_bits_across_blocks(monkeypatch):
    """A block of a single point, or of a few, gives the same words as one block."""
    src = _pinned_sources()["local"]
    whole = sources._image_table(src)  # built in one block
    inputs = np.arange(1 << src.m, dtype=np.uint64)
    for block in (1, 7, 64):
        monkeypatch.setattr(anf, "EVAL_BLOCK", block)
        assert sources._image_words(src, inputs).tolist() == whole.tolist()


#: Every local and polynomial-image source of _pinned_sources() and _batch_sources().
IMAGE_KINDS = ["local", "polyimage", "local-sparse", "local-constant", "local-wide", "polyimage-wide"]


@pytest.mark.parametrize("kind", IMAGE_KINDS)
def test_batch_support_counts_match_per_point_enumeration(kind):
    src = {**_pinned_sources(), **_batch_sources()}[kind]
    size = 1 << src.m
    dtype = np.uint64 if ambient_length(src) <= 64 else object
    reference = np.fromiter(map(src.value, range(size)), dtype=dtype, count=size)
    ref_words, ref_counts = np.unique(reference, return_counts=True)
    words, counts, total = sources._support_counts(src)
    assert words.dtype == dtype
    assert words.tolist() == ref_words.tolist()
    assert counts.tolist() == ref_counts.tolist()
    assert total == size


# ---------------------------------------------------------------------------
# _image_table: local and polynomial-image outputs at every input word, kept per source


@pytest.mark.parametrize("kind", IMAGE_KINDS)
def test_image_draws_are_the_value_at_the_twin_stream_inputs(kind):
    """sample_source is itself a one-draw sample_words, so check against source.value."""
    src = {**_pinned_sources(), **_batch_sources()}[kind]
    batch, twin = (rng.derive(MASTER, "sources", "image-inputs", kind) for _ in range(2))
    words = sample_words(src, 300, batch)
    assert words.tolist() == [src.value(twin.getrandbits(src.m)) for _ in range(300)]
    assert batch.getrandbits(64) == twin.getrandbits(64)
    # only the 70-bit outputs are too wide to keep
    assert (sources._image_table(src) is None) == (ambient_length(src) > 64)


def _count_image_words(monkeypatch) -> list:
    real, calls = sources._image_words, []

    def counted(src, inputs):
        calls.append((src, inputs.size))
        return real(src, inputs)

    monkeypatch.setattr(sources, "_image_words", counted)
    return calls


def test_exact_and_sampled_bias_build_each_image_table_once(monkeypatch):
    sources._image_table.cache_clear()
    calls = _count_image_words(monkeypatch)
    pins = _pinned_sources()
    stream = rng.derive(MASTER, "sources", "image-table-once")
    for kind in ("local", "polyimage"):
        src = pins[kind]
        f = sample_poly(ambient_length(src), 3, stream)
        exact = bias_exact(f, src)
        for _ in range(2):
            assert abs(bias_mc(f, src, 500, 0.01, stream).estimate - exact) <= mc_halfwidth(500, 0.01)
    assert calls == [(pins["local"], 1 << 12), (pins["polyimage"], 1 << 8)]
    # an equal source rebuilt from its file form reads the same kept table
    again = io.source_from_dict(io.source_to_dict(pins["local"]))
    assert again is not pins["local"] and hash(again) == hash(pins["local"])
    sample_words(again, 10, stream)
    assert len(calls) == 2
    for kind in ("local", "polyimage"):
        table = sources._image_table(pins[kind])
        assert table.tolist() == [pins[kind].value(u) for u in range(1 << pins[kind].m)]
        with pytest.raises(ValueError):
            table[0] = 1


def test_a_source_past_eval_block_keeps_no_table_and_draws_per_chunk(monkeypatch):
    s = rng.derive(MASTER, "sources", "past-eval-block")
    m = anf.EVAL_BLOCK.bit_length()  # 2^m = 2 * EVAL_BLOCK input words
    local = Local(2, m, tuple(
        LocalBit(tuple(s.sample(range(m), 2)), tuple(s.getrandbits(1) for _ in range(4)))
        for _ in range(6)
    ))
    image = PolynomialImage(m, tuple(sample_poly(m, 2, s) for _ in range(5)))
    calls = _count_image_words(monkeypatch)
    for src in (local, image):
        calls.clear()
        assert sources._image_table(src) is None
        _assert_batch_matches_draws(src, 40, f"past-eval-block-{type(src).__name__}")
        batch, twin = (rng.derive(MASTER, "sources", "past-block-inputs") for _ in range(2))
        assert sample_words(src, 30, batch).tolist() == [src.value(twin.getrandbits(m)) for _ in range(30)]
        # one batch of draws, then 40 single draws, then one more batch: each evaluates its own inputs
        assert [size for _, size in calls] == [40] + [1] * 40 + [30]


@pytest.mark.parametrize("cls", [Local, PolynomialImage, Variety])
def test_sources_keep_their_field_hash_from_construction(cls):
    src = next(v for v in _pinned_sources().values() if type(v) is cls)
    assert hash(src) == hash(tuple(getattr(src, f.name) for f in dataclasses.fields(src)))
    assert "_hash" in vars(src)
    assert src == dataclasses.replace(src) and hash(dataclasses.replace(src)) == hash(src)


# ---------------------------------------------------------------------------
# min-entropy: the largest point probability of the exact distribution


def max_probability(src) -> Fraction:
    return max(prob for _, prob in support_of(src))


def test_min_entropy_of_flat_eight_points():
    src = Flat(4, tuple(BitVector(4, i) for i in range(8)))
    assert max_probability(src) == Fraction(1, 8)


def test_min_entropy_of_point_mass():
    assert max_probability(flat(5, "10101")) == 1


def test_min_entropy_of_colliding_sumset():
    src = Sumset(flat(2, "00", "01"), flat(2, "00", "10"))
    assert max_probability(src) == Fraction(1, 4)


def test_min_entropy_flat_is_log_support():
    stream = rng.derive(MASTER, "sources", "flat-entropy")
    for _ in range(30):
        n = stream.randrange(1, 9)
        size = stream.randrange(1, (1 << n) + 1)
        pts = tuple(BitVector(n, b) for b in stream.sample(range(1 << n), size))
        assert max_probability(Flat(n, pts)) == Fraction(1, size)


def test_min_entropy_affine_is_dimension():
    stream = rng.derive(MASTER, "sources", "affine-entropy")
    for _ in range(30):
        n = stream.randrange(1, 11)
        dim = stream.randrange(0, n + 1)
        mat = sample_uniform_matrix(n, n, stream)
        rows = []
        from polyext.gf2 import XorBasis

        basis = XorBasis()
        for w in mat.row_words:
            if len(rows) < dim and basis.add(w):
                rows.append(BitVector(n, w))
        if len(rows) < dim:
            continue
        src = Affine(n, BitVector(n, stream.getrandbits(n)), tuple(rows))
        assert max_probability(src) == Fraction(1, 1 << dim)


def test_sumset_support_is_set_sum():
    stream = rng.derive(MASTER, "sources", "sumset-support")
    for _ in range(20):
        n = stream.randrange(2, 9)
        cap = min(32, 1 << n)
        xs = stream.sample(range(1 << n), stream.randrange(1, cap + 1))
        ys = stream.sample(range(1 << n), stream.randrange(1, cap + 1))
        src = Sumset(
            Flat(n, tuple(BitVector(n, b) for b in xs)),
            Flat(n, tuple(BitVector(n, b) for b in ys)),
        )
        got = {v.bits for v, _ in support_of(src)}
        assert got == {a ^ b for a in xs for b in ys}


# ---------------------------------------------------------------------------
# variety_reduce


def _zero_set(polys, n):
    out = np.ones(1 << n, dtype=bool)
    for p in polys:
        out &= truth_table(p) == 0
    return out


def test_variety_reduce_simple_system():
    polys = [
        Polynomial.from_monomials(3, 2, [[0]]),
        Polynomial.from_monomials(3, 2, [[0], [1]]),
    ]
    reduced, retries = variety_reduce(polys, rng.derive(MASTER, "sources", "reduce"))
    assert len(reduced) == 4  # n + 1
    zs = _zero_set(reduced, 3)
    assert [i for i in range(8) if zs[i]] == [0, 4]  # x1 = x2 = 0, x3 free
    assert retries < 64


def test_variety_reduce_keeps_already_small_systems():
    stream = rng.derive(MASTER, "sources", "reduce-small")
    polys = [sample_poly(2, 2, stream) for _ in range(3)]
    reduced, _ = variety_reduce(polys, stream)
    assert np.array_equal(_zero_set(reduced, 2), _zero_set(polys, 2))


def test_variety_reduce_refusals():
    stream = rng.derive(MASTER, "sources", "reduce-refusals")
    x1 = Polynomial.from_monomials(2, 1, [[0]])
    with pytest.raises(PreconditionError, match="at least one polynomial"):
        variety_reduce([], stream)
    with pytest.raises(PreconditionError, match="one monomial order"):
        variety_reduce([x1, Polynomial.from_monomials(2, 2, [])], stream)
    with pytest.raises(RetryExhaustedError, match="in 0 rounds"):
        variety_reduce([x1], stream, budget=0)


def test_ambient_length_refuses_a_non_source():
    with pytest.raises(TypeError, match="not a source"):
        ambient_length(object())


def test_variety_reduce_empty_variety():
    one = Polynomial.from_monomials(3, 2, [[]])
    reduced, _ = variety_reduce([one], rng.derive(MASTER, "sources", "reduce-empty"))
    assert not _zero_set(reduced, 3).any()


def test_variety_reduce_then_common_zeros_transforms_each_polynomial_once(monkeypatch):
    stream = rng.derive(MASTER, "sources", "reduce-transforms")
    polys = [sample_poly(10, 2, stream) for _ in range(6)]
    calls = _count_transforms(monkeypatch)
    reduced, _ = variety_reduce(polys, stream)
    target = common_zeros(polys)
    assert calls[0] == len(polys)
    assert np.array_equal(_zero_set(reduced, 10), target)


def test_variety_reduce_past_the_kept_tables_transforms_each_polynomial_once(monkeypatch):
    """For 16 < n <= 20 no table is kept, so the target reuses the candidates' tables."""
    stream = rng.derive(MASTER, "sources", "reduce-transforms-17")
    polys = [sample_poly(17, 1, stream) for _ in range(3)]
    calls = _count_transforms(monkeypatch)
    reduced, _ = variety_reduce(polys, stream)
    assert calls[0] == len(polys)
    assert np.array_equal(common_zeros(reduced), common_zeros(polys))


def test_variety_reduce_random_systems_exact():
    stream = rng.derive(MASTER, "sources", "reduce-random")
    for _ in range(25):
        n = stream.randrange(2, 8)
        t = stream.randrange(1, 9)
        polys = [sample_poly(n, 2, stream) for _ in range(t)]
        reduced, retries = variety_reduce(polys, stream)
        assert len(reduced) == n + 1
        assert np.array_equal(_zero_set(reduced, n), _zero_set(polys, n))
        assert retries <= 10


def test_uniform_flat_covers_the_space():
    src = uniform_flat(3)
    assert {v.bits for v, _ in support_of(src)} == set(range(8))
    assert max_probability(src) == Fraction(1, 8)
