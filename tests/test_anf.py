"""Algebraic normal form: monomial order, evaluation, Mobius transform, composition."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyext import anf, rng
from polyext.anf import (
    Polynomial,
    anf_from_truth_table,
    compose_linear,
    eval_bits,
    eval_polys,
    eval_words,
    evaluate,
    mobius_transform,
    monomial_order,
    sample_poly,
    truth_table,
)
from polyext.gf2 import BitMatrix, BitVector, binom_sum, sample_uniform_matrix

MASTER = 20260823


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def eval_bits_vector(x: BitVector, order) -> BitVector:
    """eval_bits at x, unpacked: coordinate j is the value of monomial j."""
    return BitVector(order.size, eval_bits(x.bits, order))


def compose_linear_by_table(q: Polynomial, matrix: BitMatrix) -> Polynomial:
    """Reference route to compose_linear: evaluate q on L x for every x,
    interpolate, and re-express the result under q's degree cap."""
    tq = truth_table(q)
    table = [tq[matrix.apply_word(xb)] for xb in range(1 << matrix.cols)]
    out_order = monomial_order(matrix.cols, q.order.d)
    bits = 0
    for mon in anf_from_truth_table(table).active_monomials():
        assert len(mon) <= q.order.d, "linear composition raised the degree"
        bits |= 1 << out_order.index_of(mon)
    return Polynomial(out_order, BitVector(out_order.size, bits))


def mobius_by_halves(table) -> np.ndarray:
    """Reference route to mobius_transform: XOR the low half of every block
    of 2 * half entries into its high half, for half = 1, 2, 4, ..."""
    t = np.array(table, dtype=np.uint8)
    half = 1
    while half < t.size:
        v = t.reshape(-1, 2 * half)
        v[:, half:] ^= v[:, :half]
        half <<= 1
    return t


# ---------------------------------------------------------------------------
# monomial order


def test_order_is_degree_then_lex():
    order = monomial_order(3, 2)
    assert order.monomials == ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
    assert order.size == binom_sum(3, 2)


def test_order_starts_with_constant():
    for n in range(5):
        for d in range(n + 1):
            assert monomial_order(n, d).monomials[0] == ()


def test_order_is_interned():
    assert monomial_order(4, 2) is monomial_order(4, 2)


# ---------------------------------------------------------------------------
# evaluation vectors (eval_bits) / evaluate


def test_eval_vector_at_zero():
    assert eval_bits_vector(bv("00"), monomial_order(2, 2)) == bv("1000")


def test_eval_vector_all_ones():
    assert eval_bits_vector(bv("11"), monomial_order(2, 2)) == bv("1111")


def test_eval_vector_single_coordinate():
    assert eval_bits_vector(bv("10"), monomial_order(2, 2)) == bv("1100")


def test_eval_vector_is_monomial_products():
    stream = rng.derive(MASTER, "anf", "evalvec")
    for _ in range(60):
        n = stream.randrange(1, 11)
        d = stream.randrange(0, min(n, 3) + 1)
        order = monomial_order(n, d)
        x = BitVector(n, stream.getrandbits(n))
        vec = eval_bits_vector(x, order)
        for j, mon in enumerate(order.monomials):
            prod = 1
            for i in mon:
                prod &= x[i]
            assert vec[j] == prod


def test_eval_memo_is_bounded_and_agrees():
    """Up to n = 12 an order memoises its words, at most 2^n of them; past that, none."""
    order = monomial_order(4, 2)
    first = [eval_bits(x, order) for x in range(16)]
    assert [eval_bits(x, order) for x in range(16)] == first
    assert len(order._evals) == 16
    wide = monomial_order(13, 1)
    assert eval_bits(0b11, wide) == 0b111
    assert wide._evals is None


def test_evaluate_constant_one():
    one = Polynomial.from_monomials(3, 2, [[]])
    for xb in range(8):
        assert evaluate(one, BitVector(3, xb)) == 1


def test_evaluate_single_product_monomial():
    f = Polynomial.from_monomials(2, 2, [[0, 1]])
    assert evaluate(f, bv("11")) == 1
    assert evaluate(f, bv("10")) == 0


def test_evaluate_matches_term_summation_oracle():
    stream = rng.derive(MASTER, "anf", "eval-oracle")
    for _ in range(100):
        n = stream.randrange(1, 11)
        d = stream.randrange(0, min(n, 3) + 1)
        f = sample_poly(n, d, stream)
        x = BitVector(n, stream.getrandbits(n))
        acc = 0
        for mon in f.active_monomials():
            if all(x[i] for i in mon):
                acc ^= 1
        assert evaluate(f, x) == acc


def test_evaluate_rejects_length_mismatch():
    f = Polynomial.from_monomials(3, 1, [[0]])
    with pytest.raises(ValueError):
        evaluate(f, bv("01"))


def test_evaluate_additive_in_coefficients():
    """evaluate(f + g, x) = evaluate(f, x) XOR evaluate(g, x), all x, n <= 8."""
    stream = rng.derive(MASTER, "anf", "linearity")
    for n in (2, 5, 8):
        f = sample_poly(n, 2, stream)
        g = sample_poly(n, 2, stream)
        for xb in range(1 << n):
            x = BitVector(n, xb)
            assert evaluate(f ^ g, x) == evaluate(f, x) ^ evaluate(g, x)


# ---------------------------------------------------------------------------
# batch evaluation


def test_eval_words_matches_eval_polys_on_every_point():
    stream = rng.derive(MASTER, "anf", "eval-words")
    for n in range(1, 9):
        for m in range(1, 5):
            polys = tuple(sample_poly(n, stream.randrange(0, n + 1), stream) for _ in range(m))
            points = list(range(1 << n))
            expected = [eval_polys(polys, x) for x in points]
            assert eval_words(polys, points).tolist() == expected
            assert eval_words(polys, np.arange(1 << n, dtype=np.uint64)).tolist() == expected


@pytest.mark.parametrize("n", [70, 100])
def test_eval_words_on_points_past_a_machine_word(n):
    stream = rng.derive(MASTER, "anf", "eval-words-wide", n)
    points = [stream.getrandbits(n) for _ in range(40)] + [(1 << n) - 1]
    for m in range(1, 5):
        polys = tuple(sample_poly(n, 2, stream) for _ in range(m))
        assert eval_words(polys, points).tolist() == [eval_polys(polys, x) for x in points]


def test_eval_words_edge_cases():
    zero = Polynomial.from_monomials(4, 2, [])
    one = Polynomial.from_monomials(4, 2, [[]])
    points = list(range(16))
    assert eval_words((zero,), points).tolist() == [0] * 16
    assert eval_words((one,), points).tolist() == [1] * 16
    assert eval_words((zero, one, zero), points).tolist() == [0b010] * 16
    assert eval_words((one,), []).size == 0
    assert eval_words((), points).tolist() == [0] * 16


def test_eval_words_agrees_across_block_sizes(monkeypatch):
    stream = rng.derive(MASTER, "anf", "eval-words-blocks")
    polys = tuple(sample_poly(8, 3, stream) for _ in range(3))
    points = [stream.getrandbits(8) for _ in range(100)]
    expected = [eval_polys(polys, x) for x in points]
    for block in (1, 7, 64):
        monkeypatch.setattr(anf, "EVAL_BLOCK", block)
        assert eval_words(polys, points).tolist() == expected
        monkeypatch.undo()


def _tabulate(polys) -> None:
    """Build the truth table of every polynomial in ``polys`` up front, so
    :func:`eval_words` reads each of them from it."""
    for f in polys:
        truth_table(f)


@pytest.mark.parametrize("path", ["masks", "table"])
def test_eval_words_paths_agree_with_eval_polys(path, monkeypatch):
    stream = rng.derive(MASTER, "anf", "eval-words-paths")
    polys = tuple(sample_poly(n, d, stream) for n, d in ((10, 3), (10, 0), (6, 2), (16, 5)))
    polys += (Polynomial.from_monomials(10, 2, []), Polynomial.from_monomials(10, 2, [[]]))
    # bits above each polynomial's n are set, and eval_polys ignores them
    points = [stream.getrandbits(64) for _ in range(300)] + [0, (1 << 64) - 1]
    if path == "table":
        _tabulate(polys)
    else:
        monkeypatch.setattr(anf, "EVAL_BLOCK", 1)
    expected = [eval_polys(polys, x) for x in points]
    assert eval_words(polys, points).tolist() == expected
    for k, f in enumerate(polys):
        assert eval_words((f,), points).tolist() == [(e >> k) & 1 for e in expected]
    assert all((f._table is None) == (path == "masks") for f in polys)


def test_eval_words_mixes_tabulated_and_masked_polynomials(monkeypatch):
    stream = rng.derive(MASTER, "anf", "eval-words-mixed")
    tabulated = sample_poly(9, 3, stream)
    masked = (sample_poly(9, 2, stream), Polynomial.from_monomials(9, 1, [[]]))
    _tabulate((tabulated,))
    monkeypatch.setattr(anf, "EVAL_BLOCK", 1)
    points = [stream.getrandbits(20) for _ in range(200)]
    for polys in ((tabulated,) + masked, masked[:1] + (tabulated,) + masked[1:]):
        assert eval_words(polys, points).tolist() == [eval_polys(polys, x) for x in points]
    assert all(f._table is None for f in masked)


def test_eval_words_on_object_points_ignores_tables():
    stream = rng.derive(MASTER, "anf", "eval-words-object")
    small, wide = sample_poly(8, 3, stream), sample_poly(70, 2, stream)
    _tabulate((small,))
    points = [stream.getrandbits(70) for _ in range(50)]
    for polys in ((small, wide), (wide, small)):
        values = eval_words(polys, points)
        assert values.dtype == np.uint64
        assert values.tolist() == [eval_polys(polys, x) for x in points]


def test_eval_words_tabulates_when_the_table_costs_less():
    # 16 masks: the 256-entry table costs no more than the pairs from 16 points on
    f = Polynomial.from_monomials(8, 2, [[i, (i + k) % 8] for i in range(8) for k in (1, 2)])
    assert len(f.active_monomials()) == 16
    eval_words((f,), range(15))
    assert f._table is None
    eval_words((f,), range(16))
    assert f._table is not None


def test_truth_table_is_built_once_and_read_only():
    f = sample_poly(12, 4, rng.derive(MASTER, "anf", "table-once"))
    eval_words((f,), np.arange(1 << 12, dtype=np.uint64))
    table = f._table
    assert table is not None and table is truth_table(f)
    eval_words((f,), np.arange(1 << 12, dtype=np.uint64))
    assert f._table is table
    assert table.tolist() == [eval_polys((f,), x) for x in range(1 << 12)]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] ^= 1


@pytest.mark.parametrize("n", [0, 5, 16])
def test_truth_table_returns_one_kept_array_up_to_n_16(n):
    f = sample_poly(n, min(n, 3), rng.derive(MASTER, "anf", "table-kept", n))
    table = truth_table(f)
    assert f._table is table and truth_table(f) is table
    assert not table.flags.writeable


def test_no_table_past_one_evaluation_block():
    f = sample_poly(17, 2, rng.derive(MASTER, "anf", "table-wide"))
    assert 1 << 17 > anf.EVAL_BLOCK
    points = np.arange(10**5, dtype=np.uint64)
    values = eval_words((f,), points)
    assert f._table is None
    assert values[:200].tolist() == [eval_polys((f,), x) for x in range(200)]
    table = truth_table(f)
    assert not table.flags.writeable
    assert f._table is None and truth_table(f) is not table
    assert table[:200].tolist() == values[:200].tolist()


# ---------------------------------------------------------------------------
# sample_poly


def test_sample_poly_deterministic():
    a = sample_poly(2, 1, rng.derive(MASTER, "anf", "det"))
    b = sample_poly(2, 1, rng.derive(MASTER, "anf", "det"))
    assert a == b


def test_sample_poly_coefficient_count():
    f = sample_poly(3, 2, rng.derive(MASTER, "anf", "count"))
    assert f.coeffs.n == 7 == binom_sum(3, 2)


def test_sample_poly_degree_zero_is_fair_coin():
    ones = 0
    for seed in range(10**4):
        f = sample_poly(4, 0, rng.derive(MASTER, "anf", "coin", seed))
        assert f.coeffs.n == 1
        ones += f.coeffs[0]
    assert abs(ones / 10**4 - 0.5) <= 0.02


# ---------------------------------------------------------------------------
# truth tables and the Mobius transform


def test_truth_table_of_zero():
    f = Polynomial.from_monomials(3, 2, [])
    assert not truth_table(f).any()


def test_anf_from_all_zero_table():
    f = anf_from_truth_table(np.zeros(8, dtype=np.uint8))
    assert f.coeffs.bits == 0
    assert f.degree() == 0


def test_anf_of_xor_table():
    # table indexed by packed x: f(x) = x_1 + x_2
    f = anf_from_truth_table([0, 1, 1, 0])
    assert f.active_monomials() == ((0,), (1,))
    assert f.degree() == 1


def test_anf_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        anf_from_truth_table([0, 1, 1])


def test_anf_truth_table_round_trip():
    stream = rng.derive(MASTER, "anf", "round-trip")
    for _ in range(100):
        n = stream.randrange(1, 11)
        d = stream.randrange(0, min(n, 3) + 1)
        f = sample_poly(n, d, stream)
        g = anf_from_truth_table(truth_table(f))
        assert g.active_monomials() == f.active_monomials()


def test_table_poly_bijection_both_directions():
    stream = rng.derive(MASTER, "anf", "bijection")
    for n in range(1, 9):
        table = np.array([stream.randrange(2) for _ in range(1 << n)], dtype=np.uint8)
        f = anf_from_truth_table(table)
        assert np.array_equal(truth_table(f), table)


def test_mobius_transform_is_involution():
    stream = rng.derive(MASTER, "anf", "mobius")
    for n in range(1, 9):
        table = np.array([stream.randrange(2) for _ in range(1 << n)], dtype=np.uint8)
        assert np.array_equal(mobius_transform(mobius_transform(table)), table)


def test_mobius_transform_matches_the_reference_at_every_size():
    stream = rng.derive(MASTER, "anf", "mobius-reference")
    for n in range(19):
        table = np.frombuffer(stream.randbytes(1 << n), dtype=np.uint8) & 1
        before = table.copy()
        got = mobius_transform(table)
        assert got.dtype == np.uint8 and got.size == table.size
        assert np.array_equal(got, mobius_by_halves(table))
        assert np.array_equal(table, before)  # the input is left as it was
    listed = [stream.randrange(2) for _ in range(32)]
    assert np.array_equal(mobius_transform(listed), mobius_by_halves(listed))


def test_mobius_transform_rejects_non_bits():
    with pytest.raises(ValueError):
        mobius_transform(np.array([0, 1, 2, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        mobius_transform([0, 1, 1])


#: sha256 of truth_table(f).tobytes() for one seeded degree-<=min(n, 3) f per n
TRUTH_TABLE_DIGESTS = {
    0: "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    1: "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
    2: "afa7518106309c22d325df6d2663249d158d2f36f1976269d6d4104d9198a108",
    3: "e8b1608033022d31d199ab85ffb3e475299ff0cd96c2597296ce0e64ec41d1ce",
    4: "aac0746ecbb4ac9267e6e6445f9ec0a71b3ba0c37b392e91ffdc0f7cf749282b",
    5: "0ae9180de9e6084a912477d3d2947e672ecac6916da367bff5fd8836a8964de6",
    6: "c6c6bf191006605195a06209fef3ed3315f1d3ba2f41aecbdb53ce9c7acc2edc",
    7: "7e97a54313b81ca3d23cfe9a8a3bde1fd27e5f52755b7e4312c38ace739b6430",
    8: "36c2ee3d7963b55b13bd2b80dbb927b4e1ca13ad4a87cd671f5d3f2f700558eb",
    14: "275c47a3119be45cfe1aa4d8ba22351c696b8d70e1191e24f2a069b2d0d98c4f",
    18: "ccff0dac78c34f71dcc95553607e66eb484dcee1a6d93fd251bc6a436ec7931f",
}


@pytest.mark.parametrize("n", sorted(TRUTH_TABLE_DIGESTS))
def test_truth_tables_are_pinned(n):
    f = sample_poly(n, min(n, 3), rng.derive(MASTER, "anf", "truth-table-pin", n))
    table = truth_table(f)
    assert table.dtype == np.uint8 and table.size == 1 << n
    assert hashlib.sha256(table.tobytes()).hexdigest() == TRUTH_TABLE_DIGESTS[n]


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.randoms(use_true_random=False),
)
def test_truth_table_agrees_with_evaluate(n, m, rand):
    f = sample_poly(n, min(n, 2), rand)
    table = truth_table(f)
    polys = tuple(sample_poly(n, min(n, 3), rand) for _ in range(m))
    tables = [truth_table(p) for p in polys]
    for xb in range(1 << n):
        assert table[xb] == evaluate(f, BitVector(n, xb))
        packed = sum(int(t[xb]) << i for i, t in enumerate(tables))
        assert eval_polys(polys, xb) == packed


# ---------------------------------------------------------------------------
# compose_linear


def test_compose_with_identity_is_no_op():
    stream = rng.derive(MASTER, "anf", "compose-id")
    for n in (2, 4, 6):
        q = sample_poly(n, 2, stream)
        identity = BitMatrix(n, n, [1 << i for i in range(n)])
        assert compose_linear(q, identity).active_monomials() == q.active_monomials()


def test_compose_linear_polynomial_reads_first_row():
    q = Polynomial.from_monomials(2, 2, [[0]])  # y_1
    mat = BitMatrix.from_string("1101\n0110")
    composed = compose_linear(q, mat)
    assert composed.active_monomials() == ((0,), (1,), (3,))


def test_compose_worked_example():
    """(x1 + x2)(x2 + x3) expands to x1x2 + x1x3 + x2 + x2x3."""
    q = Polynomial.from_monomials(2, 2, [[0, 1]])
    mat = BitMatrix.from_string("110\n011")
    composed = compose_linear(q, mat)
    expected = Polynomial.from_monomials(3, 2, [[0, 1], [0, 2], [1], [1, 2]])
    assert composed.active_monomials() == expected.active_monomials()


def test_compose_rejects_dimension_mismatch():
    q = Polynomial.from_monomials(3, 1, [[2]])
    with pytest.raises(ValueError):
        compose_linear(q, BitMatrix.from_string("11\n01"))


def test_compose_symbolic_matches_table_path():
    stream = rng.derive(MASTER, "anf", "compose-paths")
    for _ in range(40):
        m = stream.randrange(1, 7)
        n = stream.randrange(1, 9)
        d = stream.randrange(0, min(m, 3) + 1)
        q = sample_poly(m, d, stream)
        mat = sample_uniform_matrix(m, n, stream)
        a = compose_linear(q, mat)
        b = compose_linear_by_table(q, mat)
        assert a.active_monomials() == b.active_monomials()


def test_compose_never_raises_degree():
    stream = rng.derive(MASTER, "anf", "compose-degree")
    for _ in range(500):
        m = stream.randrange(1, 9)
        n = stream.randrange(1, 9)
        d = stream.randrange(0, min(m, 3) + 1)
        q = sample_poly(m, d, stream)
        mat = sample_uniform_matrix(m, n, stream)
        assert compose_linear(q, mat).degree() <= q.degree()


def test_compose_evaluates_to_q_of_lx():
    stream = rng.derive(MASTER, "anf", "compose-eval")
    for _ in range(30):
        m = stream.randrange(1, 6)
        n = stream.randrange(1, 7)
        q = sample_poly(m, min(m, 2), stream)
        mat = sample_uniform_matrix(m, n, stream)
        composed = compose_linear(q, mat)
        for xb in range(1 << n):
            x = BitVector(n, xb)
            lx = BitVector(mat.rows, mat.apply_word(xb))
            assert evaluate(composed, x) == evaluate(q, lx)
