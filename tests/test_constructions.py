"""Concrete extractor builders: two-source, seeded subcode, evasive lift."""

import numpy as np
import pytest

from polyext import constructions, rng, sources
from polyext.anf import (
    Polynomial,
    anf_from_truth_table,
    eval_bits,
    monomial_order,
)
from polyext.constructions import (
    EvasiveDescriptor,
    SeededDescriptor,
    TwoSourceDescriptor,
    build_evasive_h,
    build_seeded,
    build_two_source,
    eval_seeded,
    eval_two_source,
    lift_point,
    seeded_table,
    two_source_table,
)
from polyext.errors import BudgetExceededError, PreconditionError
from polyext.experiments import _seeded_left_linear, _seeded_right_degree
from polyext.gf2 import BitMatrix, apply_rows, binom_sum, span_rank

MASTER = 20260823


# ---------------------------------------------------------------------------
# two-source


def test_two_source_build_is_deterministic():
    assert build_two_source(3, seed=7) == build_two_source(3, seed=7)
    assert build_two_source(3, seed=7) != build_two_source(3, seed=8)


def test_two_source_default_r():
    desc = build_two_source(3, seed=1)
    assert desc.r == 33
    assert len(desc.polys) == 33


def test_two_source_coefficient_lengths():
    desc = build_two_source(3, seed=2)
    assert all(f.order.size == 7 == binom_sum(3, 2) for f in desc.polys)
    assert all(0 <= f.coeffs < 1 << 7 for f in desc.polys)


def test_two_source_self_product_is_weight_parity():
    desc = build_two_source(4, seed=3)
    for x in range(16):
        h = lift_point(desc.polys, x)
        assert eval_two_source(desc, x, x) == h.bit_count() % 2


def test_two_source_zero_lift_kills_output():
    from polyext.constructions import TwoSourceDescriptor

    desc = TwoSourceDescriptor(n=2, r=1, polys=(Polynomial.from_monomials(2, 2, []),), seed=0)
    assert lift_point(desc.polys, 0) == 0
    for yb in range(4):
        assert eval_two_source(desc, 0, yb) == 0


def _two_source_anf_degree(desc):
    n = desc.n
    table = []
    for combined in range(1 << (2 * n)):
        table.append(eval_two_source(desc, combined & ((1 << n) - 1), combined >> n))
    return anf_from_truth_table(table).degree()


def test_two_source_degree_at_most_four():
    for seed in range(10):
        assert _two_source_anf_degree(build_two_source(3, seed=seed)) <= 4


def test_two_source_degree_bound_exhaustive_small_n():
    for n in (1, 2, 4):
        for seed in (0, 1):
            assert _two_source_anf_degree(build_two_source(n, seed=seed)) <= 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 33, 70])  # r = 70 lifts past 64 bits
def test_two_source_table_is_eval_two_source_everywhere(n, r):
    desc = build_two_source(n, seed=31 + n + r, r=r)
    table = two_source_table(desc)
    assert table.dtype == np.uint8 and table.shape == (1 << 2 * n,)
    for y in range(1 << n):
        for x in range(1 << n):
            assert table[x | y << n] == eval_two_source(desc, x, y)


def test_two_source_table_refuses_past_the_budget_before_lifting(monkeypatch):
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET", 1 << 6)
    assert two_source_table(build_two_source(3, seed=0, r=2)).size == 64
    desc = build_two_source(4, seed=0, r=2)

    def no_lift(polys, x):
        raise AssertionError("lifted a point past the budget")

    monkeypatch.setattr(constructions, "lift_point", no_lift)
    with pytest.raises(BudgetExceededError):
        two_source_table(desc)


# ---------------------------------------------------------------------------
# seeded subcode extractor


def test_seeded_generator_rows_linear_case():
    desc = build_seeded(n=3, t=2, d=1, seed=0)
    assert desc.generator.to_string() == "100\n110\n101\n111"


def test_seeded_generator_row_y_is_the_evaluation_vector_of_packed_y():
    """At t = 3 the packed order and the canonical order differ (3 and 4 swap)."""
    desc = build_seeded(n=4, t=3, d=2, seed=0)
    order = monomial_order(3, 2)
    assert list(desc.generator.row_words) == [eval_bits(y, order) for y in range(8)]


def test_seeded_generator_square_full_rank():
    for t in (1, 2, 3):
        desc = build_seeded(n=4, t=t, d=t, seed=0)
        assert desc.generator.rows == desc.generator.cols == 1 << t
        assert span_rank(desc.generator.row_words) == 1 << t


def test_seeded_compressor_deterministic():
    a = build_seeded(n=8, t=3, d=2, seed=5)
    b = build_seeded(n=8, t=3, d=2, seed=5)
    assert a.compressor == b.compressor


def test_seeded_zero_compressor_gives_zero():
    base = build_seeded(n=4, t=2, d=1, seed=0)
    desc = SeededDescriptor(
        n=4,
        t=2,
        d=1,
        generator=base.generator,
        compressor=BitMatrix(base.compressor.rows, 4, [0] * base.compressor.rows),
        seed=0,
    )
    for xb in range(16):
        for yb in range(4):
            assert eval_seeded(desc, xb, yb) == 0


def test_seeded_is_linear_in_x():
    desc = build_seeded(n=6, t=3, d=2, seed=9)
    stream = rng.derive(MASTER, "constructions", "linear")
    for _ in range(200):
        x1 = stream.getrandbits(6)
        x2 = stream.getrandbits(6)
        y = stream.getrandbits(3)
        assert eval_seeded(desc, x1 ^ x2, y) == eval_seeded(desc, x1, y) ^ eval_seeded(
            desc, x2, y
        )


def test_seeded_matches_monomial_formula():
    """t=2, d=1: output is (Hx)_const + y1 (Hx)_1 + y2 (Hx)_2."""
    desc = build_seeded(n=5, t=2, d=1, seed=4)
    for xb in range(32):
        w = apply_rows(desc.compressor.row_words, xb)
        for yb in range(4):
            expected = (w & 1) ^ ((yb & 1) * (w >> 1) & 1) ^ (((yb >> 1) & 1) * (w >> 2) & 1)
            got = eval_seeded(desc, xb, yb)
            assert got == expected


def _seeded_joint_anf(desc):
    """ANF over (x low bits, y high bits) of the seeded evaluation."""
    n, t = desc.n, desc.t
    table = []
    for combined in range(1 << (n + t)):
        table.append(eval_seeded(desc, combined & ((1 << n) - 1), combined >> n))
    return anf_from_truth_table(table)


def test_seeded_left_degree_exhaustive():
    for t in (1, 2, 3):
        for n in (4, 8):
            desc = build_seeded(n=n, t=t, d=min(t, 2), seed=11)
            f = _seeded_joint_anf(desc)
            for mon in f.active_monomials():
                assert sum(1 for i in mon if i < n) <= 1


def test_seeded_right_degree_bounded():
    for d in (1, 2):
        desc = build_seeded(n=4, t=3, d=d, seed=13)
        f = _seeded_joint_anf(desc)
        for mon in f.active_monomials():
            assert sum(1 for i in mon if i >= 4) <= d


def _zero_compressor(desc):
    return SeededDescriptor(
        n=desc.n,
        t=desc.t,
        d=desc.d,
        generator=desc.generator,
        compressor=BitMatrix(desc.compressor.rows, desc.n, [0] * desc.compressor.rows),
        seed=desc.seed,
    )


def _assert_table_is_eval_seeded(desc):
    table = seeded_table(desc)
    assert table.dtype == np.uint8 and table.shape == (1 << desc.t, 1 << desc.n)
    for yb in range(1 << desc.t):
        row = [eval_seeded(desc, xb, yb) for xb in range(1 << desc.n)]
        assert table[yb].tolist() == row


@pytest.mark.parametrize(
    "n,t,d", [(n, t, d) for n in (4, 8) for t in (1, 2, 3) for d in (1, 2) if d <= t]
)
def test_seeded_table_is_eval_seeded_everywhere(n, t, d):
    desc = build_seeded(n=n, t=t, d=d, seed=17 + n + t + d)
    _assert_table_is_eval_seeded(desc)
    _assert_table_is_eval_seeded(_zero_compressor(desc))
    assert not seeded_table(_zero_compressor(desc)).any()


def test_seeded_table_splits_generator_rows_past_64_bits():
    desc = build_seeded(n=3, t=8, d=3, seed=23)
    assert desc.generator.cols == 93
    _assert_table_is_eval_seeded(desc)


def test_seeded_table_is_budgeted(monkeypatch):
    monkeypatch.setattr(sources, "ENUMERATION_BUDGET", 1 << 6)
    assert seeded_table(build_seeded(n=3, t=3, d=1, seed=0)).shape == (8, 8)
    with pytest.raises(BudgetExceededError):
        seeded_table(build_seeded(n=4, t=3, d=1, seed=0))


def test_seeded_left_linearity_check_sees_one_flipped_entry():
    table = seeded_table(build_seeded(n=6, t=2, d=2, seed=29))
    assert _seeded_left_linear(table)
    stream = rng.derive(MASTER, "constructions", "flip")
    for _ in range(20):
        bad = table.copy()
        bad[stream.randrange(4), stream.randrange(64)] ^= 1
        assert not _seeded_left_linear(bad)


def test_seeded_right_degree_is_the_worst_column_degree():
    """The joint-ANF reading agrees with interpolating every column, on
    seeded tables and on arbitrary 0/1 tables."""
    stream = rng.derive(MASTER, "constructions", "right-degree")
    tables = [seeded_table(build_seeded(n=4, t=3, d=d, seed=s)) for d in (1, 2, 3) for s in range(5)]
    for _ in range(30):
        t, n = stream.randrange(0, 4), stream.randrange(0, 4)
        bits = [stream.randrange(2) for _ in range(1 << (t + n))]
        tables.append(np.array(bits, dtype=np.uint8).reshape(1 << t, 1 << n))
    tables.append(np.zeros((8, 4), dtype=np.uint8))
    for table in tables:
        worst = max(anf_from_truth_table(column).degree() for column in table.T)
        assert _seeded_right_degree(table) == worst


@pytest.mark.parametrize(
    "call, says",
    [
        (lambda: TwoSourceDescriptor(n=2, r=0, polys=(), seed=0), "r >= 1"),
        (lambda: TwoSourceDescriptor(n=2, r=1, polys=(Polynomial.from_monomials(3, 2, []),),
                                     seed=0), "degree <= 2 over n"),
        (lambda: EvasiveDescriptor(k=2, d=1, r=0, polys=(), seed=0), "r >= 1"),
        (lambda: EvasiveDescriptor(k=2, d=1, r=1, polys=(Polynomial.from_monomials(2, 2, []),),
                                   seed=0), "degree <= d over k"),
        (lambda: eval_two_source(build_two_source(2, seed=1), 0, 0b100), "length n"),
        (lambda: eval_two_source(build_two_source(2, seed=1), -1, 0), "length n"),
        (lambda: eval_seeded(build_seeded(n=4, t=2, d=1, seed=1), 0b10000, 0), "length n"),
        (lambda: eval_seeded(build_seeded(n=4, t=2, d=1, seed=1), 0, 0b100), "length t"),
    ],
    ids=["two-source-r", "two-source-degree", "evasive-r", "evasive-degree",
         "two-source-input", "two-source-negative-input", "seeded-input", "seeded-seed"],
)
def test_malformed_descriptors_and_inputs_are_refused(call, says):
    with pytest.raises((ValueError, PreconditionError), match=says):
        call()


def test_seeded_rejects_bad_degree():
    with pytest.raises(PreconditionError):
        build_seeded(n=4, t=2, d=3, seed=0)
    with pytest.raises(PreconditionError):
        build_seeded(n=4, t=2, d=0, seed=0)


# ---------------------------------------------------------------------------
# evasive lift


def test_evasive_default_r_is_11k():
    desc = build_evasive_h(4, 2, seed=1)
    assert desc.r == 44
    assert len(desc.polys) == 44


def test_evasive_build_deterministic():
    assert build_evasive_h(5, 2, seed=3) == build_evasive_h(5, 2, seed=3)


def test_evasive_zero_poly_gives_zero_graph():
    from polyext.constructions import EvasiveDescriptor

    desc = EvasiveDescriptor(k=3, d=2, r=1, polys=(Polynomial.from_monomials(3, 2, []),), seed=0)
    for xb in range(8):
        lifted = lift_point(desc.polys, xb)
        assert lifted == xb  # appended coordinate stays zero


def test_evasive_identity_block_preserves_independence():
    desc = build_evasive_h(8, 2, seed=21)
    stream = rng.derive(MASTER, "constructions", "identity-block")
    for _ in range(30):
        size = stream.randrange(1, 9)
        pts = stream.sample(range(1, 256), size)
        if span_rank(pts) != size:
            continue
        lifted = [lift_point(desc.polys, p) for p in pts]
        assert span_rank(lifted) == size


def test_evasive_appended_block_expands_dimension():
    """Appended coordinates alone keep most of the rank of an independent set."""
    order = monomial_order(8, 2)
    hits = 0
    for seed in range(100):
        stream = rng.derive(MASTER, "constructions", "expand", seed)
        desc = build_evasive_h(8, 2, seed=seed)
        while True:
            pts = stream.sample(range(256), 10)
            if span_rank(eval_bits(p, order) for p in pts) == 10:
                break
        appended = [lift_point(desc.polys, p) >> 8 for p in pts]
        if span_rank(appended) >= 8:
            hits += 1
    assert hits >= 99
