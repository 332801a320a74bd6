"""Evaluation-rank certificates, sumsets, and the product-form pair sampler."""

import hashlib

import pytest

from polyext import ranklab, rng
from polyext.anf import eval_bits, monomial_order, sample_poly
from polyext.errors import BudgetExceededError, PreconditionError, RetryExhaustedError
from polyext.experiments import EXPERIMENTS
from polyext.gf2 import (
    BitMatrix,
    BitVector,
    XorBasis,
    apply_rows,
    binom_sum,
    hamming_ball,
    sample_uniform_matrix,
    weight_slice,
)
from polyext.ranklab import (
    eval_rank,
    eval_rank_words,
    find_high_rank_subsets,
    full_rank_check,
    special_sumset_sampler,
)
from polyext.sources import Flat, uniform_flat

MASTER = 20260823


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def word(text: str) -> int:
    return bv(text).bits


def full_space(n):
    return list(range(1 << n))


def support(v: int) -> tuple[int, ...]:
    return tuple(i for i in range(v.bit_length()) if (v >> i) & 1)


def reference_key(v: int) -> tuple[int, tuple[int, ...]]:
    """The canonical order by its definition: weight, then the sorted support."""
    return (v.bit_count(), support(v))


# ---------------------------------------------------------------------------
# eval_rank


def test_radius_one_ball_spans_linear_monomials():
    cert = eval_rank(hamming_ball(3, 1), 1)
    assert cert.rank == 4 == binom_sum(3, 1)


def test_eval_rank_refuses_an_empty_or_mixed_point_set():
    with pytest.raises(PreconditionError, match="at least one point"):
        eval_rank([], 1)
    with pytest.raises(PreconditionError, match="one ambient length"):
        eval_rank([bv("01"), bv("011")], 1)
    with pytest.raises(PreconditionError, match="at least one point"):
        eval_rank_words(2, [], 1)
    for bad in (0b100, -1):
        with pytest.raises(PreconditionError, match="one ambient length"):
            eval_rank_words(2, [0b01, bad], 1)


def test_eval_rank_is_eval_rank_words_of_the_points():
    stream = rng.derive(MASTER, "ranklab", "words")
    for _ in range(30):
        n = stream.randrange(1, 9)
        pts = [stream.getrandbits(n) for _ in range(stream.randrange(1, 20))]
        d = stream.randrange(0, 3)
        assert eval_rank([BitVector(n, p) for p in pts], d) == eval_rank_words(n, pts, d)


def test_single_zero_point_has_rank_one():
    for d in (0, 1, 3):
        assert eval_rank([bv("0000")], d).rank == 1


def test_radius_two_ball_spans_quadratics():
    assert eval_rank(hamming_ball(3, 2), 2).rank == 7 == binom_sum(3, 2)


def test_interpolating_ball_identity():
    for n in range(1, 9):
        for d in range(min(n, 3) + 1):
            assert eval_rank(hamming_ball(n, d), d).rank == binom_sum(n, d)


def test_eval_rank_witness_is_independent_and_sized():
    stream = rng.derive(MASTER, "ranklab", "witness")
    for _ in range(30):
        n = stream.randrange(2, 9)
        pts = [stream.getrandbits(n) for _ in range(stream.randrange(1, 20))]
        d = stream.randrange(0, 3)
        cert = eval_rank_words(n, pts, d)
        assert len(cert.witness) == cert.rank
        order = monomial_order(n, d)
        basis = XorBasis()
        assert all(basis.add(eval_bits(p, order)) for p in cert.witness)


def test_eval_rank_evaluates_each_point_once(monkeypatch):
    """The witness re-check re-eliminates stored words instead of re-evaluating."""
    calls = [0]

    def counted(x_bits, order):
        calls[0] += 1
        return eval_bits(x_bits, order)

    monkeypatch.setattr(ranklab, "eval_bits", counted)
    ball = hamming_ball(6, 2)
    cert = eval_rank(list(ball) + list(ball), 2)
    assert cert.rank == len(ball) == 22
    assert calls[0] == 22


def test_eval_rank_refuses_an_order_past_the_monomial_budget(monkeypatch):
    """The order is refused by the polynomial files' rule before it is built."""
    monkeypatch.setattr(ranklab, "monomial_order", lambda n, d: pytest.fail("built the order"))
    with pytest.raises(BudgetExceededError, match="n=600, d=2"):
        eval_rank([BitVector(600, 1), BitVector(600, 2)], 2)


class _Unread:
    """A stream whose first read fails the test."""

    def __getattr__(self, name):
        pytest.fail(f"the trial read its stream ({name}) before refusing")


#: What the rows that break a precondition say; every other row exceeds a budget.
PRECONDITION_REFUSALS = {"special-sumset": "need m <= n", "high-rank-subsets": "set_size=32"}


@pytest.mark.parametrize(
    "name, params",
    [
        ("interpolating-rank", {"n_max": 600, "d_max": 2}),
        ("rank-monotonicity", {"n_max": 8, "m_max": 600, "d_max": 2, "max_set": 24}),
        ("moment-identity", {"n": 16, "d": 1, "t": 2, "max_support": 65536}),
        ("two-source-degree", {"n": 12, "r": 33}),
        ("bias-concentration", {"n": 25, "d": 2, "fail_rate": 0.01}),
        ("dichotomy", {"n_max": 40}),
        ("disperser-attack", {"n": 20, "d": 1, "t": 1, "budget": 1}),
        ("special-sumset", {"n": 6, "m": 7, "d": 2, "map_trials": 1000}),
        ("high-rank-subsets", {"n": 4, "m": 3, "d": 2, "set_size": 32, "map_trials": 50}),
    ],
)
def test_registry_trials_refuse_from_their_params_before_their_stream(name, params):
    says = PRECONDITION_REFUSALS.get(name)
    with pytest.raises(BudgetExceededError if says is None else PreconditionError, match=says):
        EXPERIMENTS[name].trial(params, _Unread())


def test_rank_monotone_under_linear_maps():
    stream = rng.derive(MASTER, "ranklab", "monotone")
    for _ in range(200):
        n = stream.randrange(1, 9)
        m = stream.randrange(1, 9)
        d = stream.randrange(0, 4)
        pts = [stream.getrandbits(n) for _ in range(stream.randrange(1, 16))]
        mat = sample_uniform_matrix(m, n, stream)
        mapped = [apply_rows(mat, p) for p in pts]
        assert eval_rank_words(n, pts, d).rank >= eval_rank_words(m, mapped, d).rank


def test_large_sets_have_high_rank():
    """Any 2^k points give eval-rank at least binom_sum(k, d)."""
    stream = rng.derive(MASTER, "ranklab", "floor")
    for _ in range(200):
        n = stream.randrange(2, 11)
        k = stream.randrange(1, min(n, 6) + 1)
        d = stream.randrange(0, 3)
        pts = stream.sample(range(1 << n), 1 << k)
        assert eval_rank_words(n, pts, d).rank >= binom_sum(k, d)


# ---------------------------------------------------------------------------
# full_rank_check


def test_sumset_with_zero_is_identity():
    b = [word("011"), word("101"), word("110")]
    ok, cert = full_rank_check(3, [word("000")], b, 3)
    assert ok
    assert cert.point_count == 3 and set(cert.witness) == set(b)


def test_sums_come_in_canonical_order():
    """The witness lists the sums in the reference order, in the key table (n <= 12) and past it.

    At d = n every distinct point is independent, so the witness is the whole sumset.
    """
    for n in range(1, 11):
        space = full_space(n)
        _, cert = full_rank_check(n, space, [0], n)
        assert list(cert.witness) == sorted(space, key=reference_key)
    stream = rng.derive(MASTER, "ranklab", "canonical-order")
    a = [stream.getrandbits(20) for _ in range(30)]
    b = [stream.getrandbits(20) for _ in range(30)]
    _, cert = full_rank_check(20, a, b, 2)
    assert cert.point_count == len({x ^ y for x in a for y in b})
    assert cert.rank == binom_sum(20, 2)
    assert list(cert.witness) == sorted(cert.witness, key=reference_key)


def test_full_rank_on_a_transversal_pair():
    ok, cert = full_rank_check(2, [word("00"), word("10")], [word("00"), word("01")], 2)
    assert ok
    assert set(cert.witness) == set(full_space(2))


def test_full_rank_on_unit_vectors():
    ok, cert = full_rank_check(3, [word("100")], [word("010")], 2)
    assert ok
    assert cert.rank == 1


def test_full_rank_fails_on_subspace():
    span = [0, 1, 2, 3]
    ok, cert = full_rank_check(3, span, span, 2)
    assert not ok
    assert cert.point_count == 4  # 16 pairs, 4 distinct sums


def test_full_rank_on_disjoint_weight_slices():
    low, high = ([v.bits for v in weight_slice(6, 1, lo, hi)] for lo, hi in ((1, 2), (5, 6)))
    ok, cert = full_rank_check(6, low, high, 2)
    assert ok
    assert cert.rank == 4


# ---------------------------------------------------------------------------
# the packed full-rank core


def _reference_core(xs, ys, n, d):
    """The BitVector path: XorBasis elimination of eval_bits over canonically sorted sums."""
    sums = sorted({BitVector(n, x ^ y) for x in xs for y in ys}, key=lambda v: reference_key(v.bits))
    order = monomial_order(n, d)
    basis = XorBasis()
    witness = [s.bits for s in sums if basis.add(eval_bits(s.bits, order))]
    full = len(sums) == len(xs) * len(ys) and len(witness) == len(sums)
    return [s.bits for s in sums], witness, full


def test_packed_core_agrees_with_the_bitvector_reference():
    """Both sides of the n <= 12 key table, every degree to 4, colliding pairs included."""
    stream = rng.derive(MASTER, "ranklab", "packed-core")
    collided = 0
    for n in range(2, 21):
        for d in range(5):
            for trial in range(4):
                xs = [stream.getrandbits(n) for _ in range(stream.randrange(1, 5))]
                ys = [stream.getrandbits(n) for _ in range(stream.randrange(1, 5))]
                if trial == 0 and len(xs) >= 2:
                    ys.append(ys[0] ^ xs[0] ^ xs[1])  # x0 + that = x1 + y0
                elif trial == 1:
                    xs.append(xs[0])
                sums, witness = ranklab._sumset_witness(xs, ys, n, d)
                ref_sums, ref_witness, ref_full = _reference_core(xs, ys, n, d)
                assert sums == ref_sums
                assert witness == ref_witness
                assert (len(witness) == len(xs) * len(ys)) == ref_full
                if len(sums) < len(xs) * len(ys):
                    collided += 1
                    assert not ref_full
    assert collided >= 19 * 5


def test_special_draw_raises_when_the_witness_recheck_fails(monkeypatch):
    """The separate re-elimination of the witness words is what the sampler trusts."""
    monkeypatch.setattr(ranklab, "span_rank", lambda words: len(words) - 1)
    with pytest.raises(AssertionError, match="re-verification"):
        special_sumset_sampler(
            uniform_flat(6), uniform_flat(6), 2, 6, 100, rng.derive(MASTER, "ranklab", "recheck")
        )


# ---------------------------------------------------------------------------
# find_high_rank_subsets


def _always_map(monkeypatch, row_words: tuple[int, ...]) -> None:
    """Make every map the search samples the one with these row words."""
    monkeypatch.setattr(ranklab, "sample_uniform_matrix", lambda rows, cols, stream: row_words)


def test_high_rank_identity_map_on_full_space(monkeypatch):
    _always_map(monkeypatch, tuple(1 << i for i in range(4)))
    sel = find_high_rank_subsets(
        4, full_space(4), full_space(4), 2, 4, 1, rng.derive(MASTER, "ranklab", "identity")
    )
    assert sel.a_points == tuple(v.bits for v in hamming_ball(4, 1))
    assert sel.b_points == tuple(v.bits for v in hamming_ball(4, 1))
    assert sel.certificate.rank >= binom_sum(4, 2)


def test_high_rank_with_coordinate_projection(monkeypatch):
    _always_map(monkeypatch, tuple(1 << i for i in range(4)))
    sel = find_high_rank_subsets(
        8, full_space(8), full_space(8), 2, 4, 1, rng.derive(MASTER, "ranklab", "projection")
    )
    assert len(sel.a_points) == len(sel.b_points) == 5 == binom_sum(4, 1)
    assert sel.certificate.rank >= 11 == binom_sum(4, 2)


def test_high_rank_random_sets_succeed():
    for seed in range(20):
        stream = rng.derive(MASTER, "ranklab", "random-sets", seed)
        a = stream.sample(range(256), 32)
        b = stream.sample(range(256), 32)
        sel = find_high_rank_subsets(8, a, b, 2, 4, 50, stream)
        assert len(sel.a_points) == len(sel.b_points) == 5
        assert sel.certificate.rank >= 11
        assert set(sel.a_points) <= set(a) and set(sel.b_points) <= set(b)
        assert 1 <= sel.attempts <= 50


def test_high_rank_images_each_point_past_the_table_threshold(monkeypatch):
    """With 2^n > 8 (|A| + |B|) each image is one apply_rows: the selection is
    still the canonically-first preimage of every ball point."""
    stream = rng.derive(MASTER, "ranklab", "per-point")
    a, b = (stream.sample(range(1 << 10), 32) for _ in range(2))
    matrix = sample_uniform_matrix(3, 10, stream)
    _always_map(monkeypatch, matrix)
    sel = find_high_rank_subsets(10, a, b, 2, 3, 1, stream)
    for points, chosen in ((a, sel.a_points), (b, sel.b_points)):
        first: dict[int, int] = {}
        for p in sorted(points, key=reference_key):
            first.setdefault(apply_rows(matrix, p), p)
        assert chosen == tuple(first[z.bits] for z in hamming_ball(3, 1))


def test_high_rank_refuses_sets_of_different_lengths():
    stream = rng.derive(MASTER, "ranklab", "lengths")
    with pytest.raises(PreconditionError, match="one ambient length"):
        find_high_rank_subsets(4, full_space(4), full_space(5), 2, 3, 5, stream)
    with pytest.raises(PreconditionError, match="one ambient length"):
        find_high_rank_subsets(4, full_space(4), [-1] * 16, 2, 3, 5, stream)
    with pytest.raises(PreconditionError, match="both sets must be nonempty"):
        find_high_rank_subsets(4, full_space(4), [], 2, 3, 5, stream)


def test_high_rank_requires_even_degree():
    with pytest.raises(PreconditionError):
        find_high_rank_subsets(3, full_space(3), full_space(3), 1, 3, 5, rng.derive(MASTER, "x"))


def test_high_rank_rejects_tiny_sets():
    pts = [word("0000"), word("1000")]
    with pytest.raises(PreconditionError):
        find_high_rank_subsets(4, pts, pts, 2, 4, 5, rng.derive(MASTER, "y"))


def test_high_rank_gives_up_when_no_map_covers_the_ball(monkeypatch):
    # the zero map sends everything to 0, never covering the ball
    _always_map(monkeypatch, (0,) * 3)
    pts = full_space(4)
    with pytest.raises(RetryExhaustedError, match="within 5 samples"):
        find_high_rank_subsets(4, pts, pts, 2, 3, 5, rng.derive(MASTER, "z"))


# ---------------------------------------------------------------------------
# special_sumset_sampler


def test_special_draw_shape_and_full_rank():
    stream = rng.derive(MASTER, "ranklab", "special")
    x = uniform_flat(6)
    for _ in range(50):
        draw = special_sumset_sampler(x, x, 2, 6, 100, stream)
        assert draw.full_rank
        assert len(draw.x_star) == len(draw.b_zero) == 2
        assert len(draw.y_star) == len(draw.b_one) == 2
        ok, _ = full_rank_check(6, [v.bits for v in draw.x_star], [v.bits for v in draw.y_star], 2)
        assert ok


def test_special_draw_slices_have_disjoint_support():
    draw = special_sumset_sampler(
        uniform_flat(6), uniform_flat(6), 2, 6, 100, rng.derive(MASTER, "ranklab", "slices")
    )
    assert draw.b_zero == tuple(weight_slice(6, 1, 1, 2))
    assert draw.b_one == tuple(weight_slice(6, 1, 5, 6))
    lo = set().union(*(support(v.bits) for v in draw.b_zero))
    hi = set().union(*(support(v.bits) for v in draw.b_one))
    assert not lo & hi


def test_special_draw_surjection_pairs_preimages():
    stream = rng.derive(MASTER, "ranklab", "pairing")
    draw = special_sumset_sampler(uniform_flat(6), uniform_flat(6), 2, 6, 100, stream)
    surjection, mixer = draw.surjection.row_words, draw.mixer.row_words
    for u, x in zip(draw.b_zero, draw.x_star):
        assert apply_rows(surjection, x.bits) == apply_rows(mixer, u.bits)
    for v, y in zip(draw.b_one, draw.y_star):
        assert apply_rows(surjection, y.bits) == apply_rows(mixer, v.bits)


def test_special_draw_on_proper_subsets():
    stream = rng.derive(MASTER, "ranklab", "subset-support")
    pts = tuple(stream.sample(range(256), 240))
    src = Flat(8, pts)
    draw = special_sumset_sampler(src, src, 2, 6, 400, stream)
    assert {v.bits for v in draw.x_star} <= set(pts)
    assert {v.bits for v in draw.y_star} <= set(pts)
    assert draw.full_rank


def test_a_special_draw_builds_only_the_two_matrices_it_returns(monkeypatch):
    """The draw runs on row words: its surjection and mixer are its only BitMatrix
    objects, however many candidate maps it rejects."""
    built = []
    init = BitMatrix.__init__

    def counting_init(self, rows, cols, row_words):
        built.append((rows, cols))
        init(self, rows, cols, row_words)

    monkeypatch.setattr(BitMatrix, "__init__", counting_init)
    stream = rng.derive(MASTER, "ranklab", "matrix-count")
    partial = Flat(8, tuple(stream.sample(range(256), 200)))
    for x_source, y_source, n in ((uniform_flat(6), uniform_flat(6), 6), (partial, partial, 8)):
        for _ in range(50):
            built.clear()
            draw = special_sumset_sampler(x_source, y_source, 2, 6, 1000, stream)
            assert built == [(6, n), (6, 6)]
            assert (draw.surjection.rows, draw.surjection.cols) == (6, n)


def _special_draws_digest(x_source, y_source, d, m, draws, label):
    """sha256 over the surjection, mixer, X*, Y*, verdict and two picks of each draw."""
    stream = rng.derive(MASTER, "ranklab", "pinned", label)
    h = hashlib.sha256()
    for _ in range(draws):
        draw = special_sumset_sampler(x_source, y_source, d, m, 1000, stream)
        px = draw.x_star[stream.randrange(len(draw.x_star))]
        py = draw.y_star[stream.randrange(len(draw.y_star))]
        fields = (
            draw.surjection.to_string(),
            draw.mixer.to_string(),
            *(v.to_string() for v in draw.x_star),
            "|",
            *(v.to_string() for v in draw.y_star),
            "|",
            px.to_string(),
            py.to_string(),
            str(draw.full_rank),
        )
        h.update((";".join(fields) + "\n").encode())
    return h.hexdigest()


def test_special_draws_are_pinned():
    """Every draw, and so the stream it consumes, matches the elimination-per-map sampler.

    The digests were taken with the sampler that built a fresh fiber solver
    for each support and candidate map; the one elimination that decides a
    full-support map is onto and builds its solver, and the shared solver,
    must reproduce them draw for draw.
    """
    u6 = uniform_flat(6)
    assert _special_draws_digest(u6, u6, 2, 6, 2000, "full") == (
        "08c7d8bb0bda82a51fd248c938be0af58ed3266549439f42abf69d2a96f55bb4"
    )
    picks = rng.derive(MASTER, "ranklab", "pinned", "support").sample(range(256), 240)
    partial = Flat(8, tuple(BitVector(8, b) for b in picks))
    assert _special_draws_digest(partial, uniform_flat(8), 2, 6, 300, "partial") == (
        "4c394018830db1ab24c948a019a92a40f54f2110fd7b5b88e67b7c4f4276172a"
    )
    u9 = uniform_flat(9)
    assert _special_draws_digest(u9, u9, 4, 6, 300, "deg4") == (
        "e1102bb1bb897ef0678aebf813fb6283ed6b67af0ef5f28026ee272b08c6a140"
    )


def test_special_sampler_rejects_small_m():
    with pytest.raises(PreconditionError):
        special_sumset_sampler(uniform_flat(4), uniform_flat(4), 2, 2, 10, rng.derive(MASTER))


def test_special_sampler_refuses_sources_of_different_lengths():
    with pytest.raises(PreconditionError, match="one ambient length"):
        special_sumset_sampler(uniform_flat(4), uniform_flat(5), 2, 3, 10, rng.derive(MASTER))


# ---------------------------------------------------------------------------
# full-rank pairs feed independent output bits


def test_full_rank_pair_gives_uniform_joint_outputs():
    """On a rank-4 pair, the four output bits of a random f are jointly uniform."""
    a = [word("0000"), word("1000")]
    b = [word("0000"), word("0100")]
    ok, _ = full_rank_check(4, a, b, 2)
    assert ok
    sums = [(x ^ y) for x in a for y in b]
    counts = [0] * 16
    for seed in range(10**4):
        f = sample_poly(4, 2, rng.derive(MASTER, "ranklab", "joint", seed))
        outputs = 0
        for j, s in enumerate(sums):
            coeffs = f.coeffs
            order = f.order
            val = (coeffs & eval_bits(s, order)).bit_count() & 1
            outputs |= val << j
        counts[outputs] += 1
    expected = 10**4 / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 37.70  # 0.999 quantile, 15 degrees of freedom
