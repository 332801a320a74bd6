"""Balance windows, exact list sizes, and the Johnson-radius verdict."""

from fractions import Fraction

import pytest

from polyext import rng
from polyext.codes import (
    balancedness_report,
    codewords,
    johnson_check,
    list_size_exhaustive,
    measured_imbalance,
    sqrt_widened,
)
from polyext.errors import BudgetExceededError, PreconditionError
from polyext.gf2 import BitMatrix, BitVector, apply_rows, sample_uniform_matrix, subset_xors

MASTER = 20260823


def monomial_row(mask: int, n: int) -> int:
    """Truth table (packed over all 2^n points) of the product of the masked vars."""
    word = 0
    for j in range(1 << n):
        if j & mask == mask:
            word |= 1 << j
    return word


def identity_code(n: int) -> BitMatrix:
    return BitMatrix(n, n, [1 << i for i in range(n)])


def linear_functions_code() -> BitMatrix:
    # rows are the truth tables of x1, x2, x3 over the 8 points of F_2^3
    return BitMatrix(3, 8, [monomial_row(1, 3), monomial_row(2, 3), monomial_row(4, 3)])


def quadratic_functions_code() -> BitMatrix:
    rows = [monomial_row(mask, 3) for mask in (0, 1, 2, 4, 3, 5, 6)]
    return BitMatrix(7, 8, rows)


# ---------------------------------------------------------------------------
# balance reports


def test_zero_code_is_perfectly_balanced():
    report = balancedness_report(BitMatrix(3, 4, [0] * 3), 0)
    assert report.delta == 0
    assert report.worst_codeword is None


def test_identity_code_unbalanced_fraction():
    report = balancedness_report(identity_code(4), Fraction(1, 2))
    assert report.delta == Fraction(1, 15)
    assert report.worst_codeword == BitVector.from_string("1111").bits


def test_linear_functions_code_is_exactly_balanced():
    code = linear_functions_code()
    assert measured_imbalance(code) == 0
    assert balancedness_report(code, 0).delta == 0


def test_quadratic_functions_code_single_offender():
    report = balancedness_report(quadratic_functions_code(), Fraction(1, 2))
    assert report.delta == Fraction(1, 127)
    assert report.worst_codeword == (1 << 8) - 1  # the constant-one table


def test_measured_imbalance_identity():
    # weight-1 rows give |2w - T|/T = 1/2, the all-ones sum gives 1
    assert measured_imbalance(identity_code(4)) == 1


# ---------------------------------------------------------------------------
# exact list sizes


def test_list_size_radius_zero():
    count, center = list_size_exhaustive(identity_code(3), 0)
    assert count == 1
    assert center in codewords(identity_code(3))


def test_list_size_radius_one_counts_everything():
    count, _ = list_size_exhaustive(identity_code(4), 1)
    assert count == 16


def test_list_size_linear_functions_at_half():
    # the zero center sees the whole code: every nonzero word has weight 4
    count, center = list_size_exhaustive(linear_functions_code(), Fraction(1, 2))
    assert count == 8
    assert center == 0


def test_codewords_are_the_distinct_row_xors_within_the_cap():
    assert codewords(BitMatrix(3, 2, [0b01, 0b10, 0b11])) == {0, 1, 2, 3}
    with pytest.raises(BudgetExceededError):
        codewords(BitMatrix(25, 1, [0] * 25))


def test_list_size_respects_budget():
    with pytest.raises(BudgetExceededError):
        list_size_exhaustive(BitMatrix(1, 17, [0]), 0)


def test_list_size_brute_force_agreement():
    stream = rng.derive(MASTER, "codes", "list-brute")
    for _ in range(20):
        dim = stream.randrange(1, 6)
        t = stream.randrange(max(dim, 2), 9)
        code = BitMatrix(dim, t, sample_uniform_matrix(dim, t, stream))
        rho = Fraction(stream.randrange(0, t + 1), t)
        count, center = list_size_exhaustive(code, rho)
        words = codewords(code)
        brute = max(
            sum(1 for w in words if (w ^ x).bit_count() <= rho * t) for x in range(1 << t)
        )
        assert count == brute
        at_center = sum(1 for w in words if (w ^ center).bit_count() <= rho * t)
        assert at_center == count


def _fraction_reference(code: BitMatrix, eps: Fraction, rho: Fraction):
    """(unbalanced fraction, measured imbalance, list size) with every weight
    compared against a Fraction, as the window and the radius are defined."""
    t = code.cols
    nonzero = [w for w in codewords(code) if w]
    lo, hi = (1 - eps) * t / 2, (1 + eps) * t / 2
    bad = Fraction(sum(1 for w in nonzero if not lo <= w.bit_count() <= hi), len(nonzero) or 1)
    imbalance = max((Fraction(abs(2 * w.bit_count() - t), t) for w in nonzero), default=Fraction(0))
    words = codewords(code)
    size = max(
        sum(1 for w in words if (w ^ x).bit_count() <= rho * t) for x in range(1 << t)
    )
    return bad, imbalance, size


def test_integer_weight_comparisons_match_the_fraction_reference():
    stream = rng.derive(MASTER, "codes", "fraction-reference")
    integral = 0
    for _ in range(40):
        dim = stream.randrange(1, 6)
        t = stream.randrange(max(dim, 2), 9)
        code = BitMatrix(dim, t, sample_uniform_matrix(dim, t, stream))
        eps = Fraction(stream.randrange(0, 2 * t + 1), stream.choice([t, 2 * t, 3, 7]))
        rho = Fraction(stream.randrange(0, 3 * t + 1), stream.choice([2, 3, t, 2 * t]))
        integral += (rho * t).denominator == 1
        bad, imbalance, size = _fraction_reference(code, eps, rho)
        assert balancedness_report(code, eps).delta == bad
        assert measured_imbalance(code) == imbalance
        assert list_size_exhaustive(code, rho)[0] == size
    assert 5 <= integral <= 35  # both radii where rho T is an integer and where it is not


# ---------------------------------------------------------------------------
# Johnson verdicts


def test_johnson_passes_on_balanced_code():
    verdict = johnson_check(linear_functions_code(), 0)
    assert verdict.passed
    assert verdict.radius == Fraction(1, 2)
    assert verdict.max_list == 8
    assert verdict.limit == 16


def test_johnson_single_codeword():
    verdict = johnson_check(BitMatrix(1, 4, [0]), 0)
    assert verdict.passed
    assert verdict.max_list == 1


def test_johnson_rejects_unbalanced_code():
    with pytest.raises(PreconditionError):
        johnson_check(identity_code(4), Fraction(1, 4))


def test_johnson_exact_square_root():
    # eps = 1/4 has an exact rational root, so the radius is exactly 1/4
    code = quadratic_functions_code()
    eps = measured_imbalance(code)
    assert eps == 1  # the constant-one row
    verdict = johnson_check(code, eps)
    assert verdict.radius == 0
    assert verdict.passed


def test_square_root_refuses_a_negative_rational():
    assert sqrt_widened(Fraction(1, 4)) == Fraction(1, 2)
    with pytest.raises(PreconditionError, match="negative"):
        sqrt_widened(Fraction(-1, 4))


def test_johnson_never_fails_at_measured_eps():
    stream = rng.derive(MASTER, "codes", "johnson-random")
    for _ in range(50):
        dim = stream.randrange(1, 9)
        t = stream.randrange(max(dim, 2), 13)
        code = BitMatrix(dim, t, sample_uniform_matrix(dim, t, stream))
        verdict = johnson_check(code, measured_imbalance(code))
        assert verdict.passed
        assert verdict.max_list <= 2 * t


def test_random_subcodes_stay_balanced():
    """Two-dimensional random subcodes of the degree-2 code are rarely unbalanced."""
    code = quadratic_functions_code()
    stream = rng.derive(MASTER, "codes", "subcode")
    words = subset_xors(code.row_words)  # entry k is the codeword of message k
    bad_draws = 0
    for _ in range(1000):
        h = sample_uniform_matrix(7, 2, stream)
        for z in range(1, 4):
            word = words[apply_rows(h, z)]
            if word and not 2 <= word.bit_count() <= 6:
                bad_draws += 1
                break
    # union bound: 3 nonzero messages, one unbalanced codeword in 2^7
    assert bad_draws / 1000 <= 3 / 127 + 3 * 0.005
