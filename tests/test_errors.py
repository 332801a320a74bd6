"""The one budget gate, errors.check_budget."""

import re
import time

import pytest

from polyext.errors import BudgetExceededError, check_budget


def _refuses(message: str):
    return pytest.raises(BudgetExceededError, match=re.escape(message))


def test_gate_refuses_a_huge_power_by_its_exponent():
    with _refuses("huge: 2^1000000000000 exceeds the 2^22 budget"):
        check_budget("huge", 1 << 22, log2=10**12)
    times = []
    for _ in range(5):  # the best of five, so one scheduler pause cannot fail the bound
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            check_budget("huge", 1 << 22, log2=10**12)
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3


def test_gate_refuses_a_count_over_the_limit():
    with _refuses("pairs: 65 exceeds the 2^6 budget"):
        check_budget("pairs", 1 << 6, count=65)


def test_gate_prints_a_limit_that_is_not_a_power_of_two_as_a_number():
    with _refuses("subspaces: 1001 exceeds the 1000 budget"):
        check_budget("subspaces", 1000, count=1001)
    with _refuses("span: 2^10 exceeds the 1000 budget"):
        check_budget("span", 1000, log2=10)


def test_gate_passes_work_equal_to_the_limit():
    check_budget("pairs", 1 << 6, count=1 << 6)
    check_budget("span", 1 << 6, log2=6)
    check_budget("span", 1000, log2=9)
    check_budget("nothing", 1)
