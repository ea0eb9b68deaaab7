"""Stirling and Bernoulli numbers against independent brute-force oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaseries import stirling
from zetaseries.exactnum import SequenceTable, binomial, factorial
from zetaseries.stirling import (
    bernoulli_number,
    bernoulli_poly,
    faulhaber_sum,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    stirling2_power_sum,
)


def _partitions_into_blocks(n, k):
    """Count set partitions of {1..n} into k nonempty blocks by recursion."""
    if n == 0:
        return 1 if k == 0 else 0
    if k <= 0:
        return 0
    # element n either forms its own block or joins one of k blocks
    return _partitions_into_blocks(n - 1, k - 1) + k * _partitions_into_blocks(n - 1, k)


def _rising_factorial_coeffs(n):
    """Coefficients of x(x+1)...(x+n-1); index m holds [x^m]."""
    coeffs = [Fraction(1)]
    for i in range(n):
        shifted = [Fraction(0)] + coeffs
        coeffs = [shifted[m] + (coeffs[m] * i if m < len(coeffs) else 0) for m in range(len(shifted))]
    return coeffs


def test_stirling2_vs_set_partition_count():
    for n in range(9):
        for k in range(n + 2):
            assert stirling2(n, k) == _partitions_into_blocks(n, k)


def test_stirling2_inclusion_exclusion():
    for n in range(1, 10):
        for k in range(1, n + 1):
            total = sum((-1) ** i * binomial(k, i) * (k - i) ** n for i in range(k + 1))
            assert stirling2(n, k) == total // factorial(k)


def test_stirling1_unsigned_vs_rising_factorial():
    for n in range(9):
        coeffs = _rising_factorial_coeffs(n)
        for m in range(n + 2):
            expected = coeffs[m] if m < len(coeffs) else 0
            assert stirling1_unsigned(n, m) == expected


def test_stirling1_signed_relation():
    for n in range(9):
        for m in range(n + 1):
            assert stirling1_signed(n, m) == (-1) ** (n - m) * stirling1_unsigned(n, m)


@given(st.integers(1, 40), st.integers(0, 40))
def test_stirling2_recurrence(n, k):
    assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@given(st.integers(1, 40), st.integers(0, 40))
def test_stirling1_recurrence(n, k):
    assert stirling1_unsigned(n, k) == (n - 1) * stirling1_unsigned(n - 1, k) + stirling1_unsigned(n - 1, k - 1)


def test_columns_match_the_textbook_recurrence_in_any_read_order(monkeypatch):
    # fresh columns, each indexed from its first nonzero cell, read in a
    # shuffled order against the full (n, k) tables of the textbook recurrences
    N = 300
    want = {}
    for kind, weight in (("s1", lambda n, k: n - 1), ("s2", lambda n, k: k)):
        rows = [[1]]
        for n in range(1, N + 1):
            prev = rows[-1] + [0]
            rows.append([0] + [weight(n, k) * prev[k] + prev[k - 1] for k in range(1, n + 1)])
        want[kind] = rows
    monkeypatch.setattr(stirling, "_STIRLING1", SequenceTable(stirling._STIRLING1._produce))
    monkeypatch.setattr(stirling, "_STIRLING2", SequenceTable(stirling._STIRLING2._produce))
    grid = [(kind, n, k) for kind in want for n in range(N + 1) for k in range(n + 2)]
    random.Random(22).shuffle(grid)
    read = {"s1": stirling1_unsigned, "s2": stirling2}
    for kind, n, k in grid:
        assert read[kind](n, k) == (want[kind][n][k] if k <= n else 0), (kind, n, k)


def test_bernoulli_frozen_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, value in expected.items():
        assert bernoulli_number(n) == value


def test_bernoulli_poly_special_points():
    # B_n(0) = B_n; B_n(1) = B_n for n != 1
    for n in range(10):
        assert bernoulli_poly(n, Fraction(0)) == bernoulli_number(n)
        if n != 1:
            assert bernoulli_poly(n, Fraction(1)) == bernoulli_number(n)
    assert bernoulli_poly(1, Fraction(1)) == Fraction(1, 2)
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)


@pytest.mark.parametrize("call", [
    lambda: bernoulli_number(-1),
    lambda: bernoulli_poly(-1, 0),
    lambda: bernoulli_poly(-3, 5),
    lambda: faulhaber_sum(-1, 3),
])
def test_negative_index_raises(call):
    with pytest.raises(ValueError, match=r"n >= 0"):
        call()


def test_faulhaber_vs_direct_sum():
    for k in range(10):
        for n in range(0, 20):
            direct = sum(Fraction(m) ** k for m in range(n))  # 0^0 = 1
            assert faulhaber_sum(k, n) == direct


def test_stirling2_power_sum_matches_geometric_weighted():
    # sum_{m=0}^{n} m^k x^m evaluated two ways (0^0 = 1)
    for k in range(6):
        for n in range(0, 8):
            for x in (Fraction(1, 2), Fraction(-2), Fraction(3), Fraction(-7, 5)):
                direct = sum(Fraction(m) ** k * x**m for m in range(n + 1))
                assert stirling2_power_sum(k, n, x) == direct


def test_stirling2_power_sum_rejects_degenerate_points():
    with pytest.raises(ValueError):
        stirling2_power_sum(2, 5, Fraction(1))
    with pytest.raises(ValueError):
        stirling2_power_sum(2, 5, Fraction(0))
