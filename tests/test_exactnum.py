"""Exact-arithmetic helpers: parsing, combinatorial primitives, roots of
unity, and the growable sequence table."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaseries.exactnum import (
    SequenceTable,
    binomial,
    factorial,
    falling_factorial,
    parse_rational,
    root_of_unity,
)


def test_parse_plain_fraction():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 85/216 ") == Fraction(85, 216)


def test_parse_unicode_minus():
    assert parse_rational("−3/4") == Fraction(-3, 4)
    assert parse_rational("−761/11289600") == Fraction(-761, 11289600)


def test_parse_decimal_string():
    assert parse_rational("0.25") == Fraction(1, 4)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_parse_round_trip(num, den):
    value = Fraction(num, den)
    text = f"{value.numerator}/{value.denominator}"
    assert parse_rational(text) == value


def test_binomial_against_factorials():
    for n in range(12):
        for k in range(n + 1):
            assert binomial(n, k) == factorial(n) // (factorial(k) * factorial(n - k))


def test_binomial_out_of_range_is_zero():
    assert binomial(5, 9) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(1, 60), st.integers(0, 60))
def test_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_falling_factorial_direct():
    for n in range(10):
        for j in range(n + 2):
            if j > n:
                assert falling_factorial(n, j) == 0
            else:
                expected = 1
                for i in range(j):
                    expected *= n - i
                assert falling_factorial(n, j) == expected


def test_root_of_unity_values():
    assert root_of_unity(4, 1) == pytest.approx(1j)
    assert root_of_unity(2, 1) == pytest.approx(-1)
    for a in range(1, 8):
        total = sum(root_of_unity(a, m) for m in range(a))
        assert abs(total - (a if a == 1 else 0)) < 1e-12


@given(st.integers(1, 12), st.integers(-24, 24))
def test_root_of_unity_is_power(a, m):
    assert root_of_unity(a, m) == pytest.approx(cmath.exp(2j * math.pi * m / a))


def test_sequence_table_extends_the_tables_below_first():
    log, table = [], None
    for level in range(3):
        def step(n, values, level=level, below=table):
            log.append((level, n))
            return 1 if below is None else sum(values) + below[n]
        table = SequenceTable(step, table)
    assert table[3] == 20
    assert log == [(level, n) for level in range(3) for n in range(4)]
    assert [table[n] for n in range(4)] == [1, 3, 8, 20] and len(log) == 12
    assert table.prefix(0) == [] and table.prefix(4) == [1, 3, 8, 20] and len(log) == 12
    assert table.prefix(5) == [1, 3, 8, 20, 48]
    assert log[12:] == [(0, 4), (1, 4), (2, 4)]
