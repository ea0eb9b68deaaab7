"""Exact-arithmetic helpers: parsing, combinatorial primitives, roots of
unity, reduction against a radical, and the growable sequence table."""

import cmath
import math
import sys
import threading
from fractions import Fraction
from itertools import count

import check_pins
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaseries import exactnum, harmonicnums
from zetaseries.exactnum import (
    _RUN,
    SequenceTable,
    _binomial_sums,
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


@pytest.mark.parametrize("values", [
    [3, -1, 4, -1, 5, -9, 2, 6],
    [Fraction(1, m + 1) * (-1) ** m for m in range(12)],
    [complex(m, -m * m) / 4 for m in range(7)],  # dyadic, so both sums are exact
    [Fraction(-5, 7)],
    [],
], ids=["int", "fraction", "complex", "one", "empty"])
def test_binomial_sums_match_binomial_weighted_sums(values):
    expected = [sum(math.comb(i, m) * values[m] for m in range(i + 1)) for i in range(len(values))]
    got = _binomial_sums(values)
    assert got == expected
    assert [type(x) for x in got] == [type(x) for x in values]


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
    # a negative argument raises, as in math.perm, even where j = 0
    for args in [(-1, 0), (-2, 1), (3, -1)]:
        with pytest.raises(ValueError):
            falling_factorial(*args)
    with pytest.raises(ValueError):
        factorial(-1)


def test_root_of_unity_values():
    assert root_of_unity(4, 1) == pytest.approx(1j)
    assert root_of_unity(2, 1) == pytest.approx(-1)
    for a in range(1, 8):
        total = sum(root_of_unity(a, m) for m in range(a))
        assert abs(total - (a if a == 1 else 0)) < 1e-12


@given(st.integers(1, 12), st.integers(-24, 24))
def test_root_of_unity_is_power(a, m):
    assert root_of_unity(a, m) == pytest.approx(cmath.exp(2j * math.pi * m / a))


_PRIMES = [p for p in range(2, 42) if all(p % q for q in range(2, p))]


@st.composite
def _quotients(draw):
    """(numerator, denominator, lcm(1..b)) with the denominator built from
    primes <= b and the numerator sharing some powers of them."""
    b = draw(st.integers(1, 41))
    powers = lambda: math.prod(p ** draw(st.integers(0, 5)) for p in _PRIMES if p <= b)
    numerator = draw(st.integers(-10**40, 10**40)) * powers()
    return numerator, powers(), math.lcm(*range(1, b + 1))


@given(_quotients())
def test_reduced_matches_fraction(quotient):
    # terms, hash, str and one arithmetic result
    assert list(check_pins.reduced_mismatches([quotient])) == []


@st.composite
def _deep_quotients(draw):
    """(numerator, denominator, lcm(1..b)) as the c* cells have them: the
    radical divides the denominator, and powers of 2 and 3 up to 2^60 and
    3^40 in both terms take the reduction through several rounds."""
    b = draw(st.integers(2, 41))
    top = {2: 60, 3: 40}
    powers = lambda: math.prod(p ** draw(st.integers(0, top.get(p, 12))) for p in _PRIMES if p <= b)
    radical = math.lcm(*range(1, b + 1))
    numerator = draw(st.integers(-10**40, 10**40)) * powers()
    return numerator, radical * powers(), radical


@given(_deep_quotients())
def test_reduced_matches_fraction_over_several_rounds(quotient):
    assert list(check_pins.reduced_mismatches([quotient])) == []


def test_reduced_edge_cases_match_fraction():
    # a zero numerator, negative numerators, denominator 1 and radical 1
    assert list(check_pins.reduced_mismatches(check_pins.EDGE_CASES)) == []


def _renamed_slots(numerator, denominator):
    value = object.__new__(Fraction)
    value._num, value._den = numerator, denominator  # Fraction has __slots__: AttributeError
    return value


def _swapped_slots(numerator, denominator):
    value = object.__new__(Fraction)
    value._numerator, value._denominator = denominator, numerator
    return value


def test_coprime_is_checked_once_and_falls_back_to_fraction(monkeypatch):
    # the slot writer is kept where it builds Fraction(-3, 4) exactly, and a
    # layout it does not fit selects Fraction() itself, through which every
    # _reduced value and every harmonic prefix sum is still canonical
    assert exactnum._coprime is exactnum._by_slots
    assert exactnum._checked(exactnum._by_slots) is exactnum._by_slots
    forced = exactnum._checked(_renamed_slots)
    assert forced is Fraction and exactnum._checked(_swapped_slots) is Fraction
    built = []

    def fallback(numerator, denominator):
        built.append(denominator)
        return forced(numerator, denominator)

    monkeypatch.setattr(exactnum, "_coprime", fallback)
    monkeypatch.setattr(harmonicnums, "_coprime", fallback)
    monkeypatch.setattr(harmonicnums, "_HARMONIC", {})  # fresh tables, built through the fallback
    assert list(check_pins.reduced_mismatches()) == []
    assert len(built) == len(check_pins.EDGE_CASES)
    assert list(check_pins.harmonic_mismatches(range(1, 5), 300)) == []
    assert len(built) >= len(check_pins.EDGE_CASES) + 4 * 300  # a miss also builds a short run past n


def test_sequence_table_extends_the_tables_below_first():
    log, starts, table = [], [], None
    for level in range(3):
        def produce(values, level=level, below=table):
            starts.append((level, len(values)))
            total = sum(values)
            for n in count(len(values)):
                log.append((level, n))
                value = 1 if below is None else total + below[n]
                total += value
                yield value
        table = SequenceTable(produce, table)
    # a miss at 3 builds each level through 3 + _RUN, lowest first
    assert table[3] == 20
    built = 3 * (4 + _RUN)
    assert log == [(level, n) for level in range(3) for n in range(4 + _RUN)]
    assert [table[n] for n in range(4)] == [1, 3, 8, 20] and len(log) == built
    first = list(table.cells(0, 4))
    assert list(table.cells(0, 0)) == [] and first == [1, 3, 8, 20] and len(log) == built
    longer = list(table.cells(0, 5))
    assert longer == [1, 3, 8, 20, 48] and all(x is y for x, y in zip(first, longer))
    assert len(log) == built
    # the next miss, at 4 + _RUN, builds the next run on each level, lowest first
    assert table[4 + _RUN] == (6 + _RUN) * 2 ** (3 + _RUN)
    assert log[built:] == [(level, n) for level in range(3) for n in range(4 + _RUN, 5 + 2 * _RUN)]
    assert list(table.cells(0, 5 + 2 * _RUN)) == [(n + 2) * 2**n // 2 for n in range(5 + 2 * _RUN)]
    # each iterator is resumed, never rebuilt, while no pull raises
    assert starts == [(0, 0), (1, 0), (2, 0)]


def test_sequence_table_restarts_a_producer_that_raised():
    calls = []

    def produce(values):
        calls.append(len(values))
        for n in count(len(values)):
            if n == 5 and len(calls) == 1:
                raise ArithmeticError("first pass fails at 5")
            yield n * n

    table = SequenceTable(produce)
    with pytest.raises(ArithmeticError):
        table[7]
    assert list(table.cells(0, 5)) == [0, 1, 4, 9, 16] and calls == [0]
    assert table[7] == 49 and calls == [0, 5]
    assert list(table.cells(0, 9)) == [n * n for n in range(9)] and calls == [0, 5]


def test_sequence_table_rejects_negative_indices():
    table = SequenceTable(lambda values: count(len(values)))
    assert table[2] == 2
    for read in (lambda: table[-1], lambda: table[-5], lambda: table.cells(-1, 3), lambda: table.cells(0, -1)):
        with pytest.raises(IndexError):
            read()
    # an empty range builds nothing, even past the end of the run table[2] built
    assert list(table.cells(3, 3)) == [] and list(table.cells(9, 9)) == [] and len(table._values) == 3 + _RUN
    assert list(table.cells(20, 20)) == [] and len(table._values) == 3 + _RUN
    assert list(table.cells(0, 3)) == [0, 1, 2]


def test_sequence_table_read_ahead_raises_nothing():
    # a pull past the index asked for that raises keeps the cells built so far,
    # drops the iterator and raises nothing; the read of that cell raises
    calls = []

    def produce(values):
        calls.append(len(values))
        for n in count(len(values)):
            if n == 8:
                raise OverflowError("cell 8 does not fit")
            yield n * n

    table = SequenceTable(produce)
    assert table[5] == 25 and table._values == [n * n for n in range(8)] and calls == [0]
    assert table._source is None
    # a table above it reads ahead no further than the table below holds
    above = SequenceTable(lambda values: (2 * table._values[n] for n in count(len(values))), table)
    assert above[5] == 50 and len(above._values) == 8 and calls == [0, 8]
    for read in (lambda: table[8], lambda: above[8], lambda: table.cells(0, 9)):
        with pytest.raises(OverflowError):
            read()
    assert len(table._values) == len(above._values) == 8 and calls == [0, 8, 8, 8, 8]


def test_sequence_table_threads_share_one_iterator():
    # more readers than cores, switching often: every value is built once,
    # by one resumed iterator, and read back in order by every thread
    starts = []

    def produce(values):
        starts.append(len(values))
        total = values[-1] if values else 0
        for n in count(len(values)):
            for _ in range(400):  # a pull long enough for a thread switch inside it
                pass
            total += n
            yield total

    below = SequenceTable(lambda values: count(len(values)))
    table = SequenceTable(produce, below)
    results, interval = [], sys.getswitchinterval()

    def read():
        results.append([table[n] for n in range(0, 3000, 7)] + [below[n] for n in range(3000)])

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    want = [n * (n + 1) // 2 for n in range(0, 3000, 7)] + list(range(3000))
    assert len(results) == 8 and all(result == want for result in results)
    assert starts == [0] and list(table.cells(0, 3000)) == [n * (n + 1) // 2 for n in range(3000)]
