"""Exact harmonic numbers against direct summation."""

from fractions import Fraction
from itertools import islice
from math import gcd

import check_pins
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaseries import harmonicnums
from zetaseries.exactnum import SequenceTable
from zetaseries.harmonicnums import _doubles, _prefix_sums, harmonic, harmonic_real, harmonic_t


def test_harmonic_direct_positive_orders():
    for n in range(0, 15):
        for r in range(1, 6):
            direct = sum(Fraction(1, m**r) for m in range(1, n + 1))
            assert harmonic(n, r) == direct


def test_harmonic_nonpositive_orders_are_power_sums():
    for n in range(0, 12):
        for r in (0, -1, -2, -3):
            direct = sum(Fraction(m ** (-r)) for m in range(1, n + 1))
            assert harmonic(n, r) == direct


@pytest.mark.parametrize("r", range(-3, 9))
def test_harmonic_is_the_canonical_fraction(r):
    # the integer kernel builds each value by its slots: it must be the very
    # Fraction a plain loop builds, in lowest terms, hashing the same
    for n, direct in enumerate(check_pins.harmonic_loop(600, r)):
        value = harmonic(n, r)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (direct.numerator, direct.denominator)
        assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
        assert hash(value) == hash(Fraction(value.numerator, value.denominator)) == hash(direct)


@pytest.mark.parametrize("r", (3, 4, 5))
def test_harmonic_is_the_canonical_fraction_past_one_digit_powers(r):
    # m^r outgrows one 30-bit digit past m = 1023, 181 and 63: the m^r gcd
    # is then a long division, taken only when the gcd by m is above 1
    assert list(check_pins.harmonic_mismatches([r], 2000)) == []


@pytest.mark.parametrize("r, m, by_m, by_power", [(2, 21, 7, 49), (3, 42, 7, 49)])
def test_prefix_sum_reduces_by_the_power_where_m_alone_falls_short(r, m, by_m, by_power):
    # m^r divides the denominator of H_{m-1}^{(r)}, and the new numerator
    # shares 7 with m but 49 with m^r: the fallback gcd by m^r is the one
    # that brings the sum to lowest terms
    loop = check_pins.harmonic_loop(m, r)
    before = loop[m - 1]
    q, rem = divmod(before.denominator, m**r)
    assert rem == 0
    assert (gcd(before.numerator + q, m), gcd(before.numerator + q, m**r)) == (by_m, by_power)
    step = next(_prefix_sums(loop[:m], r))
    for value in (step, harmonic(m, r)):
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (loop[m].numerator, loop[m].denominator)
    assert loop[m].denominator == before.denominator // by_power


def test_prefix_sum_reductions_on_both_branches():
    # 6 divides the denominator of H_5 = 137/60: (137 + 10)/60 reduces by 3,
    # so the denominator is 20, not lcm(1..6) = 60
    assert (harmonic(6, 1).numerator, harmonic(6, 1).denominator) == (49, 20)
    assert (harmonic(6, 3).numerator, harmonic(6, 3).denominator) == (28567, 24000)
    # 4 does not divide the denominator of H_3 = 11/6: (11*2 + 3)/12, nothing to reduce
    assert (harmonic(4, 1).numerator, harmonic(4, 1).denominator) == (25, 12)
    # no harmonic sum up to n = 600 reduces on that branch, so resume from
    # 1/2 at m = 6: 6 does not divide 2, and (1*3 + 1)/6 reduces by 2
    step = next(_prefix_sums([Fraction(0)] * 5 + [Fraction(1, 2)], 1))
    assert type(step) is Fraction and (step.numerator, step.denominator) == (2, 3)


@pytest.mark.parametrize("r", (-2, 1, 2, 5))
def test_prefix_sums_resume_bit_identically(r):
    # a table whose iterator was dropped after a failed pull restarts it on
    # the values built so far; every restart continues the same sums
    full = check_pins.harmonic_loop(1600, r)
    for cut in (1, 2, 7, 60, 997, 1500):
        resumed = list(islice(_prefix_sums(full[:cut], r), 1601 - cut))
        assert [(v.numerator, v.denominator) for v in resumed] == [
            (v.numerator, v.denominator) for v in full[cut:]
        ]
    # a cold jump to n = 1500 and an ascending read build the same table
    jump, ascending = (SequenceTable(lambda h: _prefix_sums(h, r)) for _ in range(2))
    assert jump[1500] == full[1500]
    assert [ascending[n] for n in range(1601)] == list(jump.cells(0, 1601)) == full


@pytest.mark.parametrize("n, r", [(3, 2.0), (3.0, 2), (Fraction(3), 2), (3, Fraction(2))])
def test_a_refused_order_leaves_the_tables_clean(monkeypatch, n, r):
    # 2.0 hashes like 2: a float order once keyed a table whose producer
    # raised, and every later harmonic(j, 2) read that table and raised too
    monkeypatch.setattr(harmonicnums, "_HARMONIC", {})
    monkeypatch.setattr(harmonicnums, "_DOUBLES", {})
    with pytest.raises(TypeError, match="harmonic requires integers n and r"):
        harmonic(n, r)
    with pytest.raises(TypeError):
        _doubles(2.0)
    assert harmonicnums._HARMONIC == {} and harmonicnums._DOUBLES == {}
    value = harmonic(300, 2)
    want = check_pins.harmonic_loop(300, 2)[300]
    assert type(value) is Fraction and (value.numerator, value.denominator) == (want.numerator, want.denominator)
    assert list(harmonicnums._HARMONIC) == [2]


def test_double_cells_are_the_rounded_exact_values():
    for r in range(1, 6):
        assert [x.hex() for x in _doubles(r).cells(0, 501)] == [float(harmonic(n, r)).hex() for n in range(501)]


def test_double_cells_are_rounded_once_whatever_the_reading_order(monkeypatch):
    # a fresh table on the built exact one, read to J = 300 then 50 or the
    # reverse: a later read returns the very doubles an earlier one built,
    # and both orders build the same bits
    built = []
    for reads in ((300, 50), (50, 300)):
        monkeypatch.setattr(harmonicnums, "_DOUBLES", {})
        for r in range(1, 6):
            table = _doubles(r)
            assert table._below is harmonicnums._HARMONIC[r] and _doubles(r) is table
            first, second = (list(table.cells(1, J + 1)) for J in reads)
            assert all(x is y for x, y in zip(first, second))
            assert all(table[n] is x for n, x in enumerate(first, 1))
            built.append([x.hex() for x in table.cells(1, 301)])
    assert built[:5] == built[5:]


def test_harmonic_frozen_values():
    assert harmonic(4, 1) == Fraction(25, 12)
    assert harmonic(3, 2) == Fraction(49, 36)
    assert harmonic(5, 0) == 5
    assert harmonic(0, 3) == 0


@given(st.integers(0, 200), st.integers(-3, 5))
def test_harmonic_recurrence(n, r):
    assert harmonic(n + 1, r) == harmonic(n, r) + Fraction(1, 1) / Fraction(n + 1) ** r


def test_harmonic_real_matches_exact_at_integer_order():
    for n in range(1, 12):
        for r in (1, 2, 3):
            assert harmonic_real(n, float(r)) == pytest.approx(float(harmonic(n, r)), abs=1e-13)


def test_harmonic_real_fractional_order():
    # direct double-precision sum
    for n in (1, 5, 11):
        for rho in (0.25, 1.5, 2.75):
            direct = sum(m**-rho for m in range(1, n + 1))
            assert harmonic_real(n, rho) == pytest.approx(direct, abs=1e-13)


def test_harmonic_t_direct():
    for n in range(0, 10):
        for r in (1, 2):
            for t in (Fraction(1, 3), Fraction(-2), Fraction(1)):
                direct = sum(t**m / Fraction(m**r) for m in range(1, n + 1))
                assert harmonic_t(n, r, t) == direct


@pytest.mark.parametrize("t", (Fraction(-1, 2), Fraction(3, 7), 2))
def test_harmonic_t_matches_a_plain_loop(t):
    # harmonic_t carries the running power t^m; a plain loop raises t each term
    for r in range(-2, 5):
        total = Fraction(0)
        for n in range(0, 41):
            if n:
                total += Fraction(t) ** n / Fraction(n) ** r
            value = harmonic_t(n, r, t)
            assert type(value) is Fraction
            assert (value.numerator, value.denominator) == (total.numerator, total.denominator)


def test_harmonic_t_weight_one_reduces_to_harmonic():
    for n in range(0, 12):
        assert harmonic_t(n, 3, Fraction(1)) == harmonic(n, 3)
