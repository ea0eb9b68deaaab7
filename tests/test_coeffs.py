"""Transform coefficient table: frozen values, method agreement, remainders."""

import math
import random
from fractions import Fraction

import check_pins
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaseries import coeffs
from zetaseries.coeffs import (
    _scaled_numerators,
    remainder_t,
    s2star_general_f,
    s2star_harmonic,
    s2star_heuristic,
    s2star_ogf_coeff,
    s2star_rec,
    s2star_reverse_binomial,
    s2star_scaled,
    s2star_sum,
)
from zetaseries.exactnum import binomial, factorial
from zetaseries.harmonicnums import harmonic
from zetaseries.stirling import stirling1_unsigned

# frozen reference cells (row k, column j)
FROZEN = {
    (0, 0): Fraction(1),
    (1, 1): Fraction(1),
    (2, 2): Fraction(-1, 2),
    (2, 8): Fraction(-1, 40320),
    (3, 2): Fraction(-3, 4),
    (3, 3): Fraction(11, 36),
    (3, 8): Fraction(-761, 11289600),
    (4, 3): Fraction(85, 216),
    (4, 8): Fraction(-3144919, 28449792000),
    (5, 5): Fraction(874853, 25920000),
    (6, 8): Fraction(-3355156783231, 20074173235200000),
}

FROZEN_SCALED = {
    (3, 4): Fraction(25, 12),
    (4, 6): Fraction(13489, 3600),
    (6, 8): Fraction(3355156783231, 497871360000),
}


def test_frozen_cells():
    for (k, j), value in FROZEN.items():
        assert s2star_rec(k, j) == value


def test_frozen_scaled_cells():
    for (k, j), value in FROZEN_SCALED.items():
        assert s2star_scaled(k, j) == value


def test_base_cases():
    assert s2star_rec(0, 0) == 1
    assert s2star_rec(0, 3) == 0
    assert s2star_rec(1, 1) == 1
    assert s2star_rec(1, 4) == 0
    assert s2star_rec(5, 0) == 0


@given(st.integers(2, 12), st.integers(1, 30))
def test_recurrence_property(k, j):
    # the displayed recurrence holds for k >= 2; rows 0 and 1 are base rows
    lhs = s2star_rec(k, j)
    rhs = -Fraction(1, j) * s2star_rec(k, j - 1) + Fraction(1, j) * s2star_rec(k - 1, j)
    assert lhs == rhs


def test_base_rows():
    for j in range(31):
        assert s2star_rec(0, j) == (1 if j == 0 else 0)
        assert s2star_rec(1, j) == (1 if j == 1 else 0)


def test_closed_sum_direct_oracle():
    # independent double-checked formula: for k >= 2,
    # c*(k, j) = (1/j!) sum_{m=1}^{j} C(j, m) (-1)^{j-m} m^{-(k-2)}
    for k in range(2, 9):
        for j in range(1, 15):
            direct = sum(
                binomial(j, m) * Fraction((-1) ** (j - m), m ** (k - 2))
                for m in range(1, j + 1)
            ) / factorial(j)
            assert s2star_sum(k, j) == direct
            assert s2star_rec(k, j) == direct


@settings(deadline=None)
@given(st.integers(2, 8), st.integers(1, 20))
def test_methods_agree(k, j):
    value = s2star_rec(k, j)
    assert s2star_sum(k, j) == value
    assert s2star_heuristic(k - 2, j) == value
    if k <= 6:
        assert s2star_harmonic(k, j) == value
    if k - 2 <= 6 and j <= 12:
        assert s2star_reverse_binomial(k - 2, j) == value
    if k <= 8 and j <= 8:
        assert s2star_ogf_coeff(k, j) == value


def test_scaled_definition():
    for k in range(0, 8):
        for j in range(1, 12):
            assert s2star_scaled(k, j) == s2star_rec(k, j) * (-1) ** (j - 1) * factorial(j)


def test_scaled_is_positive_for_k_at_least_2():
    for k in range(2, 9):
        for j in range(1, 20):
            assert s2star_scaled(k, j) > 0


def general_f_per_term(k, j, alpha, beta):
    # the sum as it was first written over integers: a fresh binomial and a
    # fresh power (lcm / f(m))^(k-2) for every term, and Fraction()'s gcd
    alpha, beta = Fraction(alpha), Fraction(beta)
    a, b = alpha.numerator * beta.denominator, beta.numerator * alpha.denominator
    q = alpha.denominator * beta.denominator
    values = [a * m + b for m in range(1, j + 1)]
    lcm = math.lcm(*values)
    total = sum(binomial(j, m) * (-1) ** (j - m) * (lcm // p_m) ** (k - 2) for m, p_m in enumerate(values, 1))
    return Fraction(total * q ** (k - 2), lcm ** (k - 2) * factorial(j))


def same_fraction(got, want):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_general_f_reduces_to_closed_sum():
    # out to j = 400, where the ratio chain of the closed sum is long
    for k in range(2, 15):
        for j in [*range(1, 10), 17, 64, 101, 199, 256, 331, 400]:
            want = s2star_rec(k, j)
            same_fraction(s2star_general_f(k, j, 1, 0), want)
            same_fraction(s2star_sum(k, j), want)


GENERAL_F_PAIRS = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(-2), Fraction(1)),
    (Fraction(3, 2), Fraction(-7, 2)),
    ("2/4", "-7/3"),
    (Fraction(2, 3), Fraction(4, 9)),
    (Fraction(-6, 5), Fraction(-1, 10)),
    (0, Fraction(-7, 3)),
]


@pytest.mark.parametrize("alpha, beta", GENERAL_F_PAIRS)
def test_general_f_matches_direct_formula(alpha, beta):
    # (-2, 1) makes every f(m) negative and (3/2, -7/2) mixes signs, so the
    # odd powers k - 2 = 1, 3 check the sign of the integer kernel; k = 2
    # is the empty power.  (2/3, 4/9) writes f(m) = (18m + 12)/27, whose
    # numerator and denominator share a factor 3, and alpha = 0 is constant.
    alpha, beta = Fraction(alpha), Fraction(beta)
    for k in range(2, 7):
        for j in range(1, 10):
            direct = sum(
                binomial(j, m) * Fraction((-1) ** (j - m)) / (alpha * m + beta) ** (k - 2)
                for m in range(1, j + 1)
            ) / factorial(j)
            assert s2star_general_f(k, j, alpha, beta) == direct


def test_reverse_binomial_matches_recurrence_to_j_40():
    for k in range(2, 6):
        for j in range(1, 41):
            assert s2star_reverse_binomial(k - 2, j) == s2star_rec(k, j)


def test_general_f_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError, match=r"^f\(2\) = 0 for alpha=1, beta=-2$"):
        s2star_general_f(3, 4, 1, -2)
    with pytest.raises(ZeroDivisionError, match=r"^f\(3\) = 0 for alpha=1/2, beta=-3/2$"):
        s2star_general_f(2, 5, "2/4", Fraction(-3, 2))
    with pytest.raises(ZeroDivisionError, match=r"^f\(5\) = 0 for alpha=-1, beta=5$"):
        s2star_general_f(4, 7, -1, 5)
    with pytest.raises(ZeroDivisionError, match=r"^f\(1\) = 0 for alpha=0, beta=0$"):
        s2star_general_f(2, 1, 0, 0)


@pytest.mark.parametrize("alpha, beta", GENERAL_F_PAIRS + [(0, 5), (0, Fraction(-2, 3)), (1, 0)])
def test_general_f_ratio_chain_matches_per_term_sum(alpha, beta):
    # each term comes from the one before by an exact ratio, so a long chain
    # (j up to 60) with odd and even powers must still land on every term;
    # alpha = 0 makes every f(m) the same
    for k in range(2, 9):
        for j in range(1, 61):
            same_fraction(s2star_general_f(k, j, alpha, beta), general_f_per_term(k, j, alpha, beta))


@pytest.mark.parametrize("k, j", [(300, 40), (301, 40), (300, 1), (41, 97)])
def test_general_f_ratio_chain_with_a_large_power(k, j):
    # e = k - 2 far above j: each ratio carries a long power of f(m)
    same_fraction(s2star_sum(k, j), general_f_per_term(k, j, 1, 0))
    same_fraction(s2star_general_f(k, j, Fraction(-3, 2), Fraction(1, 5)),
                  general_f_per_term(k, j, Fraction(-3, 2), Fraction(1, 5)))


def test_scaled_numerators_match_closed_sum():
    # N_k(j) / lcm(1..J)^(k-2) = c*(k, j) j!, signed, and N_k(0) = 0; the
    # closed binomial sum shares no table with the kernel
    for k in range(2, 11):
        numerators, denominator = _scaled_numerators(k, 60)
        assert len(numerators) == 61 and numerators[0] == 0
        assert denominator == math.lcm(*range(1, 61)) ** (k - 2)
        for j in range(1, 61):
            assert Fraction(numerators[j], denominator) == s2star_sum(k, j) * factorial(j)


def test_rec_cells_are_in_lowest_terms_past_the_audit_grid():
    # k = 2..14, j <= 600, each cell against Fraction()'s full gcd, j ascending and descending
    assert list(check_pins.rec_mismatches(14, 600)) == []


def shuffled(js):
    return random.Random(20).sample(js, len(js))


def test_rec_cells_do_not_depend_on_reading_order():
    # ascending j takes each denominator from the cell before; descending j
    # finds the row's last cell past every one and raises it afresh; a
    # shuffle mixes both
    orders = (sorted, reversed, shuffled)
    assert list(check_pins.rec_mismatches(14, 300, orders)) == []


def test_a_float_k_leaves_the_row_denominators_as_they_were(monkeypatch):
    # a float k once stored (3, 216.0) as row 4's last denominator before
    # raising, and the ascending reads of row 4 after it came out over floats
    monkeypatch.setattr(coeffs, "_DENOMINATORS", {})
    s2star_rec(4, 2)
    with pytest.raises(TypeError, match="s2star_rec requires integers k and j, got k=4.0, j=3"):
        s2star_rec(4.0, 3)
    assert coeffs._DENOMINATORS == {4: (2, 8)}
    for j in range(3, 21):
        value = s2star_rec(4, j)
        assert value == s2star_sum(4, j) and type(value.denominator) is int
    assert coeffs._DENOMINATORS[4][0] == 20


def test_ogf_coeff_far_beyond_the_denominator_degree():
    # k - 2 much larger than j: the reciprocal runs past the degree-j denominator
    for j in range(1, 4):
        for k in range(2, 41, 3):
            assert s2star_ogf_coeff(k, j) == s2star_rec(k, j)


def test_negative_k_is_zero_on_the_routes_without_a_k_bound():
    # c*(k, j) = 0 for k < 0, as s2star_rec defines it; the README names the routes that raise instead
    for k in range(-3, 0):
        for j in range(1, 7):
            assert s2star_ogf_coeff(k, j) == s2star_scaled(k, j) == s2star_rec(k, j) == 0


def test_remainder_t_definitions():
    for k in range(2, 8):
        for j in range(1, 15):
            s1 = Fraction(stirling1_unsigned(j + 1, k - 1), factorial(j))
            assert remainder_t("t0", k, j) == s2star_scaled(k, j) - s1
            assert remainder_t("t1", k, j) == s2star_scaled(k, j) + s1


def test_remainder_t_low_rows_are_constant():
    for j in range(1, 20):
        assert remainder_t("t0", 2, j) == 0
        assert remainder_t("t0", 3, j) == 0
        assert remainder_t("t1", 2, j) == 2
        assert remainder_t("t1", 3, j) == 2 * harmonic(j, 1)


def test_remainder_t_rejects_out_of_range():
    with pytest.raises(ValueError):
        remainder_t("t0", 8, 3)
    with pytest.raises(ValueError):
        remainder_t("t2", 4, 3)


def test_harmonic_form_rejects_out_of_range():
    with pytest.raises(ValueError):
        s2star_harmonic(7, 3)
    with pytest.raises(ValueError):
        s2star_harmonic(1, 3)
