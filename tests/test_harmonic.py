"""Harmonic-number identities against direct summation oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaseries.coeffs import _binomial_row_sums, s2star_heuristic, s2star_rec, s2star_reverse_binomial
from zetaseries.exactnum import binomial, factorial, falling_factorial
from zetaseries.harmonic import (
    exp_harmonic_conv,
    exp_harmonic_inv,
    harmonic_binomial_form,
    harmonic_powers_of_n,
    harmonic_rec_corollary,
    harmonic_via_rec,
    npow_inverse,
    s2star_from_hnum_int,
    s2star_from_hnum_real,
)
from zetaseries.harmonicnums import harmonic
from zetaseries.powerseries import TruncSeries
from zetaseries.series import transform_zeta
from zetaseries.stirling import npow_forward


@given(st.integers(1, 60), st.integers(1, 8))
def test_npow_inverse_is_reciprocal_power(n, k):
    assert npow_inverse(n, k) == Fraction(1, n**k)


@given(st.integers(0, 30), st.integers(0, 8))
def test_npow_forward_is_power(n, k):
    assert npow_forward(n, k) == n**k


def test_npow_inverse_rejects_zero():
    with pytest.raises(ValueError):
        npow_inverse(0, 3)


def test_kernel_sums_match_fraction_loops():
    # the Fraction loops both sums were written as before they moved onto
    # the integer row kernel
    for k in range(0, 9):
        for n in range(0, 61):
            loop = Fraction(0)
            for j in range(n + 1):
                loop += binomial(n + 1, j + 1) * s2star_rec(k + 2, j) * factorial(j)
            assert harmonic_binomial_form(n, k) == loop
            if n >= 1:
                loop = Fraction(0)
                for j in range(1, n + 1):
                    loop += s2star_rec(k + 2, j) * falling_factorial(n, j)
                assert npow_inverse(n, k) == loop


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_negative_order_is_rejected(k):
    with pytest.raises(ValueError, match="k >= 0"):
        npow_inverse(5, k)
    with pytest.raises(ValueError, match="k >= 0"):
        harmonic_binomial_form(5, k)
    with pytest.raises(ValueError, match="k >= 0"):
        transform_zeta(TruncSeries([Fraction(n) for n in range(6)]), k)
    for n in (0, 1, 5):
        with pytest.raises(ValueError, match="k >= 0"):
            harmonic_via_rec(n, k)


NEGATIVE_ORDER = [
    (s2star_heuristic, (-1, 1)),
    (exp_harmonic_conv, (-2, 1)),
    (s2star_from_hnum_int, (-2, 1, 1)),
    (s2star_from_hnum_int, (-2, 1, 2)),
    (exp_harmonic_inv, (-3, 2)),
    (harmonic_powers_of_n, (3, -3)),
    (harmonic_rec_corollary, (3, -2, 1)),
    (npow_forward, (2, -1)),
    (s2star_reverse_binomial, (-2, 1)),
]


@pytest.mark.parametrize("function, args", NEGATIVE_ORDER,
                         ids=[f"{function.__name__}{args}" for function, args in NEGATIVE_ORDER])
def test_k_indexed_identities_reject_negative_order(function, args):
    # each returned a wrong value or raised TypeError for k < 0
    with pytest.raises(ValueError, match="k >= 0"):
        function(*args)


def test_all_n_row_sums_match_single_n_sums():
    # one row at N = 60 against the O(n) sum at each n
    for k in range(0, 7):
        inverse = _binomial_row_sums(k + 2, 60, 0)
        binomial_form = _binomial_row_sums(k + 2, 60, 1)
        assert inverse[0] == 0
        assert all(inverse[n] == npow_inverse(n, k) for n in range(1, 61))
        assert all(binomial_form[n] == harmonic_binomial_form(n, k) for n in range(0, 61))


def test_negative_index_is_rejected():
    with pytest.raises(ValueError, match="n >= 0"):
        harmonic_via_rec(-1, 2)
    with pytest.raises(ValueError, match="n >= 0"):
        harmonic_binomial_form(-1, 2)
    # each returned 0 for a negative index
    with pytest.raises(ValueError, match="n >= 0"):
        harmonic_powers_of_n(-1, 2)
    # a falling factorial needs n >= 0, so (-2)^2 has no such sum
    with pytest.raises(ValueError, match="non-negative"):
        npow_forward(-2, 2)
    for function, args in [(exp_harmonic_inv, (2, -2)), (exp_harmonic_conv, (2, -1)),
                           (s2star_from_hnum_int, (2, -1, 1)), (s2star_from_hnum_int, (2, -1, 2))]:
        with pytest.raises(ValueError, match="j >= 0"):
            function(*args)


def test_harmonic_via_rec():
    for n in range(0, 16):
        for k in range(1, 5):
            assert harmonic_via_rec(n, k) == harmonic(n, k)


def test_hnum_int_variants():
    for k in range(1, 7):
        for j in range(1, 18):
            want = s2star_rec(k + 2, j)
            assert s2star_from_hnum_int(k, j, 1) == want
            assert s2star_from_hnum_int(k, j, 2) == want


def test_hnum_real_zero_order_matches_exact():
    for k in (1, 2, 3):
        for j in range(1, 12):
            want = float(s2star_rec(k + 2, j))
            for variant in (1, 2):
                got = s2star_from_hnum_real(k, j, 0.0, variant)
                assert got == pytest.approx(want, abs=1e-12)


def test_hnum_real_variants_agree_at_fractional_order():
    for k in (2, 3):
        for j in range(1, 12):
            for r in (0.25, 0.5, 1.0):
                v1 = s2star_from_hnum_real(k, j, r, 1)
                v2 = s2star_from_hnum_real(k, j, r, 2)
                assert v1 == pytest.approx(v2, abs=1e-12)


def test_hnum_real_rejects_bad_order():
    with pytest.raises(ValueError):
        s2star_from_hnum_real(2, 3, 2.0, 1)
    with pytest.raises(ValueError):
        s2star_from_hnum_real(2, 3, -0.5, 1)


def test_exp_harmonic_conv():
    for k in range(0, 6):
        for j in range(1, 18):
            assert exp_harmonic_conv(k, j) * j == s2star_rec(k + 2, j)


def test_exp_harmonic_inv():
    for k in range(0, 6):
        for j in range(1, 18):
            assert exp_harmonic_inv(k, j) == harmonic(j, k + 1) / factorial(j)


@settings(deadline=None)
@given(st.integers(1, 10), st.integers(1, 5), st.sampled_from([1, 2]))
def test_rec_corollaries_exact(n, k, which):
    assert harmonic_rec_corollary(n, k, which) == harmonic(n, k)


def test_rec_corollary_three_exact_at_zero_order():
    for n in range(1, 10):
        for k in range(1, 4):
            assert harmonic_rec_corollary(n, k, 3, r=0.0) == harmonic(n, k)


def test_rec_corollary_three_fractional_order():
    for n in range(1, 10):
        for k in (2, 3):
            for r in (0.25, 0.5):
                got = harmonic_rec_corollary(n, k, 3, r=r)
                assert got == pytest.approx(float(harmonic(n, k)), abs=1e-9)


def test_binomial_form_and_powers_of_n():
    for n in range(0, 18):
        for k in range(1, 6):
            assert harmonic_binomial_form(n, k) == harmonic(n, k)
            assert harmonic_powers_of_n(n, k) == harmonic(n, k)
