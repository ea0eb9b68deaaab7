"""The coefficient series of special, summed by one loop, against the loops
they were written as.

Each reference below is the earlier body of the route, kept verbatim: the
derivative-weighted loop of li_new_series, the ldexp loop of zeta_star and
the classical inner row rescaled to one common denominator per K.  Every
value is compared by ``float.hex`` of its real and imaginary parts, so the
bits match, signed zeros included."""

import cmath
import math
from fractions import Fraction

import pytest

from zetaseries import special
from zetaseries.coeffs import _scaled_numerators
from zetaseries.special import (
    EvalResult,
    _binomial_series,
    _phi_inner_table,
    li_classic_series,
    li_new_series,
    zeta_star,
)


def li_new_series_loop(s, z, J):
    w = z / (1 - z)
    scaled = [abs(x) for x in special._DOUBLE_ROWS[s].cells(0, J + 1)]
    prefactor = 1.0 / (1 - z)
    total = 0.0 * w
    power = 1.0 + 0.0 * w
    last = 0.0
    for j in range(1, J + 1):
        power *= w
        term = (-1) ** (j - 1) * scaled[j] * power * prefactor
        total += term
        last = abs(term)
    return EvalResult(total, J, last, "coeff_series")


def zeta_star_loop(s, J):
    scaled = [abs(x) for x in special._DOUBLE_ROWS[s].cells(0, J + 1)]
    total = 0.0
    for j in range(1, J + 1):
        total += math.ldexp(scaled[j], -(j + 1))
    return total


def classic_row_rescaled(s, K):
    numerators, denominator = _scaled_numerators(s + 1, K + 1)
    return tuple(-abs(numerators[k + 1]) / (denominator * (k + 1)) for k in range(K + 1))


def bits(value):
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def same_result(got, want):
    assert bits(got.value) == bits(want.value)
    assert got.last_term_magnitude.hex() == want.last_term_magnitude.hex()
    assert (got.terms_used, got.method, got.domain_warning) == (want.terms_used, want.method, False)


REAL_Z = [-0.98, -0.9, -0.75, -0.5, -1 / 3, -0.1, -1e-9, 1e-9, 0.1, 0.25, 0.4, 0.48]
CIRCLE_X = [0.17, 0.25, 0.3, 0.5, 0.7, 0.83]
J_VALUES = [1, 2, 60, 400, 1500]


@pytest.mark.parametrize("s", range(1, 10))
def test_li_new_series_bits_on_the_real_line(s):
    for J in J_VALUES:
        for z in REAL_Z:
            same_result(li_new_series(s, z, J), li_new_series_loop(s, z, J))


@pytest.mark.parametrize("s", range(1, 10))
def test_li_new_series_bits_on_the_unit_circle(s):
    for J in J_VALUES:
        for x in CIRCLE_X:
            z = cmath.exp(2j * math.pi * x)
            same_result(li_new_series(s, z, J), li_new_series_loop(s, z, J))


def test_li_new_series_keeps_a_positive_zero():
    # the two terms cancel exactly; negating the sum would print -0
    value = li_new_series(1, 0.4, 2).value
    assert value == 0 and math.copysign(1.0, value) == 1.0
    assert bits(value) == bits(li_new_series_loop(1, 0.4, 2).value)


@pytest.mark.parametrize("s", range(1, 10))
def test_zeta_star_bits(s):
    for J in (1, 1023, 1024, 3000):
        assert zeta_star(s, J).hex() == zeta_star_loop(s, J).hex()


@pytest.mark.parametrize("s", range(1, 10))
def test_classic_row_cells_match_the_rescaled_row(s):
    for J in J_VALUES:
        K = J - 1
        want = classic_row_rescaled(s, K)
        row = _phi_inner_table(s, Fraction(1), Fraction(0), K)
        assert [x.hex() for x in row] == [x.hex() for x in want]
        for z in REAL_Z:
            same_result(li_classic_series(s, z, K), _binomial_series(want, len(want), z, "classic_series"))


def test_one_loop_sums_every_coefficient_series(monkeypatch):
    methods = []

    def counted(inner, J, z, method, prefactor=1.0):
        methods.append(method)
        return _binomial_series(inner, J, z, method, prefactor)

    monkeypatch.setattr(special, "_binomial_series", counted)
    special.li_new_series(2, -0.5, 10)
    special.zeta_star(2, 10)
    special.li_classic_series(2, -0.5, 10)
    special.hurwitz_phi(-0.5, 2, 2, 1, 10)
    assert methods == ["coeff_series", "coeff_series", "classic_series", "phi_series"]
