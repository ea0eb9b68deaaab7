"""Numeric special functions against frozen high-precision constants."""

import cmath
import math
import time
from fractions import Fraction

import check_pins
import pytest

from zetaseries import harmonicnums, special
from zetaseries.coeffs import _LCM, _NUMERATORS, s2star_scaled
from zetaseries.exactnum import _RUN, SequenceTable, binomial
from zetaseries.harmonicnums import harmonic
from zetaseries.special import (
    EvalResult,
    _phi_inner_table,
    bernoulli_closed_logforms,
    bernoulli_fourier,
    hurwitz_phi,
    li_classic_series,
    li_direct_sum,
    li_new_series,
    trilog_functional_eq_check,
    zeta_ref,
    zeta_star,
    zeta_star_euler_form,
    zeta_star_harmonic_form,
)
from zetaseries.stirling import bernoulli_poly

# frozen reference constants (independently computed to high precision)
ZETA = {2: 1.6449340668482264, 3: 1.2020569031595943, 4: 1.0823232337111382,
        5: 1.0369277551433699, 6: 1.0173430619844491}
LI2_HALF = 0.5822405264650125  # pi^2/12 - ln^2(2)/2
LI2_MINUS_ONE = -0.8224670334241132  # -pi^2/12
LI3_HALF = 0.5372131936080402  # 7 zeta(3)/8 - pi^2 ln2 /12 + ln^3 2 / 6
ZETA_STAR = {1: math.log(2), 3: 0.9015426773696957, 4: 0.9470328294972459,
             5: 0.9721197704469093}


def test_zeta_ref_against_frozen():
    for s, value in ZETA.items():
        assert zeta_ref(s) == pytest.approx(value, abs=1e-12)


def test_li_direct_frozen_points():
    assert li_direct_sum(2, 0.5, 2000).value == pytest.approx(LI2_HALF, abs=1e-12)
    assert li_direct_sum(3, 0.5, 2000).value == pytest.approx(LI3_HALF, abs=1e-12)


def test_li_new_series_interior_point():
    result = li_new_series(2, -1.0, 400)
    assert result.method == "coeff_series"
    assert not result.domain_warning
    assert result.value == pytest.approx(LI2_MINUS_ONE, abs=1e-12)


def test_li_new_series_boundary_falls_back():
    result = li_new_series(2, 0.5, 200)
    assert result.domain_warning
    assert result.method == "direct_fallback"
    assert result.value == pytest.approx(LI2_HALF, abs=1e-8)


def test_li_new_series_caps_its_direct_fallback():
    # about 3.2e10 terms at z = 1 - 1e-9: refused before any is summed
    terms = int(math.log(1e-14) / math.log(1 - 1e-9)) + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"needs {terms} terms"):
        li_new_series(2, 1 - 1e-9, 400)
    assert time.perf_counter() - start < 1
    result = li_new_series(2, 0.9, 400)
    assert result.method == "direct_fallback" and result.domain_warning


def test_li_new_series_rejects_pole():
    with pytest.raises(ValueError):
        li_new_series(2, 1, 100)


@pytest.mark.parametrize("z", [2.0, 1 + 1j, complex(math.cos(0.2 * math.pi), math.sin(0.2 * math.pi))])
def test_li_new_series_rejects_divergent_points(z):
    # |z| >= 1 and |z/(1-z)| >= 1: neither the coefficient series nor the
    # direct sum converges, so no partial sum is returned
    with pytest.raises(ValueError):
        li_new_series(2, z, 400)


def test_classic_inner_sum_scaled_coefficient_identity():
    # sum_{m=0}^{k} C(k,m) (-1)^{m+1} / (m+1)^s = -scaled(s+1, k+1)/(k+1)
    for s in range(1, 6):
        for k in range(0, 15):
            direct = sum(
                binomial(k, m) * Fraction((-1) ** (m + 1), (m + 1) ** s)
                for m in range(k + 1)
            )
            assert direct == -s2star_scaled(s + 1, k + 1) / (k + 1)


def test_scaled_row_matches_exact_coefficients_bit_for_bit():
    for J in (100, 400):
        for k in range(2, 11):
            row = [abs(x) for x in special._DOUBLE_ROWS[k - 2].cells(0, J + 1)]
            assert len(row) == J + 1 and row[0] == 0.0
            for j in range(1, J + 1):
                assert row[j] == float(s2star_scaled(k, j))


@pytest.mark.parametrize("order", [(100, 400), (400, 100)])
def test_scaled_row_is_one_row_per_k(monkeypatch, order):
    # a longer J extends the one double row for k and a shorter J reads its
    # prefix: the doubles stored first are the very objects stored later
    monkeypatch.setattr(special, "_DOUBLE_ROWS", SequenceTable(special._DOUBLE_ROWS._produce))
    row = special._DOUBLE_ROWS[5]
    rows, stored = {}, []
    for J in order:
        rows[J] = [abs(x) for x in special._DOUBLE_ROWS[5].cells(0, J + 1)]
        stored.append(list(row._values))
    assert special._DOUBLE_ROWS[5] is row and len(row._values) == 401 + _RUN
    assert [len(rows[J]) for J in (100, 400)] == [101, 401]
    assert [x.hex() for x in rows[100]] == [x.hex() for x in rows[400][:101]]
    assert all(x is y for x, y in zip(*stored))


@pytest.mark.parametrize("order", [(100, 400), (400, 100)])
def test_classic_row_is_one_row_per_s(monkeypatch, order):
    # li_classic_series and hurwitz_phi(..., 1, 0, K) read prefixes of one
    # growable row for s: K = 100 and K = 400 share the very same doubles
    monkeypatch.setattr(special, "_CLASSIC_ROWS", SequenceTable(special._CLASSIC_ROWS._produce))
    row = special._CLASSIC_ROWS[2]
    inner = {K: list(_phi_inner_table(3, Fraction(1), Fraction(0), K)) for K in order}
    assert special._CLASSIC_ROWS[2] is row and len(row._values) == 402 + _RUN
    assert [len(inner[K]) for K in (100, 400)] == [101, 401]
    assert all(x is y for x, y in zip(inner[100], inner[400]))
    assert special.li_classic_series(3, -0.5, 400).value == special.hurwitz_phi(-0.5, 3, 1, 0, 400).value
    assert special._CLASSIC_ROWS[2] is row and len(row._values) == 402 + _RUN


def test_double_rows_match_one_power_per_cell():
    # the producers carry L_j^(k-2) and multiply it only at prime powers;
    # every cell is still the one correctly rounded quotient
    J = 1500
    for k in range(2, 12):
        e = k - 2
        row = [abs(x) for x in special._DOUBLE_ROWS[e].cells(0, J + 1)]
        assert [x.hex() for x in row] == [(_NUMERATORS[e][j] / _LCM[j] ** e).hex() for j in range(J + 1)]
    for s in range(1, 11):
        inner = _phi_inner_table(s, Fraction(1), Fraction(0), J - 1)
        want = [-_NUMERATORS[s - 1][k + 1] / (_LCM[k + 1] ** (s - 1) * (k + 1)) for k in range(J)]
        assert [x.hex() for x in inner] == [x.hex() for x in want]


@pytest.mark.parametrize(
    "s, alpha, beta",
    [(2, 2, 1), (3, 3, 2), (1, 2, 1), (3, 1, Fraction(-5, 2)), (2, 1, 0), (0, 1, 0), (-1, 2, 1)],
)
def test_phi_inner_table_matches_fraction_reference(s, alpha, beta):
    # (3, 1, -5/2) has negative alpha (m+1) + beta at m = 0, 1 with odd s
    assert list(check_pins.lerch_mismatches([(s, Fraction(alpha), Fraction(beta), 40)])) == []


@pytest.mark.parametrize("s, alpha, beta, K", check_pins.LERCH_ROWS, ids=[f"{s}_{a}_{b}_{K}" for s, a, b, K in check_pins.LERCH_ROWS])
def test_lerch_rows_are_the_nearest_doubles(s, alpha, beta, K):
    # each cell of the recurrence (s >= 1) or of the short Pascal sum and its
    # +0.0 tail (s <= 0) has the bits of float() of the exact binomial sum
    assert list(check_pins.lerch_mismatches([(s, alpha, beta, K)])) == []
    if s <= 0:
        tail = list(_phi_inner_table(s, alpha, beta, K))[1 - s:]
        assert len(tail) == K + s and {x.hex() for x in tail} == {"0x0.0p+0"}


def test_li_classic_series_order_zero():
    # Li_0(z) = z / (1 - z)
    assert li_classic_series(0, -0.5, 60).value == pytest.approx(-1 / 3, abs=1e-15)


def test_li_new_series_long_row():
    result = li_new_series(6, -0.25, 3000)
    assert result.value == pytest.approx(li_direct_sum(6, -0.25, 200).value, abs=1e-14)


def test_three_way_li_agreement():
    for s in range(1, 6):
        for z in (-0.8, -0.5, -0.1, 0.2, 0.4):
            v1 = li_new_series(s, z, 400).value
            v2 = li_classic_series(s, z, 400).value
            v3 = li_direct_sum(s, z, 400).value
            assert abs(v1 - v2) < 1e-10
            assert abs(v1 - v3) < 1e-10


def test_hurwitz_phi_reduces_to_li():
    got = hurwitz_phi(0.4, 2, 1, 0, 200).value
    assert got == pytest.approx(li_direct_sum(2, 0.4, 400).value, abs=1e-12)


def test_hurwitz_phi_direct_sum():
    got = hurwitz_phi(-0.5, 2, 2, 1, 200).value
    direct = sum((-0.5) ** n / (2 * n + 1) ** 2 for n in range(1, 200))
    assert got == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("evaluate, args, method", [
    (li_new_series, (2, 0.0, 5), "coeff_series"),
    (li_classic_series, (2, 0.0, 5), "classic_series"),
    (hurwitz_phi, (0.0, 2, 2, 1, 5), "phi_series"),
    (li_new_series, (2, 0, 5), "coeff_series"),
    (li_new_series, (2, 0j, 5), "coeff_series"),
], ids=["new", "classic", "phi", "new_int", "new_complex"])
def test_series_at_zero_sum_nothing(evaluate, args, method):
    assert evaluate(*args) == EvalResult(0.0, 0, 0.0, method)


def test_hurwitz_phi_rejects_zero_denominator():
    with pytest.raises((ValueError, ZeroDivisionError)):
        hurwitz_phi(0.3, 2, 1, -3, 100)


def test_hurwitz_phi_pole_check_edges():
    # the pole m = -beta/alpha is reached only as an integer in [1, K + 1]
    with pytest.raises(ZeroDivisionError, match=r"^denominator alpha\*11 \+ beta = 0$"):
        hurwitz_phi(0.3, 2, 1, -11, 10)
    with pytest.raises(ZeroDivisionError, match=r"^denominator alpha\*4 \+ beta = 0$"):
        hurwitz_phi(0.3, 2, "1/2", -2, 10)
    for alpha, beta in ((1, -12), ("1/2", -6), (2, -3), (3, -1), (1, 0), (1, 1)):
        assert math.isfinite(hurwitz_phi(0.3, 2, alpha, beta, 10).value)


@pytest.mark.parametrize("s, alpha, beta", [(-1, 1, -1), (0, 1, -1), (-2, 2, -4), (-1, "1/2", -2)])
def test_hurwitz_phi_has_no_pole_for_s_at_most_zero(s, alpha, beta):
    # alpha n + beta = 0 at some n <= K + 1, but (alpha n + beta)^(-s) is a polynomial in n there
    got = hurwitz_phi(0.3, s, alpha, beta, 40).value
    alpha, beta = Fraction(alpha), Fraction(beta)
    direct = sum(0.3**n * float((alpha * n + beta) ** -s) for n in range(1, 200))
    assert got == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("evaluate, args", [
    (li_classic_series, (2, 0.9, 400)),
    (li_classic_series, (2, 0.5, 400)),
    (hurwitz_phi, (0.9, 2, 2, 1, 150)),
    (li_classic_series, (2, 1.0, 5)),
    (hurwitz_phi, (1.0, 2, 2, 1, 5)),
], ids=["classic_z0.9", "classic_z0.5", "phi_z0.9", "classic_pole", "phi_pole"])
def test_binomial_series_rejects_divergent_points(evaluate, args):
    # |z/(1-z)| >= 1: the partial sums here were nan, 0.5904 against
    # Li_2(1/2) = 0.5822, and 6.6e140; z = 1 is the pole of the series
    with pytest.raises(ValueError, match="binomial series"):
        evaluate(*args)


@pytest.mark.parametrize("evaluate, args", [
    (li_new_series, (2, -0.5, 0)),
    (li_new_series, (2, 0.0, 0)),
    (li_new_series, (2, -0.5, -3)),
    (li_direct_sum, (2, 0.5, 0)),
    (zeta_star, (2, 0)),
    (zeta_star_harmonic_form, (2, 0)),
    (zeta_star_euler_form, (3, 0)),
    (bernoulli_fourier, (1, 0.25, 0)),
    (li_classic_series, (2, -0.5, -1)),
    (hurwitz_phi, (-0.5, 2, 1, 0, -1)),
], ids=["new", "new_z0", "new_negative", "direct", "zeta_star", "harmonic_form",
        "euler_form", "fourier", "classic", "phi"])
def test_evaluations_reject_empty_sums(evaluate, args):
    # an empty sum would read as a plausible value, 0
    with pytest.raises(ValueError):
        evaluate(*args)


def test_zeta_star_series_and_closed():
    assert zeta_star(1, 120, "series") == pytest.approx(math.log(2), abs=1e-10)
    for s in range(2, 7):
        closed = (1 - 2.0 ** (1 - s)) * ZETA[s]
        assert zeta_star(s, 120, "series") == pytest.approx(closed, abs=1e-8)
        assert zeta_star(s, method="closed") == pytest.approx(closed, abs=1e-12)
    with pytest.raises(ValueError, match="J >= 1"):  # li_new_series' own check
        zeta_star(2, 0)


def test_zeta_star_harmonic_polynomial_form():
    for s in range(1, 5):
        assert zeta_star_harmonic_form(s, 120) == pytest.approx(
            zeta_star(s, method="closed"), abs=1e-8
        )
        # zeta_star dispatches all four methods, bit for bit
        assert zeta_star(s, 120, "harmonic").hex() == zeta_star_harmonic_form(s, 120).hex()
    for s in (3, 4, 5):
        assert zeta_star(s, 120, "euler").hex() == zeta_star_euler_form(s, 120).hex()
    with pytest.raises(ValueError, match="method must be"):
        zeta_star(2, 120, "nope")


def test_zeta_star_forms_beyond_double_exponent_range():
    # 2.0 ** j overflows from j = 1024 on; the sums must not
    J = 1100
    assert zeta_star(2, J, "series") == pytest.approx(zeta_star(2, method="closed"), abs=1e-12)
    assert zeta_star_harmonic_form(2, J) == pytest.approx(zeta_star(2, method="closed"), abs=1e-12)
    assert zeta_star_euler_form(3, J) == pytest.approx(zeta_star(3, method="closed"), abs=1e-12)


def _per_term_harmonic_form(s, J):
    # each H_j^(r) converted by float() afresh per term
    total = 0.0
    for j in range(1, J + 1):
        h1, h2, h3, h4 = (float(harmonic(j, r)) for r in range(1, 5))
        form = {
            1: h1,
            2: (h1**2 + h2) / 2,
            3: (h1**3 + 3 * h1 * h2 + 2 * h3) / 6,
            4: (h1**4 + 6 * h1**2 * h2 + 3 * h2**2 + 8 * h1 * h3 + 6 * h4) / 24,
        }[s]
        total += math.ldexp(form, -j - 1)
    return total


def _per_term_euler_form(s, J):
    total = math.log(2) ** s / math.factorial(s)
    for j in range(1, J + 1):
        h1, h2, h3, h4 = (float(harmonic(j, r)) for r in range(1, 5))
        if s == 3:
            total += math.ldexp(h1 * h2, -(j + 1))
        elif s == 4:
            total += math.ldexp(h1**2 * h2 + h4, -(j + 2))
        else:
            total += math.ldexp(h1**3 * h2 / 12, -j)
            total += math.ldexp(h2 * h3 / 6, -j)
            total += math.ldexp(h1 * h4, -(j + 2))
    return total


def test_zeta_star_forms_match_per_term_conversion(monkeypatch):
    # fresh double tables, so each larger J reads past the tables' end
    monkeypatch.setattr(harmonicnums, "_DOUBLES", {})
    for J in (1, 120, 200, 350):
        for s in (1, 2, 3, 4):
            assert zeta_star_harmonic_form(s, J).hex() == _per_term_harmonic_form(s, J).hex()
        for s in (3, 4, 5):
            assert zeta_star_euler_form(s, J).hex() == _per_term_euler_form(s, J).hex()


def test_zeta_star_forms_convert_no_fraction_on_warm_tables(monkeypatch):
    # each harmonic number is rounded once per process, in its double table
    for s in (3, 4, 5):
        zeta_star_euler_form(s, 200)
    for s in (1, 2, 3, 4):
        zeta_star_harmonic_form(s, 200)
    converted = []
    to_float = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda value: converted.append(value) or to_float(value))
    assert float(Fraction(1, 3)) == 1 / 3 and converted == [Fraction(1, 3)]
    converted.clear()
    for s in (3, 4, 5):
        zeta_star_euler_form(s, 200)
    for s in (1, 2, 3, 4):
        zeta_star_harmonic_form(s, 200)
    assert converted == []


def test_zeta_star_euler_forms_match_display_decimals():
    for s in (3, 4, 5):
        assert zeta_star_euler_form(s, 200) == pytest.approx(ZETA_STAR[s], abs=5e-6)


def test_trilog_functional_equation():
    for z in (-0.5, -0.1):
        report = trilog_functional_eq_check(z)
        assert report.passed, report


def test_trilog_rejects_out_of_domain():
    with pytest.raises(ValueError):
        trilog_functional_eq_check(0.5)


def test_bernoulli_fourier_quarter_point():
    # B_1({5/4}) = 5/4 - 1 - 1/2 = -1/4
    assert bernoulli_fourier(1, 1.25, 60) == pytest.approx(-0.25, abs=1e-6)


def test_bernoulli_fourier_vs_polynomial():
    for order in (1, 2, 3):
        for x in (0.25, 1.25, 2.75):
            want = float(bernoulli_poly(order, Fraction(x).limit_denominator(10**6) % 1))
            want /= math.factorial(order)
            assert bernoulli_fourier(order, x, 60) == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("x", [0.1, 1.9, -0.1, 2.0, 1 / 6])
def test_bernoulli_fourier_rejects_outside_domain(x):
    with pytest.raises(ValueError):
        bernoulli_fourier(2, x, 60)


def test_bernoulli_closed_logforms():
    for order in (1, 2):
        for x in (0.25, 0.3, 0.75):
            value = bernoulli_closed_logforms(order, x)
            want = float(bernoulli_poly(order, Fraction(x).limit_denominator(10**6))) / math.factorial(order)
            assert abs(value.imag) < 1e-9
            assert value.real == pytest.approx(want, abs=1e-8)


def two_series_fourier(order, x, J):
    """The Fourier form summing Li_n at e^{2 pi i x} and at e^{-2 pi i x}."""
    plus = li_new_series(order, cmath.exp(2j * math.pi * x), J).value
    minus = li_new_series(order, cmath.exp(-2j * math.pi * x), J).value
    return (-(plus + (-1) ** order * minus) / (2j * math.pi) ** order).real


def direct_closed_logform_2(x):
    """The order-2 closed form with both Li_2 values summed directly, b = +1 then b = -1."""
    cot = math.cos(math.pi * x) / math.sin(math.pi * x)
    total = 0j
    for b in (1, -1):
        total += cmath.log(1 - cmath.exp(2j * math.pi * b * x)) ** 2
        total += 2 * li_direct_sum(2, (1 + b * 1j * cot) / 2, 4000).value
    return -total / (8 * math.pi**2)


def test_bernoulli_fourier_sums_one_series_and_keeps_the_two_series_bits(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return li_new_series(*args)

    monkeypatch.setattr(special, "li_new_series", counting)
    grid = [shift + 1 / 6 + i / 15 for shift in range(-2, 3) for i in range(1, 10)]
    for order in range(1, 9):
        for J in (20, 60, 120):
            for x in grid:
                calls.clear()
                value = bernoulli_fourier(order, x, J)
                assert len(calls) == 1
                assert repr(value) == repr(two_series_fourier(order, x, J)), (order, x, J)


CLOSED_FORM_XS = [1e-6, 0.01, 0.1486, 0.15, 0.16, 0.17, 0.1875, 0.5, 0.83, 0.85, 0.999999]


def test_order_2_closed_form_is_real_and_exact_across_the_unit_interval():
    # |z| > 0.9, x mod 1 outside [0.1875, 0.8125], takes the reflection Li_2(z) + Li_2(1 - z)
    for x in [x + shift for x in CLOSED_FORM_XS for shift in (-1, 0, 1)]:
        value = bernoulli_closed_logforms(2, x)
        assert abs(value.imag) < 1e-12, x
        assert abs(value.real - float(bernoulli_poly(2, Fraction(x) % 1)) / 2) < 1e-12, x


def test_order_2_closed_form_keeps_the_direct_bits_where_z_is_small():
    xs = [x + shift for x in CLOSED_FORM_XS + [0.25, 0.3, 0.75] for shift in (-1, 0, 1)]
    direct = [x for x in xs if abs((1 + 1j * math.cos(math.pi * x) / math.sin(math.pi * x)) / 2) <= 0.9]
    assert len(direct) == 15
    for x in direct:
        assert repr(bernoulli_closed_logforms(2, x)) == repr(direct_closed_logform_2(x)), x
