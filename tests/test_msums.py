"""Remainder-term sums: definitions, documented discrepancies, diagnostics."""

from fractions import Fraction

import pytest

from zetaseries import msums
from zetaseries.exactnum import binomial, factorial
from zetaseries.harmonicnums import harmonic
from zetaseries.msums import (
    MSumSpec,
    almost_linear_sides,
    general_relation_sides,
    m_alt,
    m_def,
    m_recurrence_residual,
    m_value,
)
from zetaseries.coeffs import s2star_rec
from zetaseries.reports import compare
from zetaseries.stirling import stirling1_signed, stirling1_unsigned, stirling2


def test_spec_validation():
    with pytest.raises(ValueError):
        MSumSpec(2, 1, 0)
    with pytest.raises(ValueError):
        MSumSpec(3, 0, 0)
    with pytest.raises(ValueError):
        MSumSpec(3, 1, -1)
    with pytest.raises(ValueError):
        MSumSpec(3, 1, 0, "upside_down")


def test_m_def_direct_oracle():
    for k in (3, 4, 5):
        for d in (1, 2, 3):
            for n in (0, 1, 4):
                for reading, s1 in (("unsigned", stirling1_unsigned), ("signed", stirling1_signed)):
                    direct = sum(
                        s1(d, m) * harmonic(n, k + 1 - m) for m in range(1, d + 1)
                    )
                    assert m_def(MSumSpec(k, d, n, reading)) == direct


def test_m_alt_direct_oracle():
    for k in (3, 4, 6):
        for d in (1, 2):
            for n in (0, 1, 3, 5):
                direct = sum(
                    binomial(n, j)
                    * s2star_rec(k + 2, j)
                    * Fraction((-1) ** j, j + d)
                    * Fraction(factorial(n + d), factorial(n))
                    for j in range(1, n + 1)
                )
                assert m_alt(MSumSpec(k, d, n)) == direct


def test_documented_discrepancy():
    assert m_alt(MSumSpec(3, 1, 1)) == -1
    assert m_def(MSumSpec(3, 1, 1, "unsigned")) == 1
    assert m_alt(MSumSpec(3, 1, 2)) == Fraction(-63, 16)


def test_recurrence_residual_frozen():
    assert m_recurrence_residual(3, 1, 1, "alt") == Fraction(-191, 32)


def test_m_value_dispatch():
    assert m_value(3, 1, 1, "alt") == m_alt(MSumSpec(3, 1, 1))
    assert m_value(3, 1, 1, "def_unsigned") == m_def(MSumSpec(3, 1, 1, "unsigned"))
    assert m_value(3, 1, 1, "def_signed") == m_def(MSumSpec(3, 1, 1, "signed"))
    with pytest.raises(ValueError):
        m_value(3, 1, 1, "oracle")


def test_d_equals_one_reduces_to_harmonic():
    # s1(1, 1) = 1, so M with d = 1 from the definition is H_n^{(k)}
    for k in (3, 4, 5):
        for n in range(0, 8):
            assert m_def(MSumSpec(k, 1, n)) == harmonic(n, k)


def test_almost_linear_check_reports():
    # at k = 6 with M from the displayed alternate sum every display fails
    # at n = 2, by these residuals, and holds at n = 0, where every term is 0
    residuals = ["1143/128", "-1143/32", "26469/128", "-19431/128", "6003/128", "1143/128"]
    for which, residual in zip(range(1, 7), residuals):
        report = compare("msum_almost_linear", {"which": which}, *almost_linear_sides(which, 6, 2, source="alt"))
        assert report.id == "msum_almost_linear"
        assert (report.status, report.residual) == ("fail", residual), which
        report = compare("msum_almost_linear", {"which": which}, *almost_linear_sides(which, 6, 0, source="alt"))
        assert (report.status, report.residual) == ("exact_pass", "0"), which
    with pytest.raises(ValueError):
        almost_linear_sides(7, 6, 2)


def test_general_relations_families():
    report = compare("msum_general_relation", {}, *general_relation_sides(1, [Fraction(1)], Fraction(2), 6, 3))
    assert report.id == "msum_general_relation"
    with pytest.raises(ValueError):
        general_relation_sides(1, [1, 2], 1, 6, 3)
    with pytest.raises(ValueError):
        general_relation_sides(2, [1, 2], 0, 6, 3)
    with pytest.raises(ValueError):
        general_relation_sides(4, [1], 1, 6, 3)


def test_family_degeneration_matches():
    # family 1 with a1 = 0 and family 2 with b1 = b2 = 0 (d = 1) are the
    # relations written out below, term by term; at k = 6, n = 3 both fail
    H = lambda r: harmonic(3, r)
    M = lambda d: m_value(6, d, 3, "alt")
    family_1 = general_relation_sides(1, [Fraction(0)], Fraction(1), 6, 3, "alt")
    family_2 = general_relation_sides(2, [Fraction(0), Fraction(0)], Fraction(1), 6, 3, "alt")
    assert family_1 == (H(6), H(4) + 3 * M(2) + M(3))
    assert family_2 == (H(6), -H(3) - 7 * M(2) + 6 * M(3) - M(4))
    for sides in (family_1, family_2):
        assert compare("msum_general_relation", {}, *sides).status == "fail"


def _m_alt_repaired(k, d, n):
    # the displayed alternate sum with c*(k+2, j) j! where it prints
    # c*(k+2, j) (-1)^j: (n+d)!/n! sum_j C(n, j) c*(k+2, j) j!/(j+d)
    return Fraction(factorial(n + d), factorial(n)) * sum(
        (binomial(n, j) * s2star_rec(k + 2, j) * Fraction(factorial(j), j + d) for j in range(1, n + 1)), Fraction(0)
    )


def test_repaired_alternate_sum_is_the_definition():
    points = [(k, d, n) for k in range(3, 9) for d in range(1, 5) for n in range(13)]
    assert len(points) == 312
    for k, d, n in points:
        assert _m_alt_repaired(k, d, n) == m_def(MSumSpec(k, d, n, "unsigned")), (k, d, n)


def _recurrence_repaired(k, d, n, source):
    # the displayed homogeneous recurrence with (n+1) where it prints (n+2)
    M = lambda order, at: m_value(order, d, at, source)
    return M(k, n) - M(k, n + 1) + (n + 1) * M(k + 1, n + 1) - (n + 1) * M(k + 1, n)


@pytest.mark.parametrize("source", ["def_unsigned", "def_signed"])
def test_repaired_recurrence_holds_under_the_definition(source):
    # (n+1) (M_{k+2}(n+1) - M_{k+2}(n)) = sum_m s1(d, m) / (n+1)^(k+1-m)
    # = M_{k+1}(n+1) - M_{k+1}(n), term by term of m_def
    points = [(k, d, n) for k in range(3, 7) for d in range(1, 4) for n in range(10)]
    assert len(points) == 120
    for k, d, n in points:
        assert _recurrence_repaired(k, d, n, source) == 0, (k, d, n)


@pytest.mark.parametrize("reading, sign", [("unsigned", -1), ("signed", 1)])
def test_stirling2_inverts_the_definition(reading, sign):
    # S2 inverts s1: H_n^(k+1-m) = sum_d sign^(m-d) S2(m, d) M^(d), with
    # the alternating sign under the unsigned reading; family 3's
    # d-coefficients 1, 15, 25, 10, 1 are S2(5, d)
    points = [(m, k, n) for m in range(2, 6) for k in range(5, 9) for n in range(10)]
    assert len(points) == 160
    for m, k, n in points:
        inverted = sum(sign ** (m - d) * stirling2(m, d) * m_def(MSumSpec(k, d, n, reading)) for d in range(1, m + 1))
        assert inverted == harmonic(n, k + 1 - m), (m, k, n)


def _image(scale, weights, reading):
    # scale H(k) - sum_i w_i T_i as integer weights of H(k), ..., H(k-4), each
    # M(d) read as m_def's sum_m s1(d, m) H(k+1-m): the H_n^(r) of distinct r
    # are independent functions of n, so the relation holds at every k and n
    # exactly when the image is zero (Stirling inversion, Graham, Knuth and
    # Patashnik, Concrete Mathematics, section 6.1)
    s1 = stirling1_unsigned if reading == "unsigned" else stirling1_signed
    image = [scale, *(-w for w in weights[:4])]
    for d, w in zip(range(2, 6), weights[4:]):
        for m in range(1, d + 1):
            image[m - 1] -= w * s1(d, m)
    return image


@pytest.mark.parametrize("reading", ["unsigned", "signed"])
def test_no_printed_relation_holds_under_the_definition(reading):
    # hence every printed relation is report-only
    for scale, weights in msums._DISPLAYS:
        assert any(_image(scale, weights, reading)), weights
    # display 6 fails for every m: its m = 0 image and its per-m image are
    # independent, so no m sums them to zero
    base, per_m = _image(*msums._DISPLAYS[5], reading), _image(0, msums._DISPLAY_6_PER_M, reading)
    assert any(base[i] * per_m[j] - base[j] * per_m[i] for i in range(5) for j in range(i))
    for rows in msums._FAMILIES:
        for row in rows[:-1]:
            assert any(_image(0, row, reading)), row
        assert any(_image(1, rows[-1], reading)), rows[-1]


def _negated(weights, terms):
    return tuple(-w if i in terms else w for i, w in enumerate(weights))


# the weights of M(2), ..., M(5) are terms 4..7
_SIGN_REPAIRS = [
    pytest.param("def_signed", _negated(msums._DISPLAYS[0][1], {5}), id="display-1-minus-M3"),
    pytest.param("def_unsigned", _negated(msums._FAMILIES[0][-1], {5}), id="family-1-d-row-minus-M3"),
    pytest.param("def_unsigned", _negated(msums._FAMILIES[2][-1], {4, 5, 6, 7}), id="family-3-d-row-minus-M"),
]


@pytest.mark.parametrize("source, weights", _SIGN_REPAIRS)
def test_sign_repairs_hold_under_the_definition(source, weights):
    assert _image(1, weights, source.removeprefix("def_")) == [0] * 5
    for k in (7, 8):
        for n in range(24):
            lhs, rhs = msums._relation_sides(1, weights, k, n, source)
            assert lhs == rhs, (k, n)


def test_family_3_repair_is_the_stirling2_inversion():
    # H(k) = H(k-4) - sum_{d>=2} (-1)^(5-d) S2(5, d) M(d) under the unsigned reading
    weights = _negated(msums._FAMILIES[2][-1], {4, 5, 6, 7})
    assert weights == (0, 0, 0, 1, *(-((-1) ** (5 - d)) * stirling2(5, d) for d in range(2, 6)))
