"""Every domain sentence of the README's "What each module promises" as a
tested boundary: a point just inside returns a value, a point just outside
raises the named exception with a message naming the bound, and where the
sentence names a command, that command refuses the outside point with one
``error:`` line and nothing on stdout.  The ``fourier`` sentence ({x} in
(1/6, 5/6)) and the trilog sentence (z in (-1, 0)) have no row: both
evaluators are still wrong near the ends of their stated domains."""

import re
from fractions import Fraction

import pytest

from zetaseries import audit, coeffs, harmonicnums, msums, special, stirling
from zetaseries.cli import main
from zetaseries.harmonic import (
    exp_harmonic_conv,
    exp_harmonic_inv,
    harmonic_binomial_form,
    harmonic_powers_of_n,
    harmonic_rec_corollary,
    harmonic_via_rec,
    npow_inverse,
    s2star_from_hnum_int,
)
from zetaseries.powerseries import TruncSeries
from zetaseries.series import intro_example


def row(id, function, inside, outside, error, bound, argv=None, code=1):
    return pytest.param(function, inside, outside, error, bound, argv, code, id=id)


def _series(method):
    return lambda *coeffs: getattr(TruncSeries([Fraction(c) for c in coeffs]), method)()


ROWS = [
    # stirling: a Bernoulli number, polynomial or Faulhaber sum of a negative index
    row("stirling.bernoulli_number", stirling.bernoulli_number, (0,), (-1,), ValueError, "n >= 0"),
    row("stirling.bernoulli_poly", stirling.bernoulli_poly, (0, 5), (-1, 5), ValueError, "n >= 0"),
    row("stirling.faulhaber_sum", stirling.faulhaber_sum, (0, 3), (-1, 3), ValueError, "n >= 0"),
    # stirling: npow_forward of a negative n or k
    row("stirling.npow_forward.n", stirling.npow_forward, (0, 2), (-1, 2), ValueError, "non-negative"),
    row("stirling.npow_forward.k", stirling.npow_forward, (2, 0), (2, -1), ValueError, "k >= 0"),
    # harmonicnums: n >= 0 [harmonic]
    row("harmonicnums.harmonic", harmonicnums.harmonic, (0, 1), (-1, 1), ValueError, "n >= 0",
        ("harmonic", "--n", "-1")),
    row("harmonicnums.harmonic.r", harmonicnums.harmonic, (3, 2), (3, 2.0), TypeError, "integer order r"),
    row("harmonicnums.harmonic_real", harmonicnums.harmonic_real, (0, 1.5), (-1, 1.5), ValueError, "n >= 0"),
    row("harmonicnums.harmonic_t", harmonicnums.harmonic_t, (0, 1, Fraction(1, 2)), (-1, 1, Fraction(1, 2)),
        ValueError, "n >= 0", ("harmonic", "--n", "-1", "--t", "1/2")),
    row("harmonicnums.harmonic_t.r", harmonicnums.harmonic_t, (3, 2, Fraction(1, 2)), (3, 2.0, Fraction(1, 2)),
        TypeError, "integer order r"),
    # coeffs: s2star_rec takes every integer k and j, and refuses a k that is not an integer
    row("coeffs.s2star_rec.k", coeffs.s2star_rec, (4, 3), (4.0, 3), TypeError, "s2star_rec requires integers"),
    # coeffs: every route but s2star_rec requires j >= 1 and raises outside its range of k [coeff, table]
    row("coeffs.s2star_sum.j", coeffs.s2star_sum, (2, 1), (2, 0), ValueError, "j >= 1"),
    row("coeffs.s2star_sum.k", coeffs.s2star_sum, (2, 1), (1, 1), ValueError, "k >= 2"),
    row("coeffs.s2star_harmonic.j", coeffs.s2star_harmonic, (2, 1), (2, 0), ValueError, "j >= 1"),
    row("coeffs.s2star_harmonic.k", coeffs.s2star_harmonic, (6, 1), (7, 1), ValueError, "k in 2..6"),
    row("coeffs.s2star_heuristic.j", coeffs.s2star_heuristic, (0, 1), (0, 0), ValueError, "j >= 1"),
    row("coeffs.s2star_heuristic.k", coeffs.s2star_heuristic, (0, 1), (-1, 1), ValueError, "k >= 0"),
    row("coeffs.s2star_ogf_coeff.j", coeffs.s2star_ogf_coeff, (2, 1), (2, 0), ValueError, "j >= 1"),
    row("coeffs.s2star_reverse_binomial.j", coeffs.s2star_reverse_binomial, (0, 1), (0, 0), ValueError, "j >= 1"),
    row("coeffs.s2star_reverse_binomial.k", coeffs.s2star_reverse_binomial, (0, 1), (-1, 1), ValueError,
        "k >= 0"),
    row("coeffs.s2star_scaled.j", coeffs.s2star_scaled, (2, 1), (2, 0), ValueError, "j >= 1",
        ("table", "--kmax", "2", "--jmax", "-1", "--scaled")),
    row("coeffs.remainder_t.j", coeffs.remainder_t, ("t0", 2, 1), ("t0", 2, 0), ValueError, "j >= 1"),
    row("coeffs.remainder_t.k", coeffs.remainder_t, ("t0", 2, 1), ("t0", 1, 1), ValueError, "k in 2..7"),
    row("coeffs.s2star_general_f.pole", coeffs.s2star_general_f, (3, 3, 1, Fraction(-5, 2)), (3, 3, 1, -2),
        ZeroDivisionError, "f(2) = 0"),
    # harmonic: k, n, j >= 0 (n >= 1 for npow_inverse and harmonic_rec_corollary)
    row("harmonic.npow_inverse", npow_inverse, (1, 2), (0, 2), ValueError, "n >= 1"),
    row("harmonic.harmonic_rec_corollary", harmonic_rec_corollary, (1, 2, 1), (0, 2, 1), ValueError, "n >= 1"),
    row("harmonic.harmonic_via_rec", harmonic_via_rec, (0, 2), (-1, 2), ValueError, "n >= 0"),
    row("harmonic.harmonic_binomial_form", harmonic_binomial_form, (0, 2), (-1, 2), ValueError, "n >= 0"),
    row("harmonic.harmonic_powers_of_n", harmonic_powers_of_n, (0, 2), (-1, 2), ValueError, "n >= 0"),
    row("harmonic.exp_harmonic_conv", exp_harmonic_conv, (1, 0), (1, -1), ValueError, "j >= 0"),
    row("harmonic.exp_harmonic_inv", exp_harmonic_inv, (0, 1), (-1, 1), ValueError, "k >= 0"),
    row("harmonic.s2star_from_hnum_int", s2star_from_hnum_int, (1, 0, 1), (1, -1, 1), ValueError, "j >= 0"),
    # series: TruncSeries' coefficients, inverse, exp and log; the introduction examples [series]
    row("series.coefficients", TruncSeries, ([Fraction(3, 2)],), ([1.5],), TypeError, "int or Fraction"),
    row("series.inverse", _series("inverse"), (1, 1), (0, 1), ZeroDivisionError, "zero constant term"),
    row("series.exp", _series("exp"), (0, 1), (1, 1), ValueError, "zero constant term"),
    row("series.log", _series("log"), (1, 1), (2, 1), ValueError, "constant term 1"),
    row("series.intro_example.k", intro_example, ("a", 0, 3), ("a", -1, 3), ValueError, "k >= 0",
        ("series", "--example", "a", "--k", "-1", "--u", "3")),
    row("series.intro_example.u", intro_example, ("a", 1, 1), ("a", 1, 0), ValueError, "u must be >= 1",
        ("series", "--example", "a", "--k", "1", "--u", "0")),
    # special: li_new_series (s, J >= 1; |z| < 1 or |z/(1-z)| < 1; the 10^7-term cap) [polylog]
    row("special.li_new_series.s", special.li_new_series, (1, 0.5, 400), (0, 0.5, 400), ValueError, "s >= 1",
        ("polylog", "--s", "0", "--z", "1/2")),
    row("special.li_new_series.J", special.li_new_series, (2, 0.5, 1), (2, 0.5, 0), ValueError, "J >= 1",
        ("polylog", "--s", "2", "--z", "1/2", "--terms", "0")),
    row("special.li_new_series.z", special.li_new_series, (2, 0.99, 400), (2, 1.0000001, 400), ValueError,
        "|z/(1-z)| >= 1 and |z| >= 1", ("polylog", "--s", "2", "--z", "2")),
    row("special.li_new_series.cap", special.li_new_series, (2, 0.9999, 400), (2, 0.999999999, 400), ValueError,
        "over the cap of 10000000", ("polylog", "--s", "2", "--z", "999999999/1000000000")),
    # the classical series and hurwitz_phi: |z/(1-z)| < 1; hurwitz_phi: alpha > 0 and no pole
    row("special.li_classic_series", special.li_classic_series, (2, 0.49, 100), (2, 0.5, 100), ValueError,
        "|z/(1-z)| >= 1"),
    row("special.hurwitz_phi.z", special.hurwitz_phi, (0.49, 2, 1, 0, 100), (0.5, 2, 1, 0, 100), ValueError,
        "|z/(1-z)| >= 1"),
    row("special.hurwitz_phi.alpha", special.hurwitz_phi, (0.3, 2, 1, 1, 100), (0.3, 2, 0, 1, 100), ValueError,
        "alpha > 0"),
    row("special.hurwitz_phi.pole", special.hurwitz_phi, (0.3, 2, 1, -3, 1), (0.3, 2, 1, -2, 1),
        ZeroDivisionError, "alpha*2 + beta = 0"),
    # zeta_star: s >= 1 [zetastar]
    row("special.zeta_star", special.zeta_star, (1,), (0,), ValueError, "s >= 1", ("zetastar", "--s", "0")),
    # the closed log forms: x not an integer
    row("special.bernoulli_closed_logforms", special.bernoulli_closed_logforms, (2, 0.17), (2, 1.0), ValueError,
        "singular at integer x"),
    # msums: k > 2, d >= 1, n >= 0 [msum]
    row("msums.m_value.k", msums.m_value, (3, 1, 1, "alt"), (2, 1, 1, "alt"), ValueError, "k > 2",
        ("msum", "--k", "2", "--d", "1", "--n", "1")),
    row("msums.m_value.d", msums.m_value, (3, 1, 1, "alt"), (3, 0, 1, "alt"), ValueError, "d >= 1",
        ("msum", "--k", "3", "--d", "0", "--n", "1")),
    row("msums.m_value.n", msums.m_value, (3, 1, 0, "alt"), (3, 1, -1, "alt"), ValueError, "n >= 0",
        ("msum", "--k", "3", "--d", "1", "--n", "-1")),
    # audit: an unknown suite [verify, exit 2]
    row("audit.suite", audit.registered_ids, ("fourier",), ("bad",), KeyError, "unknown suite 'bad'",
        ("verify", "--suite", "bad"), 2),
]


@pytest.mark.parametrize("function, inside, outside, error, bound, argv, code", ROWS)
def test_domain_sentence_is_a_boundary(capsys, function, inside, outside, error, bound, argv, code):
    assert function(*inside) is not None
    with pytest.raises(error, match=re.escape(bound)):
        function(*outside)
    if argv is not None:
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

