"""The argument checks of the public functions that no domain row or
identity test reaches: a variant, selector, format or order outside the
set a function serves is refused with ValueError and a message naming
that set."""

from fractions import Fraction

import pytest

from zetaseries import exactnum, reports, series, special
from zetaseries.harmonic import harmonic_rec_corollary, s2star_from_hnum_int, s2star_from_hnum_real
from zetaseries.powerseries import TruncSeries

_SERIES = TruncSeries([Fraction(1), Fraction(1, 2), Fraction(1, 3)])


def check(id, function, args, fragment, error=ValueError):
    return pytest.param(function, args, error, fragment, id=id)


CHECKS = [
    check("exactnum.root_of_unity", exactnum.root_of_unity, (0, 1), "a >= 1"),
    check("harmonic.s2star_from_hnum_int", s2star_from_hnum_int, (3, 2, 3), "variant must be 1 or 2"),
    check("harmonic.s2star_from_hnum_real", s2star_from_hnum_real, (3, 2, 0.5, 3), "variant must be 1 or 2"),
    check("harmonic.harmonic_rec_corollary.r", harmonic_rec_corollary, (3, 2, 3, 2.0), "0 <= r < k"),
    check("harmonic.harmonic_rec_corollary.which", harmonic_rec_corollary, (3, 2, 4), "which must be 1, 2, or 3"),
    check("powerseries.TruncSeries", TruncSeries, ([],), "at least the constant coefficient"),
    check("reports.render", reports.render, (["k"], [["1"]], "json"), "csv or markdown"),
    check("series.transform_zeta", series.transform_zeta, (TruncSeries([Fraction(1)]), 2), "order >= 1"),
    check("series.multisection", series.multisection, (_SERIES, 1, 0), "a >= 2"),
    check("series.dilog_functional_eq_sides", series.dilog_functional_eq_sides, (0,), "order must be >= 1"),
    check("special.zeta_ref", special.zeta_ref, (1,), "s >= 2"),
    check("special.li_direct_sum", special.li_direct_sum, (2, 1.0, 10), "|z| < 1"),
    check("special.zeta_star_harmonic_form", special.zeta_star_harmonic_form, (5,), "s in 1..4"),
    check("special.zeta_star_euler_form", special.zeta_star_euler_form, (2,), "s in 3..5"),
    check("special.bernoulli_fourier", special.bernoulli_fourier, (0, 0.3), "order >= 1"),
    check("special.bernoulli_closed_logforms", special.bernoulli_closed_logforms, (3, 0.3), "orders 1 and 2"),
]


@pytest.mark.parametrize("function, args, error, fragment", CHECKS)
def test_argument_check(function, args, error, fragment):
    with pytest.raises(error) as raised:
        function(*args)
    assert fragment in str(raised.value)

