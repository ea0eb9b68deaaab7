"""The ``msums`` verification suite: the remainder-term sums as printed,
report-only but for one documented discrepancy.  Loaded by :mod:`audit`
by name, when the suite is built."""

from __future__ import annotations

from fractions import Fraction

from . import msums
from .audit import IdentitySpec, _grid
from .powerseries import TruncSeries


def build() -> list:
    def def_vs_alt(k, d, n, reading):
        spec = msums.MSumSpec(k, d, n, reading)
        return msums.m_def(spec), msums.m_alt(spec)

    def discrepancy(k, d, n):
        # the three documented values at k = 3, d = 1, n = 1, compared as one vector
        got = [
            msums.m_alt(msums.MSumSpec(k, d, n)),
            msums.m_def(msums.MSumSpec(k, d, n, "unsigned")),
            msums.m_recurrence_residual(k, d, n, "alt"),
        ]
        return TruncSeries(got), TruncSeries([Fraction(-1), Fraction(1), Fraction(-191, 32)])

    almost_linear = dict(k=(5, 6, 7), n=(0, 1, 2, 3), source=("def_unsigned", "alt"))
    return [
        IdentitySpec(
            "msums.def_vs_alt",
            _grid(k=range(4, 9), d=range(1, 5), n=range(0, 13), reading=("unsigned", "signed")),
            def_vs_alt, assert_pass=False,
        ),
        IdentitySpec(
            "msums.recurrence",
            _grid(k=(3, 4, 5), d=(1, 2, 3), n=range(0, 7), source=("def_unsigned", "def_signed", "alt")),
            lambda k, d, n, source: (msums.m_recurrence_residual(k, d, n, source), 0),
            assert_pass=False,
        ),
        IdentitySpec(
            # only the sixth display has the free constant m
            "msum_almost_linear",
            _grid(which=range(1, 6), **almost_linear) + _grid(which=(6,), **almost_linear, m=("0",)),
            msums.almost_linear_sides, assert_pass=False,
        ),
        IdentitySpec(
            "msum_general_relation",
            (
                {"family": 1, "coeffs": "0", "d": "1", "k": 5, "n": 2, "source": "alt"},
                {"family": 1, "coeffs": "1", "d": "2", "k": 6, "n": 3, "source": "def_unsigned"},
                {"family": 2, "coeffs": "0,0", "d": "1", "k": 5, "n": 2, "source": "alt"},
                {"family": 2, "coeffs": "1,-1", "d": "1", "k": 6, "n": 2, "source": "alt"},
                {"family": 3, "coeffs": "1,-1,0", "d": "2", "k": 6, "n": 3, "source": "alt"},
            ),
            lambda coeffs, **rest: msums.general_relation_sides(coeffs=coeffs.split(","), **rest),
            assert_pass=False,
        ),
        IdentitySpec("msums.documented_discrepancy", _grid(k=(3,), d=(1,), n=(1,)), discrepancy),
    ]
