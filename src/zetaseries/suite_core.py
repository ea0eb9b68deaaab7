"""The ``core`` verification suite: the c* coefficient routes against the
recurrence, and the paper's Tables 1-3, which this module holds.  Loaded
by :mod:`audit` by name, when the suite is built."""

from __future__ import annotations

from fractions import Fraction

from .audit import IdentitySpec, _grid
from .coeffs import (
    remainder_t,
    s2star_harmonic,
    s2star_heuristic,
    s2star_ogf_coeff,
    s2star_rec,
    s2star_reverse_binomial,
    s2star_scaled,
    s2star_sum,
)
from .harmonicnums import harmonic

# the paper's Tables 1 and 2 as printed: c*(k, j) and its scaled
# companion, rows k = 0..6, columns j = 0..8
_F = Fraction

TABLE1 = {
    0: [1, 0, 0, 0, 0, 0, 0, 0, 0],
    1: [0, 1, 0, 0, 0, 0, 0, 0, 0],
    2: [0, 1, _F(-1, 2), _F(1, 6), _F(-1, 24), _F(1, 120), _F(-1, 720), _F(1, 5040), _F(-1, 40320)],
    3: [0, 1, _F(-3, 4), _F(11, 36), _F(-25, 288), _F(137, 7200), _F(-49, 14400), _F(121, 235200), _F(-761, 11289600)],
    4: [0, 1, _F(-7, 8), _F(85, 216), _F(-415, 3456), _F(12019, 432000), _F(-13489, 2592000), _F(726301, 889056000), _F(-3144919, 28449792000)],
    5: [0, 1, _F(-15, 16), _F(575, 1296), _F(-5845, 41472), _F(874853, 25920000), _F(-336581, 51840000), _F(129973303, 124467840000), _F(-1149858589, 7965941760000)],
    6: [0, 1, _F(-31, 32), _F(3661, 7776), _F(-76111, 497664), _F(58067611, 1555200000), _F(-68165041, 9331200000), _F(187059457981, 156829478400000), _F(-3355156783231, 20074173235200000)],
}

TABLE2 = {
    0: [1, 0, 0, 0, 0, 0, 0, 0, 0],
    1: [0, 1, 0, 0, 0, 0, 0, 0, 0],
    2: [0, 1, 1, 1, 1, 1, 1, 1, 1],
    3: [0, 1, _F(3, 2), _F(11, 6), _F(25, 12), _F(137, 60), _F(49, 20), _F(363, 140), _F(761, 280)],
    4: [0, 1, _F(7, 4), _F(85, 36), _F(415, 144), _F(12019, 3600), _F(13489, 3600), _F(726301, 176400), _F(3144919, 705600)],
    5: [0, 1, _F(15, 8), _F(575, 216), _F(5845, 1728), _F(874853, 216000), _F(336581, 72000), _F(129973303, 24696000), _F(1149858589, 197568000)],
    6: [0, 1, _F(31, 16), _F(3661, 1296), _F(76111, 20736), _F(58067611, 12960000), _F(68165041, 12960000), _F(187059457981, 31116960000), _F(3355156783231, 497871360000)],
}

_TABLE3_T0 = {
    2: lambda h: _F(0),
    3: lambda h: _F(0),
    4: lambda h: h[2],
    5: lambda h: h[1] * h[2],
    6: lambda h: (h[1] ** 2 * h[2] + h[4]) / 2,
    7: lambda h: (h[1] ** 3 * h[2] + 2 * h[2] * h[3] + 3 * h[1] * h[4]) / 6,
}

_TABLE3_T1 = {
    2: lambda h: _F(2),
    3: lambda h: 2 * h[1],
    4: lambda h: h[1] ** 2,
    5: lambda h: (h[1] ** 3 + 2 * h[3]) / 3,
    6: lambda h: (h[1] ** 4 + 3 * h[2] ** 2 + 8 * h[1] * h[3]) / 12,
    7: lambda h: (h[1] ** 5 + 15 * h[1] * h[2] ** 2 + 20 * h[1] ** 2 * h[3] + 24 * h[5]) / 60,
}


def table3_expression(variant: str, k: int, j: int) -> Fraction:
    """The displayed harmonic-polynomial remainder expressions, k = 2..7."""
    h = {r: harmonic(j, r) for r in range(1, 6)}
    table = _TABLE3_T0 if variant == "t0" else _TABLE3_T1
    return table[k](h)


def build() -> list:
    j_grid = range(1, 26)

    def sign(k, j):
        value = s2star_rec(k, j)
        return (value > 0) - (value < 0), (-1) ** (j - 1)

    return [
        IdentitySpec(
            "core.rec_vs_sum", _grid(k=range(2, 11), j=j_grid), lambda k, j: (s2star_rec(k, j), s2star_sum(k, j))
        ),
        IdentitySpec(
            "core.rec_vs_harmonic", _grid(k=range(2, 7), j=j_grid),
            lambda k, j: (s2star_rec(k, j), s2star_harmonic(k, j)),
        ),
        IdentitySpec(
            "core.rec_vs_ogf", _grid(k=range(0, 9), j=range(1, 9)),
            lambda k, j: (s2star_rec(k, j), s2star_ogf_coeff(k, j)),
        ),
        IdentitySpec(
            "core.rec_vs_heuristic", _grid(k=range(0, 9), j=j_grid),
            lambda k, j: (s2star_rec(k + 2, j), s2star_heuristic(k, j)),
        ),
        IdentitySpec(
            "core.rec_vs_reverse_binomial", _grid(k=range(0, 7), j=range(1, 13)),
            lambda k, j: (s2star_rec(k + 2, j), s2star_reverse_binomial(k, j)),
        ),
        IdentitySpec(
            "core.table1", _grid(k=range(0, 7), j=range(0, 9)), lambda k, j: (s2star_rec(k, j), TABLE1[k][j])
        ),
        IdentitySpec(
            "core.table2", _grid(k=range(0, 7), j=range(1, 9)), lambda k, j: (s2star_scaled(k, j), TABLE2[k][j])
        ),
        IdentitySpec(
            "core.table3_remainder", _grid(variant=("t0", "t1"), k=range(2, 8), j=range(1, 21)),
            lambda variant, k, j: (remainder_t(variant, k, j), table3_expression(variant, k, j)),
        ),
        IdentitySpec("core.sign_pattern", _grid(k=range(2, 9), j=j_grid), sign),
    ]
