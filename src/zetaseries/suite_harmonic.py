"""The ``harmonic`` verification suite: the harmonic-number identities of
:mod:`zetaseries.harmonic` against the exact harmonic numbers.  Loaded by
:mod:`audit` by name, when the suite is built."""

from __future__ import annotations

from fractions import Fraction

from .audit import IdentitySpec, _grid
from .coeffs import s2star_rec
from .exactnum import factorial
from .harmonic import (
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
from .harmonicnums import _doubles, harmonic
from .stirling import npow_forward


def build() -> list:
    j_grid = range(1, 21)

    def hnum_real(k, j, r, variant):
        if r == 0.0:
            return s2star_from_hnum_real(k, j, 0.0, variant), float(s2star_rec(k + 2, j))
        return s2star_from_hnum_real(k, j, r, 1), s2star_from_hnum_real(k, j, r, 2)

    exp_points = _grid(k=range(0, 6), j=j_grid)
    form_points = _grid(n=range(0, 21), k=range(1, 6))
    return [
        IdentitySpec(
            "harmonic.npow_inverse", _grid(n=range(1, 26), k=range(1, 9)),
            lambda n, k: (npow_inverse(n, k), Fraction(1, n**k)),
        ),
        IdentitySpec(
            "harmonic.npow_forward", _grid(n=range(1, 21), k=range(0, 9)),
            lambda n, k: (npow_forward(n, k), Fraction(n**k)),
        ),
        IdentitySpec(
            "harmonic.via_rec", _grid(n=range(0, 16), k=range(1, 6)),
            lambda n, k: (harmonic_via_rec(n, k), harmonic(n, k)),
        ),
        IdentitySpec(
            "harmonic.hnum_int", _grid(k=range(1, 7), j=j_grid, variant=(1, 2)),
            lambda k, j, variant: (s2star_from_hnum_int(k, j, variant), s2star_rec(k + 2, j)),
        ),
        IdentitySpec(
            "harmonic.hnum_real", _grid(k=(2, 3), j=range(1, 13), r=(0.0, 0.25, 0.5), variant=(1,)),
            hnum_real, tolerance=1e-12,
        ),
        IdentitySpec(
            "harmonic.exp_conv", exp_points, lambda k, j: (exp_harmonic_conv(k, j) * j, s2star_rec(k + 2, j))
        ),
        IdentitySpec(
            "harmonic.exp_inv", exp_points,
            lambda k, j: (exp_harmonic_inv(k, j), harmonic(j, k + 1) / factorial(j)),
        ),
        IdentitySpec(
            "harmonic.rec_corollary_exact", _grid(n=range(1, 13), k=range(1, 6), which=(1, 2)),
            lambda n, k, which: (harmonic_rec_corollary(n, k, which), harmonic(n, k)),
        ),
        IdentitySpec(
            "harmonic.rec_corollary_real", _grid(n=range(1, 13), k=(2, 3), r=(0.0, 0.25, 0.5)),
            lambda n, k, r: (float(harmonic_rec_corollary(n, k, 3, r=r)), _doubles(k)[n]),
            tolerance=1e-9,
        ),
        IdentitySpec(
            "harmonic.binomial_form", form_points, lambda n, k: (harmonic_binomial_form(n, k), harmonic(n, k))
        ),
        IdentitySpec(
            "harmonic.powers_of_n", form_points, lambda n, k: (harmonic_powers_of_n(n, k), harmonic(n, k))
        ),
    ]
