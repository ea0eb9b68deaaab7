"""The ``core`` verification suite: the c* coefficient routes against the
recurrence, and the paper's Tables 1-3.  Loaded by :mod:`audit` by name,
when the suite is built."""

from __future__ import annotations

from .audit import TABLE1, TABLE2, IdentitySpec, _grid, table3_expression
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
