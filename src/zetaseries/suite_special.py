"""The ``special`` verification suite: the polylogarithm routes, the
alternating zeta forms, the trilog functional equation and the Lerch-style
sum.  Loaded by :mod:`audit` by name, when the suite is built; each build
reads the functions and the trilog tolerance through :mod:`special`."""

from __future__ import annotations

import math

from . import special
from .audit import IdentitySpec, _grid
from .harmonicnums import _double_cells


def build() -> list:
    J = 400

    def three_way(s, z):
        routes = (special.li_new_series, special.li_classic_series, special.li_direct_sum)
        v1, v2, v3 = (route(s, z, J).value for route in routes)
        return max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)), 0.0

    def closed(s):
        return special.zeta_star(s, method="closed")

    def euler4_printed(s):
        total = math.log(2) ** 4 / 24
        for j, (h1, h2, h3) in _double_cells((1, 2, 3), 200):
            total += (h1**2 * h2 + h1 * h3) / 2.0 ** (j + 2)
        return total, closed(s)

    def trilog_printed(z):
        # the printed closing sign, -zeta(3) in place of +zeta(3)
        lhs, rhs = special.trilog_functional_eq_sides(z, J)
        return lhs, rhs - 2 * special.zeta_ref(3)

    def hurwitz(z, s, alpha, beta):
        got = special.hurwitz_phi(z, s, alpha, beta, 200).value
        direct = 0.0
        for n in range(1, 400):  # left to right: sum() compensates since Python 3.12
            direct += z**n / (alpha * n + beta) ** s
        return got, direct

    return [
        IdentitySpec(
            "special.li_three_way", _grid(s=range(1, 6), z=(-0.8, -0.5, -0.1, 0.2, 0.4)),
            three_way, tolerance=1e-10,
        ),
        IdentitySpec(
            "special.zeta_star_series", _grid(s=range(1, 7)),
            lambda s: (special.zeta_star(s, 120, "series"), closed(s)), tolerance=1e-8,
        ),
        IdentitySpec(
            "special.zeta_star_harmonic_form", _grid(s=range(1, 5)),
            lambda s: (special.zeta_star_harmonic_form(s, 120), closed(s)), tolerance=1e-8,
        ),
        IdentitySpec(
            "special.zeta_star_euler_form", _grid(s=(3, 4, 5)),
            lambda s: (special.zeta_star_euler_form(s, 200), closed(s)), tolerance=5e-6,
        ),
        IdentitySpec(
            "special.euler_form_s4_printed", _grid(s=(4,)), euler4_printed, tolerance=5e-6, assert_pass=False
        ),
        IdentitySpec(
            "special.trilog_functional_eq", _grid(z=(-0.5, -0.1, -0.9), J=(J,)),
            special.trilog_functional_eq_sides, tolerance=special._TRILOG_TOLERANCE,
        ),
        IdentitySpec(
            "special.trilog_printed_sign", _grid(z=(-0.5,)), trilog_printed,
            tolerance=special._TRILOG_TOLERANCE, assert_pass=False,
        ),
        IdentitySpec(
            "special.hurwitz_direct",
            (
                {"z": 0.4, "s": 2, "alpha": 1, "beta": 0},
                {"z": -0.5, "s": 1, "alpha": 2, "beta": 1},
                {"z": 0.3, "s": 3, "alpha": 3, "beta": 2},
            ),
            hurwitz, tolerance=1e-9,
        ),
    ]
