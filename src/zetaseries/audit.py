"""Identity registry and verification runner.

Every identity the library claims is registered here as an
:class:`IdentitySpec` inside one of six suites (core, harmonic, series,
special, msums, fourier): an id, its points, a ``sides`` function
called with a point's parameters by name, ``sides(**point)``, that
returns the identity's two sides, and a tolerance (``None`` compares
exactly, coefficientwise for truncated series).  Each suite's points
are fixed, and every product of parameter ranges is built by ``_grid``.
``run_suite`` sweeps them in one pass and returns a deterministic,
sorted list of :class:`IdentityReport` records, each built by
``reports.compare`` under its spec's id; ``emit_report`` serializes
them byte-stably as JSON, or through ``reports.render`` as CSV or
markdown.

Specs carry an ``assert_pass`` flag: suites that document known-broken
printed forms (all of msums, plus the *_printed variants elsewhere) are
report-only and never fail the verification exit code.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from . import msums, special
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
from .exactnum import factorial, parse_rational
from .harmonic import (
    exp_harmonic_conv,
    exp_harmonic_inv,
    harmonic,
    harmonic_binomial_form,
    harmonic_powers_of_n,
    harmonic_rec_corollary,
    harmonic_t,
    harmonic_via_rec,
    npow_forward,
    npow_inverse,
    s2star_from_hnum_int,
    s2star_from_hnum_real,
)
from .harmonicnums import _double_cells, _doubles
from .reports import IdentityReport, compare, render
from .series import (
    TruncSeries,
    dilog_functional_eq_sides,
    exp_harmonic_series,
    intro_example,
    multisection,
    stirling1_egf_check,
    transform_forward,
    transform_zeta,
)
from .stirling import bernoulli_poly

__all__ = [
    "IdentitySpec",
    "IdentityReport",
    "suite_names",
    "registered_ids",
    "assert_ids",
    "run_suite",
    "suite_passes",
    "emit_report",
    "TABLE1",
    "TABLE2",
]


class IdentitySpec(NamedTuple):
    id: str
    points: Tuple[dict, ...]  # parameter name -> value; products of ranges come from _grid
    sides: Callable[..., tuple]  # sides(**point) -> (lhs, rhs): the point's parameters by name
    tolerance: Optional[float] = None  # None: exact
    assert_pass: bool = True

    def evaluate(self, point: dict) -> IdentityReport:
        return compare(self.id, point, *self.sides(**point), self.tolerance)


# ---------------------------------------------------------------------
# frozen reference tables (coefficients and their scaled companions,
# rows k = 0..6, columns j = 0..8)
# ---------------------------------------------------------------------

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


# ---------------------------------------------------------------------
# suite builders
# ---------------------------------------------------------------------


def _grid(**axes) -> tuple:
    """Every combination of the axes' values as a point, last axis fastest."""
    return tuple(dict(zip(axes, values)) for values in itertools.product(*axes.values()))


def _suite_core() -> list:
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


def _suite_harmonic() -> list:
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


_INTRO_DIRECT = {
    "a": lambda n, k, t, r: Fraction(1, n**k),
    "b": lambda n, k, t, r: Fraction(1, n**k * factorial(n)),
    "c": lambda n, k, t, r: harmonic(n, k),
    "d": lambda n, k, t, r: harmonic_t(n, k, t),
    "e": lambda n, k, t, r: sum((Fraction(r) ** m / (m**k * factorial(m)) for m in range(1, n + 1)), Fraction(0)),
    "f": lambda n, k, t, r: harmonic(n, k) / factorial(n),
}


def _make_gf(name: str, order: int) -> Tuple[TruncSeries, Callable[[int], Fraction]]:
    if name == "geometric":
        return TruncSeries.geometric(1, order), lambda n: Fraction(1)
    if name == "geometric_sq":
        g = TruncSeries.geometric(1, order)
        return g * g, lambda n: Fraction(n + 1)
    if name == "exp":
        return TruncSeries.exp_z(order), lambda n: Fraction(1, factorial(n))
    if name == "li2_over_1mz":
        g = TruncSeries.polylog(2, order) * TruncSeries.geometric(1, order)
        return g, lambda n: sum((Fraction(1, m**2) for m in range(1, n + 1)), Fraction(0))
    raise ValueError(f"unknown generating function {name!r}")


def _suite_series() -> list:
    def transform(gf, k, order):
        G, g_of = _make_gf(gf, order)
        want = TruncSeries([Fraction(0)] + [g_of(n) / Fraction(n**k) for n in range(1, order + 1)])
        return transform_zeta(G, k), want

    def round_trip(gf, k, order):
        G, _ = _make_gf(gf, order)
        back = transform_forward(transform_zeta(G, k), k)
        return back, TruncSeries([Fraction(0)] + [G.coeff(n) for n in range(1, order + 1)])

    def intro(id, k, u, t=None, r=None):
        t, r = (None if v is None else parse_rational(v) for v in (t, r))
        direct = _INTRO_DIRECT[id]
        want = TruncSeries([Fraction(0)] + [direct(n, k, t, r) for n in range(1, u + 1)])
        return intro_example(id, k, u, t=t, r=r), want

    def progression(a, b, s, u):
        got = intro_example("g", s, u, a=a, b=b)
        worst = abs(got[0] - ((1.0 / b**s) if b > 0 else 0.0))
        for n in range(1, u + 1):
            worst = max(worst, abs(got[n] - 1.0 / (a * n + b) ** s))
        return worst, 0.0

    def multisection_error(a, b, order):
        F = TruncSeries([Fraction(n + 1) for n in range(order + 1)])
        got = multisection(F, a, b)
        return max(abs(got[n] - (float(F.coeff(n)) if n % a == b else 0.0)) for n in range(order + 1)), 0.0

    def exp_log(order):
        S = TruncSeries([Fraction(1)] + [Fraction((-1) ** n * (n + 2), 2 * n + 1) for n in range(1, order + 1)])
        return S.log().exp(), S

    def egf_printed(k, order):
        lhs, rhs = stirling1_egf_check(k, order)
        return lhs, rhs.scale(Fraction((-1) ** k))

    def h1_egf(order):
        h1 = TruncSeries([harmonic(n, 1) / factorial(n) for n in range(order + 1)])
        exp_neg = TruncSeries([Fraction(0)] + [Fraction(-1)] + [Fraction(0)] * (order - 1)).exp()
        rhs = TruncSeries([Fraction(0)] + [-Fraction((-1) ** n, factorial(n) * n) for n in range(1, order + 1)])
        return h1 * exp_neg, rhs

    ks, u = (1, 2, 3), (12,)
    intro_points = _grid(id="abcf", k=ks, u=u) + _grid(id="d", k=ks, u=u, t=("1/3", "-2"))
    intro_points += _grid(id="e", k=ks, u=u, r=("1/2", "3"))
    return [
        IdentitySpec(
            "series.transform_zeta",
            _grid(gf=("geometric", "geometric_sq", "exp", "li2_over_1mz"), k=ks, order=(30,)),
            transform,
        ),
        IdentitySpec("series.round_trip", _grid(gf=("geometric", "exp"), k=(1, 2), order=(20,)), round_trip),
        IdentitySpec("series.intro_exact", intro_points, intro),
        IdentitySpec(
            "series.intro_progression",
            sum((_grid(a=(a,), b=range(a), s=(1, 2), u=u) for a in (2, 3, 4)), ()),
            progression, tolerance=1e-10,
        ),
        IdentitySpec(
            # b = 1 and b = a - 1 coincide at a = 2, so that point is checked twice
            "series.multisection",
            sum((_grid(a=(a,), b=(0, 1, a - 1), order=(64,)) for a in range(2, 9)), ()),
            multisection_error, tolerance=1e-10,
        ),
        IdentitySpec("series.exp_log_roundtrip", _grid(order=(15,)), exp_log),
        IdentitySpec("series.stirling1_egf", _grid(k=range(0, 5), order=(12,)), stirling1_egf_check),
        IdentitySpec("series.stirling1_egf_printed_sign", _grid(k=ks, order=(8,)), egf_printed, assert_pass=False),
        IdentitySpec("series.dilog_functional_eq", _grid(order=(10, 40)), dilog_functional_eq_sides),
        IdentitySpec(
            "series.exp_harmonic", _grid(k=ks, order=(20,)),
            lambda k, order: (
                exp_harmonic_series(k, order),
                TruncSeries([harmonic(n, k) / factorial(n) for n in range(order + 1)]),
            ),
        ),
        IdentitySpec("series.h1_egf", _grid(order=(20,)), h1_egf),
    ]


def _suite_special() -> list:
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


def _bernoulli_oracle(order: int, x: float) -> float:
    frac = Fraction(x).limit_denominator(10**6) % 1
    return float(bernoulli_poly(order, frac)) / factorial(order)


def _suite_fourier() -> list:
    def convergence(order, x):
        oracle = _bernoulli_oracle(order, x)
        devs = [abs(special.bernoulli_fourier(order, x, J) - oracle) for J in (20, 40, 80)]
        return max(0.0, devs[1] - 1.1 * devs[0]) + max(0.0, devs[2] - 1.1 * devs[1]), 0.0

    def closed_logforms(order, x):
        value = special.bernoulli_closed_logforms(order, x)
        # the closed forms are real: an imaginary part beyond rounding fails at any tolerance
        if abs(value.imag) > 1e-9:
            return value, math.inf
        return value.real, _bernoulli_oracle(order, x)

    def printed(order, x):
        # the displayed bracket series: coefficient series without the j!
        # factor, summed at E = e^{2 pi i (x-1/2)} and its conjugate
        E = cmath.exp(2j * math.pi * (x - 0.5))
        total = 0j
        for j in range(1, 61):
            plus = E**j / (1 + E) ** (j + 1)
            minus = (1 / E) ** j / (1 + 1 / E) ** (j + 1)
            total += complex(s2star_rec(order + 2, j)) * (plus + minus if order % 2 == 0 else plus - minus)
        if order % 2 == 0:
            value = ((-1) ** (order // 2) / (2 * math.pi) ** order) * total
        else:
            value = ((-1) ** ((order - 1) // 2) / ((2 * math.pi) ** order * 1j)) * total
        return value.real, _bernoulli_oracle(order, x)

    return [
        IdentitySpec(
            "fourier.b1_value", _grid(x=(1.25,), J=(60,)),
            lambda x, J: (special.bernoulli_fourier(1, x, J), -0.25), tolerance=1e-6,
        ),
        IdentitySpec(
            "fourier.series_vs_poly", _grid(order=(1, 2, 3), x=(0.25, 1.25, 2.75), J=(60,)),
            lambda order, x, J: (special.bernoulli_fourier(order, x, J), _bernoulli_oracle(order, x)),
            tolerance=1e-5,
        ),
        IdentitySpec("fourier.convergence", _grid(order=(1, 2, 3), x=(0.2, 1.25, 2.75)), convergence, tolerance=0.0),
        IdentitySpec(
            "fourier.closed_logforms", _grid(order=(1, 2), x=(0.25, 0.3, 0.75)), closed_logforms, tolerance=1e-8
        ),
        IdentitySpec(
            "fourier.printed_series_reading", _grid(order=(1, 2), x=(0.25,)),
            printed, tolerance=1e-5, assert_pass=False,
        ),
    ]


def _suite_msums() -> list:
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


_SUITES = {
    "core": _suite_core,
    "harmonic": _suite_harmonic,
    "series": _suite_series,
    "special": _suite_special,
    "msums": _suite_msums,
    "fourier": _suite_fourier,
}


def suite_names() -> tuple:
    return tuple(sorted(_SUITES))


def _build(name: str) -> list:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    return _SUITES[name]()


def registered_ids(name: str) -> tuple:
    return tuple(spec.id for spec in _build(name))


def assert_ids(name: str) -> frozenset:
    return frozenset(spec.id for spec in _build(name) if spec.assert_pass)


def run_suite(name: str) -> list:
    """Evaluate every grid point of every identity in the suite, in one
    sequential sweep; the report list is sorted by (id, params)."""
    reports = (spec.evaluate(point) for spec in _build(name) for point in spec.points)
    return sorted(reports, key=IdentityReport.sort_key)


def suite_passes(name: str, reports: Sequence[IdentityReport]) -> bool:
    """Exit-code policy: only identities registered with assert_pass can
    fail a suite; report-only identities never do."""
    asserted = assert_ids(name)
    return all(r.passed for r in reports if r.id in asserted)


def emit_report(reports: Sequence[IdentityReport], format: str = "json") -> str:
    if format == "json":
        payload = [
            {
                "id": r.id,
                "params": {k: v for k, v in r.params},
                "status": r.status,
                "residual": r.residual,
                "witness": list(r.witness) if r.witness else None,
            }
            for r in reports
        ]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if format in ("csv", "markdown"):
        rows = ([r.id, ";".join(f"{k}={v}" for k, v in r.params), r.status, str(r.residual)] for r in reports)
        return render(["id", "params", "status", "residual"], rows, format)
    raise ValueError("format must be json, csv, or markdown")
