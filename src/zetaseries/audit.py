"""Identity registry and verification runner.

Every identity the library claims is registered here as an
:class:`IdentitySpec` inside one of six suites (core, harmonic, series,
special, msums, fourier): an id, a grid of points, a ``sides`` function
giving the identity's two sides at a point, and a tolerance (``None``
compares exactly, coefficientwise for truncated series).  Each suite's
grids are fixed.  ``run_suite`` sweeps them in one pass and returns a
deterministic, sorted list of :class:`IdentityReport` records, each
built by ``reports.compare`` under its spec's id; ``emit_report``
serializes them byte-stably as JSON, or through ``reports.render`` as
CSV or markdown.

Specs carry an ``assert_pass`` flag: suites that document known-broken
printed forms (all of msums, plus the *_printed variants elsewhere) are
report-only and never fail the verification exit code.
"""

from __future__ import annotations

import cmath
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
    points: Tuple[dict, ...]
    sides: Callable[[dict], tuple]  # point -> (lhs, rhs)
    tolerance: Optional[float] = None  # None: exact
    assert_pass: bool = True

    def evaluate(self, point: dict) -> IdentityReport:
        return compare(self.id, point, *self.sides(point), self.tolerance)


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


def _suite_core() -> list:
    j_grid = range(1, 26)

    def grid(ks, js):
        return tuple({"k": k, "j": j} for k in ks for j in js)

    def sign(p):
        value = s2star_rec(p["k"], p["j"])
        return (value > 0) - (value < 0), (-1) ** (p["j"] - 1)

    return [
        IdentitySpec(
            "core.rec_vs_sum", grid(range(2, 11), j_grid),
            lambda p: (s2star_rec(p["k"], p["j"]), s2star_sum(p["k"], p["j"])),
        ),
        IdentitySpec(
            "core.rec_vs_harmonic", grid(range(2, 7), j_grid),
            lambda p: (s2star_rec(p["k"], p["j"]), s2star_harmonic(p["k"], p["j"])),
        ),
        IdentitySpec(
            "core.rec_vs_ogf", grid(range(0, 9), range(1, 9)),
            lambda p: (s2star_rec(p["k"], p["j"]), s2star_ogf_coeff(p["k"], p["j"])),
        ),
        IdentitySpec(
            "core.rec_vs_heuristic", grid(range(0, 9), j_grid),
            lambda p: (s2star_rec(p["k"] + 2, p["j"]), s2star_heuristic(p["k"], p["j"])),
        ),
        IdentitySpec(
            "core.rec_vs_reverse_binomial", grid(range(0, 7), range(1, 13)),
            lambda p: (s2star_rec(p["k"] + 2, p["j"]), s2star_reverse_binomial(p["k"], p["j"])),
        ),
        IdentitySpec(
            "core.table1", grid(range(0, 7), range(0, 9)),
            lambda p: (s2star_rec(p["k"], p["j"]), TABLE1[p["k"]][p["j"]]),
        ),
        IdentitySpec(
            "core.table2", grid(range(0, 7), range(1, 9)),
            lambda p: (s2star_scaled(p["k"], p["j"]), TABLE2[p["k"]][p["j"]]),
        ),
        IdentitySpec(
            "core.table3_remainder",
            tuple({"variant": v, "k": k, "j": j} for v in ("t0", "t1") for k in range(2, 8)
                  for j in range(1, 21)),
            lambda p: (remainder_t(p["variant"], p["k"], p["j"]), table3_expression(p["variant"], p["k"], p["j"])),
        ),
        IdentitySpec("core.sign_pattern", grid(range(2, 9), j_grid), sign),
    ]


def _suite_harmonic() -> list:
    j_grid = range(1, 21)

    def hnum_real(p):
        k, j, r = p["k"], p["j"], p["r"]
        if r == 0.0:
            return s2star_from_hnum_real(k, j, 0.0, p["variant"]), float(s2star_rec(k + 2, j))
        return s2star_from_hnum_real(k, j, r, 1), s2star_from_hnum_real(k, j, r, 2)

    exp_points = tuple({"k": k, "j": j} for k in range(0, 6) for j in j_grid)
    form_points = tuple({"n": n, "k": k} for n in range(0, 21) for k in range(1, 6))
    return [
        IdentitySpec(
            "harmonic.npow_inverse",
            tuple({"n": n, "k": k} for n in range(1, 26) for k in range(1, 9)),
            lambda p: (npow_inverse(p["n"], p["k"]), Fraction(1, p["n"] ** p["k"])),
        ),
        IdentitySpec(
            "harmonic.npow_forward", tuple({"n": n, "k": k} for n in range(1, 21) for k in range(0, 9)),
            lambda p: (npow_forward(p["n"], p["k"]), Fraction(p["n"] ** p["k"])),
        ),
        IdentitySpec(
            "harmonic.via_rec", tuple({"n": n, "k": k} for n in range(0, 16) for k in range(1, 6)),
            lambda p: (harmonic_via_rec(p["n"], p["k"]), harmonic(p["n"], p["k"])),
        ),
        IdentitySpec(
            "harmonic.hnum_int",
            tuple({"k": k, "j": j, "variant": v} for k in range(1, 7) for j in j_grid for v in (1, 2)),
            lambda p: (s2star_from_hnum_int(p["k"], p["j"], p["variant"]), s2star_rec(p["k"] + 2, p["j"])),
        ),
        IdentitySpec(
            "harmonic.hnum_real",
            tuple({"k": k, "j": j, "r": r, "variant": 1}
                  for k in (2, 3) for j in range(1, 13) for r in (0.0, 0.25, 0.5)),
            hnum_real, tolerance=1e-12,
        ),
        IdentitySpec(
            "harmonic.exp_conv", exp_points,
            lambda p: (exp_harmonic_conv(p["k"], p["j"]) * p["j"], s2star_rec(p["k"] + 2, p["j"])),
        ),
        IdentitySpec(
            "harmonic.exp_inv", exp_points,
            lambda p: (exp_harmonic_inv(p["k"], p["j"]), harmonic(p["j"], p["k"] + 1) / factorial(p["j"])),
        ),
        IdentitySpec(
            "harmonic.rec_corollary_exact",
            tuple({"n": n, "k": k, "which": w}
                  for n in range(1, 13) for k in range(1, 6) for w in (1, 2)),
            lambda p: (harmonic_rec_corollary(p["n"], p["k"], p["which"]), harmonic(p["n"], p["k"])),
        ),
        IdentitySpec(
            "harmonic.rec_corollary_real",
            tuple({"n": n, "k": k, "r": r} for n in range(1, 13) for k in (2, 3) for r in (0.0, 0.25, 0.5)),
            lambda p: (float(harmonic_rec_corollary(p["n"], p["k"], 3, r=p["r"])), float(harmonic(p["n"], p["k"]))),
            tolerance=1e-9,
        ),
        IdentitySpec(
            "harmonic.binomial_form", form_points,
            lambda p: (harmonic_binomial_form(p["n"], p["k"]), harmonic(p["n"], p["k"])),
        ),
        IdentitySpec(
            "harmonic.powers_of_n", form_points,
            lambda p: (harmonic_powers_of_n(p["n"], p["k"]), harmonic(p["n"], p["k"])),
        ),
    ]


_INTRO_DIRECT = {
    "a": lambda n, k, t, r: Fraction(1, n**k),
    "b": lambda n, k, t, r: Fraction(1, n**k * factorial(n)),
    "c": lambda n, k, t, r: harmonic(n, k),
    "d": lambda n, k, t, r: harmonic_t(n, k, t),
    "e": lambda n, k, t, r: sum(
        (Fraction(r) ** m / (m**k * factorial(m)) for m in range(1, n + 1)), Fraction(0)
    ),
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
    def transform(p):
        order = p["order"]
        G, g_of = _make_gf(p["gf"], order)
        want = TruncSeries([Fraction(0)] + [g_of(n) / Fraction(n ** p["k"]) for n in range(1, order + 1)])
        return transform_zeta(G, p["k"]), want

    def round_trip(p):
        order = p["order"]
        G, _ = _make_gf(p["gf"], order)
        back = transform_forward(transform_zeta(G, p["k"]), p["k"])
        return back, TruncSeries([Fraction(0)] + [G.coeff(n) for n in range(1, order + 1)])

    def intro(p):
        t = parse_rational(p["t"]) if "t" in p else None
        r = parse_rational(p["r"]) if "r" in p else None
        direct = _INTRO_DIRECT[p["id"]]
        want = TruncSeries([Fraction(0)] + [direct(n, p["k"], t, r) for n in range(1, p["u"] + 1)])
        return intro_example(p["id"], p["k"], p["u"], t=t, r=r), want

    def progression(p):
        a, b, s, u = p["a"], p["b"], p["s"], p["u"]
        got = intro_example("g", s, u, a=a, b=b)
        worst = abs(got[0] - ((1.0 / b**s) if b > 0 else 0.0))
        for n in range(1, u + 1):
            worst = max(worst, abs(got[n] - 1.0 / (a * n + b) ** s))
        return worst, 0.0

    def multisection_error(p):
        order = p["order"]
        F = TruncSeries([Fraction(n + 1) for n in range(order + 1)])
        got = multisection(F, p["a"], p["b"])
        worst = 0.0
        for n in range(order + 1):
            want = float(F.coeff(n)) if n % p["a"] == p["b"] else 0.0
            worst = max(worst, abs(got[n] - want))
        return worst, 0.0

    def exp_log(p):
        S = TruncSeries([Fraction(1)] + [Fraction((-1) ** n * (n + 2), 2 * n + 1) for n in range(1, p["order"] + 1)])
        return S.log().exp(), S

    def egf_printed(p):
        lhs, rhs = stirling1_egf_check(p["k"], p["order"])
        return lhs, rhs.scale(Fraction((-1) ** p["k"]))

    def h1_egf(p):
        order = p["order"]
        h1 = TruncSeries([harmonic(n, 1) / factorial(n) for n in range(order + 1)])
        exp_neg = TruncSeries([Fraction(0)] + [Fraction(-1)] + [Fraction(0)] * (order - 1)).exp()
        rhs = TruncSeries([Fraction(0)] + [-Fraction((-1) ** n, factorial(n) * n) for n in range(1, order + 1)])
        return h1 * exp_neg, rhs

    u = 12
    intro_points = []
    for k in (1, 2, 3):
        intro_points += [{"id": e, "k": k, "u": u} for e in "abcf"]
        intro_points += [{"id": "d", "k": k, "u": u, "t": "1/3"}, {"id": "d", "k": k, "u": u, "t": "-2"}]
        intro_points += [{"id": "e", "k": k, "u": u, "r": "1/2"}, {"id": "e", "k": k, "u": u, "r": "3"}]
    return [
        IdentitySpec(
            "series.transform_zeta",
            tuple({"gf": g, "k": k, "order": 30}
                  for g in ("geometric", "geometric_sq", "exp", "li2_over_1mz") for k in (1, 2, 3)),
            transform,
        ),
        IdentitySpec(
            "series.round_trip", tuple({"gf": g, "k": k, "order": 20} for g in ("geometric", "exp") for k in (1, 2)),
            round_trip,
        ),
        IdentitySpec("series.intro_exact", tuple(intro_points), intro),
        IdentitySpec(
            "series.intro_progression",
            tuple({"a": a, "b": b, "s": s, "u": u} for a in (2, 3, 4) for b in range(a) for s in (1, 2)),
            progression, tolerance=1e-10,
        ),
        IdentitySpec(
            "series.multisection", tuple({"a": a, "b": b, "order": 64} for a in range(2, 9) for b in (0, 1, a - 1)),
            multisection_error, tolerance=1e-10,
        ),
        IdentitySpec("series.exp_log_roundtrip", ({"order": 15},), exp_log),
        IdentitySpec(
            "series.stirling1_egf", tuple({"k": k, "order": 12} for k in range(0, 5)),
            lambda p: stirling1_egf_check(p["k"], p["order"]),
        ),
        IdentitySpec(
            "series.stirling1_egf_printed_sign", tuple({"k": k, "order": 8} for k in (1, 2, 3)),
            egf_printed, assert_pass=False,
        ),
        IdentitySpec(
            "series.dilog_functional_eq", tuple({"order": o} for o in (10, 40)),
            lambda p: dilog_functional_eq_sides(p["order"]),
        ),
        IdentitySpec(
            "series.exp_harmonic", tuple({"k": k, "order": 20} for k in (1, 2, 3)),
            lambda p: (
                exp_harmonic_series(p["k"], p["order"]),
                TruncSeries([harmonic(n, p["k"]) / factorial(n) for n in range(p["order"] + 1)]),
            ),
        ),
        IdentitySpec("series.h1_egf", ({"order": 20},), h1_egf),
    ]


def _suite_special() -> list:
    J = 400

    def three_way(p):
        v1 = special.li_new_series(p["s"], p["z"], J).value
        v2 = special.li_classic_series(p["s"], p["z"], J).value
        v3 = special.li_direct_sum(p["s"], p["z"], J).value
        return max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)), 0.0

    def euler4_printed(p):
        total = math.log(2) ** 4 / 24
        for j in range(1, 201):
            h1 = float(harmonic(j, 1))
            total += (h1**2 * float(harmonic(j, 2)) + h1 * float(harmonic(j, 3))) / 2.0 ** (j + 2)
        return total, special.zeta_star(4, method="closed")

    def trilog_printed(p):
        # the printed closing sign, -zeta(3) in place of +zeta(3)
        lhs, rhs = special.trilog_functional_eq_sides(p["z"], 400)
        return lhs, rhs - 2 * special.zeta_ref(3)

    def hurwitz(p):
        got = special.hurwitz_phi(p["z"], p["s"], p["alpha"], p["beta"], 200).value
        direct = 0.0
        for n in range(1, 400):  # left to right: sum() compensates since Python 3.12
            direct += p["z"] ** n / (p["alpha"] * n + p["beta"]) ** p["s"]
        return got, direct

    def closed(p):
        return special.zeta_star(p["s"], method="closed")

    return [
        IdentitySpec(
            "special.li_three_way",
            tuple({"s": s, "z": z} for s in range(1, 6) for z in (-0.8, -0.5, -0.1, 0.2, 0.4)),
            three_way, tolerance=1e-10,
        ),
        IdentitySpec(
            "special.zeta_star_series", tuple({"s": s} for s in range(1, 7)),
            lambda p: (special.zeta_star(p["s"], 120, "series"), closed(p)), tolerance=1e-8,
        ),
        IdentitySpec(
            "special.zeta_star_harmonic_form", tuple({"s": s} for s in range(1, 5)),
            lambda p: (special.zeta_star_harmonic_form(p["s"], 120), closed(p)), tolerance=1e-8,
        ),
        IdentitySpec(
            "special.zeta_star_euler_form", tuple({"s": s} for s in (3, 4, 5)),
            lambda p: (special.zeta_star_euler_form(p["s"], 200), closed(p)), tolerance=5e-6,
        ),
        IdentitySpec(
            "special.euler_form_s4_printed", ({"s": 4},), euler4_printed, tolerance=5e-6, assert_pass=False,
        ),
        IdentitySpec(
            "special.trilog_functional_eq", tuple({"z": z, "J": 400} for z in (-0.5, -0.1, -0.9)),
            lambda p: special.trilog_functional_eq_sides(p["z"], p["J"]), tolerance=special._TRILOG_TOLERANCE,
        ),
        IdentitySpec(
            "special.trilog_printed_sign", ({"z": -0.5},), trilog_printed,
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
    def convergence(p):
        oracle = _bernoulli_oracle(p["order"], p["x"])
        devs = [abs(special.bernoulli_fourier(p["order"], p["x"], J) - oracle) for J in (20, 40, 80)]
        return max(0.0, devs[1] - 1.1 * devs[0]) + max(0.0, devs[2] - 1.1 * devs[1]), 0.0

    def closed_logforms(p):
        value = special.bernoulli_closed_logforms(p["order"], p["x"])
        # the closed forms are real: an imaginary part beyond rounding fails at any tolerance
        if abs(value.imag) > 1e-9:
            return value, math.inf
        return value.real, _bernoulli_oracle(p["order"], p["x"])

    def printed(p):
        # the displayed bracket series: coefficient series without the j!
        # factor, summed at E = e^{2 pi i (x-1/2)} and its conjugate
        n, x = p["order"], p["x"]
        E = cmath.exp(2j * math.pi * (x - 0.5))
        total = 0j
        for j in range(1, 61):
            plus = E**j / (1 + E) ** (j + 1)
            minus = (1 / E) ** j / (1 + 1 / E) ** (j + 1)
            total += complex(s2star_rec(n + 2, j)) * (plus + minus if n % 2 == 0 else plus - minus)
        if n % 2 == 0:
            value = ((-1) ** (n // 2) / (2 * math.pi) ** n) * total
        else:
            value = ((-1) ** ((n - 1) // 2) / ((2 * math.pi) ** n * 1j)) * total
        return value.real, _bernoulli_oracle(n, x)

    return [
        IdentitySpec(
            "fourier.b1_value", ({"x": 1.25, "J": 60},),
            lambda p: (special.bernoulli_fourier(1, p["x"], p["J"]), -0.25), tolerance=1e-6,
        ),
        IdentitySpec(
            "fourier.series_vs_poly",
            tuple({"order": n, "x": x, "J": 60} for n in (1, 2, 3) for x in (0.25, 1.25, 2.75)),
            lambda p: (
                special.bernoulli_fourier(p["order"], p["x"], p["J"]), _bernoulli_oracle(p["order"], p["x"])
            ),
            tolerance=1e-5,
        ),
        IdentitySpec(
            "fourier.convergence", tuple({"order": n, "x": x} for n in (1, 2, 3) for x in (0.2, 1.25, 2.75)),
            convergence, tolerance=0.0,
        ),
        IdentitySpec(
            "fourier.closed_logforms", tuple({"order": n, "x": x} for n in (1, 2) for x in (0.25, 0.3, 0.75)),
            closed_logforms, tolerance=1e-8,
        ),
        IdentitySpec(
            "fourier.printed_series_reading", tuple({"order": n, "x": 0.25} for n in (1, 2)),
            printed, tolerance=1e-5, assert_pass=False,
        ),
    ]


def _suite_msums() -> list:
    def def_vs_alt(p):
        spec = msums.MSumSpec(p["k"], p["d"], p["n"], p["reading"])
        return msums.m_def(spec), msums.m_alt(spec)

    def discrepancy(p):
        # the three documented values at k = 3, d = 1, n = 1, compared as one vector
        got = [
            msums.m_alt(msums.MSumSpec(3, 1, 1)),
            msums.m_def(msums.MSumSpec(3, 1, 1, "unsigned")),
            msums.m_recurrence_residual(3, 1, 1, "alt"),
        ]
        return TruncSeries(got), TruncSeries([Fraction(-1), Fraction(1), Fraction(-191, 32)])

    return [
        IdentitySpec(
            "msums.def_vs_alt",
            tuple({"k": k, "d": d, "n": n, "reading": rd}
                  for k in range(4, 9) for d in range(1, 5) for n in range(0, 13) for rd in ("unsigned", "signed")),
            def_vs_alt, assert_pass=False,
        ),
        IdentitySpec(
            "msums.recurrence",
            tuple({"k": k, "d": d, "n": n, "source": s}
                  for k in (3, 4, 5) for d in (1, 2, 3) for n in range(0, 7)
                  for s in ("def_unsigned", "def_signed", "alt")),
            lambda p: (msums.m_recurrence_residual(p["k"], p["d"], p["n"], p["source"]), 0),
            assert_pass=False,
        ),
        IdentitySpec(
            "msum_almost_linear",
            tuple({"which": w, "k": k, "n": n, "source": s, **({"m": "0"} if w == 6 else {})}
                  for w in range(1, 7) for k in (5, 6, 7) for n in (0, 1, 2, 3) for s in ("def_unsigned", "alt")),
            lambda p: msums.almost_linear_sides(p["which"], p["k"], p["n"], Fraction(p.get("m", 0)), p["source"]),
            assert_pass=False,
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
            lambda p: msums.general_relation_sides(
                p["family"], p["coeffs"].split(","), p["d"], p["k"], p["n"], p["source"]
            ),
            assert_pass=False,
        ),
        IdentitySpec("msums.documented_discrepancy", ({"k": 3, "d": 1, "n": 1},), discrepancy),
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


def _params_str(report: IdentityReport) -> str:
    return ";".join(f"{k}={v}" for k, v in report.params)


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
        rows = ([r.id, _params_str(r), r.status, str(r.residual)] for r in reports)
        return render(["id", "params", "status", "residual"], rows, format)
    raise ValueError("format must be json, csv, or markdown")
