"""The ``series`` verification suite: the transform and the introduction's
examples on truncated series, each against its coefficients written out.
Loaded by :mod:`audit` by name, when the suite is built."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Tuple

from .audit import IdentitySpec, _grid
from .exactnum import factorial, parse_rational
from .harmonicnums import harmonic, harmonic_t
from .powerseries import TruncSeries
from .series import (
    dilog_functional_eq_sides,
    exp_harmonic_series,
    intro_example,
    multisection,
    stirling1_egf_check,
    transform_forward,
    transform_zeta,
)


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


def build() -> list:
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
