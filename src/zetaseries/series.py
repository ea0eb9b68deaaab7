"""The transform constructions on truncated power series.

``TruncSeries`` lives in :mod:`powerseries`, below the coefficient
table, and the package exports it from there.  It is exact-only (int and
Fraction coefficients); the two double-precision constructions,
``multisection`` and ``intro_example("g", ...)``, return tuples of
complex numbers.

The transforms sum_j w_j z^j G^{(j)}(z) act coefficientwise, since
[z^n] z^j G^{(j)}(z) = n!/(n-j)! g_n: coefficient n is
(sum_j w_j n!/(n-j)!) g_n.  For w_j = c*(k+2, j) that inner sum is
1/n^k (``coeffs._binomial_row_sums``); w_j = S2(m, j) gives n^m
(``stirling.npow_forward``).  The introduction examples collapse to the
same row sums (``intro_example``), so no bivariate series is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .coeffs import _binomial_row_sums
from .exactnum import factorial, root_of_unity
from .powerseries import TruncSeries
from .stirling import npow_forward, stirling1_unsigned

__all__ = [
    "transform_forward",
    "transform_zeta",
    "intro_example",
    "multisection",
    "stirling1_egf_check",
    "exp_harmonic_series",
    "dilog_functional_eq_sides",
    "dilog_functional_eq_check",
]


# ---------------------------------------------------------------------
# transforms and the introduction examples
# ---------------------------------------------------------------------


def transform_forward(G: TruncSeries, m: int) -> TruncSeries:
    """sum_{j=0}^{m} S2(m, j) z^j G^{(j)}(z); coefficient n is n^m g_n."""
    return TruncSeries([npow_forward(n, m) * g for n, g in enumerate(G.coeffs)])


def transform_zeta(G: TruncSeries, k: int) -> TruncSeries:
    """sum_{j>=1} c*(k+2, j) z^j G^{(j)}(z), truncated at G's order;
    coefficient n is g_n / n^k for n >= 1 (k >= 0)."""
    if G.order < 1:
        raise ValueError("transform needs order >= 1")
    if k < 0:
        raise ValueError("transform_zeta requires k >= 0")
    row = _binomial_row_sums(k + 2, G.order, 0)
    return TruncSeries([Fraction(0)] + [row[n] * G.coeffs[n] for n in range(1, G.order + 1)])


def intro_example(example_id: str, k: int, u: int, *, t=None, r=None, a=None, b=None):
    """Bracketed bivariate constructions of the introduction, collapsed
    by [w^u] extraction to one row sum (examples a-f, exact) or by
    root-of-unity multisection in fractional powers (example g, complex
    doubles).

    Examples a-f extract [w^u] from bracketed sums
    sum_j c*(k+2, j) D_j(wz) / (1 - w), where D_j is a series in wz alone
    (times 1/(1 - wz) for examples c, d and e).  That extraction collapses
    to the diagonal: [w^u] D(wz) / (1 - w) = sum_{n<=u} d_n z^n, and the
    extra 1/(1 - wz) turns d_n into its partial sums.  Summed over j
    against c*(k+2, j), every diagonal is a multiple of the same row sum:
    d_n = j! C(n, j) c^n (examples a, c, d) gives c^n/n^k,
    d_n = c^n/(n-j)! (b, e) gives c^n/(n^k n!), and example f's
    j! C(n+1, j+1)/n! is the row at shift 1, H_n^{(k)}/n!.

    Returns the truncated z-series whose coefficients match the direct
    left-hand sums: a TruncSeries for a-f, a tuple of complex numbers
    (coefficients 0..u) for g.
    """
    if u < 1:
        raise ValueError("truncation order u must be >= 1")
    if k < 0:
        raise ValueError("introduction examples require k >= 0")
    if example_id == "g":
        if a is None or b is None or a < 2 or not 0 <= b < a:
            raise ValueError("example g requires a >= 2 and 0 <= b < a")
        return _intro_example_progression(k, u, a, b)
    if example_id == "f":
        return exp_harmonic_series(k, u)
    if example_id not in ("a", "b", "c", "d", "e"):
        raise ValueError(f"unknown introduction example {example_id!r}")
    scalar = {"d": t, "e": r}.get(example_id, 1)
    if scalar is None:
        raise ValueError(f"example {example_id} needs the scalar {'t' if example_id == 'd' else 'r'}")
    c = Fraction(scalar)
    coeffs = [c**n * x for n, x in enumerate(_binomial_row_sums(k + 2, u, 0))]
    if example_id in ("b", "e"):
        coeffs = [x / factorial(n) for n, x in enumerate(coeffs)]
    if example_id in ("c", "d", "e"):
        coeffs = list(accumulate(coeffs))
    return TruncSeries(coeffs)


def _intro_example_progression(s: int, u: int, a: int, b: int) -> tuple:
    """Example (g): arithmetic-progression weights 1/(an+b)^s.

    Works in y = z^{1/a}; for each residue-selector m the [w^U] slice of
    the bracketed sum is assembled directly (U = a u + b), then the y^b
    prefactor is stripped by reading off powers y^{an+b}.
    """
    bigu = a * u + b
    # the [w^U] slice is example a in y; its alternating j-sum cancels
    # violently, so collapse it exactly first
    inner = _binomial_row_sums(s + 2, bigu, 0)
    y_acc = [0j] * (bigu + 1)
    for m in range(a):
        omega_m = root_of_unity(a, m)
        selector = root_of_unity(a, -m * b) / a
        power = 1 + 0j
        for n in range(bigu + 1):
            y_acc[n] += selector * power * float(inner[n])
            power *= omega_m
    return tuple(y_acc[a * n + b] for n in range(u + 1))


def multisection(F: TruncSeries, a: int, b: int) -> tuple:
    """Root-of-unity multisection keeping coefficients with n = b (mod a):

    sum_{m<a} (omega_a^{-mb}/a) F(omega_a^m z), as a tuple of complex
    numbers, coefficients 0..F.order.
    """
    if a < 2 or not 0 <= b < a:
        raise ValueError("multisection requires a >= 2 and 0 <= b < a")
    total = [0j] * (F.order + 1)
    for m in range(a):
        omega, selector = root_of_unity(a, m), root_of_unity(a, -m * b) / a
        power = 1 + 0j
        for n, c in enumerate(F.coeffs):
            total[n] = total[n] + selector * (complex(c) * power)
            power = power * omega
    return tuple(total)


def stirling1_egf_check(k: int, order: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of the shifted unsigned Stirling-1 EGF:

    sum_j c(j+1, k+1) z^j/j!   vs   (1/k!) (1/(1-z)) log(1/(1-z))^k.

    Returned as exact rational series; the printed variant with an extra
    (-1)^k factor is an audit target, not asserted here.
    """
    lhs = TruncSeries(
        [Fraction(stirling1_unsigned(j + 1, k + 1), factorial(j)) for j in range(order + 1)]
    )
    log_inv = TruncSeries.polylog(1, order)  # log(1/(1-z))
    rhs = TruncSeries.geometric(1, order)
    for _ in range(k):
        rhs = rhs * log_inv
    rhs = rhs.scale(Fraction(1, factorial(k)))
    return lhs, rhs


def exp_harmonic_series(k: int, order: int) -> TruncSeries:
    """Truncated series with coefficient H_n^{(k)}/n! at z^n, built from
    sum_j c*(k+2, j) z^j e^z (j+1+z)/(j+1) (introduction example f, k >= 0)."""
    if k < 0:
        raise ValueError("exp_harmonic_series requires k >= 0")
    return TruncSeries([x / factorial(n) for n, x in enumerate(_binomial_row_sums(k + 2, order, 1))])


def dilog_functional_eq_sides(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of

    Li_2(z) = -(1/2) log(1-z)^2 - Li_2(-z/(1-z))

    as exact truncated series of the given order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    log1mz = -TruncSeries.polylog(1, order)
    rhs = (log1mz * log1mz).scale(Fraction(-1, 2)) - TruncSeries.polylog(2, order).binomial_transform()
    return TruncSeries.polylog(2, order), rhs


def dilog_functional_eq_check(order: int):
    """Exact truncated-series verification of ``dilog_functional_eq_sides``.

    Returns (passed, first_mismatch) with the witness coefficient pair.
    """
    lhs, rhs = dilog_functional_eq_sides(order)
    first = next(((n, a, b) for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b), None)
    return first is None, first
