"""Numeric evaluation of polylogarithm-related functions.

Three routes to Li_s(z) on |z/(1-z)| < 1: the derivative-weighted
coefficient series (``li_new_series``), the classical binomial double
series (``li_classic_series``), and plain direct summation
(``li_direct_sum``); a modified Hurwitz zeta, the alternating zeta
function, Euler-sum forms of its values, a trilogarithm functional
equation check, and Fourier-type series for the periodic Bernoulli
polynomials.

Every coefficient series is summed by ``_binomial_series``: prefactor *
sum_j a_j (-z/(1-z))^j over a row of doubles a_j read in place from
:mod:`coeffs`, cells 1..J, with the sign its series sums.
``li_new_series`` reads ``_DOUBLE_ROWS`` with prefactor 1/(1-z), and
``zeta_star`` is -Li_s(-1) on it, bit for bit the direct sum, since its
factors are powers of two.  The classical series and the modified
Hurwitz zeta read their inner table through one entry,
``_phi_inner_table``: for alpha = 1, beta = 0 and s >= 1 it reads
``_CLASSIC_ROWS``; any other row is ``exactnum._binomial_sums`` of exact
signed terms.
``li_direct_sum`` keeps its own loop: its power / n^s rounds otherwise.

Four displayed forms evaluated here required sign/term repairs that are
validated against independent oracles in the test suite:

* the third Euler-sum form's second weighted sum uses H_j^2 H_j^{(2)}
  and H_j^{(4)} (the remainder term t0 of order 6 is
  (H_j^2 H_j^{(2)} + H_j^{(4)})/2);
* the trilogarithm functional equation closes with +zeta(3);
* the order-2 closed log/dilog form carries prefactor -1/(8 pi^2);
* the Fourier-type series is evaluated as
  -(2 pi i)^{-n} (Li_n(e^{2 pi i x}) + (-1)^n Li_n(e^{-2 pi i x}))
  with each Li_n expanded by the coefficient series.

The uncorrected variants are preserved as report-only audit targets.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .coeffs import _CLASSIC_ROWS, _DOUBLE_ROWS, _harmonic_form
from .exactnum import _binomial_sums, _over_common, factorial
from .harmonicnums import harmonic, harmonic_real
from .reports import IdentityReport, compare

__all__ = [
    "EvalResult",
    "zeta_ref",
    "li_direct_sum",
    "li_new_series",
    "li_classic_series",
    "hurwitz_phi",
    "zeta_star",
    "zeta_star_harmonic_form",
    "zeta_star_euler_form",
    "trilog_functional_eq_sides",
    "trilog_functional_eq_check",
    "bernoulli_fourier",
    "bernoulli_closed_logforms",
]


class EvalResult(NamedTuple):
    value: complex | float
    terms_used: int
    last_term_magnitude: float
    method: str
    domain_warning: bool = False


def zeta_ref(s: int) -> float:
    """Riemann zeta reference value: ``harmonic_real(999, s)`` plus an
    Euler-Maclaurin tail correction (tail error far below 1e-13)."""
    if s < 2:
        raise ValueError("zeta_ref requires s >= 2")
    n_cut = 1000
    total = harmonic_real(n_cut - 1, float(s))
    x = float(n_cut)
    total += x ** (1 - s) / (s - 1) + x ** (-s) / 2 + s * x ** (-s - 1) / 12
    total -= s * (s + 1) * (s + 2) * x ** (-s - 3) / 720
    return total


def li_direct_sum(s: int, z, terms: int) -> EvalResult:
    """Li_s(z) = sum_{n=1}^{terms} z^n / n^s, requires |z| < 1."""
    if terms < 1:
        raise ValueError("direct summation requires terms >= 1")
    if abs(z) >= 1:
        raise ValueError("direct summation requires |z| < 1")
    total = 0.0 * z
    power = 1.0
    last = 0.0
    for n in range(1, terms + 1):
        power = power * z
        term = power / n**s
        total += term
        last = abs(term)
    return EvalResult(total, terms, last, "direct")


_FALLBACK_TERMS_CAP = 10**7  # the most terms li_new_series sums directly: about 2 s on CPython 3.11
_TRILOG_TOLERANCE = 1e-7  # of the trilog functional equation, here and in its audit specs


def li_new_series(s: int, z, J: int) -> EvalResult:
    """Li_s(z) = sum_{j=1}^{J} c*(s+2, j) z^j j! / (1-z)^{j+1}.

    Convergent for |z/(1-z)| < 1 (Re z < 1/2 on the real line).  On or
    beyond that boundary the call is flagged with domain_warning and,
    where |z| < 1, summed directly until |z|^n < 1e-14 (at least J terms,
    at most ``_FALLBACK_TERMS_CAP``); otherwise it raises ValueError.
    """
    if s < 1:
        raise ValueError("li_new_series requires s >= 1")
    if J < 1:
        raise ValueError("the coefficient series requires J >= 1")
    if z == 1:
        raise ValueError("z = 1 is a pole of the derivative series")
    if abs(z / (1 - z)) >= 1:
        if abs(z) >= 1:
            raise ValueError("Li_s(z) series diverge for |z/(1-z)| >= 1 and |z| >= 1")
        terms = max(J, int(math.log(1e-14) / math.log(abs(z))) + 1)
        if terms > _FALLBACK_TERMS_CAP:
            raise ValueError(f"direct summation needs {terms} terms, over the cap of {_FALLBACK_TERMS_CAP}")
        return li_direct_sum(s, z, terms)._replace(method="direct_fallback", domain_warning=True)
    # the row holds the coefficients negated, so the sum is not negated and +0.0 stays +0.0
    return _binomial_series(_DOUBLE_ROWS[s].cells(1, J + 1), J, z, "coeff_series", 1 / (1 - z))


def _binomial_series(coefficients, J: int, z, method: str, prefactor=1.0) -> EvalResult:
    """prefactor * sum_{j=1}^{J} a_j (-z/(1-z))^j over the J coefficients
    a_1, ..., a_J that ``coefficients`` yields in order, the one loop of
    every coefficient series.  Raises ValueError where |z/(1-z)| >= 1,
    outside its convergence domain Re z < 1/2."""
    if z == 1:
        raise ValueError("z = 1 is a pole of the binomial series")
    if z == 0:
        return EvalResult(0.0, 0, 0.0, method)
    w = -z / (1 - z)
    if abs(w) >= 1:
        raise ValueError("the binomial series diverges for |z/(1-z)| >= 1")
    total = 0.0 * w
    power = 1.0 + 0.0 * w
    last = 0.0
    for value in coefficients:
        power *= w
        term = value * power * prefactor
        total += term
        last = abs(term)
    return EvalResult(total, J, last, method)


def li_classic_series(s: int, z: float, K: int) -> EvalResult:
    """Li_s(z) = sum_{k=0}^{K} (-z/(1-z))^{k+1}
    sum_{m=0}^{k} C(k, m) (-1)^{m+1} / (m+1)^s."""
    return _binomial_series(_phi_inner_table(s, 1, 0, K), K + 1, z, "classic_series")


def _phi_inner_table(s: int, alpha: Fraction, beta: Fraction, K: int):
    """sum_{m=0}^{k} C(k, m) (-1)^{m+1} / (alpha (m+1) + beta)^s for
    k = 0..K as doubles: for alpha = 1, beta = 0 and s >= 1 cells 1..K+1
    of the classical row for s, read in place from a row built once and
    only extended; otherwise a tuple summed exactly by the Pascal-rule
    kernel over an integer common denominator (the alternating binomial
    sums cancel far below double precision termwise).
    """
    if K < 0:
        raise ValueError("the binomial series requires K >= 0")
    if alpha == 1 and beta == 0 and s >= 1:
        return _CLASSIC_ROWS[s - 1].cells(1, K + 2)
    return _phi_general_table(s, alpha, beta, K)


@cache
def _phi_general_table(s: int, alpha: Fraction, beta: Fraction, K: int) -> tuple:
    numerators, common = _over_common((alpha * (m + 1) + beta) ** -s for m in range(K + 1))
    return tuple(x / common for x in _binomial_sums([(-1) ** (m + 1) * x for m, x in enumerate(numerators)]))


def hurwitz_phi(z: float, s: int, alpha, beta, K: int) -> EvalResult:
    """Phi(z, s, alpha, beta) = sum_{n>=1} z^n / (alpha n + beta)^s via
    the binomial series analogous to li_classic_series."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha <= 0:
        raise ValueError("hurwitz_phi requires alpha > 0")
    m = -beta / alpha
    if m.denominator == 1 and 1 <= m <= K + 1:
        raise ZeroDivisionError(f"denominator alpha*{m} + beta = 0")
    return _binomial_series(_phi_inner_table(s, alpha, beta, K), K + 1, z, "phi_series")


def zeta_star(s: int, J: int = 120, method: str = "series") -> float:
    """Alternating zeta value sum_{n>=1} (-1)^{n-1}/n^s by one of four
    methods:

    series:   -Li_s(-1) by li_new_series, that is
              sum_j c*(s+2, j) (-1)^{j-1} j!/2^{j+1}, at J terms;
    closed:   (1 - 2^{1-s}) zeta(s) for s > 1, log 2 for s = 1;
    harmonic: ``zeta_star_harmonic_form(s, J)``, s = 1..4;
    euler:    ``zeta_star_euler_form(s, J)``, s = 3..5.
    """
    if s < 1:
        raise ValueError("zeta_star requires s >= 1")
    if method == "closed":
        if s == 1:
            return math.log(2)
        return (1 - 2.0 ** (1 - s)) * zeta_ref(s)
    if method == "series":
        return -li_new_series(s, -1.0, J).value
    if method == "harmonic":
        return zeta_star_harmonic_form(s, J)
    if method == "euler":
        return zeta_star_euler_form(s, J)
    raise ValueError("method must be 'series', 'closed', 'harmonic' or 'euler'")


def zeta_star_harmonic_form(s: int, J: int = 120) -> float:
    """The displayed harmonic-polynomial series for the alternating zeta
    values, s = 1..4 (e.g. s = 2: sum_j (H_j^2 + H_j^{(2)})/(4*2^j)), whose
    terms are the closed forms of |c*(s+2, j)| j! over 2^{j+1}."""
    if not 1 <= s <= 4:
        raise ValueError("harmonic-polynomial forms exist for s in 1..4")
    if J < 1:
        raise ValueError("harmonic-polynomial forms require J >= 1")
    total = 0.0
    for j in range(1, J + 1):
        total += math.ldexp(_harmonic_form(s + 2, j, float), -j - 1)
    return total


def zeta_star_euler_form(s: int, J: int = 200) -> float:
    """Log(2)-power plus weighted harmonic Euler-sum forms of the
    alternating zeta values, s = 3..5.

    s = 4 uses the repaired second sum with H_j^{(4)} (see module
    docstring); the displayed H_j H_j^{(3)} variant is audited
    separately.
    """
    if s not in (3, 4, 5):
        raise ValueError("Euler-sum forms exist for s in 3..5")
    if J < 1:
        raise ValueError("Euler-sum forms require J >= 1")
    log2 = math.log(2)
    total = log2**s / factorial(s)
    for j in range(1, J + 1):
        h1 = float(harmonic(j, 1))
        h2 = float(harmonic(j, 2))
        if s == 3:
            total += math.ldexp(h1 * h2, -(j + 1))
        elif s == 4:
            h4 = float(harmonic(j, 4))
            total += math.ldexp(h1**2 * h2 + h4, -(j + 2))
        else:
            h3 = float(harmonic(j, 3))
            h4 = float(harmonic(j, 4))
            total += math.ldexp(h1**3 * h2 / 12, -j)
            total += math.ldexp(h2 * h3 / 6, -j)
            total += math.ldexp(h1 * h4, -(j + 2))
    return total


def trilog_functional_eq_sides(z: float, J: int = 400) -> tuple:
    """Both sides of the Landen-type functional equation for the
    trilogarithm on z in (-1, 0):

    Li_3(z) = -Log(1-z)^3/6 + Log(1-z)^2 Log(-z/(1-z))/2
              - Log(1-z) [Li_2(1/(1-z)) + Li_2(-z/(1-z))]
              - Li_3(1/(1-z)) - Li_3(-z/(1-z)) + zeta(3),

    each Li by ``li_new_series`` at J terms.  The closing +zeta(3) is the
    sign under which the identity holds (verified numerically across the
    domain); the opposite printed sign is audited separately.
    """
    if not -1 < z < 0:
        raise ValueError("trilog check requires z in (-1, 0)")
    u = -z / (1 - z)
    v = 1 / (1 - z)
    log1mz = math.log(1 - z)

    def li(s, x):
        return li_new_series(s, x, J).value

    rhs = (
        -log1mz**3 / 6
        + log1mz**2 * math.log(u) / 2
        - log1mz * (li(2, v) + li(2, u))
        - li(3, v)
        - li(3, u)
        + zeta_ref(3)
    )
    return li(3, z), rhs


def trilog_functional_eq_check(z: float, J: int = 400) -> IdentityReport:
    """Report of ``trilog_functional_eq_sides`` at z, within ``_TRILOG_TOLERANCE``."""
    return compare("special.trilog_functional_eq", {"z": z, "J": J}, *trilog_functional_eq_sides(z, J), _TRILOG_TOLERANCE)


def bernoulli_fourier(order: int, x: float, J: int = 60) -> float:
    """B_order({x}) / order! via the coefficient series for the
    polylogarithm at the unit-circle points e^{+-2 pi i x}:

    -(2 pi i)^{-n} (Li_n(e^{2 pi i x}) + (-1)^n Li_n(e^{-2 pi i x})).

    The coefficient series needs |z/(1-z)| = 1/(2 |sin pi x|) < 1, that is
    {x} in (1/6, 5/6), and J >= 1; elsewhere this raises ValueError.
    """
    if order < 1:
        raise ValueError("bernoulli_fourier requires order >= 1")
    if not 1 / 6 < x % 1 < 5 / 6:
        raise ValueError("the coefficient series converges only for {x} in (1/6, 5/6)")
    plus = li_new_series(order, cmath.exp(2j * math.pi * x), J).value
    minus = li_new_series(order, cmath.exp(-2j * math.pi * x), J).value
    value = -(plus + (-1) ** order * minus) / (2j * math.pi) ** order
    return value.real


_LI2_TERMS = 4000


def _li2_complex(z: complex) -> complex:
    """Dilogarithm at a complex point by direct summation for |z| <= 0.9,
    and through the inversion formula Li_2(z) = -Li_2(1/z) - pi^2/6 -
    Log(-z)^2/2 for |1/z| <= 0.9.  In the annulus between, neither route
    is taken and this raises ValueError."""
    if abs(z) <= 0.9:
        return li_direct_sum(2, z, _LI2_TERMS).value
    if abs(1 / z) > 0.9:
        raise ValueError(f"Li_2 at |z| = {abs(z):.6g}: direct summation needs |z| <= 0.9 or |1/z| <= 0.9, "
                         "and the annulus 0.9 < |z| < 1/0.9 lies between")
    return -li_direct_sum(2, 1 / z, _LI2_TERMS).value - math.pi**2 / 6 - cmath.log(-z) ** 2 / 2


def bernoulli_closed_logforms(order: int, x: float) -> complex:
    """Closed log/dilog forms of the periodic Bernoulli polynomials:

    B_1({x})   = Log((1 - e^{2 pi i x}) / (1 - e^{-2 pi i x})) / (2 pi i)
    B_2({x})/2 = -(1/(8 pi^2)) sum_{b=+-1} (Log(1 - e^{2 pi i b x})^2
                  + 2 Li_2((1 + b i cot(pi x))/2)).

    The imaginary part of the returned value vanishes to rounding.  Order
    2 evaluates Li_2 at |(1 +- i cot(pi x))/2| = 1/(2|sin(pi x)|), which
    _li2_complex cannot reach between 0.9 and 1/0.9: there, for x mod 1
    in about (0.1486, 0.1875) or (0.8125, 0.8514), it raises ValueError.
    """
    if order not in (1, 2):
        raise ValueError("closed log forms exist for orders 1 and 2")
    if x == int(x):
        raise ValueError("closed forms are singular at integer x")
    if order == 1:
        e_plus = cmath.exp(2j * math.pi * x)
        return cmath.log((1 - e_plus) / (1 - 1 / e_plus)) / (2j * math.pi)
    cot = math.cos(math.pi * x) / math.sin(math.pi * x)
    total = 0j
    for b in (1, -1):
        total += cmath.log(1 - cmath.exp(2j * math.pi * b * x)) ** 2
        total += 2 * _li2_complex((1 + b * 1j * cot) / 2)
    return -total / (8 * math.pi**2)
