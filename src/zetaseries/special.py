"""Numeric evaluation of polylogarithm-related functions.

Three routes to Li_s(z) on |z/(1-z)| < 1: the derivative-weighted
coefficient series (``li_new_series``), the classical binomial double
series (``li_classic_series``), and plain direct summation
(``li_direct_sum``); a modified Hurwitz zeta, the alternating zeta
function, Euler-sum forms of its values, a trilogarithm functional
equation check, and Fourier-type series for the periodic Bernoulli
polynomials.

Every coefficient series is summed by the one loop ``_binomial_series``
over a row of doubles.  ``li_new_series``, and through it
``zeta_star``, reads the rows ``coeffs._DOUBLE_ROWS``.  The classical
series and the modified Hurwitz zeta read their inner rows through
``_phi_inner_table``, which owns the choice of row: the classical rows
of :mod:`coeffs`, or ``_phi_general_table``.  ``li_direct_sum`` keeps its
own loop: its power / n^s rounds otherwise.

Four displayed forms evaluated here required sign/term repairs that are
validated against independent oracles in the test suite:

* the third Euler-sum form's second weighted sum uses H_j^2 H_j^{(2)}
  and H_j^{(4)} (the remainder term t0 of order 6 is
  (H_j^2 H_j^{(2)} + H_j^{(4)})/2);
* the trilogarithm functional equation closes with +zeta(3);
* the order-2 closed log/dilog form carries prefactor -1/(8 pi^2);
* the Fourier-type series is evaluated as
  -(2 pi i)^{-n} (Li_n(e^{2 pi i x}) + (-1)^n Li_n(e^{-2 pi i x}))
  with Li_n(e^{2 pi i x}) expanded by the coefficient series and
  Li_n(e^{-2 pi i x}) taken as its conjugate.

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
from .harmonicnums import _double_cells, harmonic_real
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
    term = 0.0
    for value in coefficients:
        power *= w
        term = value * power * prefactor
        total += term
    return EvalResult(total, J, abs(term), method)


def li_classic_series(s: int, z: float, K: int) -> EvalResult:
    """Li_s(z) = sum_{k=0}^{K} (-z/(1-z))^{k+1}
    sum_{m=0}^{k} C(k, m) (-1)^{m+1} / (m+1)^s."""
    return _binomial_series(_phi_inner_table(s, 1, 0, K), K + 1, z, "classic_series")


def _phi_inner_table(s: int, alpha: Fraction, beta: Fraction, K: int):
    """sum_{m=0}^{k} C(k, m) (-1)^{m+1} / (alpha (m+1) + beta)^s for
    k = 0..K as doubles: for alpha = 1, beta = 0 and s >= 1 cells 1..K+1
    of the classical row for s (``coeffs._CLASSIC_ROWS``), read in place;
    otherwise the row of ``_phi_general_table``.
    """
    if K < 0:
        raise ValueError("the binomial series requires K >= 0")
    if alpha == 1 and beta == 0 and s >= 1:
        return _CLASSIC_ROWS[s - 1].cells(1, K + 2)
    return _phi_general_table(s, alpha, beta, K)


@cache
def _phi_general_table(s: int, alpha: Fraction, beta: Fraction, K: int) -> tuple:
    """The cells k = 0..K of ``_phi_inner_table``, kept per
    (s, alpha, beta, K), each the double nearest its exact value, since the
    alternating binomial sums cancel far below double precision termwise:
    by ``_lerch_cells`` for s >= 1, and for s <= 0 by
    ``exactnum._binomial_sums`` over the exact signed terms."""
    if s >= 1:
        return tuple(_lerch_cells(s, alpha, beta, K))
    # the terms are a polynomial of degree -s in m, so every cell past k = -s is exactly 0, written +0.0
    numerators, common = _over_common((alpha * (m + 1) + beta) ** -s for m in range(min(K, -s) + 1))
    head = [x / common for x in _binomial_sums([(-1) ** (m + 1) * x for m, x in enumerate(numerators)])]
    return tuple(head + [0.0] * (K + s))


def _lerch_cells(s: int, alpha: Fraction, beta: Fraction, K: int):
    """The cells k = 0..K of ``_phi_general_table`` for s >= 1, each the
    correctly rounded double of its exact value.

    With F_m = a(m+1) + b, a = alpha.num * beta.den, b = beta.num * alpha.den
    and q = alpha.den * beta.den, differencing 1/(m + c) gives
    k!/(c)_{k+1}, and so the cell is
    -q^s k! a^k h_{s-1}(1/F_0, ..., 1/F_k) / prod_{i<=k} F_i, h_t the
    complete homogeneous polynomial.  It carries L_k = lcm(|F_0..F_k|)
    and the integers H_t = h_t(1/F_0, ..., 1/F_k) L_k^t, t < s, by
    H_t(k) = H_t(k-1) (L_k / L_{k-1})^t + H_{t-1}(k) L_k / F_k, the update
    that builds the c* numerator rows of :mod:`coeffs` with F_j = j, so a
    row costs O(K s) integer steps, not a Pascal sum of O(K^2).  Each cell
    is one int/int true division over a positive denominator, so an exact
    0 is +0.0."""
    a, b = alpha.numerator * beta.denominator, beta.numerator * alpha.denominator
    scale = -((alpha.denominator * beta.denominator) ** s)  # -q^s k! a^k
    h = [1] + [0] * (s - 1)
    lcm = power = product = 1  # L_k, L_k^(s-1), prod F_i
    for k in range(K + 1):
        f = a * (k + 1) + b
        if (step := math.lcm(lcm, f) // lcm) != 1:
            for t in range(1, s):
                h[t] *= step**t
            power *= step ** (s - 1)
            lcm *= step
        weight = lcm // f  # ZeroDivisionError at F_k = 0
        for t in range(1, s):
            h[t] += h[t - 1] * weight
        if k:
            scale *= k * a
        product *= f
        numerator, denominator = scale * h[-1], power * product
        yield numerator / denominator if denominator > 0 else -numerator / -denominator


def hurwitz_phi(z: float, s: int, alpha, beta, K: int) -> EvalResult:
    """Phi(z, s, alpha, beta) = sum_{n>=1} z^n / (alpha n + beta)^s via
    the binomial series analogous to li_classic_series.  For s >= 1 an
    alpha n + beta = 0 with 1 <= n <= K + 1 raises ZeroDivisionError; for
    s <= 0 the terms are polynomials in n, so there is no pole (0^0 = 1)."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha <= 0:
        raise ValueError("hurwitz_phi requires alpha > 0")
    m = -beta / alpha
    if s >= 1 and m.denominator == 1 and 1 <= m <= K + 1:
        raise ZeroDivisionError(f"denominator alpha*{m} + beta = 0")
    return _binomial_series(_phi_inner_table(s, alpha, beta, K), K + 1, z, "phi_series")


def zeta_star(s: int, J: int = 120, method: str = "series") -> float:
    """Alternating zeta value sum_{n>=1} (-1)^{n-1}/n^s by one of four
    methods:

    series:   -Li_s(-1) by li_new_series, that is
              sum_j c*(s+2, j) (-1)^{j-1} j!/2^{j+1}, at J terms, bit for
              bit the direct sum of that row, since its factors are
              powers of two;
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
    terms are the closed forms of |c*(s+2, j)| j! over 2^{j+1}
    (``coeffs._harmonic_form``) at the doubles of ``harmonicnums._doubles``:
    each H_j^{(r)} correctly rounded, once per process."""
    if not 1 <= s <= 4:
        raise ValueError("harmonic-polynomial forms exist for s in 1..4")
    if J < 1:
        raise ValueError("harmonic-polynomial forms require J >= 1")
    total = 0.0
    for j, h in _double_cells(range(1, s + 1), J):
        total += math.ldexp(_harmonic_form(s + 2, h), -j - 1)
    return total


def zeta_star_euler_form(s: int, J: int = 200) -> float:
    """Log(2)-power plus weighted harmonic Euler-sum forms of the
    alternating zeta values, s = 3..5.

    s = 4 uses the repaired second sum with H_j^{(4)} (see module
    docstring); the displayed H_j H_j^{(3)} variant is audited
    separately.  Each H_j^{(r)} is the correctly rounded double of its
    exact value, read in place from ``harmonicnums._doubles``, where it is
    rounded once per process.
    """
    if s not in (3, 4, 5):
        raise ValueError("Euler-sum forms exist for s in 3..5")
    if J < 1:
        raise ValueError("Euler-sum forms require J >= 1")
    total = math.log(2) ** s / factorial(s)
    if s == 3:
        for j, (h1, h2) in _double_cells((1, 2), J):
            total += math.ldexp(h1 * h2, -(j + 1))
    elif s == 4:
        for j, (h1, h2, h4) in _double_cells((1, 2, 4), J):
            total += math.ldexp(h1**2 * h2 + h4, -(j + 2))
    else:
        for j, (h1, h2, h3, h4) in _double_cells((1, 2, 3, 4), J):
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

    Only the e^{2 pi i x} series is summed: the e^{-2 pi i x} one is its
    complex conjugate, bit for bit.  The coefficient series needs
    |z/(1-z)| = 1/(2 |sin pi x|) < 1, that is {x} in (1/6, 5/6), and
    J >= 1; elsewhere this raises ValueError.
    """
    if order < 1:
        raise ValueError("bernoulli_fourier requires order >= 1")
    if not 1 / 6 < x % 1 < 5 / 6:
        raise ValueError("the coefficient series converges only for {x} in (1/6, 5/6)")
    plus = li_new_series(order, cmath.exp(2j * math.pi * x), J).value
    value = -(plus + (-1) ** order * plus.conjugate()) / (2j * math.pi) ** order
    return value.real


def bernoulli_closed_logforms(order: int, x: float) -> complex:
    """Closed log/dilog forms of the periodic Bernoulli polynomials:

    B_1({x})   = Log((1 - e^{2 pi i x}) / (1 - e^{-2 pi i x})) / (2 pi i)
    B_2({x})/2 = -(1/(8 pi^2)) sum_{b=+-1} (Log(1 - e^{2 pi i b x})^2
                  + 2 Li_2((1 + b i cot(pi x))/2)).

    The b = -1 terms are the conjugates of the b = +1 terms.  Li_2 at
    z = (1 + i cot(pi x))/2, where |z| = 1/(2|sin(pi x)|), is summed
    directly (4000 terms) for |z| <= 0.9; beyond, the pair is taken
    together by Euler's reflection Li_2(z) + Li_2(1 - z) = pi^2/6 -
    Log(z) Log(1 - z), since 1 - z is the conjugate of z.  The imaginary
    part of the returned value vanishes to rounding, and only integer x
    is refused.
    """
    if order not in (1, 2):
        raise ValueError("closed log forms exist for orders 1 and 2")
    if x == int(x):
        raise ValueError("closed forms are singular at integer x")
    if order == 1:
        e_plus = cmath.exp(2j * math.pi * x)
        return cmath.log((1 - e_plus) / (1 - 1 / e_plus)) / (2j * math.pi)
    cot = math.cos(math.pi * x) / math.sin(math.pi * x)
    log = cmath.log(1 - cmath.exp(2j * math.pi * x))
    z = (1 + 1j * cot) / 2
    if abs(z) <= 0.9:
        li = li_direct_sum(2, z, 4000).value
        total = log**2 + 2 * li + log.conjugate() ** 2 + 2 * li.conjugate()
    else:
        total = log**2 + log.conjugate() ** 2 + 2 * (math.pi**2 / 6 - cmath.log(z) * cmath.log(1 - z))
    return -total / (8 * math.pi**2)
