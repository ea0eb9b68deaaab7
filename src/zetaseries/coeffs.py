"""Generalized zeta-series transformation coefficients.

The two-index rationals written ``c*(k, j)`` here turn the j-th
derivatives of a sequence OGF into the OGF of the sequence divided by
n^{k-2}.  They are computed by several independent routes that must agree
exactly on their common domain:

* the non-triangular recurrence (``s2star_rec``),
* the closed binomial sum (``s2star_sum``, the alpha = 1, beta = 0 case
  of ``s2star_general_f``),
* harmonic-number closed forms for k = 2..6 (``s2star_harmonic``, the
  polynomials of |c*(k, j)| j! in ``_harmonic_form``, exact or in doubles),
* a harmonic-number heuristic recurrence (``s2star_heuristic``),
* coefficient extraction from the column OGFs in k (``s2star_ogf_coeff``),
* a reverse binomial transform of truncated polylog series
  (``s2star_reverse_binomial``, by ``TruncSeries.binomial_transform``).

This module owns the format of the c* rows.  The recurrence runs once,
into the integer rows of ``_numerator_row``; every other reader takes its
cells from them: ``s2star_rec`` one exact cell, ``_scaled_numerators`` a
whole signed row over one denominator, and the row families of
``_double_rows`` (``_DOUBLE_ROWS``, ``_CLASSIC_ROWS``) the doubles that
:mod:`special` sums.  The one weighted row sum of the transform,
sum_j c*(k, j) j! w_j, is summed here too, over that signed row:
``_weighted_row_sum`` at one n for the exact identities of
:mod:`harmonic` and :mod:`msums`, and ``_binomial_row_sums`` at every n
up to N for the series of :mod:`series`.

Derived quantities: the scaled table, the t0/t1 remainder functions
against unsigned Stirling-1 numbers, and the alpha*n+beta generalization.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from .exactnum import SequenceTable, _binomial_sums, _integers, _reduced, factorial
from .harmonicnums import harmonic
from .powerseries import TruncSeries
from .stirling import stirling1_unsigned

__all__ = [
    "s2star_rec",
    "s2star_sum",
    "s2star_harmonic",
    "s2star_heuristic",
    "s2star_ogf_coeff",
    "s2star_scaled",
    "remainder_t",
    "s2star_general_f",
    "s2star_reverse_binomial",
]


def _lcms(values):
    lcm = values[-1] if values else 1
    for j in count(len(values)):
        lcm = math.lcm(lcm, j) if j else 1
        yield lcm


def _numerator_row(e: int, rows: list) -> SequenceTable:
    """Row k = e + 2 of the c* table over the integers:
    M_k(j) = |c*(k, j)| j! L_j^(k-2), L_j = lcm(1..j), which no longer row
    changes.  M_2(j) = [j >= 1] and
    M_k(j) = M_k(j-1) (L_j / L_{j-1})^(k-2) + M_{k-1}(j) L_j / j, where
    L_j / L_{j-1} is the prime p at a power of p and 1 elsewhere, so the
    producer, which carries M_k(j-1) and L_{j-1}, raises p^(k-2) only at
    the prime powers.  Row 0 sits on the L table, so every row's chain
    extends L first, and the producer reads M_{k-1}(j) and L_j in place."""
    if e == 0:
        return SequenceTable(lambda row: (int(j > 0) for j in count(len(row))), _LCM)
    below = rows[e - 1]
    lower, lcms = below._values, _LCM._values

    def produce(row):
        j = len(row)
        m, last = (row[-1], lcms[j - 1]) if j else (0, 1)
        for j in count(j):
            if j:
                lcm = lcms[j]
                if lcm != last:
                    m *= (lcm // last) ** e
                    last = lcm
                m += lower[j] * (lcm // j)
            yield m

    return SequenceTable(produce, below)


def _double_rows(cell) -> SequenceTable:
    """Rows e = 0, 1, ... of doubles, cell j of row e being
    cell(M_k(j), L_j^(k-2), j) for k = e + 2.  Each row sits on the
    integer row of the c* table it rounds and is only extended; ``cell``
    divides integers, so each double is rounded once, from its exact
    value.  The producer carries P = L_j^(k-2) and multiplies it by
    (L_j / L_{j-1})^(k-2) only where L changes, at the prime powers j, so
    no cell raises a power.  It reads M_k(j) and L_j in place, at the
    row's own index j."""

    def row(e: int) -> SequenceTable:
        numerators = _NUMERATORS[e]
        lower, lcms = numerators._values, _LCM._values

        def produce(values):
            j = len(values)
            last = lcms[j]
            power = last**e
            for j in count(j):
                lcm = lcms[j]
                if lcm != last:
                    power *= (lcm // last) ** e
                    last = lcm
                yield cell(lower[j], power, j)

        return SequenceTable(produce, numerators)

    return SequenceTable(lambda rows: map(row, count(len(rows))))


_LCM = SequenceTable(_lcms)
_NUMERATORS = SequenceTable(lambda rows: (_numerator_row(e, rows) for e in count(len(rows))))  # row k - 2: M_k
# row k - 2: -|c*(k, j)| j!, correctly rounded, the sign li_new_series sums
_DOUBLE_ROWS = _double_rows(lambda m, power, j: -m / power)
# row s - 1: sum_{m=0}^{j-1} C(j-1, m) (-1)^{m+1} / (m+1)^s = -|c*(s+1, j)| (j-1)!
_CLASSIC_ROWS = _double_rows(lambda m, power, j: -m / (power * j) if j else 0.0)
_DENOMINATORS = {}  # k -> (j, L_j^(k-2) j!) of the last cell row k reduced; one tuple, so threads read a matching pair


def s2star_rec(k: int, j: int) -> Fraction:
    """c*(k, j) by the two-index recurrence

    c*(k, j) = -(1/j) c*(k, j-1) + (1/j) c*(k-1, j) + [k = j = 1]

    with base rows c*(0, j) = [j = 0], c*(1, j) = [j = 1] and base column
    c*(k, 0) = [k = 0]; for k >= 2 and j >= 1 it is read from the integer
    table as (-1)^(j-1) M_k(j) / (L_j^(k-2) j!).  k and j pass through
    ``exactnum._integers`` first, so a float k raises TypeError before any
    table is read or written.  Right after cell (k, j - 1) that denominator is
    the row's last one times j (L_j / L_{j-1})^(k-2), one small multiply;
    any other read raises L_j^(k-2) j! afresh.  Either way the row then
    keeps (j, denominator), and ``exactnum._reduced`` reduces the cell
    against L_{floor(j/2)}, not L_j: a prime p in (j/2, j] divides L_j
    once and only the term 1/p of h_(k-2)(1, ..., 1/j) carries it, so
    M_k(j) = (L_j / p)^(k-2), not 0, mod p.  The bound is tight: at
    j = 2p, p divides the cell's common part when p | 2^(k-1) - 1.
    """
    if type(k) is not int or type(j) is not int:
        k, j = _integers("s2star_rec", k=k, j=j)
    if k < 0 or j < 0:
        return Fraction(0)
    if k < 2 or j == 0:
        return Fraction(int(j == k))
    e = k - 2
    m = _NUMERATORS[e][j]
    lcms = _LCM._values  # built through j by the row read
    lcm = lcms[j]
    last, denominator = _DENOMINATORS.get(k, (0, 1))  # L_0^e 0! = 1
    if last == j - 1:
        denominator *= j * (lcm // lcms[j - 1]) ** e
    else:
        denominator = lcm**e * factorial(j)
    _DENOMINATORS[k] = (j, denominator)
    return _reduced(m if j % 2 else -m, denominator, lcms[j // 2])


def _scaled_numerators(k: int, J: int) -> tuple:
    """Integer numerators N_k(j), j = 0..J, over the common denominator
    D = lcm(1..J)^(k-2), with N_k(j) / D = c*(k, j) j! (k >= 2): the
    table's M_k(j) rescaled by (L_J / L_j)^(k-2) and signed (-1)^(j-1)."""
    e = k - 2
    top = _LCM[J]
    cells = zip(_NUMERATORS[e].cells(0, J + 1), _LCM.cells(0, J + 1))
    return [(m if j % 2 else -m) * (top // lcm) ** e for j, (m, lcm) in enumerate(cells)], top**e


def _weighted_row_sum(k: int, n: int, weight, over: int = 1) -> Fraction:
    """sum_{j=1}^{n} c*(k, j) j! weight(j) / over for integer weights
    (k >= 2), summed as integers over the common denominator D of
    ``_scaled_numerators``; one Fraction is built."""
    numerators, denominator = _scaled_numerators(k, n)
    return Fraction(sum(numerators[j] * weight(j) for j in range(1, n + 1)), denominator * over)


def _binomial_row_sums(k: int, N: int, shift: int) -> list:
    """[sum_{j=1}^{n} c*(k, j) j! C(n+shift, j+shift) for n = 0..N] (k >= 2):
    one row at J = N serves every n.  Entry n is entry n + shift of
    ``exactnum._binomial_sums`` over shift zeros and the row of
    ``_scaled_numerators``, whose cell 0 is 0; each n builds one
    Fraction.  At shift 0 it is 1/n^(k-2) (n >= 1), and at shift 1
    H_n^(k-2)."""
    numerators, denominator = _scaled_numerators(k, N)
    return [Fraction(x, denominator) for x in _binomial_sums([0] * shift + numerators)[shift:]]


def s2star_sum(k: int, j: int) -> Fraction:
    """Closed binomial sum, valid for k >= 2, j >= 1:

    c*(k, j) = sum_{m=1}^{j} C(j, m) (-1)^{j-m} / (j! m^{k-2}).
    """
    return s2star_general_f(k, j, 1, 0)


def _harmonic_form(k: int, h):
    """|c*(k, j)| j! by the printed harmonic-number closed forms, k = 3..6,
    from h = (H_j, H_j^(2), ..., H_j^(k-2)), which it does not convert:
    the exact values of ``harmonicnums.harmonic`` give the exact form
    (``s2star_harmonic``), and the correctly rounded doubles of
    ``harmonicnums._doubles``, each rounded once, the double one
    (``special.zeta_star_harmonic_form``)."""
    h1 = h[0]
    if k == 3:
        return h1
    h2 = h[1]
    if k == 4:
        return (h1**2 + h2) / 2
    h3 = h[2]
    if k == 5:
        return (h1**3 + 3 * h1 * h2 + 2 * h3) / 6
    h4 = h[3]
    return (h1**4 + 6 * h1**2 * h2 + 3 * h2**2 + 8 * h1 * h3 + 6 * h4) / 24


def s2star_harmonic(k: int, j: int) -> Fraction:
    """Printed harmonic closed forms, k = 2..6 only."""
    if not 2 <= k <= 6:
        raise ValueError("harmonic closed forms exist for k in 2..6")
    if j < 1:
        raise ValueError("harmonic closed forms require j >= 1")
    form = _harmonic_form(k, [harmonic(j, r) for r in range(1, k - 1)]) if k > 2 else Fraction(1)
    return (-1) ** (j - 1) * form / factorial(j)


def s2star_heuristic(k: int, j: int) -> Fraction:
    """Heuristic harmonic recurrence returning c*(k+2, j):

    c*(k+2, j) = sum_{0 <= m < k} (H_j^{(m+1)} / k) c*(k+1-m, j)
                 + ((-1)^{j-1} / j!) [k = 0].
    """
    if k < 0:
        raise ValueError("heuristic recurrence requires k >= 0")
    if j < 1:
        raise ValueError("heuristic recurrence requires j >= 1")
    if k == 0:
        return Fraction((-1) ** (j - 1), factorial(j))
    total = Fraction(0)
    for m in range(k):
        total += harmonic(j, m + 1) * s2star_rec(k + 1 - m, j)
    return total / k


def s2star_ogf_coeff(k: int, j: int) -> Fraction:
    """[z^k] of the column OGF in k for fixed j, via the truncated
    reciprocal of its denominator, expanded by unsigned Stirling-1 numbers.

    For j = 1 the OGF is z/(1-z); for j >= 2 it is
    (-1)^{j+1} z^2 / ((1-z)(2-z)...(j-z)).
    """
    if j < 1:
        raise ValueError("column OGFs require j >= 1")
    if j == 1:
        return Fraction(1 if k >= 1 else 0)
    if k < 2:
        return Fraction(0)
    # reciprocal of prod_{i=1}^{j} (i - z) = sum_m (-1)^m c(j+1, m+1) z^m,
    # truncated to order k-2
    order = k - 2
    denom = TruncSeries([Fraction((-1) ** m * stirling1_unsigned(j + 1, m + 1)) for m in range(order + 1)])
    return (-1) ** (j + 1) * denom.inverse().coeff(order)


def s2star_scaled(k: int, j: int) -> Fraction:
    """c*(k, j) * (-1)^{j-1} * j! (the all-positive scaled table)."""
    if j < 1:
        raise ValueError("scaled table is defined for j >= 1")
    return s2star_rec(k, j) * (-1) ** (j - 1) * factorial(j)


def remainder_t(variant: str, k: int, j: int) -> Fraction:
    """Remainder terms t0/t1 of the scaled coefficients against
    unsigned Stirling-1 numbers:

    t0(k, j) = scaled(k, j) - c(j+1, k-1)/j!
    t1(k, j) = scaled(k, j) + c(j+1, k-1)/j!
    """
    if variant not in ("t0", "t1"):
        raise ValueError("variant must be 't0' or 't1'")
    if not 2 <= k <= 7:
        raise ValueError("remainder terms are tabulated for k in 2..7")
    s1_part = Fraction(stirling1_unsigned(j + 1, k - 1), factorial(j))
    if variant == "t0":
        return s2star_scaled(k, j) - s1_part
    return s2star_scaled(k, j) + s1_part


def s2star_general_f(k: int, j: int, alpha, beta) -> Fraction:
    """Modified coefficients for f(n) = alpha*n + beta:

    (1/j!) sum_{m=1}^{j} C(j, m) (-1)^{j-m} / (alpha*m + beta)^{k-2}.

    alpha = 1, beta = 0 is the closed sum ``s2star_sum``.  Written over
    integers, f(m) = (a m + b) / q with a = alpha.num * beta.den,
    b = beta.num * alpha.den and q = alpha.den * beta.den, so with
    e = k - 2 and P = lcm(a m + b : m = 1..j)^e the sum is
    sum_m (-1)^{j-m} T_m q^e / (P j!) over the integers
    T_m = C(j, m) P / (a m + b)^e.  P is raised once, and each T_m comes
    from the one before by the ratio of small integers
    T_m = T_{m-1} (j - m + 1) (a(m-1) + b)^e / (m (a m + b)^e), since
    C(j, m) m = C(j, m-1) (j - m + 1).  The quotient is the integer T_m,
    so each floor division is exact, whatever the signs of f(m) and of
    its odd powers.  One Fraction is built at the end, reduced by gcds
    against lcm(a m + b) and L_j only (``exactnum._reduced``).
    """
    if k < 2:
        raise ValueError("generalized coefficients require k >= 2")
    if j < 1:
        raise ValueError("generalized coefficients require j >= 1")
    alpha, beta = Fraction(alpha), Fraction(beta)
    a, b = alpha.numerator * beta.denominator, beta.numerator * alpha.denominator
    q = alpha.denominator * beta.denominator
    values = [a * m + b for m in range(1, j + 1)]
    if 0 in values:
        raise ZeroDivisionError(f"f({values.index(0) + 1}) = 0 for alpha={alpha}, beta={beta}")
    e = k - 2
    lcm = math.lcm(*values)
    power = lcm**e
    last = values[0] ** e
    term = total = j * (power // last)
    for m in range(2, j + 1):
        p_e = values[m - 1] ** e
        term = term * (j - m + 1) * last // (m * p_e)
        last = p_e
        total = term - total  # ends as sum_m (-1)^(j-m) T_m
    # every prime of the denominator divides lcm or is at most j
    return _reduced(total * q**e, power * factorial(j), math.lcm(lcm, _LCM[j]))


def s2star_reverse_binomial(k: int, j: int) -> Fraction:
    """c*(k+2, j) = ((-1)^j / (j-1)!) [z^j] Li_{k+1}(-z/(1-z)),

    with the polylog series truncated at order j over exact rationals.
    """
    if k < 0:
        raise ValueError("reverse binomial transform requires k >= 0")
    if j < 1:
        raise ValueError("reverse binomial transform requires j >= 1")
    transformed = TruncSeries.polylog(k + 1, j).binomial_transform()
    return Fraction((-1) ** j, factorial(j - 1)) * transformed.coeff(j)
