"""Harmonic number identities built on the coefficient tables.

Every operation here evaluates one side of a printed identity; the other
side (direct summation, the exact coefficient table) lives with the
caller or the audit registry.  Exact paths return Fractions; real-order
paths return doubles.

Each exact side is regrouped from its display, without applying an
identity, into one integer sum that builds one Fraction: sums weighted by
c*(k, j) j! go through the row sums of :mod:`coeffs`,
``_weighted_row_sum`` (one n) and ``_binomial_row_sums`` (every n up to
N), which own the row's sign, and sums of harmonic numbers against
integer weights go through ``exactnum._linear_combination``.  The
Stirling-2 side of the transform, ``npow_forward``, lives with the S2
table in :mod:`stirling`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coeffs import _LCM, _binomial_row_sums, _weighted_row_sum, s2star_rec
from .exactnum import _linear_combination, binomial, factorial
from .harmonicnums import _doubles, harmonic, harmonic_real
from .stirling import stirling1_unsigned

__all__ = [
    "npow_inverse",
    "harmonic_via_rec",
    "s2star_from_hnum_int",
    "s2star_from_hnum_real",
    "exp_harmonic_conv",
    "exp_harmonic_inv",
    "harmonic_rec_corollary",
    "harmonic_binomial_form",
    "harmonic_powers_of_n",
]


def npow_inverse(n: int, k: int) -> Fraction:
    """sum_{j=1}^{n} c*(k+2, j) n!/(n-j)!; equals 1/n^k exactly (k >= 0)."""
    if n < 1:
        raise ValueError("npow_inverse requires n >= 1")
    if k < 0:
        raise ValueError("npow_inverse requires k >= 0")
    return _weighted_row_sum(k + 2, n, lambda j: binomial(n, j))


def harmonic_via_rec(n: int, k: int) -> Fraction:
    """H_n^{(k)} accumulated through the 1/n^k coefficient sums (k >= 0)."""
    if n < 0:
        raise ValueError("harmonic_via_rec requires n >= 0")
    if k < 0:
        raise ValueError("harmonic_via_rec requires k >= 0")
    return sum(_binomial_row_sums(k + 2, n, 0))


def s2star_from_hnum_int(k: int, j: int, variant: int) -> Fraction:
    """Finite integer-order harmonic sums equal to c*(k+2, j).

    variant 1: (j+1) sum_{i=0}^{j-1} (-1)^{j-1-i} H_{i+1}^{(k)} /
               ((j-1-i)! (i+2)!)
    variant 2: same with H_{i+2}^{(k)}/(i+2)! - 1/((i+2)! (i+2)^k) inside.

    Both are summed over j!, where term i weighs
    (-1)^{j-1-i} (j+1) j! / ((j-1-i)! (i+2)!) = (-1)^{j-1-i} C(j+1, i+2).
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if k < 0:
        raise ValueError("harmonic sums for c*(k+2, j) require k >= 0")
    if j < 0:
        raise ValueError("harmonic sums for c*(k+2, j) require j >= 0")
    weights = [(-1) ** (j - 1 - i) * binomial(j + 1, i + 2) for i in range(j)]
    if variant == 1:
        values = [harmonic(i + 1, k) for i in range(j)]
    else:
        values = [harmonic(i + 2, k) - Fraction(1, (i + 2) ** k) for i in range(j)]
    return _linear_combination(weights, values, factorial(j))


def _real_weight(i: int, j: int, r: float) -> float:
    """1/(i+1)^r - 1/(i+2)^r + (j+1)/(i+2)^{r+1} (real order r, in doubles)."""
    return (i + 1) ** -r - (i + 2) ** -r + (j + 1) * (i + 2) ** -(r + 1)


def s2star_from_hnum_real(k: int, j: int, r: float, variant: int) -> float:
    """Real-order harmonic sums for c*(k+2, j), in double precision.

    variant 1 weight: 1/(i+1)^r + (j-1-i)/(i+2)^{r+1}
    variant 2 weight: 1/(i+1)^r - 1/(i+2)^r + (j+1)/(i+2)^{r+1}
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if not 0 <= r < k:
        raise ValueError("real order must satisfy 0 <= r < k")
    total = 0.0
    for i in range(j):
        sign = (-1) ** (j - 1 - i)
        h = harmonic_real(i + 1, k - r)
        prefactor = sign * h / (math.factorial(j - 1 - i) * math.factorial(i + 1))
        weight = (i + 1) ** -r + (j - 1 - i) * (i + 2) ** -(r + 1) if variant == 1 else _real_weight(i, j, r)
        total += prefactor * weight
    return total


def exp_harmonic_conv(k: int, j: int) -> Fraction:
    """sum_{m=0}^{j} (H_m^{(k+1)}/m!) (-1)^{j-m}/(j-m)!;
    equals c*(k+2, j)/j (k >= 0).  Summed over j!, with the weights
    (-1)^{j-m} C(j, m)."""
    if k < 0:
        raise ValueError("exp_harmonic_conv requires k >= 0")
    if j < 0:
        raise ValueError("exp_harmonic_conv requires j >= 0")
    weights = [(-1) ** (j - m) * binomial(j, m) for m in range(j + 1)]
    return _linear_combination(weights, (harmonic(m, k + 1) for m in range(j + 1)), factorial(j))


def exp_harmonic_inv(k: int, j: int) -> Fraction:
    """sum_{i=1}^{j} c*(k+2, i) / (i (j-i)!); equals H_j^{(k+1)}/j! (k, j >= 0).
    Summed over L_j j! (L_j = lcm(1..j)) with the weights C(j, i) L_j / i."""
    if k < 0:
        raise ValueError("exp_harmonic_inv requires k >= 0")
    if j < 0:
        raise ValueError("exp_harmonic_inv requires j >= 0")
    lcm = _LCM[j]
    return _weighted_row_sum(k + 2, j, lambda i: binomial(j, i) * lcm // i, lcm * factorial(j))


def harmonic_rec_corollary(n: int, k: int, which: int, r: float = 0.0):
    """Right-hand sides of the three harmonic-number recurrences.

    which = 1 and 2 are exact; which = 3 carries a real order r in
    [0, k) and is evaluated in double precision unless r = 0.  The exact
    double and triple sums are regrouped by their innermost term, with
    integer weights, and summed over one common denominator.
    """
    if n < 1:
        raise ValueError("recurrences advance from n >= 1")
    if k < 0:
        raise ValueError("recurrences require k >= 0")
    if which == 1:
        # sum_i c*(k+1, i) (i-1)! w_i with w_i = sum_{j>=i} (-1)^{j-i} C(n, j)
        weights = [0] * (n + 2)
        for i in range(n, 0, -1):
            weights[i] = binomial(n, i) - weights[i + 1]
        if k == 0:  # base row 1: c*(1, i) = [i = 1]
            return harmonic(n - 1, 0) + s2star_rec(1, 1) * weights[1]
        lcm = _LCM[n]
        return harmonic(n - 1, k) + _weighted_row_sum(k + 1, n, lambda i: weights[i] * lcm // i, lcm)
    if which == 2:
        # H_m^{(k)} weighs sum_{j>=m} (-1)^{j+m} C(n, j) sum_{m<=i<=j} C(i, m),
        # and the inner sum is C(j+1, m+1) (the hockey-stick identity)
        weights = [1] + [sum((-1) ** (j + m) * binomial(n, j) * binomial(j + 1, m + 1) for j in range(m, n + 1))
                         for m in range(1, n + 1)]
        return _linear_combination(weights, [harmonic(n - 1, k), *(harmonic(m, k) for m in range(1, n + 1))])
    if which == 3:
        if not 0 <= r < k:
            raise ValueError("real order must satisfy 0 <= r < k")
        if r == 0:
            # H_{i+1}^{(k)} / (i+2) weighs sum_j (-1)^{j-1-i} C(n, j) C(j, i+1) (j+1)
            weights = [1] + [sum((-1) ** (j - 1 - i) * binomial(n, j) * binomial(j, i + 1) * (j + 1)
                                 for j in range(i + 1, n + 1)) for i in range(n)]
            values = [harmonic(n - 1, k), *(harmonic(i + 1, k) / (i + 2) for i in range(n))]
            return _linear_combination(weights, values)
        total = _doubles(k)[n - 1]
        for j in range(1, n + 1):
            for i in range(j):
                sign = (-1) ** (j - 1 - i)
                total += binomial(n, j) * binomial(j, i + 1) * sign * harmonic_real(i + 1, k - r) * _real_weight(i, j, r)
        return total
    raise ValueError("which must be 1, 2, or 3")


def harmonic_binomial_form(n: int, k: int) -> Fraction:
    """H_n^{(k)} = sum_{0<=j<=n} C(n+1, j+1) c*(k+2, j) j! (n, k >= 0)."""
    if n < 0:
        raise ValueError("harmonic_binomial_form requires n >= 0")
    if k < 0:
        raise ValueError("harmonic_binomial_form requires k >= 0")
    return _weighted_row_sum(k + 2, n, lambda j: binomial(n + 1, j + 1))


def harmonic_powers_of_n(n: int, k: int) -> Fraction:
    """H_n^{(k)} as the double sum over unsigned Stirling-1 numbers and
    powers of n+1 (the binomial coefficients of harmonic_binomial_form
    expanded through c(j+1, m)), n, k >= 0.  Summed over (n+1)!, term j
    weighing its inner power sum times (n+1)!/(j+1)!."""
    if n < 0:
        raise ValueError("harmonic_powers_of_n requires n >= 0")
    if k < 0:
        raise ValueError("harmonic_powers_of_n requires k >= 0")

    def weight(j):
        inner = sum(stirling1_unsigned(j + 1, m) * (-1) ** (j + 1 - m) * (n + 1) ** m for m in range(j + 2))
        return inner * (factorial(n + 1) // factorial(j + 1))

    return _weighted_row_sum(k + 2, n, weight, factorial(n + 1))
