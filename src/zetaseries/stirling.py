"""Classical combinatorial number tables.

Stirling numbers of both kinds, Bernoulli numbers and polynomials,
Faulhaber power sums, and the Stirling-2 weighted sums.  Each kind of
Stirling number is one family of column tables (``_columns``), and the
Bernoulli numbers are one more table.  The Stirling-2 side of the
transform, sum_j S2(k, j) n!/(n-j)! = n^k, is summed once, by
``npow_forward`` beside the S2 table; ``stirling2_power_sum`` sums its
values against powers of x, and ``faulhaber_sum`` reuses
``bernoulli_poly``."""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from .exactnum import SequenceTable, binomial, falling_factorial

__all__ = [
    "stirling2",
    "stirling1_unsigned",
    "stirling1_signed",
    "bernoulli_number",
    "bernoulli_poly",
    "faulhaber_sum",
    "npow_forward",
    "stirling2_power_sum",
]


def _columns(step: int) -> SequenceTable:
    """Columns k = 0, 1, ... of T(n, k) = w T(n-1, k) + T(n-1, k-1) with
    weight w = k + step (n - k - 1), k for S2 (step 0) and n - 1 for S1
    (step 1), T(0, 0) = 1 and T(n, 0) = 0 for n >= 1, each indexed from
    its first nonzero cell: entry i of column k is T(k+i, k), the weighted
    entry i-1 plus entry i of column k-1, read in place.  The producer
    carries the weight from cell to cell, adding step."""

    def column(k: int, columns: list) -> SequenceTable:
        if k == 0:
            return SequenceTable(lambda col: (int(i == 0) for i in count(len(col))))
        below = columns[k - 1]
        lower = below._values

        def produce(col):
            t, weight = (col[-1] if col else 0), k + step * (len(col) - 1)
            for i in count(len(col)):
                t = weight * t + lower[i]
                weight += step
                yield t

        return SequenceTable(produce, below)

    return SequenceTable(lambda columns: (column(k, columns) for k in count(len(columns))))


_STIRLING2 = _columns(0)
_STIRLING1 = _columns(1)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, Iverson base case at n=k=0."""
    if n < 0 or k < 0 or k > n:
        return 0
    try:
        return _STIRLING2._values[k]._values[n - k]
    except IndexError:
        return _STIRLING2[k][n - k]


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (cycle counts)."""
    if n < 0 or k < 0 or k > n:
        return 0
    try:
        return _STIRLING1._values[k]._values[n - k]
    except IndexError:
        return _STIRLING1[k][n - k]


def stirling1_signed(n: int, k: int) -> int:
    return (-1) ** (n - k) * stirling1_unsigned(n, k)


def _bernoulli(n: int, b: list) -> Fraction:
    if n > 2 and n % 2:
        return Fraction(0)
    return (Fraction(int(n == 0)) - sum(binomial(n + 1, j) * b_j for j, b_j in enumerate(b))) / (n + 1)


_BERNOULLI = SequenceTable(lambda b: (_bernoulli(n, b) for n in count(len(b))))


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, via the convolution recurrence

    sum_{j=0}^{n} C(n+1, j) B_j = [n = 0].
    """
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    return _BERNOULLI[n]


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n,k) B_k x^{n-k}, exact."""
    if n < 0:
        raise ValueError("bernoulli_poly requires n >= 0")
    x = Fraction(x)
    return sum(
        (binomial(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


def faulhaber_sum(k: int, n: int) -> Fraction:
    """sum_{j=0}^{n-1} j^k = (B_{k+1}(n) - B_{k+1}) / (k+1), by ``bernoulli_poly``."""
    if k < 0 or n < 0:
        raise ValueError("faulhaber_sum requires k, n >= 0")
    return (bernoulli_poly(k + 1, n) - bernoulli_number(k + 1)) / (k + 1)


def npow_forward(n: int, k: int) -> Fraction:
    """sum_{j} S2(k, j) n!/(n-j)!; equals n^k (n, k >= 0)."""
    if k < 0:
        raise ValueError("npow_forward requires k >= 0")
    return Fraction(sum(stirling2(k, j) * falling_factorial(n, j) for j in range(k + 1)))


def stirling2_power_sum(k: int, n: int, x: Fraction) -> Fraction:
    """sum_{j=0}^{n} j^k x^j via Stirling-2 weighted derivatives.

    Evaluates sum_j S2(k,j) x^j d^j/dx^j [1 + x + ... + x^n]: the
    derivatives take monomial x^i to i!/(i-j)! x^(i-j), so the sum is
    sum_i x^i sum_j S2(k, j) i!/(i-j)!, the inner sum being
    ``npow_forward(i, k)``.  x = 0 and x = 1 are rejected (the source
    identity's quotient form is singular there).
    """
    x = Fraction(x)
    if x == 0 or x == 1:
        raise ValueError("stirling2_power_sum requires x not in {0, 1}")
    return sum((npow_forward(i, k) * x**i for i in range(n + 1)), Fraction(0))
