"""Remainder-term sums M_{k+1}^{(d)}(n) and the almost-linear
harmonic-number recurrences built on them.

Everything here is evaluated exactly and *reported*, not asserted: the
defining Stirling-weighted sum (``m_def``) and the displayed alternate
binomial sum (``m_alt``) disagree as written (e.g. m_def(3,1,1) = 1
while m_alt(3,1,1) = -1), and the displayed homogeneous recurrence
fails for both.  The functions compute each side verbatim under a
selectable Stirling-1 sign reading so the discrepancies themselves are
reproducible artifacts.  Two repairs of the sums are tested exactly,
with the repaired forms kept as test oracles:

* the alternate sum with c*(k+2, j) j! where the display has
  c*(k+2, j) (-1)^j, (n+d)!/n! sum_j C(n, j) c*(k+2, j) j!/(j+d), equals
  ``m_def`` under the unsigned reading (k = 3..8, d = 1..4, n = 0..12);
* the homogeneous recurrence with (n+1) in place of (n+2) holds under
  ``m_def`` (k = 3..6, d = 1..3, n = 0..9), since
  M_{k+1}(n+1) - M_{k+1}(n) = sum_m s1(d, m) / (n+1)^{k+1-m}.

Under ``m_def`` each M(d) is sum_m s1(d, m) H(k+1-m), so a relation
between H(k), ..., H(k-4) and M(2), ..., M(5) holds at every k and n
exactly when its image over H(k), ..., H(k-4) is zero.  No printed
display, and no constant row or d row of the three families, has a zero
image under either reading.  Three sign repairs do; they too are test
oracles, held exactly through ``_relation_sides`` at k = 7, 8 and
n = 0..23:

* display 1 under the signed reading with -M(3):
  H(k) = H(k-2) - 3 M(2) - M(3);
* family 1's d row under the unsigned reading with -M(3):
  H(k) = H(k-2) + 3 M(2) - M(3);
* family 3's d row under the unsigned reading with its four M weights
  negated, the S2(5, d) inversion:
  H(k) = H(k-4) + 15 M(2) - 25 M(3) + 10 M(4) - M(5).

``m_def`` sums its harmonic numbers of mixed orders, and
``_relation_sides`` the right side of every printed relation, through
``exactnum._linear_combination``; ``m_alt`` sums the c* row through
``coeffs._weighted_row_sum``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .coeffs import _weighted_row_sum
from .exactnum import _linear_combination, _over_common, binomial, factorial
from .harmonicnums import harmonic
from .stirling import stirling1_signed, stirling1_unsigned

__all__ = [
    "MSumSpec",
    "m_def",
    "m_alt",
    "m_value",
    "m_recurrence_residual",
    "almost_linear_sides",
    "general_relation_sides",
]

_READINGS = ("unsigned", "signed")
_SOURCES = ("def_unsigned", "def_signed", "alt")


class _MSumFields(NamedTuple):
    k: int
    d: int
    n: int
    stirling_reading: str = "unsigned"


class MSumSpec(_MSumFields):
    """The parameters of M_{k+1}^{(d)}(n), checked when built."""

    __slots__ = ()

    def __new__(cls, k: int, d: int, n: int, stirling_reading: str = "unsigned"):
        if k <= 2:
            raise ValueError("M sums require k > 2")
        if d < 1:
            raise ValueError("M sums require d >= 1")
        if n < 0:
            raise ValueError("M sums require n >= 0")
        if stirling_reading not in _READINGS:
            raise ValueError(f"stirling_reading must be one of {_READINGS}")
        return super().__new__(cls, k, d, n, stirling_reading)


def m_def(spec: MSumSpec) -> Fraction:
    """M_{k+1}^{(d)}(n) = sum_{m=1}^{d} s1(d, m) H_n^{(k+1-m)} under the
    chosen Stirling-1 sign reading (orders <= 0 are literal power sums)."""
    s1 = stirling1_unsigned if spec.stirling_reading == "unsigned" else stirling1_signed
    orders = range(1, spec.d + 1)
    weights = [s1(spec.d, m) for m in orders]
    return _linear_combination(weights, [harmonic(spec.n, spec.k + 1 - m) for m in orders])


def m_alt(spec: MSumSpec) -> Fraction:
    """The displayed alternate binomial sum, exactly as written:

    sum_{j=1}^{n} C(n, j) c*(k+2, j) (-1)^j / (j+d) * (n+d)!/n!

    summed over the kernel row as c*(k+2, j) j! times the integer weight
    (-1)^j C(n, j) (n!/j!) lcm/(j+d), over n! lcm with
    lcm = lcm(d+1..n+d).
    """
    k, d, n = spec.k, spec.d, spec.n
    lcm = math.lcm(*range(d + 1, n + d + 1))
    weight = lambda j: (-1) ** j * binomial(n, j) * (factorial(n) // factorial(j)) * (lcm // (j + d))
    return _weighted_row_sum(k + 2, n, weight, factorial(n) * lcm) * (factorial(n + d) // factorial(n))


def m_value(k: int, d: int, n: int, source: str) -> Fraction:
    """M_{k+1}^{(d)}(n) from the selected source formula."""
    if source == "alt":
        return m_alt(MSumSpec(k, d, n))
    if source == "def_unsigned":
        return m_def(MSumSpec(k, d, n, "unsigned"))
    if source == "def_signed":
        return m_def(MSumSpec(k, d, n, "signed"))
    raise ValueError(f"source must be one of {_SOURCES}")


def m_recurrence_residual(k: int, d: int, n: int, source: str) -> Fraction:
    """Residual of the displayed homogeneous recurrence

    M_{k+1}(n) - M_{k+1}(n+1) + (n+2) M_{k+2}(n+1) - (n+2) M_{k+2}(n)

    computed from the chosen source; zero iff the recurrence holds."""
    return (
        m_value(k, d, n, source)
        - m_value(k, d, n + 1, source)
        + (n + 2) * m_value(k + 1, d, n + 1, source)
        - (n + 2) * m_value(k + 1, d, n, source)
    )


# The right-hand terms of every printed relation at one (k, n), in table
# order: H(k-1), ..., H(k-4), M(2), ..., M(5).  Each relation below is its
# weight of H(k) and its weights over these eight terms.
_DISPLAYS = (
    (1, (0, 1, 0, 0, -3, 1, 0, 0)),
    (2, (-3, -1, 0, 0, 0, -1, 0, 0)),
    (7, (-12, 6, -1, 0, -1, 0, 1, 0)),
    (5, (-9, -5, -1, 0, -1, 1, -1, 0)),
    (1, (0, 2, -1, 0, 1, -4, 1, 0)),
    (1, (0, 1, 0, 0, -3, 1, 0, 0)),  # display 6 at m = 0 ...
)
_DISPLAY_6_PER_M = (0, -1, 0, 1, -12, 24, -10, 1)  # ... plus m times this
# per family: one row per free constant, then the row of d
_FAMILIES = (
    ((1, 1, 0, 0, 2, 1, 0, 0), (0, 1, 0, 0, 3, 1, 0, 0)),
    ((1, 0, -1, 0, -6, 6, -1, 0), (0, 1, 1, 0, 4, -5, 1, 0), (0, 0, -1, 0, -7, 6, -1, 0)),
    (
        (1, 0, 0, 1, -14, 25, -10, 1),
        (0, 1, 0, -1, 12, -24, 10, -1),
        (0, 0, 1, 1, -8, 19, -9, 1),
        (0, 0, 0, 1, -15, 25, -10, 1),
    ),
)


def _relation_sides(scale, weights: Sequence, k: int, n: int, source: str) -> tuple:
    """scale H(k) and sum_i weights[i] T_i over the eight right-hand terms
    T = H(k-1), ..., H(k-4), M(2), ..., M(5) at (k, n), with M from
    ``source``.  Only the terms of nonzero weight are evaluated; the
    rational weights go over one denominator and the right side is one
    integer ``_linear_combination``."""
    terms = [i for i, w in enumerate(weights) if w]
    numerators, common = _over_common([weights[i] for i in terms])
    values = [harmonic(n, k - 1 - i) if i < 4 else m_value(k, i - 2, n, source) for i in terms]
    return scale * harmonic(n, k), _linear_combination(numerators, values, common)


def almost_linear_sides(which: int, k: int, n: int, m=Fraction(0), source: str = "alt") -> tuple:
    """Both sides of one of the six displayed almost-linear
    harmonic-number recurrences, as printed (the undefined orders written
    p-3 and p-4 are read as k-3 and k-4; the sixth has a free constant m):

    1. H(k) = H(k-2) - 3 M(2) + M(3)
    2. 2 H(k) = -3 H(k-1) - H(k-2) - M(3)
    3. 7 H(k) = -12 H(k-1) + 6 H(k-2) - H(k-3) - M(2) + M(4)
    4. 5 H(k) = -9 H(k-1) - 5 H(k-2) - H(k-3) - M(2) + M(3) - M(4)
    5. H(k) = 2 H(k-2) - H(k-3) + M(2) - 4 M(3) + M(4)
    6. H(k) = (1-m) H(k-2) + m H(k-4) - (12m+3) M(2) + (24m+1) M(3)
       - 10m M(4) + m M(5)

    with H(r) = H_n^(r) and M(d) = M_{k+1}^(d)(n) from ``source``."""
    if which not in range(1, 7):
        raise ValueError("which must be in 1..6")
    m = Fraction(m)
    scale, weights = _DISPLAYS[which - 1]
    if which == 6:
        weights = [w + m * v for w, v in zip(weights, _DISPLAY_6_PER_M)]
    return _relation_sides(scale, weights, k, n, source)


def general_relation_sides(family: int, coeffs: Sequence, d, k: int, n: int, source: str = "alt") -> tuple:
    """Both sides of the parameterized relations the displayed
    recurrences specialize, with free constants a1 / b1,b2 / c1,c2,c3
    and a common scale d != 0, as printed:

    1. d H(k) = a1 H(k-1) + (a1+d) H(k-2) + (2a1+3d) M(2) + (a1+d) M(3)
    2. d H(k) = b1 H(k-1) + b2 H(k-2) - (b1-b2+d) H(k-3)
       - (6b1-4b2+7d) M(2) + (6b1-5b2+6d) M(3) - (b1-b2+d) M(4)
    3. d H(k) = c1 H(k-1) + c2 H(k-2) + c3 H(k-3) + (c1-c2+c3+d) H(k-4)
       - (14c1-12c2+8c3+15d) M(2) + (25c1-24c2+19c3+25d) M(3)
       - (10c1-10c2+9c3+10d) M(4) + (c1-c2+c3+d) M(5)

    with H and M as in :func:`almost_linear_sides`."""
    if family not in (1, 2, 3):
        raise ValueError("family must be in 1..3")
    if len(coeffs) != family:
        raise ValueError(f"family {family} takes {family} constants, got {len(coeffs)}")
    d = Fraction(d)
    if d == 0:
        raise ValueError("the scale d must be nonzero")
    constants = [Fraction(c) for c in coeffs] + [d]
    weights = [sum(c * w for c, w in zip(constants, column)) for column in zip(*_FAMILIES[family - 1])]
    return _relation_sides(d, weights, k, n, source)
