"""Basic k-order harmonic number primitives.

Pure power sums, the exact ones as prefix sums in one growable table per
order r; the identities built on them live in :mod:`zetaseries.harmonic`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from .exactnum import SequenceTable

__all__ = ["harmonic", "harmonic_real", "harmonic_t"]


def _inv_power(m: int, r: int) -> Fraction:
    """m^{-r} as an exact rational, for any integer r."""
    return Fraction(1, m**r) if r >= 0 else Fraction(m**-r)


_HARMONIC = {}  # order r -> table of H_n^{(r)}


def harmonic(n: int, r: int = 1) -> Fraction:
    """Exact H_n^{(r)} = sum_{m=1}^{n} m^{-r} for any integer order r.

    r <= 0 is the literal power sum (H_n^{(0)} = n, H_n^{(-1)} = n(n+1)/2),
    needed where derived orders cross zero.  H_0^{(r)} = 0.
    """
    if n < 0:
        raise ValueError("harmonic requires n >= 0")
    table = _HARMONIC.get(r) or _HARMONIC.setdefault(r, SequenceTable(lambda h: _prefix_sums(h, r)))
    return table[n]


def _prefix_sums(h: list, r: int):
    total = h[-1] if h else Fraction(0)
    for m in count(len(h)):
        if m:
            total += _inv_power(m, r)
        yield total


def harmonic_real(n: int, rho: float) -> float:
    """H_n^{(rho)} = sum_{m=1}^{n} m^{-rho} in double precision."""
    if n < 0:
        raise ValueError("harmonic_real requires n >= 0")
    total = 0.0
    for m in range(1, n + 1):  # left to right: sum() compensates since Python 3.12
        total += m ** (-rho)
    return total


def harmonic_t(n: int, r: int, t) -> Fraction:
    """Exact t-parameterized harmonic sum H_n^{(r)}(t) = sum t^m / m^r."""
    if n < 0:
        raise ValueError("harmonic_t requires n >= 0")
    t = Fraction(t)
    total = Fraction(0)
    for m in range(1, n + 1):
        total += t**m * _inv_power(m, r)
    return total
