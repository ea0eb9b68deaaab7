"""Basic k-order harmonic number primitives.

Pure power sums: exact H_n^{(r)} for every integer order r, one table per
order grown by ``_prefix_sums``, doubles for real orders, and the
t-weighted sums.  Beside each exact table, ``_doubles`` keeps one table of
doubles per order r, sitting on it and only extended: cell n is the
correctly rounded double of H_n^{(r)}, numerator / denominator by int
true division, the value float() gives, rounded once per process.  The
numeric closed forms of :mod:`special` read their harmonic numbers there.
The identities built on them live in :mod:`zetaseries.harmonic`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

from .exactnum import SequenceTable, _coprime, _integers

__all__ = ["harmonic", "harmonic_real", "harmonic_t"]


_HARMONIC = {}  # order r -> table of H_n^{(r)}
_DOUBLES = {}  # order r -> table of the doubles of H_n^{(r)}, on _HARMONIC[r]


def harmonic(n: int, r: int = 1) -> Fraction:
    """Exact H_n^{(r)} = sum_{m=1}^{n} m^{-r} for any integer order r.

    r <= 0 is the literal power sum (H_n^{(0)} = n, H_n^{(-1)} = n(n+1)/2),
    needed where derived orders cross zero.  H_0^{(r)} = 0.  An int n >= 0
    and int r read a built cell with one list index; any other n and r
    pass through ``exactnum._integers``, so a float order keys no table.
    """
    if type(n) is not int or type(r) is not int or n < 0:
        n, r = _integers("harmonic", n=n, r=r)
        if n < 0:
            raise ValueError("harmonic requires n >= 0")
    table = _HARMONIC.get(r) or _exact(r)
    try:
        return table._values[n]
    except IndexError:
        return table[n]


def _exact(r: int) -> SequenceTable:
    """The table of H_n^{(r)}, n = 0, 1, ..., for an int r, made on first
    use (``harmonic`` reads ``_HARMONIC`` itself first, saving a call)."""
    return _HARMONIC.get(r) or _HARMONIC.setdefault(r, SequenceTable(lambda h: _prefix_sums(h, r)))


def _doubles(r: int) -> SequenceTable:
    """The table of doubles of H_n^{(r)}, n = 0, 1, ..., for an integer r,
    checked as in ``harmonic``: it sits on the exact table of order r, and
    its producer reads each exact value in place and divides its numerator
    by its denominator, int by int, so each cell is correctly rounded, bit
    for bit float() of it."""
    if type(r) is not int:
        (r,) = _integers("_doubles", r=r)
    table = _DOUBLES.get(r)
    if table is None:
        exact = _exact(r)
        values = exact._values

        def produce(doubles):
            for n in count(len(doubles)):
                value = values[n]
                yield value.numerator / value.denominator

        table = _DOUBLES.setdefault(r, SequenceTable(produce, exact))
    return table


def _double_cells(orders, J: int):
    """(j, (H_j^{(r)} for r in orders)) for j = 1..J, each a double of
    ``_doubles(r)`` read in place."""
    return enumerate(zip(*(_doubles(r).cells(1, J + 1) for r in orders)), 1)


def _prefix_sums(h: list, r: int):
    """H_m^{(r)} for m = len(h), len(h) + 1, ..., resumed from h[-1].

    For r >= 1, with num/den = H_{m-1}^{(r)} in lowest terms and
    q, rem = divmod(den, m^r) (Knuth, TAOCP 4.5.1): a prime common to the
    new numerator and denominator divides gcd(den, m^r).  If rem == 0 the
    sum is (num + q)/den, and a prime p with v_p(den) > v_p(m^r) divides
    q but not num, so gcd(num + q, m^r) is the whole common part.  Every
    prime of it divides m, so the one-digit gcd(num + q, m) is taken
    first, and the one against m^r, a long division once m^r outgrows a
    digit, only when that is above 1, which it rarely is.  Else
    g = gcd(m^r, rem), the sum is (num*(m^r/g) + den/g)/(den/g * m^r), and
    its common part is gcd(new num, g).  Each value is built by
    ``exactnum._coprime``, without Fraction()'s gcd; r <= 0 is the literal
    integer power sum."""
    total = h[-1] if h else Fraction(0)
    if not h:
        yield total
    if r <= 0:
        for m in count(max(len(h), 1)):
            total += m**-r
            yield total
    num, den = total.numerator, total.denominator
    for m in count(max(len(h), 1)):
        power = m**r
        q, rem = divmod(den, power)
        if rem:
            g = gcd(power, rem)
            q = den // g
            num, den = num * (power // g) + q, q * power
            g = gcd(num % g, g)
        else:
            num += q
            g = gcd(num % m, m)
            if g > 1:
                g = gcd(num % power, power)
        if g > 1:
            num, den = num // g, den // g
        yield _coprime(num, den)


def harmonic_real(n: int, rho: float) -> float:
    """H_n^{(rho)} = sum_{m=1}^{n} m^{-rho} in double precision."""
    if n < 0:
        raise ValueError("harmonic_real requires n >= 0")
    total = 0.0
    for m in range(1, n + 1):  # left to right: sum() compensates since Python 3.12
        total += m ** (-rho)
    return total


def harmonic_t(n: int, r: int, t) -> Fraction:
    """Exact t-parameterized harmonic sum H_n^{(r)}(t) = sum t^m / m^r,
    with n and r checked as in ``harmonic``."""
    n, r = _integers("harmonic_t", n=n, r=r)
    if n < 0:
        raise ValueError("harmonic_t requires n >= 0")
    t = Fraction(t)
    total, weight = Fraction(0), Fraction(1)
    for m in range(1, n + 1):
        weight *= t  # t^m, carried
        total += weight / m**r if r >= 0 else weight * m**-r
    return total
