"""Exact rational arithmetic and complex floating-point helpers.

All exact computation in this package is carried out over
:class:`fractions.Fraction`, and every value is in canonical form
(positive denominator, gcd-reduced).  Fraction arithmetic reduces by a
full gcd after each operation; ``_reduced`` builds one canonical value
from an integer quotient whose denominator's primes all divide a known
radical, such as lcm(1..j), and reduces against that radical only;
``_coprime`` builds every such lowest-terms value, on every Python, by
setting the two slots of a new Fraction.  ``factorial`` and
``falling_factorial`` are ``math.factorial`` and ``math.perm``; every
integer/complex primitive raises ValueError outside its domain.
``_over_common`` writes rationals as integer numerators over the lcm of
their denominators, the rule of ``_linear_combination`` (integer
multiples of rationals), ``TruncSeries.__mul__`` and the Lerch-style rows
of :mod:`special`; ``_binomial_sums`` is the one Pascal-rule kernel of
every binomial transform; :class:`SequenceTable` is the one memo the
package keeps for a sequence: its values come from one resumable
iterator, so a recurrence keeps its running state in locals and is never
re-derived from the list per entry; a table of a two-index family reads
the table below it in place, at its own index, and a miss builds a run of
``_RUN`` = 8 cells past the one asked for; ``cells(start, stop)`` is the
one reader of a range of it, in place.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from itertools import islice

# Canonical exact value type used throughout the package.
Rational = Fraction

__all__ = [
    "Rational",
    "parse_rational",
    "binomial",
    "factorial",
    "falling_factorial",
    "root_of_unity",
    "SequenceTable",
]


def parse_rational(text: str) -> Fraction:
    """Parse a fraction string like ``-3/4`` or ``7``.

    Accepts the Unicode minus sign so values copied from typeset tables
    round-trip.
    """
    return Fraction(text.strip().replace("−", "-"))


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n or k < 0."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


factorial = math.factorial  # n!; ValueError for n < 0
falling_factorial = math.perm  # n!/(n-j)! = n (n-1) ... (n-j+1); zero when j > n, ValueError for n < 0 or j < 0


def _over_common(values) -> tuple[list, int]:
    """Rationals q_i (ints or Fractions) as integer numerators over the lcm
    of their denominators: ([q_i * common, ...], common)."""
    values = list(values)
    common = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (common // q.denominator) for q in values], common


def _linear_combination(weights, values, over: int = 1) -> Fraction:
    """sum_i w_i q_i / over for integer weights w_i and rationals q_i,
    summed as integers over the lcm of the denominators of the q_i: one
    Fraction is built, where a Fraction loop reduces a gcd per term."""
    numerators, common = _over_common(values)
    return Fraction(sum(w * x for w, x in zip(weights, numerators)), common * over)


def _binomial_sums(values) -> list:
    """[sum_{m<=i} C(i, m) values[m] for each i] by Pascal's rule: after i passes
    row[n] = sum_m C(i, m) values[n + m].  It only adds, so any summable type works."""
    row, out = list(values), []
    while row:
        out.append(row[0])
        row = [x + y for x, y in zip(row, row[1:])]
    return out


def _reduced(numerator: int, denominator: int, radical: int) -> Fraction:
    """numerator / denominator in lowest terms, for denominator > 0 and
    every prime of denominator dividing radical > 0.  Every common prime
    then divides gcd(numerator, denominator, radical) =
    gcd(gcd(numerator, radical), denominator), taken in two steps: c =
    gcd(numerator mod radical, radical), then gcd(denominator mod c, c),
    so the long denominator is reduced modulo c, usually a few digits,
    not modulo radical.  Each round divides that common part out and looks
    for what is left of it the same way, numerator first: the
    denominator is read only when c = gcd(numerator mod c, c) is still
    above 1, so a round that ends the reduction reads one long integer,
    not two.  The result is built without the full gcd of the two long
    integers that Fraction() would take.  A zero numerator shares every
    prime of the denominator, so 0/d comes out as 0/1."""
    common = math.gcd(numerator % radical, radical)
    while common > 1 and (common := math.gcd(denominator % common, common)) > 1:
        numerator, denominator = numerator // common, denominator // common
        common = math.gcd(numerator % common, common)
    return _coprime(numerator, denominator)


def _coprime(numerator: int, denominator: int) -> Fraction:
    """numerator / denominator for coprime ints and denominator > 0,
    built by setting the two slots Fraction() sets, without its gcd."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


def root_of_unity(a: int, m: int) -> complex:
    """exp(2*pi*i*m/a) to double precision."""
    if a < 1:
        raise ValueError("root_of_unity requires a >= 1")
    return cmath.exp(2j * cmath.pi * m / a)


_RUN = 8  # the cells a miss builds past the one it asks for


class SequenceTable:
    """f(0), f(1), ... built on demand in index order from one iterator:
    ``produce(values)`` returns an iterator that yields f(len(values)),
    f(len(values) + 1), ... and keeps its running state in locals.
    Values are appended under a lock and never change, so reading a built
    index is one bounds check and one list index.  A table may sit on a
    ``below`` table (row k-1 of a two-index recurrence), and its producer
    reads the tables down that chain in place, as lists, at an index no
    higher than its own: a miss at n builds every table down the chain
    that is shorter than n + 1 + ``_RUN``, lowest first and each through
    n + ``_RUN`` (no further than the table below it holds), so no
    extension nests, no recursion grows with n, and reads past the end
    miss once per run of cells.  If a pull raises, the iterator is
    dropped, and the next miss calls ``produce`` again on the values built
    so far; a pull past n, for a cell not asked for, raises nothing: the
    read that asks for that cell raises it."""

    __slots__ = ("_produce", "_below", "_values", "_lock", "_source")

    def __init__(self, produce, below: SequenceTable | None = None):
        self._produce, self._below = produce, below
        self._values, self._lock, self._source = [], threading.Lock(), None

    def __getitem__(self, n: int):
        values = self._values
        if n < len(values) and n >= 0:
            return values[n]
        if n < 0:
            raise IndexError(f"negative index {n}")
        stop = n + 1 + _RUN
        short, table = [], self
        while table is not None and len(table._values) < stop:
            short.append(table)
            table = table._below
        for table in reversed(short):
            with table._lock:
                built, below = table._values, table._below
                end = stop if below is None else min(stop, len(below._values))
                try:
                    if table._source is None:
                        table._source = table._produce(built)
                    source = table._source
                    while len(built) < end:
                        built.append(next(source))
                except BaseException as error:  # an interrupt, or a failed pull through n, still raises
                    table._source = None
                    if len(built) <= n or not isinstance(error, Exception):
                        raise
        return values[n]

    def cells(self, start: int, stop: int):
        """f(start), ..., f(stop-1) as an iterator over the built values,
        which are read in place, not copied."""
        if start < 0 or stop < 0:
            raise IndexError(f"negative range {start}:{stop}")
        if stop > start:
            self[stop - 1]
        return islice(self._values, start, stop)
