"""Exact rational arithmetic and complex floating-point helpers.

All exact computation in this package is carried out over
:class:`fractions.Fraction`, and every value is in canonical form
(positive denominator, gcd-reduced).  This module owns how an exact value
is built and how rationals are summed; each kernel is described beside
its code: ``_reduced`` and ``_coprime`` build canonical values,
``_over_common`` and ``_linear_combination`` put rationals over one
denominator, ``_binomial_sums`` is the kernel of every exact binomial
transform, and :class:`SequenceTable` holds each tabulated sequence
(Stirling, Bernoulli and harmonic numbers, the c* rows).  ``_integers``
is the one guard of the readers whose indices key a table or a row.
``factorial`` and ``falling_factorial`` are ``math.factorial`` and
``math.perm``; every integer/complex primitive raises ValueError outside
its domain.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from itertools import islice
from operator import index

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


def _integers(name: str, **args) -> tuple:
    """The values of args through operator.index, in order.  One that is no
    integer, such as 2.0, which hashes like 2, raises TypeError naming the
    function and every argument with its value, before any table is read
    or keyed by it.  Hot readers call it only where type(x) is not int."""
    try:
        return tuple(index(value) for value in args.values())
    except TypeError:
        *rest, last = args
        names = f"integers {', '.join(rest)} and {last}" if rest else f"an integer {last}"
        listed = ", ".join(f"{key}={value!r}" for key, value in args.items())
        raise TypeError(f"{name} requires {names}, got {listed}") from None


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
    summed as integers over ``_over_common`` of the q_i: one Fraction is
    built, where a Fraction loop reduces a gcd per term."""
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
    """numerator / denominator in lowest terms, for denominator > 0,
    radical > 0 and every prime common to numerator and denominator
    dividing radical: the denominator's whole radical serves, or a shorter
    one where the caller proves that the numerator misses the other
    primes.  Every common prime then divides gcd(numerator, denominator,
    radical) = gcd(gcd(numerator, radical), denominator), taken in two
    steps: c = gcd(numerator mod radical, radical), then
    gcd(denominator mod c, c), so the long denominator is reduced modulo
    c, usually a few digits, not modulo radical.  Each round divides that
    common part out and looks for what is left of it the same way,
    numerator first: the denominator is read only when
    c = gcd(numerator mod c, c) is still above 1, so a round that ends the
    reduction reads one long integer, not two.  The result is built
    without the full gcd of the two long integers that Fraction() would
    take.  A zero numerator shares every prime of the denominator, so 0/d
    needs them all in radical, and then comes out as 0/1."""
    common = math.gcd(numerator % radical, radical)
    while common > 1 and (common := math.gcd(denominator % common, common)) > 1:
        numerator, denominator = numerator // common, denominator // common
        common = math.gcd(numerator % common, common)
    return _coprime(numerator, denominator)


def _by_slots(numerator: int, denominator: int) -> Fraction:
    """numerator / denominator for coprime ints and denominator > 0,
    built by setting the two slots Fraction() sets, without its gcd."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


def _checked(build):
    """build if build(-3, 4) is Fraction(-3, 4) in terms, hash and str, else
    Fraction, which is correct on any layout of its slots but slower."""
    want = Fraction(-3, 4)
    try:
        got = build(-3, 4)
        if (got.numerator, got.denominator, hash(got), str(got)) == (-3, 4, hash(want), str(want)):
            return build
    except (AttributeError, TypeError):  # a Fraction whose slots are gone or renamed
        pass
    return Fraction


_coprime = _checked(_by_slots)  # the one builder of lowest-terms values, checked once at import


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
    index is one bounds check and one list index, and a hot reader may
    index ``_values`` itself and call the table only past its end, on
    ``IndexError``.  A table may sit on a ``below`` table (row k-1 of a
    two-index recurrence), and its producer reads the tables down that
    chain in place, as lists, at an index no higher than its own: a miss
    at n builds every table down the chain that is shorter than
    n + 1 + ``_RUN``, lowest first and each through n + ``_RUN`` (no
    further than the table below it holds), so no extension nests, no
    recursion grows with n, and reads past the end miss once per run of
    cells.  If a pull raises, the iterator is dropped, and the next miss
    calls ``produce`` again on the values built so far; a pull past n, for
    a cell not asked for, raises nothing: the read that asks for that cell
    raises it."""

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
