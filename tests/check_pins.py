"""Recompute every byte pin of tests/pins.json on the running interpreter.

    python tests/check_pins.py

Needs only the standard library, so any interpreter the package supports
can run it without pytest; the pin tests of tier-1 call the same checks.
It recomputes the json, csv and markdown report hashes of every
verification suite and the hash of every pinned CLI document, and checks
``exactnum._reduced`` against ``Fraction()`` on edge cases and on the
c*(k, j) cells k = 2..14, j <= 600 of ``s2star_rec``, read once with j
ascending and once descending, because the recurrence derives a row's
denominators one way in order and another out of it.  It checks every
H_n^(r), r = -3..8, n <= 2000, of ``harmonicnums.harmonic`` against a
plain Fraction loop, since its kernel builds each value by its slots, and
the double of each in ``harmonicnums._doubles`` against num / den of the
loop's value by float.hex: the cells are built by that int division, not
by float(), so the pin holds them to the correctly rounded value on every
interpreter, whichever method float() of a Fraction runs there.
It checks the Lerch-style inner rows of ``special._phi_inner_table``
(``LERCH_ROWS``) bit for bit against the double nearest each exact
binomial sum, since their recurrence rounds one exact quotient per cell.
It prints each mismatch and exits 1 on any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "src"))

from zetaseries import audit  # noqa: E402
from zetaseries.cli import main  # noqa: E402
from zetaseries.coeffs import _scaled_numerators, s2star_rec  # noqa: E402
from zetaseries.exactnum import _reduced, factorial  # noqa: E402
from zetaseries.harmonicnums import _doubles, harmonic  # noqa: E402
from zetaseries.special import _phi_inner_table  # noqa: E402

PINS = json.loads((TESTS / "pins.json").read_text())

# (numerator, denominator, radical) for _reduced
EDGE_CASES = [
    (0, 7, 210),  # zero over a non-unit denominator comes out as 0/1
    (0, 1, 1),
    (7, 1, 1),  # denominator 1 and radical 1
    (-5, 1, 30),
    (-12, 18, 6),
    (-(2**70) * 3**5, 2**64 * 3**9, 6),  # more than one round per prime
    (30, 4, 30),  # the numerator holds radical primes 3 and 5 that the denominator lacks
    (2**5 * 3 * 7, 2**3 * 5, 210),  # 3 and 7 in the numerator only, next to the shared 2
]


# (s, alpha, beta, K) of _phi_inner_table: the rows of the numeric
# benchmark's hurwitz_phi points at K = 150 and of the audit's
# special.hurwitz_direct points at K = 200 (the first there is the
# classical row), then s = -2..8 with fractional and negative alpha and
# beta, where alpha (m+1) + beta is negative for some m or for all
LERCH_ROWS = [
    *((s, Fraction(alpha), Fraction(beta), 150) for s, alpha, beta in ((2, 2, 1), (3, 3, 2), (1, 2, 1))),
    *((s, Fraction(alpha), Fraction(beta), 200) for s, alpha, beta in ((2, 1, 0), (1, 2, 1), (3, 3, 2))),
    *((s, alpha, beta, 40) for s in range(-2, 9) for alpha, beta in (
        (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-3, 2), Fraction(5, 7)), (Fraction(3, 4), Fraction(-7, 2)))),
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_mismatches(suite: str, formats=("json", "csv", "markdown")):
    want = dict(zip(("csv", "markdown"), PINS["csv_markdown_sha256"][suite]), json=PINS["report_sha256"][suite])
    reports = audit.run_suite(suite)
    for format in formats:
        got = digest(audit.emit_report(reports, format))
        if got != want[format]:
            yield f"report {suite} {format}: {got} != {want[format]}"


def document_mismatches(command: str, format: str):
    want = PINS["document_sha256"][command][format]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*PINS["document_commands"][command], "--format", format])
    got = digest(out.getvalue())
    if code != 0 or got != want:
        yield f"document {command} {format}: exit {code}, {got} != {want}"


def terms(value: Fraction) -> tuple:
    return value.numerator, value.denominator


def fraction_mismatch(got, want: Fraction) -> bool:
    """Whether got differs from the canonical want in type, terms, hash or
    one arithmetic result."""
    return not (
        type(got) is Fraction
        and terms(got) == terms(want)
        and got.denominator > 0
        and math.gcd(*terms(got)) == 1
        and hash(got) == hash(want)
        and terms(got * Fraction(-3, 4) + 1) == terms(want * Fraction(-3, 4) + 1)
    )


def reduced_mismatches(cases=EDGE_CASES):
    for numerator, denominator, radical in cases:
        got, want = _reduced(numerator, denominator, radical), Fraction(numerator, denominator)
        if fraction_mismatch(got, want) or str(got) != str(want):  # 0/d must print as 0
            yield f"_reduced{(numerator, denominator, radical)!r} differs from Fraction()"[:300]


def rec_mismatches(kmax: int = 14, jmax: int = 600, orders=(sorted, reversed)):
    """s2star_rec reduces each cell against L_j only; the oracle normalizes
    the same value over lcm(1..jmax)^(k-2) j! with Fraction()'s full gcd.
    Each row is read once per order, each order mapping j = 1..jmax to a
    reading order: ascending j takes each denominator from the cell
    before, descending j raises every one afresh."""
    for k in range(2, kmax + 1):
        numerators, denominator = _scaled_numerators(k, jmax)
        for order in orders:
            for j in order(range(1, jmax + 1)):
                want = Fraction(numerators[j], denominator * factorial(j))
                if fraction_mismatch(s2star_rec(k, j), want):
                    yield f"s2star_rec({k}, {j}) read by {order.__name__} differs from Fraction()"


def harmonic_loop(n: int, r: int) -> list:
    """H_0^(r), ..., H_n^(r) by plain Fraction additions."""
    total, sums = Fraction(0), [Fraction(0)]
    for m in range(1, n + 1):
        total += Fraction(m) ** -r
        sums.append(total)
    return sums


def harmonic_mismatches(orders=range(-3, 9), nmax: int = 2000):
    """harmonic(n, r) against the plain loop: type, terms and hash; and
    its double cell against num / den of the loop's value, by float.hex."""
    for r in orders:
        doubles = _doubles(r)
        for n, want in enumerate(harmonic_loop(nmax, r)):
            got = harmonic(n, r)
            if not (type(got) is Fraction and terms(got) == terms(want) and hash(got) == hash(want)):
                yield f"harmonic({n}, {r}) differs from a Fraction loop"
            if doubles[n].hex() != (want.numerator / want.denominator).hex():
                yield f"harmonicnums._doubles({r})[{n}] differs from num / den"


def lerch_reference(s: int, alpha: Fraction, beta: Fraction, K: int) -> list:
    """sum_{m<=k} C(k, m) (-1)^(m+1) / (alpha (m+1) + beta)^s, k = 0..K,
    summed termwise as Fractions."""
    terms = [(alpha * (m + 1) + beta) ** -s for m in range(K + 1)]
    return [sum((math.comb(k, m) * (-1) ** (m + 1) * terms[m] for m in range(k + 1)), Fraction(0))
            for k in range(K + 1)]


def lerch_mismatches(rows=LERCH_ROWS):
    """_phi_inner_table against float() of the exact reference, by
    float.hex, so a -0.0 for +0.0 is a mismatch too."""
    for s, alpha, beta, K in rows:
        got = [x.hex() for x in _phi_inner_table(s, alpha, beta, K)]
        want = [float(x).hex() for x in lerch_reference(s, alpha, beta, K)]
        for k, (x, y) in enumerate(zip_longest(got, want)):
            if x != y:
                yield f"_phi_inner_table({s}, {alpha}, {beta}, {K}) cell {k}: {x} != {y}"
                break


def main_check() -> int:
    mismatches = [
        *(line for suite in audit.suite_names() for line in report_mismatches(suite)),
        *(line for command, digests in PINS["document_sha256"].items()
          for format in digests for line in document_mismatches(command, format)),
        *reduced_mismatches(),
        *rec_mismatches(),
        *harmonic_mismatches(),
        *lerch_mismatches(),
    ]
    for line in mismatches:
        print(line)
    pinned = 3 * len(PINS["report_sha256"]) + sum(map(len, PINS["document_sha256"].values()))
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {pinned} pins, _reduced, the harmonic sums, their doubles and "
          f"{len(LERCH_ROWS)} Lerch rows checked, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main_check())
