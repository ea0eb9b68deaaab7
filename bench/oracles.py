"""Reference computations the benchmark checks the program against.

Nothing here imports ``zetaseries``: every value is computed by a route
the program does not share (integer common-denominator sums, the
Akiyama-Tanigawa Bernoulli recurrence, rising-factorial polynomials,
Euler-Maclaurin zeta values, ``math.fsum`` direct sums).
"""

from __future__ import annotations

import math
from fractions import Fraction

# Table 1 of the paper: c*(k, j) for k <= 6, j <= 8, as printed.
TABLE1 = {
    0: "1 0 0 0 0 0 0 0 0",
    1: "0 1 0 0 0 0 0 0 0",
    2: "0 1 -1/2 1/6 -1/24 1/120 -1/720 1/5040 -1/40320",
    3: "0 1 -3/4 11/36 -25/288 137/7200 -49/14400 121/235200 -761/11289600",
    4: "0 1 -7/8 85/216 -415/3456 12019/432000 -13489/2592000 726301/889056000 "
    "-3144919/28449792000",
    5: "0 1 -15/16 575/1296 -5845/41472 874853/25920000 -336581/51840000 "
    "129973303/124467840000 -1149858589/7965941760000",
    6: "0 1 -31/32 3661/7776 -76111/497664 58067611/1555200000 -68165041/9331200000 "
    "187059457981/156829478400000 -3355156783231/20074173235200000",
}


def table1(k: int, j: int) -> Fraction:
    return Fraction(TABLE1[k].split()[j])


def coeff(k: int, j: int) -> Fraction:
    """c*(k, j) from the closed binomial sum, summed over the integer
    common denominator lcm(1..j)^(k-2) j!, with the base rows k = 0, 1
    and base column j = 0 of the recurrence."""
    if k == 0:
        return Fraction(1 if j == 0 else 0)
    if j == 0 or k == 1:
        return Fraction(1 if (k, j) == (1, 1) else 0)
    e = k - 2
    common = math.lcm(*range(1, j + 1)) ** e
    num = sum((-1) ** (j - m) * math.comb(j, m) * (common // m**e) for m in range(1, j + 1))
    return Fraction(num, common * math.factorial(j))


def inverse_power_property(row, k: int, n: int) -> bool:
    """The defining property sum_j c*(k, j) n!/(n-j)! = 1/n^(k-2), for a
    row of c*(k, .) given from j = 0 up to at least n."""
    total = sum((row[j] * math.perm(n, j) for j in range(1, n + 1)), Fraction(0))
    return total == Fraction(1, n ** (k - 2))


def harmonic_prefix(n_max: int, r: int) -> list:
    """[H_n^(r) for n = 0..n_max] as (numerator, denominator) integer
    pairs over the single denominator lcm(1..n_max)^r (r >= 1)."""
    common = math.lcm(*range(1, n_max + 1)) ** r
    out, acc = [(0, common)], 0
    for m in range(1, n_max + 1):
        acc += common // m**r
        out.append((acc, common))
    return out


def harmonic(n: int, r: int) -> Fraction:
    """H_n^(r) for any integer order; r <= 0 is the literal power sum."""
    if r <= 0:
        return Fraction(sum(m ** (-r) for m in range(1, n + 1)))
    num, den = harmonic_prefix(n, r)[n] if n else (0, 1)
    return Fraction(num, den)


def stirling1_row(n: int) -> list:
    """Unsigned Stirling numbers c(n, 0..n): the coefficients of the
    rising factorial x (x+1) ... (x+n-1)."""
    poly = [1]
    for i in range(n):
        nxt = [0] * (len(poly) + 1)
        for p, c in enumerate(poly):
            nxt[p] += i * c
            nxt[p + 1] += c
        poly = nxt
    return poly


def bernoulli_numbers(n_max: int) -> list:
    """B_0..B_n_max by the Akiyama-Tanigawa algorithm, returned in the
    B_1 = -1/2 convention."""
    a = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n_max >= 1:
        out[1] = -out[1]
    return out


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    b = bernoulli_numbers(n)
    return sum((math.comb(n, i) * b[i] * x ** (n - i) for i in range(n + 1)), Fraction(0))


def periodic_bernoulli(n: int, x: float) -> float:
    """B_n({x}) / n! exactly at the double x, rounded once."""
    frac = Fraction(x) - math.floor(x)
    return float(bernoulli_poly(n, frac) / math.factorial(n))


def zeta(s: int) -> float:
    """Riemann zeta(s), s >= 2, by Euler-Maclaurin at N = 12 with ten
    Bernoulli correction terms."""
    n_cut = 12
    b = bernoulli_numbers(20)
    terms = [m ** (-float(s)) for m in range(1, n_cut)]
    terms += [n_cut ** (1.0 - s) / (s - 1), n_cut ** (-float(s)) / 2]
    rising = float(s)  # s (s+1) ... (s + 2i - 2)
    for i in range(1, 11):
        terms.append(float(b[2 * i]) / math.factorial(2 * i) * rising * n_cut ** (-s - 2.0 * i + 1))
        rising *= (s + 2 * i - 1) * (s + 2 * i)
    return math.fsum(terms)


def zeta_star(s: int) -> float:
    """Alternating zeta: ln 2 at s = 1, (1 - 2^(1-s)) zeta(s) above."""
    if s == 1:
        return math.log(2)
    return (1 - 2.0 ** (1 - s)) * zeta(s)


def _direct(z: float, denom) -> float:
    terms, n, power = [], 1, z
    while abs(power) > 1e-22 and n < 100_000:
        terms.append(power / denom(n))
        n += 1
        power *= z
    return math.fsum(terms)


def li(s: int, z: float) -> float:
    """Li_s(z) = sum z^n / n^s by compensated direct summation, |z| < 1."""
    return _direct(z, lambda n: n**s)


def phi(z: float, s: int, alpha: int, beta: int) -> float:
    """sum_{n>=1} z^n / (alpha n + beta)^s, |z| < 1."""
    return _direct(z, lambda n: (alpha * n + beta) ** s)


def li2_real_part(x: float) -> float:
    """Re Li_2(x) for real x > 1, by the inversion formula."""
    return math.pi**2 / 3 - math.log(x) ** 2 / 2 - li(2, 1 / x)


def intro_coefficient(example: str, n: int, k: int, t=None, r=None) -> Fraction:
    """Coefficient n of the left-hand sums of introduction examples a-f."""
    if n == 0:
        return Fraction(0)
    if example == "a":
        return Fraction(1, n**k)
    if example == "b":
        return Fraction(1, n**k * math.factorial(n))
    if example == "c":
        return harmonic(n, k)
    if example == "d":
        return sum((Fraction(t) ** m / m**k for m in range(1, n + 1)), Fraction(0))
    if example == "e":
        return sum(
            (Fraction(r) ** m / (m**k * math.factorial(m)) for m in range(1, n + 1)), Fraction(0)
        )
    if example == "f":
        return harmonic(n, k) / math.factorial(n)
    raise ValueError(example)


def m_def(k: int, d: int, n: int) -> Fraction:
    """M_{k+1}^(d)(n) = sum_m c(d, m) H_n^(k+1-m), unsigned reading."""
    row = stirling1_row(d)
    return sum((row[m] * harmonic(n, k + 1 - m) for m in range(1, d + 1)), Fraction(0))


def m_alt(k: int, d: int, n: int) -> Fraction:
    """The displayed alternate binomial sum for M_{k+1}^(d)(n)."""
    shift = Fraction(math.factorial(n + d), math.factorial(n))
    return sum(
        (math.comb(n, j) * coeff(k + 2, j) * Fraction((-1) ** j, j + d) * shift for j in range(1, n + 1)),
        Fraction(0),
    )
