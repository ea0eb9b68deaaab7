"""The two library workloads: a fixed list of operations built from a seed.

An operation calls public ``zetaseries`` functions through a tracer and
returns what they returned; its check compares that result with
:mod:`oracles`.  The seed only draws values (sample points, random
rationals, evaluation points): the sizes, and so the work, are the same
for every seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import zetaseries as zs
from zetaseries import series, stirling

import oracles

# exact_tables sizes
REC_K, REC_J = 12, 400  # s2star_rec rows k = 0..REC_K, j = 0..REC_J
SUM_ROWS, SUM_STRATA = range(2, 12), 12  # s2star_sum: one j per stratum of 20
HARM_N, HARM_R = 2000, range(1, 6)
STIRLING_N, STIRLING_BLOCK = 250, 50
BINOM_K = range(1, 5)
TRANSFORM_ORDER, TRANSFORM_K = 100, range(1, 4)
INTRO_K, INTRO_U = 2, 18
DILOG_ORDER = 50
MSUM_K, MSUM_D, MSUM_POINTS = (3, 4, 5), (1, 2, 3), 6

# numeric_eval sizes
LI_S, LI_J = range(1, 9), (100, 200, 400)
LI_NEW_POINTS, LI_CLASSIC_POINTS = 6, 3
FOURIER_ORDERS, FOURIER_POINTS = range(1, 5), 8
PHI_PARAMS, PHI_K, PHI_POINTS = ((2, 2, 1), (3, 3, 2), (1, 2, 1)), 150, 4  # (s, alpha, beta)


@dataclass
class Op:
    name: str
    run: Callable  # tracer -> result
    check: Callable  # result -> bool


coeff = functools.cache(oracles.coeff)
harmonic = functools.cache(oracles.harmonic)


# ---------------------------------------------------------------- exact_tables


def exact_tables(seed: int) -> list:
    rng = random.Random(seed)
    ops = []

    def rec_row(k):
        return lambda t: [t.call("coeffs.s2star_rec", zs.s2star_rec, k, j) for j in range(REC_J + 1)]

    def rec_check(k, sample, ns):
        def check(row):
            if k <= 6 and any(row[j] != oracles.table1(k, j) for j in range(9)):
                return False
            if any(row[j] != coeff(k, j) for j in sample):
                return False
            return k < 2 or all(oracles.inverse_power_property(row, k, n) for n in ns)
        return check

    for k in range(REC_K + 1):
        sample = [0, 1, 2, REC_J] + rng.sample(range(3, REC_J), 10)
        ns = [rng.randrange(2, 20), rng.randrange(60, 140), rng.randrange(REC_J - 60, REC_J + 1)]
        ops.append(Op(f"coeffs.s2star_rec[k={k}]", rec_row(k), rec_check(k, sample, ns)))

    for k in SUM_ROWS:
        js = [40 + 20 * i + rng.randrange(20) for i in range(SUM_STRATA)]
        ops.append(Op(
            f"coeffs.s2star_sum[k={k}]",
            lambda t, k=k, js=js: [t.call("coeffs.s2star_sum", zs.s2star_sum, k, j) for j in js],
            lambda got, k=k, js=js: got == [coeff(k, j) for j in js],
        ))

    def harmonic_check(r):
        def check(got):
            prefix = oracles.harmonic_prefix(HARM_N, r)
            return all(h.numerator * den == num * h.denominator
                       for h, (num, den) in zip(got, prefix[1:]))
        return check

    for r in HARM_R:
        ops.append(Op(
            f"harmonicnums.harmonic[r={r}]",
            lambda t, r=r: [t.call("harmonicnums.harmonic", zs.harmonic, n, r) for n in range(1, HARM_N + 1)],
            harmonic_check(r),
        ))

    def stirling_block(lo):
        return lambda t: [
            [t.call("stirling.stirling1_unsigned", zs.stirling1_unsigned, n, m) for m in range(n + 1)]
            for n in range(lo, lo + STIRLING_BLOCK)
        ]

    def stirling_check(lo, sample):
        def check(rows):
            if any(sum(row) != math.factorial(lo + i) for i, row in enumerate(rows)):
                return False
            return all(rows[n - lo] == oracles.stirling1_row(n) for n in sample)
        return check

    for lo in range(0, STIRLING_N, STIRLING_BLOCK):
        sample = rng.sample(range(lo, lo + STIRLING_BLOCK), 2)
        ops.append(Op(f"stirling.stirling1_unsigned[n={lo}..]", stirling_block(lo), stirling_check(lo, sample)))

    for k in BINOM_K:
        n = rng.randrange(180, 220)
        ops.append(Op(
            f"harmonic.harmonic_binomial_form[k={k}]",
            lambda t, n=n, k=k: t.call("harmonic.harmonic_binomial_form", zs.harmonic_binomial_form, n, k),
            lambda got, n=n, k=k: got == harmonic(n, k),
        ))
        n = rng.randrange(180, 220)
        ops.append(Op(
            f"harmonic.npow_inverse[k={k}]",
            lambda t, n=n, k=k: t.call("harmonic.npow_inverse", zs.npow_inverse, n, k),
            lambda got, n=n, k=k: got == Fraction(1, n**k),
        ))

    for k in TRANSFORM_K:
        g = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
             for _ in range(TRANSFORM_ORDER + 1)]
        ops.append(Op(
            f"series.transform_zeta[k={k}]",
            lambda t, g=g, k=k: t.call("series.transform_zeta", zs.transform_zeta, zs.TruncSeries(g), k).coeffs,
            lambda got, g=g, k=k: list(got) == [Fraction(0)] + [g[n] / n**k for n in range(1, len(g))],
        ))

    t_value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
    r_value = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    for example in "abcdef":
        ops.append(Op(
            f"series.intro_example[{example}]",
            lambda t, e=example: t.call(
                "series.intro_example", zs.intro_example, e, INTRO_K, INTRO_U, t=t_value, r=r_value
            ).coeffs,
            lambda got, e=example: list(got) == [
                oracles.intro_coefficient(e, n, INTRO_K, t_value, r_value) for n in range(INTRO_U + 1)
            ],
        ))

    ops.append(Op(
        f"series.dilog_functional_eq_check[order={DILOG_ORDER}]",
        lambda t: t.call("series.dilog_functional_eq_check", series.dilog_functional_eq_check, DILOG_ORDER),
        lambda got: got == (True, None),
    ))

    points = sorted(rng.sample(range(0, 60), MSUM_POINTS))
    for name, fn, oracle in (("m_def", zs.m_def, oracles.m_def), ("m_alt", zs.m_alt, oracles.m_alt)):
        for k in MSUM_K:
            grid = [(k, d, n) for d in MSUM_D for n in points]
            ops.append(Op(
                f"msums.{name}[k={k}]",
                lambda t, fn=fn, name=name, grid=grid: [
                    t.call(f"msums.{name}", fn, zs.MSumSpec(*p)) for p in grid
                ],
                lambda got, oracle=oracle, grid=grid: got == [oracle(*p) for p in grid],
            ))
    return ops


# ---------------------------------------------------------------- numeric_eval


def _li_tolerance(s: int, z: float, terms: int) -> float:
    """Rounding allowance plus a bound on the dropped tail of a series in
    powers of w = -z/(1-z), whose coefficients grow no faster than
    (1 + ln j)^s."""
    w = abs(z / (1 - z))
    return 1e-12 + (1 + math.log(terms)) ** s * w ** (terms + 1) / ((1 - w) * abs(1 - z))


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def numeric_eval(seed: int) -> list:
    rng = random.Random(seed)
    ops = []

    def point():
        return rng.uniform(-0.95, 0.45)

    for s in LI_S:
        for J in LI_J:
            for z in [point() for _ in range(LI_NEW_POINTS)]:
                ops.append(Op(
                    f"special.li_new_series[s={s},J={J},z={z!r}]",
                    lambda t, s=s, z=z, J=J: t.call("special.li_new_series", zs.li_new_series, s, z, J).value,
                    lambda got, s=s, z=z, J=J: _close(got, oracles.li(s, z), _li_tolerance(s, z, J)),
                ))
            for z in [point() for _ in range(LI_CLASSIC_POINTS)]:
                ops.append(Op(
                    f"special.li_classic_series[s={s},K={J},z={z!r}]",
                    lambda t, s=s, z=z, J=J: t.call("special.li_classic_series", zs.li_classic_series, s, z, J).value,
                    lambda got, s=s, z=z, J=J: _close(got, oracles.li(s, z), _li_tolerance(s, z, J)),
                ))

    # Tolerances as stated by the audit specs of each form.
    for s in range(1, 9):
        for method in ("series", "closed"):
            ops.append(Op(
                f"special.zeta_star[s={s},{method}]",
                lambda t, s=s, m=method: t.call("special.zeta_star", zs.zeta_star, s, 120, m),
                lambda got, s=s: _close(got, oracles.zeta_star(s), 1e-8),
            ))
    for s in range(1, 5):
        ops.append(Op(
            f"special.zeta_star_harmonic_form[s={s}]",
            lambda t, s=s: t.call("special.zeta_star", zs.zeta_star_harmonic_form, s, 120),
            lambda got, s=s: _close(got, oracles.zeta_star(s), 1e-8),
        ))
    for s in (3, 4, 5):
        ops.append(Op(
            f"special.zeta_star_euler_form[s={s}]",
            lambda t, s=s: t.call("special.zeta_star", zs.zeta_star_euler_form, s, 200),
            lambda got, s=s: _close(got, oracles.zeta_star(s), 5e-6),
        ))

    for order in FOURIER_ORDERS:
        for _ in range(FOURIER_POINTS):
            x = rng.randint(-3, 3) + rng.uniform(0.25, 0.75)
            ops.append(Op(
                f"special.bernoulli_fourier[n={order},x={x!r}]",
                lambda t, n=order, x=x: t.call("special.bernoulli_fourier", zs.bernoulli_fourier, n, x),
                lambda got, n=order, x=x: _close(got, oracles.periodic_bernoulli(n, x), 1e-7),
            ))

    for s, alpha, beta in PHI_PARAMS:
        for _ in range(PHI_POINTS):
            z = point()
            ops.append(Op(
                f"special.hurwitz_phi[s={s},a={alpha},b={beta},z={z!r}]",
                lambda t, z=z, s=s, a=alpha, b=beta: t.call(
                    "special.hurwitz_phi", zs.hurwitz_phi, z, s, a, b, PHI_K
                ).value,
                lambda got, z=z, s=s, a=alpha, b=beta: _close(
                    got, oracles.phi(z, s, a, b), _li_tolerance(s, z, PHI_K)
                ),
            ))
    return ops


WORKLOADS = {"exact_tables": exact_tables, "numeric_eval": numeric_eval}


# ---------------------------------------------------------------- results


def digest(value) -> str:
    """A stable hash of a result: equal results give equal digests in
    every process, so later rounds are checked against the first."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, bool) or v is None:
            h.update(repr(v).encode())
        elif isinstance(v, int):
            h.update(b"i" + v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True))
        elif isinstance(v, Fraction):
            feed(v.numerator)
            feed(v.denominator)
        elif isinstance(v, float):
            h.update(b"f" + struct.pack("<d", v))
        elif isinstance(v, complex):
            h.update(b"c" + struct.pack("<dd", v.real, v.imag))
        elif isinstance(v, (list, tuple)):
            h.update(b"[%d" % len(v))
            for item in v:
                feed(item)
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()[:16]


MEMOIZED = {
    "coeffs.s2star_rec": zs.s2star_rec,
    "harmonicnums.harmonic": zs.harmonic,
    "stirling.stirling1_unsigned": stirling.stirling1_unsigned,
    "stirling.stirling2": stirling.stirling2,
    "stirling.bernoulli_number": stirling.bernoulli_number,
}


def cache_snapshot() -> dict:
    """cache_info() of the memoized public functions; a function that is
    no longer memoized reads as an empty cache."""
    empty = {"hits": 0, "misses": 0, "maxsize": None, "currsize": 0}
    return {
        name: fn.cache_info()._asdict() if hasattr(fn, "cache_info") else dict(empty)
        for name, fn in MEMOIZED.items()
    }
