"""The exact harmonic and M-sum identities, summed as integers over one
common denominator, against the Fraction loops they were written as.

Each reference below is the earlier body of the function, kept verbatim:
a Fraction multiply-add per term, in the order the paper displays the sum.
The grids reach past the audit's, to n = 0 and k = 0 where defined."""

from fractions import Fraction

import pytest

from zetaseries import msums
from zetaseries.coeffs import s2star_rec
from zetaseries.exactnum import _linear_combination, binomial, factorial, falling_factorial
from zetaseries.harmonic import (
    exp_harmonic_conv,
    exp_harmonic_inv,
    harmonic,
    harmonic_powers_of_n,
    harmonic_rec_corollary,
    npow_forward,
    s2star_from_hnum_int,
)
from zetaseries.stirling import stirling1_signed, stirling1_unsigned, stirling2


def npow_forward_loop(n, k):
    total = Fraction(0)
    for j in range(k + 1):
        total += stirling2(k, j) * falling_factorial(n, j)
    return total


def s2star_from_hnum_int_loop(k, j, variant):
    total = Fraction(0)
    for i in range(j):
        sign = (-1) ** (j - 1 - i)
        outer = Fraction(sign, factorial(j - 1 - i))
        if variant == 1:
            total += outer * harmonic(i + 1, k) / factorial(i + 2)
        else:
            total += outer * (
                harmonic(i + 2, k) / factorial(i + 2)
                - Fraction(1, factorial(i + 2) * (i + 2) ** k)
            )
    return (j + 1) * total


def exp_harmonic_conv_loop(k, j):
    total = Fraction(0)
    for m in range(j + 1):
        total += (
            harmonic(m, k + 1)
            / factorial(m)
            * Fraction((-1) ** (j - m), factorial(j - m))
        )
    return total


def exp_harmonic_inv_loop(k, j):
    total = Fraction(0)
    for i in range(1, j + 1):
        total += s2star_rec(k + 2, i) / (i * factorial(j - i))
    return total


def harmonic_rec_corollary_loop(n, k, which):
    if which == 1:
        total = harmonic(n - 1, k)
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                total += (
                    binomial(n, j)
                    * s2star_rec(k + 1, i)
                    * (-1) ** (j - i)
                    * factorial(i - 1)
                )
        return total
    if which == 2:
        total = harmonic(n - 1, k)
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                for m in range(1, i + 1):
                    total += (
                        binomial(n, j)
                        * binomial(i, m)
                        * (-1) ** (j + m)
                        * harmonic(m, k)
                    )
        return total
    total = harmonic(n - 1, k)
    for j in range(1, n + 1):
        for i in range(j):
            total += (
                binomial(n, j)
                * binomial(j, i + 1)
                * (-1) ** (j - 1 - i)
                * harmonic(i + 1, k)
                * Fraction(j + 1, i + 2)
            )
    return total


def harmonic_powers_of_n_loop(n, k):
    total = Fraction(0)
    for j in range(n + 1):
        coeff = s2star_rec(k + 2, j)
        if coeff == 0:
            continue
        inner = sum(stirling1_unsigned(j + 1, m) * (-1) ** (j + 1 - m) * (n + 1) ** m for m in range(j + 2))
        total += coeff * inner / (j + 1)
    return total


def m_def_loop(spec):
    s1 = stirling1_unsigned if spec.stirling_reading == "unsigned" else stirling1_signed
    total = Fraction(0)
    for m in range(1, spec.d + 1):
        total += s1(spec.d, m) * harmonic(spec.n, spec.k + 1 - m)
    return total


def m_alt_loop(spec):
    shift = Fraction(factorial(spec.n + spec.d), factorial(spec.n))
    total = Fraction(0)
    for j in range(1, spec.n + 1):
        total += (
            binomial(spec.n, j)
            * s2star_rec(spec.k + 2, j)
            * Fraction((-1) ** j, j + spec.d)
            * shift
        )
    return total


K, N = range(0, 8), range(0, 26)
M_SPECS = [msums.MSumSpec(k, d, n, reading) for k in range(3, 10) for d in range(1, 6)
           for n in range(0, 31) for reading in ("unsigned", "signed")]

CASES = {
    "npow_forward": (npow_forward, npow_forward_loop, [(n, k) for n in N for k in K]),
    "s2star_from_hnum_int": (s2star_from_hnum_int, s2star_from_hnum_int_loop,
                             [(k, j, v) for k in K for j in N for v in (1, 2)]),
    "exp_harmonic_conv": (exp_harmonic_conv, exp_harmonic_conv_loop, [(k, j) for k in K for j in N]),
    "exp_harmonic_inv": (exp_harmonic_inv, exp_harmonic_inv_loop, [(k, j) for k in K for j in N]),
    "harmonic_rec_corollary": (harmonic_rec_corollary, harmonic_rec_corollary_loop,
                               [(n, k, w) for n in N[1:] for k in K for w in (1, 2, 3) if w < 3 or k > 0]),
    "harmonic_powers_of_n": (harmonic_powers_of_n, harmonic_powers_of_n_loop, [(n, k) for n in N for k in K]),
    "m_def": (msums.m_def, m_def_loop, [(spec,) for spec in M_SPECS]),
    "m_alt": (msums.m_alt, m_alt_loop, [(spec,) for spec in M_SPECS if spec.stirling_reading == "unsigned"]),
}


@pytest.mark.parametrize("name", CASES)
def test_integer_sums_match_fraction_loops(name):
    function, loop, grid = CASES[name]
    mismatches = [args for args in grid if function(*args) != loop(*args)]
    assert not mismatches, mismatches[:5]
    for args in grid[:50]:
        assert type(function(*args)) is Fraction


def test_grids_reach_the_edges():
    assert (1, 0, 1) in CASES["harmonic_rec_corollary"][2]
    assert (1, 0, 2) in CASES["harmonic_rec_corollary"][2]
    assert any(spec.n == 0 for (spec,) in CASES["m_def"][2])
    assert any(spec.n == 0 for (spec,) in CASES["m_alt"][2])


def test_over_common_writes_rationals_over_the_lcm():
    from zetaseries.exactnum import _over_common
    assert _over_common([]) == ([], 1)
    assert _over_common([Fraction(1, 6), 3, Fraction(-5, 4), 0]) == ([2, 36, -15, 0], 12)
    assert _over_common(iter([Fraction(2, 3)])) == ([2], 3)


def test_linear_combination_sums_over_one_denominator():
    assert _linear_combination([], []) == 0
    assert _linear_combination([3, -2], [Fraction(1, 6), Fraction(5, 4)]) == Fraction(-2)
    assert _linear_combination([1, 1], [Fraction(1, 2), 3], 7) == Fraction(1, 2)
    assert _linear_combination([2], [Fraction(-1, 3)]).denominator == 3
