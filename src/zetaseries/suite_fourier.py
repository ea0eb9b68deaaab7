"""The ``fourier`` verification suite: the periodic Bernoulli functions as
polylog Fourier series and closed log forms, against the Bernoulli
polynomials.  Loaded by :mod:`audit` by name, when the suite is built."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import special
from .audit import IdentitySpec, _grid
from .coeffs import s2star_rec
from .exactnum import factorial
from .stirling import bernoulli_poly


def _bernoulli_oracle(order: int, x: float) -> float:
    frac = Fraction(x).limit_denominator(10**6) % 1
    return float(bernoulli_poly(order, frac)) / factorial(order)


def build() -> list:
    def convergence(order, x):
        oracle = _bernoulli_oracle(order, x)
        devs = [abs(special.bernoulli_fourier(order, x, J) - oracle) for J in (20, 40, 80)]
        return max(0.0, devs[1] - 1.1 * devs[0]) + max(0.0, devs[2] - 1.1 * devs[1]), 0.0

    def closed_logforms(order, x):
        value = special.bernoulli_closed_logforms(order, x)
        # the closed forms are real: an imaginary part beyond rounding fails at any tolerance
        if abs(value.imag) > 1e-9:
            return value, math.inf
        return value.real, _bernoulli_oracle(order, x)

    def printed(order, x):
        # the displayed bracket series: coefficient series without the j!
        # factor, summed at E = e^{2 pi i (x-1/2)} and its conjugate
        E = cmath.exp(2j * math.pi * (x - 0.5))
        total = 0j
        for j in range(1, 61):
            plus = E**j / (1 + E) ** (j + 1)
            minus = (1 / E) ** j / (1 + 1 / E) ** (j + 1)
            total += complex(s2star_rec(order + 2, j)) * (plus + minus if order % 2 == 0 else plus - minus)
        if order % 2 == 0:
            value = ((-1) ** (order // 2) / (2 * math.pi) ** order) * total
        else:
            value = ((-1) ** ((order - 1) // 2) / ((2 * math.pi) ** order * 1j)) * total
        return value.real, _bernoulli_oracle(order, x)

    return [
        IdentitySpec(
            "fourier.b1_value", _grid(x=(1.25,), J=(60,)),
            lambda x, J: (special.bernoulli_fourier(1, x, J), -0.25), tolerance=1e-6,
        ),
        IdentitySpec(
            "fourier.series_vs_poly", _grid(order=(1, 2, 3), x=(0.25, 1.25, 2.75), J=(60,)),
            lambda order, x, J: (special.bernoulli_fourier(order, x, J), _bernoulli_oracle(order, x)),
            tolerance=1e-5,
        ),
        IdentitySpec("fourier.convergence", _grid(order=(1, 2, 3), x=(0.2, 1.25, 2.75)), convergence, tolerance=0.0),
        IdentitySpec(
            "fourier.closed_logforms", _grid(order=(1, 2), x=(0.25, 0.3, 0.75)), closed_logforms, tolerance=1e-8
        ),
        IdentitySpec(
            "fourier.printed_series_reading", _grid(order=(1, 2), x=(0.25,)),
            printed, tolerance=1e-5, assert_pass=False,
        ),
    ]
