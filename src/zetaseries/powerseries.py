"""Dense truncated formal power series.

``TruncSeries`` is a dense series with a fixed truncation order over
exact rationals: every coefficient is an int or a Fraction, and any other
type raises TypeError.  Binary operations truncate to the smaller operand
order, so every retained coefficient is exact; a product is an integer
convolution of the two operands, each over its own least common
denominator (``exactnum._over_common``), and builds one Fraction per
coefficient.  The root-of-unity constructions (multisection, introduction
example g) live in :mod:`series`, on plain tuples.  It sits below the
coefficient table (:mod:`coeffs`), which builds on it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .exactnum import _binomial_sums, _over_common, factorial

__all__ = ["TruncSeries"]


class TruncSeries:
    """Dense truncated power series with coefficients [0..order]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            else:
                coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("series coefficients must be int or Fraction")
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def geometric(cls, t, order: int) -> "TruncSeries":
        """1/(1 - t z) truncated, for a rational t."""
        return cls([Fraction(1)] * (order + 1)).scale_arg(t)

    @classmethod
    def exp_z(cls, order: int) -> "TruncSeries":
        return cls([Fraction(1, factorial(n)) for n in range(order + 1)])

    @classmethod
    def polylog(cls, s: int, order: int) -> "TruncSeries":
        """Truncated Li_s(z) = sum_{n>=1} z^n/n^s."""
        return cls([Fraction(0)] + [Fraction(1, n**s) for n in range(1, order + 1)])

    # -- basic queries ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        return self.coeffs[n] if 0 <= n <= self.order else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)!r})"

    # -- arithmetic ---------------------------------------------------

    def truncate(self, order: int) -> "TruncSeries":
        return TruncSeries(self.coeffs, order)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def scale(self, factor) -> "TruncSeries":
        return TruncSeries([factor * c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        order = min(self.order, other.order)
        a, p = _over_common(self.coeffs[: order + 1])
        b, q = _over_common(other.coeffs[: order + 1])
        return TruncSeries([Fraction(sum(map(mul, a[: n + 1], b[n::-1])), p * q) for n in range(order + 1)])

    __rmul__ = __mul__

    def derivative(self) -> "TruncSeries":
        """Formal d/dz; the result order drops by one."""
        if self.order == 0:
            return TruncSeries([Fraction(0)])
        return TruncSeries([n * c for n, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "TruncSeries":
        """Formal integral with zero constant term; order grows by one."""
        out = [Fraction(0)]
        for n, c in enumerate(self.coeffs):
            out.append(Fraction(c, n + 1))
        return TruncSeries(out)

    def inverse(self) -> "TruncSeries":
        """Reciprocal series; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series has no reciprocal: zero constant term")
        # the inner sum stops at the last nonzero coefficient
        degree = max(i for i, c in enumerate(self.coeffs) if c != 0)
        inv = [Fraction(1) / c0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, min(n, degree) + 1):
                acc += self.coeffs[i] * inv[n - i]
            inv.append(-acc / c0)
        return TruncSeries(inv)

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term (rational closure)."""
        if self.coeffs[0] != 0:
            raise ValueError("series exp requires a zero constant term")
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += k * self.coeffs[k] * out[n - k]
            out.append(acc / n)
        return TruncSeries(out)

    def log(self) -> "TruncSeries":
        """log of a unit series (constant term 1)."""
        if self.coeffs[0] != 1:
            raise ValueError("series log requires constant term 1")
        return (self.derivative() * self.inverse().truncate(self.order - 1)).antiderivative()

    def binomial_transform(self) -> "TruncSeries":
        """self(-z/(1-z)): [z^n] = f_0 [n = 0] + sum_{m=1}^{n} (-1)^m C(n-1, m-1) f_m, entry
        n - 1 of ``exactnum._binomial_sums`` over -f_1, f_2, -f_3, ...: O(n^2) additions."""
        f = self.coeffs
        return TruncSeries([f[0], *_binomial_sums([c if m % 2 else -c for m, c in enumerate(f[1:])])])

    def scale_arg(self, c) -> "TruncSeries":
        """f(c z): multiply coefficient n by c^n."""
        out, p = [], Fraction(1)
        for coeff in self.coeffs:
            out.append(coeff * p)
            p = p * c
        return TruncSeries(out)
