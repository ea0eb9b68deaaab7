"""Dense truncated formal power series.

``TruncSeries`` is a dense series with a fixed truncation order; the
coefficient type is duck-typed (Fraction for exact work, complex for
root-of-unity constructions).  Binary operations truncate to the smaller
operand order, so every retained coefficient is exact in rational mode.
It sits below the coefficient table (:mod:`coeffs`), which builds on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactnum import _binomial_sums, factorial

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
                coeffs += [_zero_like(coeffs)] * (order + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def geometric(cls, t, order: int) -> "TruncSeries":
        """1/(1 - t z) truncated."""
        t = t if isinstance(t, (complex, float)) else Fraction(t)
        return cls([t**0] * (order + 1)).scale_arg(t)

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
        return self.coeffs[n] if 0 <= n <= self.order else _zero_like(self.coeffs)

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
        out = [_zero_like(self.coeffs)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: order - i + 1]):
                if b == 0:
                    continue
                out[i + j] += a * b
        return TruncSeries(out)

    __rmul__ = __mul__

    def derivative(self) -> "TruncSeries":
        """Formal d/dz; the result order drops by one."""
        if self.order == 0:
            return TruncSeries([_zero_like(self.coeffs)])
        return TruncSeries([n * c for n, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "TruncSeries":
        """Formal integral with zero constant term; order grows by one."""
        out = [_zero_like(self.coeffs)]
        for n, c in enumerate(self.coeffs):
            out.append(c / (n + 1))
        return TruncSeries(out)

    def inverse(self) -> "TruncSeries":
        """Reciprocal series; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series has no reciprocal: zero constant term")
        # the inner sum stops at the last nonzero coefficient, as in __mul__
        degree = max(i for i, c in enumerate(self.coeffs) if c != 0)
        inv = [1 / c0]
        for n in range(1, self.order + 1):
            acc = _zero_like(self.coeffs)
            for i in range(1, min(n, degree) + 1):
                acc += self.coeffs[i] * inv[n - i]
            inv.append(-acc / c0)
        return TruncSeries(inv)

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term (rational closure)."""
        if self.coeffs[0] != 0:
            raise ValueError("series exp requires a zero constant term")
        out = [self.coeffs[0] ** 0]  # one of the coefficient type
        for n in range(1, self.order + 1):
            acc = _zero_like(self.coeffs)
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
        out, p = [], c**0
        for coeff in self.coeffs:
            out.append(coeff * p)
            p = p * c
        return TruncSeries(out)


def _zero_like(coeffs) -> object:
    for c in coeffs:
        return 0 * c
    return Fraction(0)
