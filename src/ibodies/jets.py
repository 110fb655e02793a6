"""Truncated Taylor jets.

A :class:`Jet` stores the Taylor coefficients ``a_k = f^(k)(x0)/k!`` of a
function about a fixed expansion point, up to a truncation order.  Arithmetic
propagates coefficients through the standard power-series recurrences, so the
derivatives obtained from a jet are exact up to floating-point rounding --
no step-size noise, no symbolic blowup.

A coefficient is either a float (a jet about one point) or a numpy array (a
jet about every point of an array at once, evaluated elementwise).  Both run
through the same recurrences, summed in the same fixed order, with numpy's
elementary functions, so a float jet has the bits of the one-point array
jet.  The checks that refuse a jet (a vanishing divisor, a fractional power
of a vanishing or negative base) raise when any element fails.  Exponents
are exact rationals, so those checks need no tolerance.

The default truncation order used by the profile layer is 3; transform-level
compositions internally run at order 4 (a second derivative of a function
that itself consumes two derivative levels).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import DomainError, SmoothnessError

Coefficient = Union[float, np.ndarray]


def _any(cond) -> bool:
    """Whether a condition holds at any element (a bool passes through)."""
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _all(cond) -> bool:
    """Whether a condition holds at every element (a bool passes through)."""
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _finite(c: Coefficient) -> bool:
    return bool(np.isfinite(c).all()) if isinstance(c, np.ndarray) else math.isfinite(c)


def _elementary(fn, c: Coefficient, *args) -> Coefficient:
    """numpy's ``fn`` at c, a float for a float c; OverflowError where a
    finite argument overflows to inf (numpy would return inf)."""
    with np.errstate(over="ignore"):
        out = fn(c, *args)
    inf = np.isinf(out)
    if inf.any() and (inf & np.isfinite(c)).any():
        raise OverflowError(f"{fn.__name__} out of range")
    return out if isinstance(c, np.ndarray) else float(out)


class Jet:
    """Taylor coefficients of a function about one point (or about every
    point of an array), with arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient]):
        if type(coeffs) is not tuple:
            coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")
        self.coeffs = coeffs

    # ---------------------------------------------------------------- basics

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        return cls((value,) + (0.0,) * order)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        """Jet of the identity function t -> t at the point(s) ``value``."""
        if order == 0:
            return cls((value,))
        return cls((value, 1.0) + (0.0,) * (order - 1))

    @classmethod
    def from_parts(cls, parts, size: int, order: int) -> "Jet":
        """Array jet about ``size`` points, assembled from ``(rows, jet)``
        parts: each jet holds the points at the integer indices ``rows`` (a
        float jet holds one point), and the parts' rows are disjoint and
        cover every point."""
        out = np.empty((order + 1, size))
        for rows, jet in parts:
            for k, c in enumerate(jet.coeffs):
                out[k, rows] = c
        return cls(tuple(out))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> Coefficient:
        return self.coeffs[0]

    def deriv(self, k: int) -> Coefficient:
        """k-th derivative at the expansion point."""
        if k > self.order:
            raise SmoothnessError(f"jet of order {self.order} has no derivative {k}")
        return math.factorial(k) * self.coeffs[k]

    def derivs(self) -> tuple:
        """(f, f', ..., f^(order)) at the expansion point."""
        return tuple(math.factorial(k) * c for k, c in enumerate(self.coeffs))

    def item(self, i: int) -> "Jet":
        """The float jet about point ``i`` of an array jet."""
        return Jet(tuple(float(c[i]) if isinstance(c, np.ndarray) else float(c)
                         for c in self.coeffs))

    def derivative(self) -> "Jet":
        """Jet of f', one order lower."""
        if self.order == 0:
            raise SmoothnessError("cannot differentiate an order-0 jet")
        return Jet(tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))

    def is_finite(self) -> bool:
        """Whether every coefficient is finite at every point."""
        return all(_finite(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Jet({self.coeffs})"

    # ------------------------------------------------------------ arithmetic

    def _align(self, other) -> tuple:
        """Both coefficient tuples at the lower of the two orders; a number
        is a constant jet."""
        a = self.coeffs
        if not isinstance(other, Jet):
            return a, (other,) + (0.0,) * (len(a) - 1)
        b = other.coeffs
        if len(a) == len(b):
            return a, b
        n = min(len(a), len(b))
        return a[:n], b[:n]

    def __add__(self, other) -> "Jet":
        return Jet(tuple(map(operator.add, *self._align(other))))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return Jet(tuple(map(operator.sub, *self._align(other))))

    def __rsub__(self, other) -> "Jet":
        a, b = self._align(other)
        return Jet(tuple(map(operator.sub, b, a)))

    def __neg__(self) -> "Jet":
        return Jet(tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(tuple(c * other for c in self.coeffs))
        a, b = self._align(other)
        # The value is one product (all of it at order 0): sum() would add
        # it to 0, an array pass per node.  The higher sums keep their start
        # 0, which turns a sum of -0.0 terms into +0.0.
        out = (a[0] * b[0],)
        if len(a) == 1:
            return Jet(out)
        return Jet(out + tuple(sum(a[j] * b[k - j] for j in range(k + 1))
                               for k in range(1, len(a))))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(tuple(c / other for c in self.coeffs))
        a, b = self._align(other)
        b0 = b[0]
        if _any(b0 == 0.0):
            raise SmoothnessError("division by a quantity vanishing at the evaluation point")
        out = [a[0] / b0]
        for k in range(1, len(a)):
            acc = a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))
            out.append(acc / b0)
        return Jet(tuple(out))

    def __rtruediv__(self, other) -> "Jet":
        return Jet.constant(other, self.order) / self

    # ----------------------------------------------------------- elementary

    def __pow__(self, exponent) -> "Jet":
        """Raise to a rational power via the series recurrence.

        An int is taken as is, any other exponent as ``Fraction(exponent)``,
        exact for a float.  A vanishing base is allowed only for non-negative
        integer exponents (computed by repeated multiplication, exactly) or
        for exponents above the truncation order (all retained derivatives
        vanish).  Other fractional powers of a vanishing quantity have
        unbounded derivatives and raise :class:`SmoothnessError`.
        """
        if not isinstance(exponent, (int, Fraction)):
            exponent = Fraction(exponent)
        n = self.order
        if exponent.denominator == 1:
            k = int(exponent)
            if k >= 0:
                return self._int_power(k)
            # A vanishing base fails the division check.
            return Jet.constant(1.0, n) / self._int_power(-k)

        q = float(exponent)
        a0 = self.coeffs[0]
        zero = None
        # One test when every base is positive; the checks run only when
        # some base is not (NaN included), and refuse as they always have.
        if not _all(a0 > 0.0):
            zero = a0 == 0.0
            if _any(zero):
                if not exponent > n:
                    raise SmoothnessError(
                        f"power {q} of a quantity vanishing at the evaluation point "
                        "has no finite jet at this order"
                    )
                if not isinstance(zero, np.ndarray):
                    return Jet.constant(0.0, n)
                # Run the recurrence on a unit base there, then zero the result.
                a0 = np.where(zero, 1.0, a0)
            else:
                zero = None
            if _any(a0 < 0.0):
                raise DomainError(f"fractional power {q} of a negative quantity")
        c = self.coeffs
        out = [_elementary(np.power, a0, q)]
        for k in range(1, n + 1):
            acc = sum((j * (q + 1.0) - k) * c[j] * out[k - j] for j in range(1, k + 1))
            out.append(acc / (k * a0))
        if zero is not None:
            out = [np.where(zero, 0.0, o) for o in out]
        return Jet(out)

    def _int_power(self, k: int) -> "Jet":
        result = Jet.constant(1.0, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def sqrt(self) -> "Jet":
        return self.__pow__(Fraction(1, 2))

    def exp(self) -> "Jet":
        c = self.coeffs
        out = [_elementary(np.exp, c[0])]
        for k in range(1, self.order + 1):
            acc = sum(j * c[j] * out[k - j] for j in range(1, k + 1))
            out.append(acc / k)
        return Jet(out)
