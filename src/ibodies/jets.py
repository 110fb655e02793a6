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

The value of a quotient, a power or an exponential has one owner here:
:func:`divide`, :func:`power` (with :func:`int_power` and
:func:`fractional_power`) and :func:`exponential` make the checks and the
arithmetic of a plain value, a float or an array.  An expression walked for
values alone runs them and builds no jet; the :class:`Jet` methods take
their coefficient 0 from the same functions, so a value has the bits of the
jet's coefficient 0 and refuses with the same exception and message.

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


# ------------------------------------------------------------ value rules

_HALF = Fraction(1, 2)


def divide(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b, refused where b vanishes."""
    if _any(b == 0.0):
        raise SmoothnessError("division by a quantity vanishing at the evaluation point")
    return a / b


def int_power(base, k: int, one=1.0):
    """base ** k for an int k >= 0 by repeated squaring: ``one`` times the
    squares of base that the bits of k select, lowest bit first.  The base
    is squared only while bits remain.  ``one`` is 1.0 for a value and the
    constant jet 1 for a jet, so both multiply through the same chain."""
    result = one
    while True:
        if k & 1:
            result = result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def fractional_power(a0: Coefficient, exponent: Fraction, order: int) -> tuple:
    """The value of a fractional power of a jet of ``order`` whose value is
    a0: (p, base, zero).

    ``base`` is a0 with 1 where it vanishes, p is numpy's power of it, and
    ``zero`` masks the vanishing elements, where every coefficient of the
    power is 0 (None when none vanishes).  A float a0 that vanishes gives
    (0.0, None, None).  A vanishing base is refused unless the exponent
    exceeds ``order``, and a negative one always."""
    q = float(exponent)
    zero = None
    # One test when every base is positive; the checks run only when some
    # base is not (NaN included).
    if not _all(a0 > 0.0):
        zero = a0 == 0.0
        if _any(zero):
            if not exponent > order:
                raise SmoothnessError(
                    f"power {q} of a quantity vanishing at the evaluation point "
                    "has no finite jet at this order"
                )
            if not isinstance(zero, np.ndarray):
                return 0.0, None, None
            a0 = np.where(zero, 1.0, a0)
        else:
            zero = None
        if _any(a0 < 0.0):
            raise DomainError(f"fractional power {q} of a negative quantity")
    return _elementary(np.power, a0, q), a0, zero


def power(x: Coefficient, exponent) -> Coefficient:
    """x ** exponent for a rational exponent, the value of ``Jet ** exponent``
    (an int is taken as is, anything else as ``Fraction(exponent)``)."""
    if not isinstance(exponent, (int, Fraction)):
        exponent = Fraction(exponent)
    if exponent.denominator == 1:
        k = int(exponent)
        return int_power(x, k) if k >= 0 else divide(1.0, int_power(x, -k))
    p, _, zero = fractional_power(x, exponent, 0)
    return p if zero is None else np.where(zero, 0.0, p)


def square_root(x: Coefficient) -> Coefficient:
    return power(x, _HALF)


def exponential(x: Coefficient) -> Coefficient:
    return _elementary(np.exp, x)


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
        out = [divide(a[0], b0)]
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
            one = Jet.constant(1.0, n)
            # A vanishing base fails the division check of a negative power.
            return int_power(self, k, one) if k >= 0 else one / int_power(self, -k, one)
        p, a0, zero = fractional_power(self.coeffs[0], exponent, n)
        if a0 is None:
            return Jet.constant(p, n)
        q = float(exponent)
        c = self.coeffs
        out = [p]
        for k in range(1, n + 1):
            acc = sum((j * (q + 1.0) - k) * c[j] * out[k - j] for j in range(1, k + 1))
            out.append(acc / (k * a0))
        if zero is not None:
            # The recurrence ran on a unit base there.
            out = [np.where(zero, 0.0, o) for o in out]
        return Jet(out)

    def sqrt(self) -> "Jet":
        return self.__pow__(_HALF)

    def exp(self) -> "Jet":
        c = self.coeffs
        out = [exponential(c[0])]
        for k in range(1, self.order + 1):
            acc = sum(j * c[j] * out[k - j] for j in range(1, k + 1))
            out.append(acc / k)
        return Jet(out)
