"""Helpers that only the tests call: numerical cross-checks, accessors and
small conveniences on library types.

``inverse_radon_brute`` integrates with the QUADPACK reference
(``reference_quadpack``), so it is independent of the library's quadrature.
"""

import json
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from ibodies.calculus import RootBracket, Settings
from ibodies.criteria import _flat_top
from ibodies.errors import DomainError, SmoothnessError
from ibodies.jets import Jet, _elementary
from ibodies.profile import COSINE, JOINT_TOL, SINE, DerivedProfile
from reference_quadpack import integrate


class Divergent(RuntimeError):
    """A limit extrapolation did not stabilize."""


def bracket(fn: Callable[[float], float], lower: float, upper: float) -> RootBracket:
    """The root bracket of fn on [lower, upper]."""
    return RootBracket(lower, upper, fn(lower), fn(upper))


def flat_top_check(profile) -> tuple:
    """Value of rho(1) + rho'(1) for a RadialProfile and whether it vanishes
    within the criteria's tolerance (a "flat top")."""
    return _flat_top(*profile.eval_jet(1.0, 1, "left"))


def report_json(report) -> str:
    """A criterion report as indented JSON with sorted keys."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def truncated(jet: Jet, order: int) -> Jet:
    """The jet cut down to ``order``."""
    if order >= jet.order:
        return jet
    return Jet(jet.coeffs[: order + 1])


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of f(u(.)), where ``outer`` is the jet of f at ``inner.value``."""
    n = min(outer.order, inner.order)
    delta = Jet((0.0,) + inner.coeffs[1 : n + 1])
    acc = Jet.constant(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = acc * delta + outer.coeffs[k]
    return acc


def one_sided_limit(fn: Callable[[float], float], t0: float, side: str,
                    initial_h: float = 2.0 ** -8, levels: int = 17,
                    rel_tol: float = 1e-11) -> float:
    """Limit of fn(t0 +/- h) as h -> 0 by Richardson extrapolation in h.

    Samples at geometrically shrinking offsets h = initial_h * 2^-i and
    accelerates the sequence; raises Divergent if no stable value emerges.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    sign = -1.0 if side == "left" else 1.0
    rows: list[list[float]] = []
    best = None
    best_delta = math.inf
    for i in range(levels):
        h = initial_h * 2.0 ** -i
        try:
            v = fn(t0 + sign * h)
        except (ArithmeticError, ValueError) as e:
            raise Divergent(f"function not evaluable at offset {h} from {t0}") from e
        if not math.isfinite(v):
            raise Divergent(f"function not finite at offset {h} from {t0}")
        row = [v]
        if rows:
            prev = rows[-1]
            for j in range(min(len(prev), 8)):
                # Eliminate the O(h^(j+1)) term of the expansion in h.
                fac = 2.0 ** (j + 1)
                row.append((fac * row[j] - prev[j]) / (fac - 1.0))
        rows.append(row)
        if len(row) >= 2:
            delta = abs(row[-1] - row[-2])
            scale = max(1.0, abs(row[-1]))
            if delta < best_delta:
                best_delta = delta
                best = row[-1]
            if delta <= rel_tol * scale:
                return row[-1]
    scale = max(1.0, abs(best) if best is not None else 1.0)
    if best is not None and best_delta <= 1e-7 * scale:
        return best
    raise Divergent(
        f"one-sided limit at t={t0} ({side}) did not stabilize "
        f"(best residual {best_delta:g})"
    )


def fd_check(value_fn: Callable[[float], float], deriv_fn: Callable[[float], float],
             t: float, order: int = 1, h0: float = 1e-2, levels: int = 8) -> tuple:
    """Compare an analytic derivative against a Richardson-refined central
    difference.  Returns (analytic, numeric, relative_error)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")

    def stencil(h: float) -> float:
        if order == 1:
            return (value_fn(t + h) - value_fn(t - h)) / (2.0 * h)
        return (value_fn(t + h) - 2.0 * value_fn(t) + value_fn(t - h)) / (h * h)

    rows: list[list[float]] = []
    best = None
    best_delta = math.inf
    for i in range(levels):
        h = h0 * 2.0 ** -i
        row = [stencil(h)]
        if rows:
            prev = rows[-1]
            for j in range(len(prev)):
                fac = 4.0 ** (j + 1)  # central stencils improve in powers of h^2
                row.append((fac * row[j] - prev[j]) / (fac - 1.0))
        rows.append(row)
        if len(row) >= 2:
            delta = abs(row[-1] - row[-2])
            if delta < best_delta:
                best_delta = delta
                best = row[-1]
    numeric = best if best is not None else rows[-1][-1]
    analytic = deriv_fn(t)
    rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
    return analytic, numeric, rel


def converted_variable(profile: DerivedProfile) -> DerivedProfile:
    """Reparameterize between the cosine and sine conventions.

    If q(x) is the input, the output is q(sqrt(1 - t^2)) with derivatives via
    jet composition; applying it twice returns to the original parameter.
    Smoothness at the endpoints is generally reduced (the substitution has a
    square-root singularity there), so jets are only available strictly
    inside (0, 1).
    """
    target = SINE if profile.variable == COSINE else COSINE
    bps = sorted(np.sqrt(1.0 - np.array(profile.breakpoint_locations) ** 2))

    def source(t: np.ndarray, order: int, side: np.ndarray) -> Jet:
        inner = (1.0 - Jet.variable(t, order) * Jet.variable(t, order)).sqrt()
        u0 = inner.value
        # A side for t maps to the opposite side for u = sqrt(1 - t^2).
        outer = profile._jet(u0, order, -side)
        return compose(outer, inner)

    lo = max(np.sqrt(1.0 - profile.domain[1] ** 2), 1e-8)
    hi = min(np.sqrt(1.0 - profile.domain[0] ** 2), 1.0)
    return DerivedProfile(source, [float(b) for b in bps], domain=(float(lo), float(hi)),
                          variable=target, max_order=profile.max_order,
                          name=f"{profile.name} reparam".strip())


def inverse_radon_brute(f: DerivedProfile, n: int, t: float,
                        fd_step: float = 5e-4) -> float:
    """Direct evaluation of the iterated-derivative inversion formula.

    Computes t (1/t d/dt)^(n-2) of J(t) = int_0^t f(x) x^(n-2) (t^2-x^2)^((n-4)/2) dx
    with nested central differences -- slow and noise-amplifying, kept as an
    independent cross-check of :func:`inverse_radon`.
    """
    if n not in (4, 6):
        raise DomainError(f"inverse Radon transform implemented for n in {{4, 6}}, got {n}")
    if f.variable != SINE:
        raise DomainError("inverse transform input must use the sine convention")
    power = (n - 4) // 2
    bps = list(f.breakpoint_locations)
    lo = f.domain[0]

    def j_fn(u: float) -> float:
        def integrand(x: float) -> float:
            base = f.value(x) * x ** (n - 2)
            return base if power == 0 else base * (u * u - x * x) ** power

        inner = [b for b in bps if lo < b < u]
        return integrate(integrand, lo, u, inner, Settings(rel_tol=1e-12))

    level: Callable[[float], float] = j_fn
    for _ in range(n - 2):
        prev = level

        def level(u: float, prev=prev) -> float:
            return (prev(u + fd_step) - prev(u - fd_step)) / (2.0 * fd_step * u)

    return t * level(t)


def stretched(profile_json: dict, a: float) -> dict:
    """The profile JSON of the body stretched by ``a`` along its axis, from
    a profile's JSON pieces.

    The stretched body's radial function is rho_a(t) = rho(t') D^(-1/2),
    with D = t^2/a^2 + (1 - t)(1 + t) and t' = (t/a)/sqrt(D) the cosine of
    the direction it comes from.  Each piece's prefix text takes t' for
    every ``t``, written as t/sqrt(a^2 D) so that t' is 1 at t = 1, and its
    joints move to t = a t'/sqrt(a^2 t'^2 + (1 - t')(1 + t')).
    """
    a2d = f"(add (mul t t) (mul {a * a!r} (mul (sub 1 t) (add 1 t))))"
    source = f"(div t (sqrt {a2d}))"

    def joint(u: float) -> float:
        return u if u in (0.0, 1.0) else a * u / math.sqrt(a * a * u * u + (1.0 - u) * (1.0 + u))

    pieces = []
    for piece in profile_json["pieces"]:
        tokens = piece["expr"].replace("(", " ( ").replace(")", " ) ").split()
        expr = " ".join(source if tok == "t" else tok for tok in tokens)
        pieces.append({"interval": [joint(u) for u in piece["interval"]],
                       "expr": f"(mul {a!r} (mul {expr} (pow {a2d} -1/2)))"})
    return {"pieces": pieces}


def value_at(fld, t: float) -> float:
    """The continuous value of the field row nearest to t."""
    idx = int(np.argmin(np.abs(np.asarray(fld.grid) - t)))
    return fld.continuous_values[idx]


def searchsorted_index(profile, t: np.ndarray, side) -> np.ndarray:
    """The piece of every point of t on its side, ``side`` being one code
    for all or one per point (-1 left; 0 or +1 right), found by
    ``np.searchsorted`` against the profile's edges: the reference for
    ``RadialProfile._locate``."""
    return np.where(np.asarray(side) < 0,
                    np.searchsorted(profile._left_of, t, side="left"),
                    np.searchsorted(profile._right_of, t, side="right"))


def masked_pieces_jet(pieces, t: np.ndarray, index: np.ndarray, order: int) -> Jet:
    """``RadialProfile._pieces_jet`` as a mask dispatch over a profile's
    ``pieces``: each piece's points gathered through a mask, in ``np.unique``
    order, walked as an array even when there is one, and scattered back
    through the mask."""
    out = np.empty((order + 1, t.size))
    with np.errstate(all="ignore"):
        for i in np.unique(index):
            sel = index == i
            jet = pieces[i].expr.eval_jet(t[sel], order)
            for k, c in enumerate(jet.coeffs):
                out[k, sel] = c
    return Jet(tuple(out))


def closed_form_function(pieces, variable: str = COSINE, name: str = "") -> DerivedProfile:
    """The function given by closed-form ``pieces`` that tile [0, 1], jets
    up to order 3: a signed function, or one of the sine of the vertical
    angle, neither of which a RadialProfile (a radial function of t, always
    positive) holds.  A point within JOINT_TOL of a joint takes the piece on
    its side, the right one without a side."""
    pieces = tuple(pieces)
    joints = np.array([p.interval[1] for p in pieces[:-1]])

    def source(t: np.ndarray, order: int, side: np.ndarray) -> Jet:
        index = np.where(side < 0, np.searchsorted(joints + JOINT_TOL, t, side="left"),
                         np.searchsorted(joints - JOINT_TOL, t, side="right"))
        return masked_pieces_jet(pieces, t, index, order)

    return DerivedProfile(source, joints.tolist(), variable=variable, max_order=3, name=name)


def masked_eval_array(profile, t) -> np.ndarray:
    """``RadialProfile.eval_array`` as a searchsorted and mask dispatch, for
    points in the profile's domain."""
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    index = searchsorted_index(profile, flat, -1)
    return masked_pieces_jet(profile.pieces, flat, index, 0).value.reshape(t.shape)


# ------------------------------------------------- reference jet arithmetic
# The generic recurrences the jet operations ran before their order-0 and
# equal-order shortcuts: every coefficient rebuilt through index loops and
# sums, and every domain check of a fractional power made on every call.
# tests/test_jets.py requires the library's bytes to equal these.

def reference_align(a: Jet, other) -> tuple:
    if not isinstance(other, Jet):
        other = Jet.constant(other, a.order)
    n = min(a.order, other.order)
    return a.coeffs[: n + 1], other.coeffs[: n + 1], n


def reference_add(x: Jet, other) -> Jet:
    a, b, n = reference_align(x, other)
    return Jet(tuple(a[k] + b[k] for k in range(n + 1)))


def reference_sub(x: Jet, other) -> Jet:
    a, b, n = reference_align(x, other)
    return Jet(tuple(a[k] - b[k] for k in range(n + 1)))


def reference_rsub(x: Jet, other) -> Jet:
    a, b, n = reference_align(x, other)
    return Jet(tuple(b[k] - a[k] for k in range(n + 1)))


def reference_neg(x: Jet) -> Jet:
    return Jet(tuple(-c for c in x.coeffs))


def reference_mul(x: Jet, other) -> Jet:
    if not isinstance(other, Jet):
        return Jet(tuple(c * other for c in x.coeffs))
    a, b, n = reference_align(x, other)
    return Jet((a[0] * b[0],) + tuple(sum(a[j] * b[k - j] for j in range(k + 1))
                                      for k in range(1, n + 1)))


def reference_truediv(x: Jet, other) -> Jet:
    if not isinstance(other, Jet):
        return Jet(tuple(c / other for c in x.coeffs))
    a, b, n = reference_align(x, other)
    b0 = b[0]
    if (b0 == 0.0).any() if isinstance(b0, np.ndarray) else b0 == 0.0:
        raise SmoothnessError("division by a quantity vanishing at the evaluation point")
    out = [a[0] / b0]
    for k in range(1, n + 1):
        acc = a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc / b0)
    return Jet(out)


def reference_pow(x: Jet, exponent) -> Jet:
    """x ** exponent for a fractional exponent, with the domain checks run
    at every call: a vanishing base first, then a negative one."""
    exponent = Fraction(exponent)
    n = x.order
    q = float(exponent)
    a0 = x.coeffs[0]
    zero = a0 == 0.0
    if (zero.any() if isinstance(zero, np.ndarray) else zero):
        if not exponent > n:
            raise SmoothnessError(
                f"power {q} of a quantity vanishing at the evaluation point "
                "has no finite jet at this order"
            )
        if not isinstance(zero, np.ndarray):
            return Jet.constant(0.0, n)
        a0 = np.where(zero, 1.0, a0)
    else:
        zero = None
    negative = a0 < 0.0
    if (negative.any() if isinstance(negative, np.ndarray) else negative):
        raise DomainError(f"fractional power {q} of a negative quantity")
    c = x.coeffs
    out = [_elementary(np.power, a0, q)]
    for k in range(1, n + 1):
        acc = sum((j * (q + 1.0) - k) * c[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc / (k * a0))
    if zero is not None:
        out = [np.where(zero, 0.0, o) for o in out]
    return Jet(out)


def reference_int_power(x: Jet, k: int) -> Jet:
    """x ** k for an int k >= 0 by the chain the jets ran before, which
    squares its base once more after the last bit."""
    result = Jet.constant(1.0, x.order)
    base = x
    while k:
        if k & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base)
        k >>= 1
    return result


def reference_power(x: Jet, exponent) -> Jet:
    """x ** exponent for any rational exponent: integers by the chain above
    (a negative one as 1 over it), fractions by reference_pow."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        k = int(exponent)
        if k >= 0:
            return reference_int_power(x, k)
        return reference_truediv(Jet.constant(1.0, x.order), reference_int_power(x, -k))
    return reference_pow(x, exponent)


def reference_exp(x: Jet) -> Jet:
    c = x.coeffs
    out = [_elementary(np.exp, c[0])]
    for k in range(1, x.order + 1):
        out.append(sum(j * c[j] * out[k - j] for j in range(1, k + 1)) / k)
    return Jet(out)


_REFERENCE_RULES = {
    "add": reference_add, "sub": reference_sub, "mul": reference_mul,
    "div": reference_truediv, "pow": reference_power, "neg": reference_neg,
    "sqrt": lambda x: reference_pow(x, Fraction(1, 2)), "exp": reference_exp,
}


def reference_eval_jet(expr, t, order: int = 0) -> Jet:
    """The jet of an expression tree at t by the walk the library ran before
    its value walk: a jet at every node, even at order 0, through the
    reference operations above."""
    if not expr.children:
        if expr.op == "const":
            return Jet.constant(expr.value, order)
        return Jet.variable(t, order)
    rule = _REFERENCE_RULES[expr.op]
    a = reference_eval_jet(expr.children[0], t, order)
    if expr.op == "pow":
        return rule(a, expr.exponent)
    if len(expr.children) == 1:
        return rule(a)
    return rule(a, reference_eval_jet(expr.children[1], t, order))
