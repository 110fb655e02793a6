"""Helpers that only the tests call: numerical cross-checks, accessors and
small conveniences on library types.

``inverse_radon_brute`` integrates with the QUADPACK reference
(``reference_quadpack``), so it is independent of the library's quadrature.
"""

import json
import math
from typing import Callable, Optional

import numpy as np

from ibodies.calculus import RootBracket, Settings
from ibodies.criteria import _flat_top
from ibodies.errors import DomainError
from ibodies.jets import Jet
from ibodies.profile import COSINE, SINE, DerivedProfile
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

    def source(t: np.ndarray, order: int, side: Optional[str]) -> Jet:
        inner = (1.0 - Jet.variable(t, order) * Jet.variable(t, order)).sqrt()
        u0 = inner.value
        # A side for t maps to the opposite side for u = sqrt(1 - t^2).
        flip = {None: None, "left": "right", "right": "left"}[side]
        outer = profile._jet(u0, order, flip)
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


def value_at(fld, t: float) -> float:
    """The continuous value of the field row nearest to t."""
    idx = int(np.argmin(np.abs(np.asarray(fld.grid) - t)))
    return fld.continuous_values[idx]


def searchsorted_index(profile, t: np.ndarray, side: str) -> np.ndarray:
    """The piece of every point of t on ``side`` ("left", or "right" for
    any other side), found by ``np.searchsorted`` against the profile's
    edges: the reference for ``RadialProfile._locate``."""
    if side == "left":
        return np.searchsorted(profile._left_of, t, side="left")
    return np.searchsorted(profile._right_of, t, side="right")


def masked_pieces_jet(profile, t: np.ndarray, index: np.ndarray, order: int) -> Jet:
    """``RadialProfile._pieces_jet`` as a mask dispatch: each piece's points
    gathered through a mask, in ``np.unique`` order, walked as an array even
    when there is one, and scattered back through the mask."""
    out = np.empty((order + 1, t.size))
    with np.errstate(all="ignore"):
        for i in np.unique(index):
            sel = index == i
            jet = profile.pieces[i].expr.eval_jet(t[sel], order)
            for k, c in enumerate(jet.coeffs):
                out[k, sel] = c
    return Jet(tuple(out))


def masked_eval_array(profile, t) -> np.ndarray:
    """``RadialProfile.eval_array`` as a searchsorted and mask dispatch: a
    NaN-filled array with the points in [0, 1] scattered into it."""
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.full(flat.shape, np.nan)
    inside = (flat >= 0.0) & (flat <= 1.0)
    pts = flat[inside]
    index = searchsorted_index(profile, pts, "left")
    out[inside] = masked_pieces_jet(profile, pts, index, 0).value
    return out.reshape(t.shape)
