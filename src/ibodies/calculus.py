"""Numerical workhorses: adaptive quadrature and root finding.

Everything downstream (the transform pipeline, criteria margins, parameter
sweeps) funnels through this module so that failure modes are decided in
exactly one place; the relative tolerance arrives as an argument, in a
:class:`Settings` that the caller passes down.  There is one quadrature routine,
:func:`integrate`: a vectorised adaptive Gauss-Kronrod pass that gives the
running integrals from 0 up to every node of a :class:`QuadratureRequest`
at once; a single definite integral over [0, x] is that pass with one node.
The value of this layer is the bookkeeping around it: splitting at known
breakpoints, honest error propagation, and hard failures instead of silently
degraded answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidBracket, NoConvergence

DEFAULT_REL_TOL = 1e-10
_EPMACH = float(np.finfo(float).eps)
# QUADPACK's floor on a panel's error estimate, relative to its int |f|.
MIN_REL_TOL = 50.0 * _EPMACH
# calculus.find_root gives up after this many evaluations; a triple root, its
# slowest case, takes 83 to narrow [0, 1] to 1e-10, and bisection 34.
_ROOT_MAX_ITER = 200


@dataclass(frozen=True)
class Settings:
    """Quadrature tolerance, relative to int |f|; passed to every computation that integrates."""

    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= MIN_REL_TOL):
            raise ValueError(f"relative tolerance must be finite and at least "
                             f"50 eps = {MIN_REL_TOL:.3g}, got {self.rel_tol}")


DEFAULT_SETTINGS = Settings()


# QUADPACK's qk15 rule on [-1, 1]: the 15 Kronrod nodes in increasing order,
# their Kronrod weights, and the weights of the embedded 7-point Gauss rule
# (zero at the nodes that only the Kronrod rule uses).
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0,
       0.279705391489276667901467771423780, 0.0,
       0.381830050505118944950369775488975, 0.0,
       0.417959183673469387755102040816327)
_GK_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_WK = np.array(_WGK[:-1] + _WGK[::-1])
_GK_WG = np.array(_WG[:-1] + _WG[::-1])
MAX_BISECTIONS = 40     # a panel still failing at this depth is accepted as is
MAX_PANELS = 100_000    # refinement stops before the panel count passes this


@dataclass
class CumulativeIntegral:
    """Running integrals of one or more integrands, up to every node.

    ``values[i, k]`` is the integral of integrand ``i`` from 0 to
    ``nodes[k]``.  The counters describe the pass that produced them.
    """

    nodes: np.ndarray
    values: np.ndarray
    panels: int                  # accepted panels
    evaluations: int             # integrand evaluation points, rejected panels included
    max_depth: int               # deepest bisection of an accepted panel
    worst_error_fraction: float  # max of accumulated error / (rel_tol int_0^node |f|)


def sorted_unique(x) -> np.ndarray:
    """The distinct values of a finite array, sorted: the bits of
    ``np.unique(x)``, which in numpy 2.4 imports ``numpy.ma`` (10-20 ms at
    cold start) on its first call.  Of equal values (0.0 and -0.0) the first
    in sorted order is kept, as ``np.unique`` keeps it."""
    aux = np.sort(np.asarray(x, dtype=float).ravel())
    keep = np.empty(aux.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = aux[1:] != aux[:-1]
    return aux[keep]


def _gk15_panels(fn: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
                 b: np.ndarray) -> tuple:
    """qk15 on every panel [a[j], b[j]] with one call of ``fn``.

    Returns (integral, error estimate, integral of |f|), each of shape
    (integrands, panels); the error estimate is QUADPACK's.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = (centre[:, None] + half[:, None] * _GK_X).ravel()
    # An overflow or invalid value in fn is refused just below.
    with np.errstate(all="ignore"):
        f = np.asarray(fn(t), dtype=float).reshape(-1, a.size, _GK_X.size)
    finite = np.isfinite(f)
    if not finite.all():
        bad = t[~finite.all(axis=0).ravel()]
        raise NoConvergence(f"integrand is not finite at t={float(bad[0])}")
    kronrod = (f * _GK_WK).sum(axis=-1)
    gauss = (f * _GK_WG).sum(axis=-1)
    resabs = (np.abs(f) * _GK_WK).sum(axis=-1)
    resasc = (np.abs(f - 0.5 * kronrod[..., None]) * _GK_WK).sum(axis=-1)
    err = np.abs(kronrod - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.maximum(50.0 * _EPMACH * resabs, err)
    return kronrod * half, err * half, resabs * half


def _at_nodes(a: list, b: list, nodes: np.ndarray, *per_panel: list) -> tuple:
    """Running sums of each per-panel quantity, read at every node; the
    panels (given as lists of arrays) tile [0, max node]."""
    order = np.argsort(np.concatenate(a), kind="stable")
    right = np.concatenate(b)[order]
    at = np.searchsorted(right, nodes, side="right")
    out = []
    for parts in per_panel:
        sums = np.cumsum(np.concatenate(parts, axis=1)[:, order], axis=1)
        out.append(np.concatenate([np.zeros((sums.shape[0], 1)), sums], axis=1)[:, at])
    return tuple(out)


@dataclass
class QuadratureRequest:
    """Running integrals of ``fn`` from 0 to every node.

    ``fn`` maps a 1-D array of points to an array of shape (points,) or
    (integrands, points).  ``breakpoints`` lists locations where the
    integrand (or its derivatives) may jump; panels are split there so the
    adaptive rule never straddles a kink, and those outside the interval are
    ignored.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    nodes: Sequence[float]
    breakpoints: Sequence[float] = ()
    settings: Settings = DEFAULT_SETTINGS


def integrate(request: QuadratureRequest) -> CumulativeIntegral:
    """Integrals from 0 to every node of ``request``, from one adaptive pass.

    [0, largest node] is split into panels at every node and interior
    breakpoint, so no panel straddles a kink; each round evaluates all open
    panels with one call of ``request.fn`` (Gauss-Kronrod 7/15) and bisects
    those that miss their share of the tolerance, until every panel meets
    its share or every node's accumulated error estimate (open panels
    counted at their current estimates) is within rel_tol times its
    integral of |f|.  A running sum over the panels, in order, gives every
    node's value, accumulated error estimate and integral of |f|.  Results
    are bit-reproducible for a given request.

    Raises ValueError for a node that is negative or not finite, or when no
    node lies above 0, and NoConvergence when the integrand is not finite at
    an evaluation point or when the accumulated error at any node exceeds
    10 * rel_tol times its integral of |f|.  ``rel_tol`` is that of
    ``request.settings``.
    """
    rel_tol = request.settings.rel_tol
    nodes = np.asarray(request.nodes, dtype=float)
    if not np.isfinite(nodes).all():
        raise ValueError(f"nodes must be finite, got {float(nodes[~np.isfinite(nodes)][0])}")
    nodes = sorted_unique(nodes)
    if nodes.size == 0 or nodes[0] < 0.0 or nodes[-1] <= 0.0:
        raise ValueError(f"nodes must lie in [0, inf) with one above it, got {nodes}")
    end = float(nodes[-1])
    inner = [x for x in request.breakpoints if 0.0 < x < end]
    edges = sorted_unique(np.concatenate([[0.0], inner, nodes]))
    a, b = edges[:-1], edges[1:]

    done_a, done_b, done_val, done_err, done_abs = [], [], [], [], []
    panels = evaluations = max_depth = 0
    for depth in range(MAX_BISECTIONS + 1):
        if a.size == 0:
            break
        val, err, resabs = _gk15_panels(request.fn, a, b)
        evaluations += a.size * _GK_X.size
        # Half of each panel's share of rel_tol * int|f|, so that the error
        # summed up to any node stays within rel_tol times its int|f|.
        allowed = 0.5 * rel_tol * resabs
        ok = np.all(err <= allowed, axis=0)
        mid = 0.5 * (a + b)
        ok |= (mid <= a) | (mid >= b)  # panel too narrow to bisect
        if depth == MAX_BISECTIONS or panels + ok.sum() + 2 * (~ok).sum() > MAX_PANELS:
            ok[:] = True
        elif not ok.all():
            # A panel can miss its share for ever (a square-root singularity
            # in a derivative at its end) while every node already meets the
            # tolerance; stop refining then, open panels at their estimates.
            errors, mass = _at_nodes(done_a + [a], done_b + [b], nodes,
                                     done_err + [err], done_abs + [resabs])
            if np.all(errors <= rel_tol * mass):
                ok[:] = True
        if ok.any():
            done_a.append(a[ok])
            done_b.append(b[ok])
            done_val.append(val[:, ok])
            done_err.append(err[:, ok])
            done_abs.append(resabs[:, ok])
            panels += int(ok.sum())
            max_depth = depth
        bad = ~ok
        a, b = (np.concatenate([a[bad], mid[bad]]),
                np.concatenate([mid[bad], b[bad]]))

    values, errors, mass = _at_nodes(done_a, done_b, nodes, done_val, done_err, done_abs)
    # A node with no error (a zero integrand) has fraction 0, not 0 / 0.
    fraction = np.divide(errors, rel_tol * mass, out=np.zeros_like(errors), where=errors != 0)
    worst = np.unravel_index(int(np.argmax(fraction)), fraction.shape)
    if fraction[worst] > 10.0:
        raise NoConvergence(
            f"accumulated quadrature error {errors[worst]} up to x={nodes[worst[1]]} "
            f"exceeds tolerance {10.0 * rel_tol * mass[worst]}"
        )
    return CumulativeIntegral(nodes=nodes, values=values, panels=panels, evaluations=evaluations,
                              max_depth=max_depth,
                              worst_error_fraction=float(fraction[worst]))


@dataclass
class RootBracket:
    """Interval whose endpoint values have opposite signs."""

    lower: float
    upper: float
    f_lower: float
    f_upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise InvalidBracket(f"empty bracket [{self.lower}, {self.upper}]")
        if not (self.f_lower * self.f_upper < 0.0):
            raise InvalidBracket(
                f"no sign change on [{self.lower}, {self.upper}]: "
                f"f = {self.f_lower}, {self.f_upper}"
            )


@dataclass(frozen=True)
class RefinedRoot:
    """Where Brent's method stopped: the end of its final bracket with the
    smaller |value| (the root), and the bracket's other end."""

    root: float
    value: float
    far: float
    far_value: float


def find_root(fn: Callable[[float], float], bracket: RootBracket,
              x_tol: float = 1e-12) -> RefinedRoot:
    """A root of ``fn`` in ``bracket`` by Brent's method, to ``x_tol``,
    with the final bracket around it.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4:
    each step is an inverse quadratic or secant step through the last
    points, taken only when it shrinks the bracket fast enough, and a
    bisection otherwise.  The bracket starts as ``bracket`` with its end
    values and always holds a sign change of the values ``fn`` returned;
    once it is narrower than ``x_tol + 4 eps |x|``, its end ``x`` with the
    smaller value is the root, returned with the final bracket and both its
    end values (no evaluation beyond Brent's own).  So the root lies in
    ``[bracket.lower, bracket.upper]``, within that width of a sign change,
    and a noisy ``fn`` can mislead it no further than it misleads bisection.
    Raises NoConvergence when ``fn`` returns NaN or the bracket is still too
    wide after _ROOT_MAX_ITER evaluations.
    """
    x_pre, f_pre = bracket.lower, bracket.f_lower
    x_cur, f_cur = bracket.upper, bracket.f_upper
    x_blk = f_blk = s_pre = s_cur = 0.0
    for evaluations in range(_ROOT_MAX_ITER + 1):
        if math.isnan(f_cur):
            raise NoConvergence(f"root finder got NaN at x={x_cur}")
        if f_pre * f_cur < 0.0:
            # The sign change lies between x_pre and x_cur: x_pre becomes
            # the far end of the bracket.
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (x_tol + 4.0 * _EPMACH * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return RefinedRoot(x_cur, f_cur, x_blk, f_blk)
        if evaluations == _ROOT_MAX_ITER:
            break
        interpolate = abs(s_pre) > delta and abs(f_cur) < abs(f_pre)
        if interpolate:
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre))
            # Keep the step only if it stays well inside the bracket and is
            # under half the step before last.
            interpolate = 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, s_try) if interpolate else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = fn(x_cur)
    raise NoConvergence(
        f"root finder still has a bracket of width {abs(x_blk - x_cur)} around "
        f"{x_cur} after {_ROOT_MAX_ITER} evaluations")
