"""Integral-transform pipeline for bodies of revolution.

The chain implemented here, for an origin-symmetric convex body of revolution
K in R^n (n = 4 or 6) with radial profile rho(t), t = cosine of the vertical
angle:

  1. h_n(x) = integral_0^x rho(t)^(n-1) (x^2 - t^2)^((n-4)/2) dt;
  2. the intersection-body radial function rho_IK(x) = c_n h_n(x) / x^(n-3),
     with c_4 = 1 and c_6 = 3/2 (the factor that makes the unit ball's
     profile 1); other multiplicative constants are omitted -- they only
     dilate;
  3. the inverse spherical Radon transform g = R^{-1}(1/rho_IK);
  4. the box operator (1-t^2) g'' - (n-1) t g' + (n-1) g.

The resulting signed measure (continuous density plus atoms at kinks of g)
is the obstruction field: if it is negative anywhere, the intersection body
IK is provably not a polar zonoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import (DEFAULT_SETTINGS, QuadratureRequest, Settings, integrate,
                       sorted_unique)
from .errors import DomainError, SmoothnessError
from .jets import Jet
from .profile import (COSINE, SINE, BodyOfRevolution, DerivedProfile, RadialProfile,
                      classify_breakpoints, near_joint)

_EPS_AXIS = 1e-6  # lower evaluation cutoff: the pipeline formulas hold on (0, 1]
# c_n in rho_IK = c_n h_n(x) / x^(n-3).
_IK_FACTOR = {4: 1.0, 6: 1.5}
# In dimension 6 the jet of x^3/h below this t divides by h(t) ~ t^5 and
# amplifies the rounding of the moments past the field's own size there (e.g.
# -5.9e-3 at t = 1e-6 where the field is ~36 t^2).  Such rows take the Taylor
# series of rho^5 at 0 instead (_axis_series); without one they certify
# nothing.
_AXIS_NOISE_T = 1e-4
# Taylor order of rho^5 at 0 behind the dimension-6 axis rows.
_AXIS_SERIES_ORDER = 6
# Points on each side of a breakpoint in default_grid's geometric clusters.
_CLUSTER_POINTS = 20
# A density value certifies below -NEGATIVITY_SCALE * max|density|.
NEGATIVITY_SCALE = 1e-7
# The two verdicts of every route: the field here, the criteria and sweeps.
NOT_POLAR_ZONOID = "NotPolarZonoid"
INCONCLUSIVE = "Inconclusive"


def _require_dimension(n: int) -> None:
    if n not in (4, 6):
        raise DomainError(f"dimension must be 4 or 6, got {n}")


# --------------------------------------------------------------- kernel jets

class MomentTable:
    """Every moment the field and the criteria read, of q = rho^(n-1):
    B(x) = int_0^x q (n = 4), or D(x) = int_0^x (1 - t^2) q and C(x) =
    int_0^x t^2 q (n = 6), each with its own error control (h(1) = D(1);
    B(1) - C(1) loses B/h for a body elongated along its axis).  One
    :func:`integrate` pass over ``nodes`` at ``settings``, at construction;
    the table never changes, and :meth:`at` only reads it.  ``diagnostics``
    holds the counters of that pass (all zero without nodes)."""

    def __init__(self, profile: RadialProfile, n: int, nodes: Sequence[float] = (),
                 settings: Settings = DEFAULT_SETTINGS):
        _require_dimension(n)
        self.n = n
        nodes = np.asarray(nodes, dtype=float).ravel()
        self._nodes, self._values = nodes, np.empty((1 if n == 4 else 2, 0))
        counters = (0, 0, 0, 0.0)
        if nodes.size:
            outside = ~((nodes > 0.0) & (nodes <= 1.0))  # NaN is outside too
            if outside.any():
                raise DomainError(f"upper limit must lie in (0, 1], got {nodes[outside][0]}")

            def integrand(t: np.ndarray) -> np.ndarray:
                q = profile.eval_array(t) ** (n - 1)
                return q if n == 4 else q * np.stack([1.0 - t * t, t * t])

            res = integrate(QuadratureRequest(integrand, nodes,
                                              profile.breakpoint_locations, settings))
            self._nodes, self._values = res.nodes, res.values  # sorted, unique
            counters = (res.panels, res.evaluations, res.max_depth, res.worst_error_fraction)
        self.diagnostics = dict(zip(("panels", "integrand_evals", "max_depth",
                                     "worst_error_fraction"), counters))

    def at(self, x: np.ndarray) -> tuple:
        """(B(x), None) for n = 4 or (D(x), C(x)) for n = 6, at an array of
        the table's nodes.  A point that is not a node raises ValueError."""
        # x is in the sorted table where the first node not below it equals
        # it; past the last node stands a NaN, which equals nothing (np.isin
        # would import numpy.ma at cold start).
        pos = np.searchsorted(self._nodes, x)
        missing = np.append(self._nodes, np.nan)[pos] != x
        if missing.any():
            raise ValueError(f"x={x[missing][0]} is not a node of the moment table")
        values = self._values[:, pos]
        return values[0], values[1] if self.n == 6 else None


def _first_nonfinite(t: np.ndarray, jet: Jet) -> float:
    bad = ~np.all(np.isfinite(np.broadcast_arrays(t, *jet.coeffs)[1:]), axis=0)
    return float(t[bad][0])


# ------------------------------------------------------------------ h and IK

def h_jet(profile: RadialProfile, x, moments: MomentTable, order: int = 4,
          side: Optional[str] = None) -> Jet:
    """Jet of h_n(x) = integral_0^x q(t) (x^2 - t^2)^((n-4)/2) dt at x, a
    float (a float jet is returned) or an array of points (an array jet).

    The moments of q = rho^(n-1) (n = ``moments.n``) are read from
    ``moments``, the :class:`MomentTable` of ``profile`` that holds x; a
    point that is not one of its nodes raises ValueError.  Every derivative
    of H = h_n above the first (n=4) or second (n=6) localizes to jets of q
    at t = x, so the jet is exact (B = D + C for n = 6):

      n=4:  H = B,  H' = q
      n=6:  H = x^2 B - C = x^2 D - (1 - x^2) C;
            H' = 2xB,  H'' = 2B + 2xq,  H''' = 4q + 2xq',  H'''' = 6q' + 2xq''
    """
    if not 0 <= order <= 4:
        raise ValueError("order must be between 0 and 4")
    n = moments.n
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    d_val, c_val = moments.at(xs)  # d_val is B for n = 4
    if n == 4:
        derivs = [d_val]
        if order >= 1:
            jq = profile._jet(xs, order - 1, side) ** (n - 1)
            derivs += [jq.deriv(k - 1) for k in range(1, order + 1)]
    else:
        b_val = d_val + c_val
        # (1 - x)(1 + x) keeps the bits of 1 - x^2 near x = 1; H(1) = D(1).
        derivs = [xs * xs * d_val - (1.0 - xs) * (1.0 + xs) * c_val]
        if order >= 1:
            derivs.append(2.0 * xs * b_val)
        if order >= 2:
            jq = profile._jet(xs, order - 2, side) ** (n - 1)
            q0 = jq.deriv(0)
            derivs.append(2.0 * b_val + 2.0 * xs * q0)
            if order >= 3:
                q1 = jq.deriv(1)
                derivs.append(4.0 * q0 + 2.0 * xs * q1)
            if order >= 4:
                q2 = jq.deriv(2)
                derivs.append(6.0 * q1 + 2.0 * xs * q2)
    jet = Jet([d / math.factorial(k) for k, d in enumerate(derivs)])
    return jet.item(0) if np.ndim(x) == 0 else jet


def intersection_radial(body: BodyOfRevolution,
                        settings: Settings = DEFAULT_SETTINGS) -> DerivedProfile:
    """Radial profile of the intersection body, x -> c_n h_n(x)/x^(n-3).

    The field's inverse-Radon input (:func:`_reciprocal`, with its axis
    series in dimension 6) turned over; evaluable (with derivatives) on
    [1e-6, 1].  Each query integrates the points that need moments in a
    :class:`MomentTable` of their own, at the tolerances of ``settings``.
    """
    n = body.dimension
    _require_dimension(n)
    profile = body.profile
    reciprocal = _reciprocal(body, lambda x: MomentTable(profile, n, x, settings),
                             _axis_series(profile, n))

    def source(x: np.ndarray, order: int, side: Optional[str]) -> Jet:
        return 1.0 / reciprocal.jet_source(x, order, side)

    return DerivedProfile(source, profile.breakpoint_locations,
                          domain=(_EPS_AXIS, 1.0), variable=SINE, max_order=3,
                          name=f"intersection[{body.describe()}]")


def _axis_series(profile: RadialProfile, n: int) -> Optional[list]:
    """Coefficients a_j of c_6 h_6(x)/x^3 = sum_j a_j x^j near the axis.

    With rho^5 = sum_j q_j t^j on the first piece, h_6(x) = sum_j 2 q_j
    x^(j+3) / ((j+1)(j+3)): a sum without the cancellation of the moments.
    None in dimension 4, when the first piece ends below _AXIS_NOISE_T, or
    when rho^5 has no finite jet of order _AXIS_SERIES_ORDER at 0 (a t^4.5
    term, say).
    """
    first = profile.pieces[0]
    if n != 6 or first.interval[1] < _AXIS_NOISE_T:
        return None
    try:
        q = first.expr.eval_jet(0.0, _AXIS_SERIES_ORDER) ** (n - 1)
    except (SmoothnessError, DomainError, ArithmeticError):
        return None
    return ([2.0 * _IK_FACTOR[n] * qj / ((j + 1) * (j + 3)) for j, qj in enumerate(q.coeffs)]
            if q.is_finite() else None)


def _series_reciprocal_jet(series: list, x: np.ndarray, order: int) -> Jet:
    """Jet of 1 / sum_j a_j x^j at the points x; the sum's k-th Taylor
    coefficient there is sum_j C(j, k) a_j x^(j-k)."""
    return 1.0 / Jet([sum(math.comb(j, k) * a * x ** (j - k)
                          for j, a in enumerate(series) if j >= k)
                      for k in range(order + 1)])


def _reciprocal(body: BodyOfRevolution, moments: Callable[[np.ndarray], MomentTable],
                series: Optional[list]) -> DerivedProfile:
    """The inverse-Radon input x -> x^(n-3)/(c_n h_n(x)), jets up to order 4,
    from the table ``moments(x)`` that holds the points x; in dimension 6,
    points below _AXIS_NOISE_T take the axis ``series`` of rho^5 instead when
    there is one (:func:`_axis_series`) and reach no table."""
    n = body.dimension
    profile = body.profile

    def from_moments(x: np.ndarray, order: int, side: Optional[str]) -> Jet:
        jh = h_jet(profile, x, moments(x), order, side)
        return Jet.variable(x, order) ** (n - 3) / (jh * _IK_FACTOR[n])

    def source(x: np.ndarray, order: int, side: Optional[str]) -> Jet:
        near = x < (_AXIS_NOISE_T if series else 0.0)
        if not near.any():
            return from_moments(x, order, side)
        rows = np.flatnonzero(near)
        parts = [(rows, _series_reciprocal_jet(series, x.take(rows), order))]
        if rows.size < x.size:
            rows = np.flatnonzero(~near)
            parts.append((rows, from_moments(x.take(rows), order, side)))
        return Jet.from_parts(parts, x.size, order)

    return DerivedProfile(source, profile.breakpoint_locations,
                          domain=(_EPS_AXIS, 1.0), variable=SINE, max_order=4,
                          name=f"1/intersection[{body.describe()}]")


# ------------------------------------------------------------- inverse Radon

def inverse_radon(f: DerivedProfile, n: int) -> DerivedProfile:
    """Inverse spherical Radon transform for rotationally symmetric functions.

    Input f is a function of x (sine convention); the output g is a function
    of t (cosine convention), constants omitted:

        n=4:  g(t) = d/dt (t f(t)) = f + t f'
        n=6:  g(t) = 6 f + 10 t f' + 2 t^2 f''

    Both are the fully reduced forms of the iterated-derivative inversion
    t (1/t d/dt)^(n-2) integral_0^t f(x) x^(n-2) (t^2-x^2)^((n-4)/2) dx,
    valid for any f smooth enough on the relevant piece.
    """
    _require_dimension(n)
    if f.variable != SINE:
        raise DomainError("inverse transform input must use the sine convention")
    extra = 1 if n == 4 else 2

    def source(t: np.ndarray, order: int, side: Optional[str]) -> Jet:
        jf = f._jet(t, order + extra, side)
        if not jf.is_finite():
            raise SmoothnessError(
                f"input lacks the order-{order + extra} one-sided jet at "
                f"t={_first_nonfinite(t, jf)}"
            )
        jt = Jet.variable(t, order + extra)
        if n == 4:
            return jf + jt * jf.derivative()
        d1 = jf.derivative()
        return 6 * jf + 10 * jt * d1 + 2 * jt * jt * d1.derivative()

    return DerivedProfile(source, f.breakpoint_locations, domain=f.domain,
                          variable=COSINE, max_order=min(2, f.max_order - extra),
                          name=f"invradon[{f.name or 'f'}]")


# --------------------------------------------------------------- box operator

def box_operator(g: DerivedProfile, n: int, t, side: Optional[str] = None):
    """(1 - t^2) g''(t) - (n-1) t g'(t) + (n-1) g(t).

    t is a float (a float is returned) or an array of points, evaluated in
    one walk with one side for all of them (an array is returned).
    """
    _require_dimension(n)
    if g.variable != COSINE:
        raise DomainError("box operator acts on functions of the cosine variable")
    return _box(t, g._jet(t, 2, side), n)


def _box(t, jet: Jet, n: int):
    """The box operator from g's order-2 jet at t (a float or an array)."""
    if not jet.is_finite():
        raise SmoothnessError(f"no finite one-sided second derivative at "
                              f"t={_first_nonfinite(np.atleast_1d(t), jet)}")
    g0, g1, g2 = jet.derivs()[:3]
    return (1.0 - t * t) * g2 - (n - 1) * t * g1 + (n - 1) * g0


# ------------------------------------------------------------------ the field

def default_grid(breakpoints: Sequence[float],
                 uniform_points: int = 2000) -> np.ndarray:
    """Uniform grid on [_EPS_AXIS, 1] plus geometric clusters on each side of
    every breakpoint.

    The field varies fastest just past kinks of g, so each breakpoint b gets
    points b +/- 1e-3 * 2^-j, j = 0.._CLUSTER_POINTS-1; exact breakpoints are
    excluded (they are handled by one-sided rows).
    """
    pts = list(np.linspace(_EPS_AXIS, 1.0, uniform_points))
    for b in breakpoints:
        for j in range(_CLUSTER_POINTS):
            off = 1e-3 * 2.0 ** -j
            for cand in (b - off, b + off):
                if _EPS_AXIS < cand <= 1.0:
                    pts.append(cand)
    arr = sorted_unique(pts)
    return arr[~near_joint(arr, breakpoints).any(axis=1)]


@dataclass
class ObstructionField:
    """Discretized obstruction measure: continuous density plus atoms.

    The continuous part is sampled over ``grid``; at each kink of g the two
    one-sided limits appear as consecutive rows sharing the same t, with
    ``is_left_limit`` marking the left one.  ``atoms`` lists (location,
    weight) point masses; a negative density value (below tolerance) or a
    negative atom certifies the NotPolarZonoid verdict.  The field keeps
    only its rows: the inverse-Radon profile they were evaluated from, and
    its moment table over the grid and the joints, end with the call.

    The density is per surface measure of S^(n-1), at the points whose
    cosine with the axis is t (and, the measure being even, -t); an atom's
    weight is per dt, a point mass of that density in the variable t (the
    delta that the (1 - t^2) g'' term of :func:`box_operator` takes at a
    kink).  The two are consistent: surface measure is (1 - t^2)^((n-3)/2) dt
    times that of S^(n-2), so in units of |S^(n-2)| the band of cosines
    [a, b] has measure integral_a^b density(t) (1 - t^2)^((n-3)/2) dt plus
    weight * (1 - t0^2)^((n-3)/2) for each atom at t0 in [a, b].
    """

    dimension: int
    body: str
    grid: list
    continuous_values: list
    is_left_limit: list
    atoms: list
    min_value: float
    min_location: float
    max_abs: float
    sign_changes: list
    verdict: str
    negativity_tol: float
    # (t, value, kind) of the negative point that certifies NotPolarZonoid,
    # kind "interior", "one-sided" or "atom"; None when Inconclusive.
    witness: Optional[tuple] = None
    breakpoint_classes: list = dc_field(default_factory=list)
    # (t, reason) of rows kept in the output that take no part in the
    # verdict, the witness, the minimum or the sign changes.
    excluded: list = dc_field(default_factory=list)
    # Counters of the field's one moment pass (panels, integrand_evals,
    # max_depth, worst_error_fraction); deterministic, and kept out of the
    # CSV and the summary line.
    diagnostics: dict = dc_field(default_factory=dict)

    def to_csv(self, fh) -> None:
        fh.write("t,continuous_value,is_left_limit,is_atom,atom_weight\n")
        for t, v, flag in zip(self.grid, self.continuous_values, self.is_left_limit):
            fh.write(f"{t:.17g},{v:.17g},{int(flag)},0,\n")
        for t0, w in self.atoms:
            fh.write(f"{t0:.17g},,0,1,{w:.17g}\n")

    def summary(self) -> str:
        atoms = "; ".join(f"atom({t0:.8f}, {w:+.6g})" for t0, w in self.atoms) or "no atoms"
        return (f"min {self.min_value:.6g} at t={self.min_location:.8f}; {atoms}; "
                f"{len(self.sign_changes)} sign change(s); verdict {self.verdict}")


def obstruction_field(body: BodyOfRevolution, grid: Optional[Sequence[float]] = None,
                      uniform_points: int = 2000,
                      settings: Settings = DEFAULT_SETTINGS) -> ObstructionField:
    """Evaluate the zonoid-obstruction measure for a body of revolution.

    Continuous part: box_operator(inverse_radon(x^(n-3)/(c_n h_n))) sampled
    over the grid (one-sided at kinks); atoms: (1 - t0^2) times the
    first-derivative jump of g at each kink where g is continuous but not
    C1.  The density is per surface measure and the atoms are per dt (see
    :class:`ObstructionField`).  Verdict is NotPolarZonoid iff the density
    falls below -NEGATIVITY_SCALE * max|density| or any atom is below -1e-9
    times the largest atom weight (at least 1); ``witness`` names the most
    negative such row or atom.  In dimension 6 the rows with t < 1e-4 of a body
    without an axis series (see :func:`_axis_series`) stay in the output but
    are listed in ``excluded`` and decide nothing.  The moments are
    integrated at the tolerances of ``settings``.
    """
    n = body.dimension
    _require_dimension(n)
    series = _axis_series(body.profile, n)
    # g's joints: the profile's breakpoints inside its domain (_EPS_AXIS, 1).
    breaks = [b for b in body.profile.breakpoint_locations if b > _EPS_AXIS]
    if grid is None:
        grid_arr = default_grid(breaks, uniform_points=uniform_points)
    else:
        grid_arr = np.asarray(sorted(grid), dtype=float)
        if not np.all((grid_arr > 0.0) & (grid_arr <= 1.0)):  # NaN is outside too
            raise DomainError("grid points must lie in (0, 1]")
    # Rows evaluate g at grid points and joints only, so one cumulative pass
    # over those nodes serves every moment the field needs.
    moments = MomentTable(body.profile, n, np.concatenate([grid_arr, breaks]), settings)
    g = inverse_radon(_reciprocal(body, lambda x: moments, series), n)

    joints = classify_breakpoints(g)
    locs = np.array([j.location for j in joints])
    kinked = np.array([j.smoothness_class != "C2+" for j in joints], dtype=bool)

    # One table of rows: all interior rows from one walk, then the joint rows
    # from the one-sided jets the classification evaluated (left at every
    # joint, right where g is not C2+), sorted by t with a joint's left limit
    # first.
    inner = grid_arr[~near_joint(grid_arr, locs).any(axis=1)]
    t = np.concatenate([inner, locs, locs[kinked]])
    value = np.concatenate([box_operator(g, n, inner) if inner.size else inner,
                            [_box(j.location, j.left_jet, n) for j in joints],
                            [_box(j.location, j.right_jet, n)
                             for j, kink in zip(joints, kinked) if kink]])
    left = np.concatenate([np.zeros(inner.size, dtype=bool), kinked,
                           np.zeros(kinked.sum(), dtype=bool)])
    joint = np.arange(t.size) >= inner.size
    order = np.lexsort((~left, t))
    t, value, left, joint = t[order], value[order], left[order], joint[order]

    atoms = [(j.location, (1.0 - j.location ** 2) * j.first_derivative_jump)
             for j in joints if j.smoothness_class == "C0"]

    max_abs = float(np.max(np.abs(value))) if value.size else 0.0
    tol = NEGATIVITY_SCALE * max_abs
    # Rows this close to the axis stay in the output but decide nothing: the
    # dimension-6 axis rows of a body without an axis series.
    used = t >= (_AXIS_NOISE_T if n == 6 and series is None else 0.0)
    excluded = [(x, "dimension-6 axis row: the jet of x^3/h there is rounding noise")
                for x in t[~used].tolist()]

    # Interior rows name the witness before joint rows, and joint rows before
    # atoms; the verdict certifies exactly when one is found.
    witness = None
    for kind, of_kind in (("interior", ~joint), ("one-sided", joint)):
        pick = used & of_kind & (value < -tol)
        if pick.any():
            k = int(np.argmin(np.where(pick, value, np.inf)))
            witness = (float(t[k]), float(value[k]), kind)
            break
    if witness is None:
        atom_floor = -1e-9 * max((abs(w) for _, w in atoms), default=0.0)
        negative_atoms = [a for a in atoms if a[1] < atom_floor]
        if negative_atoms:
            t0, w = min(negative_atoms, key=lambda a: a[1])
            witness = (float(t0), float(w), "atom")
    verdict = INCONCLUSIVE if witness is None else NOT_POLAR_ZONOID

    # A sign change lies halfway between consecutive used rows of opposite
    # sign, skipping the rows within the tolerance of 0.
    sign = np.where(value > tol, 1, np.where(value < -tol, -1, 0))
    signed = used & (sign != 0)
    ts, ss = t[signed], sign[signed]
    sign_changes = (0.5 * (ts[:-1] + ts[1:]))[ss[:-1] != ss[1:]].tolist()

    k = int(np.argmin(np.where(used, value, np.inf))) if used.any() else -1
    return ObstructionField(
        dimension=n,
        body=body.describe(),
        grid=t.tolist(),
        continuous_values=value.tolist(),
        is_left_limit=left.tolist(),
        atoms=atoms,
        min_value=float(value[k]) if k >= 0 else math.nan,
        min_location=float(t[k]) if k >= 0 else math.nan,
        max_abs=max_abs,
        sign_changes=sign_changes,
        verdict=verdict,
        negativity_tol=tol,
        witness=witness,
        breakpoint_classes=[(j.location, j.smoothness_class, j.first_derivative_jump)
                            for j in joints],
        excluded=excluded,
        diagnostics=dict(moments.diagnostics),
    )
