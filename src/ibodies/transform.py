"""Integral-transform pipeline for bodies of revolution.

The chain implemented here, for an origin-symmetric convex body of revolution
K in R^n (n = 4 or 6) with radial profile rho(t), t = cosine of the vertical
angle:

  1. h_n(x) = integral_0^x rho(t)^(n-1) (x^2 - t^2)^((n-4)/2) dt;
  2. the intersection-body radial function rho_IK(x) = h_n(x) / x^(n-3)
     (multiplicative constants omitted throughout -- they only dilate);
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

from .calculus import (DEFAULT_SETTINGS, QuadratureRequest, Settings,
                       cumulative_integrate, integrate)
from .errors import DomainError, SmoothnessError
from .jets import Jet
from .profile import (COSINE, SINE, BodyOfRevolution, DerivedProfile, Piece,
                      ProfileLike, RadialProfile, add, classify_breakpoints,
                      div, mul, powr, sub, var_t)

_EPS_AXIS = 1e-6  # lower evaluation cutoff: the pipeline formulas hold on (0, 1]
_FACT = [1, 1, 2, 6, 24]
# In dimension 6 the jet of x^3/h below this t divides by h(t) ~ t^5 and
# amplifies the rounding of B and C past the field's own size there (e.g.
# -5.9e-3 at t = 1e-6 where the field is ~36 t^2), so such rows certify nothing.
_AXIS_NOISE_T = 1e-4
# Points on each side of a breakpoint in default_grid's geometric clusters.
_CLUSTER_POINTS = 20
# A density value certifies below -NEGATIVITY_SCALE * max|density|.
NEGATIVITY_SCALE = 1e-7


def _require_even_dimension(n: int, minimum: int = 4):
    if int(n) != n or n < minimum or n % 2 != 0:
        raise DomainError(f"dimension must be an even integer >= {minimum}, got {n}")


# --------------------------------------------------------------- kernel jets

class MomentTable:
    """Moments B(x) = int_0^x q and, for n = 6, C(x) = int_0^x t^2 q.

    Here q = profile^power.  Nodes queued with :meth:`prepare` are computed
    together, in one :func:`cumulative_integrate` pass, the first time a
    point outside the table is asked for; such points join that pass (or
    run one of their own on [0, max x]) and are kept.  Every pass runs at the
    tolerances of ``settings``.  ``diagnostics`` sums the counters of every
    pass.
    """

    def __init__(self, profile: RadialProfile, power: int, n: int,
                 settings: Settings = DEFAULT_SETTINGS):
        if n not in (4, 6):
            raise DomainError(f"kernel-integral jets are implemented for n in {{4, 6}}, got {n}")
        self.profile = profile
        self.power = power
        self.n = n
        self.settings = settings
        self._nodes = np.empty(0)                         # sorted
        self._values = np.empty((1 if n == 4 else 2, 0))  # B (and C) at _nodes
        self._pending: list = []
        self.diagnostics = {"panels": 0, "integrand_evals": 0, "max_depth": 0,
                            "worst_error_fraction": 0.0}

    def prepare(self, nodes: Sequence[float]) -> None:
        """Queue nodes for the next pass."""
        self._pending.append(np.asarray(nodes, dtype=float).ravel())

    def _integrand(self, t: np.ndarray) -> np.ndarray:
        q = self.profile.eval_array(t) ** self.power
        return q if self.n == 4 else np.stack([q, t * t * q])

    def _lookup(self, x: np.ndarray) -> tuple:
        """(index into the table, whether the point is there)."""
        if not self._nodes.size:
            return np.zeros(x.shape, dtype=int), np.zeros(x.shape, dtype=bool)
        index = np.minimum(np.searchsorted(self._nodes, x), self._nodes.size - 1)
        return index, self._nodes[index] == x

    def at(self, x: np.ndarray) -> tuple:
        """(B(x), C(x)) at an array of points; C is None for n = 4."""
        if (x <= 0.0).any():
            raise DomainError(f"upper limit must be positive, got {x[x <= 0.0][0]}")
        index, found = self._lookup(x)
        if not found.all():
            self._run(np.concatenate(self._pending + [x[~found]]))
            index, _ = self._lookup(x)
        return self._values[0, index], self._values[1, index] if self.n == 6 else None

    def _run(self, nodes: np.ndarray) -> None:
        self._pending = []
        res = cumulative_integrate(self._integrand, nodes,
                                   self.profile.breakpoint_locations,
                                   rel_tol=self.settings.rel_tol,
                                   abs_tol=self.settings.abs_tol)
        new = ~self._lookup(res.nodes)[1]
        merged = np.concatenate([self._nodes, res.nodes[new]])
        order = np.argsort(merged, kind="stable")
        self._nodes = merged[order]
        self._values = np.concatenate([self._values, res.values[:, new]], axis=1)[:, order]
        d = self.diagnostics
        d["panels"] += res.panels
        d["integrand_evals"] += res.evaluations
        d["max_depth"] = max(d["max_depth"], res.max_depth)
        d["worst_error_fraction"] = max(d["worst_error_fraction"],
                                        res.worst_error_fraction)


def _kernel_integral_jet(b_val: np.ndarray, c_val: Optional[np.ndarray],
                         q_jet: Callable[[np.ndarray, int, Optional[str]], Jet],
                         n: int, x: np.ndarray, order: int, side: Optional[str]) -> Jet:
    """Taylor jet of H(x) = integral_0^x q(t) (x^2 - t^2)^((n-4)/2) dt at the
    points x, where the moments are b_val (and c_val).

    Only n = 4 and n = 6 are supported (the :class:`MomentTable` that
    supplies B and C checks n and x); for these, every derivative of H
    above the first (n=4) or second (n=6) localizes to jets of q at t = x,
    so the moments B = int_0^x q and C = int_0^x t^2 q (plus local jets)
    give an exact jet:

      n=4:  H = B,  H' = q
      n=6:  H = x^2 B - C;
            H' = 2xB,  H'' = 2B + 2xq,  H''' = 4q + 2xq',  H'''' = 6q' + 2xq''
    """
    if not 0 <= order <= 4:
        raise ValueError("order must be between 0 and 4")
    if n == 4:
        derivs = [b_val]
        if order >= 1:
            jq = q_jet(x, order - 1, side)
            derivs += [jq.deriv(k - 1) for k in range(1, order + 1)]
    else:
        derivs = [x * x * b_val - c_val]
        if order >= 1:
            derivs.append(2.0 * x * b_val)
        if order >= 2:
            jq = q_jet(x, order - 2, side)
            q0 = jq.deriv(0)
            derivs.append(2.0 * b_val + 2.0 * x * q0)
            if order >= 3:
                q1 = jq.deriv(1)
                derivs.append(4.0 * q0 + 2.0 * x * q1)
            if order >= 4:
                q2 = jq.deriv(2)
                derivs.append(6.0 * q1 + 2.0 * x * q2)
    return Jet([d / _FACT[k] for k, d in enumerate(derivs)])


def _power_jet(profile: ProfileLike, power: int):
    def fn(x: np.ndarray, order: int, side: Optional[str]) -> Jet:
        return profile._jet(x, order, side) ** power
    return fn


def _first_nonfinite(t: np.ndarray, jet: Jet) -> float:
    bad = ~np.all(np.isfinite(np.broadcast_arrays(t, *jet.coeffs)[1:]), axis=0)
    return float(t[bad][0])


def _points(t) -> tuple:
    """(1-D array of the points, whether t was a single float)."""
    arr = np.asarray(t, dtype=float)
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


# ------------------------------------------------------------------ h and IK

def h_fn(profile: RadialProfile, n: int, x: float) -> float:
    """The moment integral h_n(x) = int_0^x rho^(n-1)(t) (x^2-t^2)^((n-4)/2) dt."""
    _require_even_dimension(n)
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0, 1], got {x}")
    power = (n - 4) // 2

    def integrand(t: np.ndarray) -> np.ndarray:
        base = profile.eval_array(t) ** (n - 1)
        return base if power == 0 else base * (x * x - t * t) ** power

    bps = [b for b in profile.breakpoint_locations if b < x]
    return integrate(QuadratureRequest(integrand, 0.0, x, bps))


def h_jet(profile: RadialProfile, n: int, x, order: int = 4,
          side: Optional[str] = None, moments: Optional[MomentTable] = None) -> Jet:
    """Jet of h_n at x (derivatives exact via the localization identities).

    x is a float (a float jet is returned) or an array of points (an array
    jet).  B and C are read from ``moments``, the :class:`MomentTable` of
    rho^(n-1); without one they are computed on [0, max x].
    """
    xs, single = _points(x)
    if moments is None:
        moments = MomentTable(profile, n - 1, n)
    b_val, c_val = moments.at(xs)
    jet = _kernel_integral_jet(b_val, c_val, _power_jet(profile, n - 1),
                               n, xs, order, side)
    return jet.item(0) if single else jet


_CYLINDER_IK_NAME = "cylinder intersection profile"


def _cylinder_ik_pieces() -> list:
    t = var_t()
    t2 = mul(t, t)
    left = powr(sub(1, t2), -1 / 2)
    right = div(add(sub(3, mul(16, t2)), mul(28, mul(t2, t2))),
                mul(8, powr(t, 5)))
    r = math.sqrt(0.5)
    return [Piece((0.0, r), left), Piece((r, 1.0), right)]


def cylinder_intersection_closed_form() -> RadialProfile:
    """Known piecewise closed form of the R^6 cylinder's intersection profile.

    Pieces (x = sine of the vertical angle):
        1/sqrt(1-x^2)              on [0, 1/sqrt(2)]
        (3 - 16x^2 + 28x^4)/(8x^5) on [1/sqrt(2), 1]
    This carries a fixed positive normalization (3/2 times the bare moment
    ratio h_6(x)/x^3); downstream sign decisions are scale-free.
    """
    return RadialProfile(_cylinder_ik_pieces(), variable=SINE, name=_CYLINDER_IK_NAME)


def _has_closed_form(body: BodyOfRevolution) -> bool:
    """Whether the intersection profile of ``body`` has a known closed form;
    only the R^6 cylinder's does."""
    return body.family == "cylinder" and body.dimension == 6


def intersection_radial(body: BodyOfRevolution,
                        settings: Settings = DEFAULT_SETTINGS) -> DerivedProfile:
    """Radial profile of the intersection body, x -> h_n(x)/x^(n-3).

    Quadrature-backed (at the tolerances of ``settings``) and evaluable (with
    derivatives) on [1e-6, 1].  For the
    R^6 cylinder the known piecewise closed form is attached as
    ``.closed_form`` (note it carries a 3/2 normalization relative to the
    bare moment ratio computed here).
    """
    n = body.dimension
    _require_even_dimension(n)
    profile = body.profile
    moments = MomentTable(profile, n - 1, n, settings)

    def source(x: np.ndarray, order: int, side: Optional[str]) -> Jet:
        jh = h_jet(profile, n, x, order, side, moments=moments)
        return jh / Jet.variable(x, order) ** (n - 3)

    out = DerivedProfile(source, profile.breakpoint_locations,
                         domain=(_EPS_AXIS, 1.0), variable=SINE, max_order=3,
                         name=f"intersection[{body.describe()}]")
    out.closed_form = cylinder_intersection_closed_form() if _has_closed_form(body) else None
    return out


def reciprocal_intersection_profile(body: BodyOfRevolution,
                                    moments: Optional[MomentTable] = None
                                    ) -> ProfileLike:
    """The inverse-Radon input x -> x^(n-3)/h_n(x).

    When the intersection profile has a closed form (R^6 cylinder), its
    exact reciprocal is returned so that downstream results match the
    known printed expressions digit for digit; otherwise a quadrature-backed
    function with jets of order up to 4 that reads B and C from ``moments``
    (a fresh :class:`MomentTable` when omitted).  The two differ by a fixed
    positive factor only, which no sign decision depends on.
    """
    n = body.dimension
    _require_even_dimension(n)
    if _has_closed_form(body):
        # Only the reciprocal is built (and validated), not the closed form.
        pieces = [Piece(p.interval, div(1, p.expr)) for p in _cylinder_ik_pieces()]
        return RadialProfile(pieces, variable=SINE, name=f"1/({_CYLINDER_IK_NAME})")
    profile = body.profile
    if moments is None:
        moments = MomentTable(profile, n - 1, n)

    def source(x: np.ndarray, order: int, side: Optional[str]) -> Jet:
        jh = h_jet(profile, n, x, order, side, moments=moments)
        return Jet.variable(x, order) ** (n - 3) / jh

    return DerivedProfile(source, profile.breakpoint_locations,
                          domain=(_EPS_AXIS, 1.0), variable=SINE, max_order=4,
                          name=f"1/intersection[{body.describe()}]")


# ------------------------------------------------------------- inverse Radon

def inverse_radon(f: ProfileLike, n: int) -> DerivedProfile:
    """Inverse spherical Radon transform for rotationally symmetric functions.

    Input f is a function of x (sine convention); the output g is a function
    of t (cosine convention), constants omitted:

        n=4:  g(t) = d/dt (t f(t)) = f + t f'
        n=6:  g(t) = 6 f + 10 t f' + 2 t^2 f''

    Both are the fully reduced forms of the iterated-derivative inversion
    t (1/t d/dt)^(n-2) integral_0^t f(x) x^(n-2) (t^2-x^2)^((n-4)/2) dx,
    valid for any f smooth enough on the relevant piece.
    """
    if n not in (4, 6):
        raise DomainError(f"inverse Radon transform implemented for n in {{4, 6}}, got {n}")
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

    max_order = min(2, getattr(f, "max_order", 4) - extra)
    return DerivedProfile(source, f.breakpoint_locations, domain=f.domain,
                          variable=COSINE, max_order=max_order,
                          name=f"invradon[{getattr(f, 'name', '') or 'f'}]")


# --------------------------------------------------------------- box operator

def box_operator(g: ProfileLike, n: int, t, side: Optional[str] = None):
    """(1 - t^2) g''(t) - (n-1) t g'(t) + (n-1) g(t).

    t is a float (a float is returned) or an array of points, evaluated in
    one walk with one side for all of them (an array is returned).
    """
    if int(n) != n or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    if g.variable != COSINE:
        raise DomainError("box operator acts on functions of the cosine variable")
    ts, single = _points(t)
    out = _box(ts, g._jet(ts, 2, side), n)
    return float(out[0]) if single else out


def _box(t, jet: Jet, n: int):
    """The box operator from g's order-2 jet at t (a float or an array)."""
    if not jet.is_finite():
        raise SmoothnessError(f"no finite one-sided second derivative at "
                              f"t={_first_nonfinite(np.atleast_1d(t), jet)}")
    g0, g1, g2 = jet.derivs()[:3]
    return (1.0 - t * t) * g2 - (n - 1) * t * g1 + (n - 1) * g0


# ------------------------------------------------------------------ the field

def default_grid(breakpoints: Sequence[float], lo: float = _EPS_AXIS,
                 uniform_points: int = 2000) -> np.ndarray:
    """Uniform grid on [lo, 1] plus geometric clusters on each side of every
    breakpoint.

    The field varies fastest just past kinks of g, so each breakpoint b gets
    points b +/- 1e-3 * 2^-j, j = 0.._CLUSTER_POINTS-1; exact breakpoints are
    excluded (they are handled by one-sided rows).
    """
    pts = list(np.linspace(lo, 1.0, uniform_points))
    for b in breakpoints:
        for j in range(_CLUSTER_POINTS):
            off = 1e-3 * 2.0 ** -j
            for cand in (b - off, b + off):
                if lo < cand <= 1.0:
                    pts.append(cand)
    arr = np.unique(np.asarray(pts, dtype=float))
    keep = np.ones(arr.shape, dtype=bool)
    for b in breakpoints:
        keep &= np.abs(arr - b) > 1e-12
    return arr[keep]


@dataclass
class ObstructionField:
    """Discretized obstruction measure: continuous density plus atoms.

    The continuous part is sampled over ``grid``; at each kink of g the two
    one-sided limits appear as consecutive rows sharing the same t, with
    ``is_left_limit`` marking the left one.  ``atoms`` lists (location,
    weight) point masses; a negative density value (below tolerance) or a
    negative atom certifies the NotPolarZonoid verdict.  ``g`` is the
    inverse-Radon profile the rows were evaluated from, so the field can be
    refined at further points without rebuilding it.
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
    negative_jump_witness: bool = False
    breakpoint_classes: list = dc_field(default_factory=list)
    # (t, reason) of rows kept in the output that take no part in the
    # verdict, the jump witness, the minimum or the sign changes.
    excluded: list = dc_field(default_factory=list)
    # Counters of the moment pass (panels, integrand_evals, max_depth,
    # worst_error_fraction); deterministic, and kept out of the CSV and the
    # summary line.
    diagnostics: dict = dc_field(default_factory=dict)
    g: Optional[ProfileLike] = dc_field(default=None, repr=False, compare=False)

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

    Continuous part: box_operator(inverse_radon(x^(n-3)/h_n)) sampled over the
    grid (one-sided at kinks); atoms: (1 - t0^2) times the first-derivative
    jump of g at each kink where g is continuous but not C1.  Verdict is
    NotPolarZonoid iff the density falls below -NEGATIVITY_SCALE * max|density|
    or any atom is negative.  In dimension 6 the rows with t < 1e-4 stay in
    the output but are listed in ``excluded`` and decide nothing.  The
    moments are integrated at the tolerances of ``settings``.
    """
    n = body.dimension
    if n not in (4, 6):
        raise DomainError(f"obstruction field implemented for n in {{4, 6}}, got {n}")
    moments = MomentTable(body.profile, n - 1, n, settings)
    g = inverse_radon(reciprocal_intersection_profile(body, moments=moments), n)

    if grid is None:
        grid_arr = default_grid(g.breakpoint_locations,
                                lo=max(_EPS_AXIS, g.domain[0]),
                                uniform_points=uniform_points)
    else:
        grid_arr = np.asarray(sorted(grid), dtype=float)
        if grid_arr.size and (grid_arr[0] <= 0.0 or grid_arr[-1] > 1.0):
            raise DomainError("grid points must lie in (0, 1]")
    # Rows evaluate g at grid points and joints only, so one cumulative pass
    # over those nodes serves every moment the field needs.
    moments.prepare(np.concatenate([grid_arr, g.breakpoint_locations]))

    joints = classify_breakpoints(g)

    # All interior rows in one walk; the joint rows from the one-sided jets
    # the classification evaluated (left at every joint, right where g is
    # not C2+).
    rows = []  # (t, value, is_left_limit, at_breakpoint)
    on_joint = np.zeros(grid_arr.shape, dtype=bool)
    for j in joints:
        on_joint |= np.abs(grid_arr - j.location) <= 1e-12
    inner = grid_arr[~on_joint]
    if inner.size:
        rows += [(t, v, False, False) for t, v in
                 zip(inner.tolist(), box_operator(g, n, inner).tolist())]
    rows += [(j.location, _box(j.location, j.left_jet, n), j.smoothness_class != "C2+", True)
             for j in joints]
    rows += [(j.location, _box(j.location, j.right_jet, n), False, True)
             for j in joints if j.smoothness_class != "C2+"]
    rows.sort(key=lambda r: (r[0], not r[2]))

    atoms = [(j.location, (1.0 - j.location ** 2) * j.first_derivative_jump)
             for j in joints if j.smoothness_class == "C0"]

    all_values = np.array([r[1] for r in rows])
    max_abs = float(np.max(np.abs(all_values))) if all_values.size else 0.0
    tol = NEGATIVITY_SCALE * max_abs
    # Rows this close to the axis stay in the output but decide nothing.
    noise = [n == 6 and r[0] < _AXIS_NOISE_T for r in rows]
    excluded = [(r[0], "dimension-6 axis row: the jet of x^3/h there is rounding noise")
                for r, skip in zip(rows, noise) if skip]
    rows_used = [r for r, skip in zip(rows, noise) if not skip]
    values = np.array([r[1] for r in rows_used])
    interior = np.array([not r[3] for r in rows_used], dtype=bool)
    negative_cont = bool(np.any(values < -tol))
    negative_interior = bool(np.any(values[interior] < -tol)) if interior.any() else False
    atom_scale = max([1.0] + [abs(w) for _, w in atoms])
    negative_atom = any(w < -1e-9 * atom_scale for _, w in atoms)

    verdict = "NotPolarZonoid" if (negative_cont or negative_atom) else "Inconclusive"
    jump_witness = negative_cont and not negative_interior

    signs = np.where(values > tol, 1, np.where(values < -tol, -1, 0))
    sign_changes = []
    last_sign = 0
    last_t = None
    for (t, _, _, _), s in zip(rows_used, signs):
        if s != 0:
            if last_sign != 0 and s != last_sign:
                sign_changes.append(0.5 * (last_t + t))
            last_sign, last_t = s, t

    k = int(np.argmin(values)) if values.size else 0
    return ObstructionField(
        dimension=n,
        body=body.describe(),
        grid=[r[0] for r in rows],
        continuous_values=[r[1] for r in rows],
        is_left_limit=[r[2] for r in rows],
        atoms=atoms,
        min_value=float(values[k]) if values.size else math.nan,
        min_location=rows_used[k][0] if rows_used else math.nan,
        max_abs=max_abs,
        sign_changes=sign_changes,
        verdict=verdict,
        negativity_tol=tol,
        negative_jump_witness=jump_witness,
        breakpoint_classes=[(j.location, j.smoothness_class, j.first_derivative_jump)
                            for j in joints],
        excluded=excluded,
        diagnostics=dict(moments.diagnostics),
        g=g,
    )
