"""Builtin parameterized bodies of revolution and the sweep machinery.

The named families:

  ball            unit Euclidean ball
  cylinder        unit-radius, height-2 cylinder of revolution
  cyl_caps        radius-1/2 cylinder with tangent spherical end caps
  cyl_caps_KM     unit cylinder with spherical end caps of radius M >= 1
  octagon_Kb      revolution of an octagon: side x=1 for |y|<=b, diagonal
                  x+y=1+b, top y=1 for |x|<=b; b in [0,1]
  lp_revolution   revolution of the planar unit l^p ball, p > 0
  exp_decay       profile rho(t) = e^{-t}
  three_bodies_L  the dashed comparison body L (piecewise rational/algebraic)

plus margin functions over family parameters and a generic parameter sweep
with sign-change bracketing and root refinement by Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional, Sequence

from .calculus import DEFAULT_SETTINGS, RootBracket, Settings, find_root
from .criteria import NOT_POLAR_ZONOID, check_for_dimension, criterion_name
from .errors import InvalidParam
from .profile import (BodyOfRevolution, ExprNode, Piece, RadialProfile, add,
                      const, div, exp_of, mul, neg, powr, sqrt, sub, var_t)

_SQ2 = math.sqrt(0.5)  # 1/sqrt(2), the recurring breakpoint

# A sweep refines the root in each grid cell whose end margins change sign
# to within this width of a sign change.
REFINE_TOL = 1e-10
# step_grid refuses to build a grid longer than this.
MAX_GRID_POINTS = 10 ** 5


@dataclass
class FamilySpec:
    """Recipe for a builtin body: family name, parameter map, dimension."""

    name: str
    params: dict = dc_field(default_factory=dict)
    dimension: Optional[int] = None

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise InvalidParam(
                f"unknown family {self.name!r}; choose from {', '.join(FAMILY_NAMES)}"
            )
        self.params = {k: float(v) for k, v in self.params.items()}
        for k, v in self.params.items():
            if not math.isfinite(v):
                raise InvalidParam(f"parameter {k!r} must be finite, got {v}")


def _one_minus_t2() -> ExprNode:
    t = var_t()
    return sub(1, mul(t, t))


def _ball_profile() -> RadialProfile:
    return RadialProfile([Piece((0.0, 1.0), const(1))], name="ball")


def _cylinder_profile() -> RadialProfile:
    side = powr(_one_minus_t2(), Fraction(-1, 2))
    top = div(1, var_t())
    return RadialProfile([Piece((0.0, _SQ2), side), Piece((_SQ2, 1.0), top)],
                         name="cylinder")


def _cyl_caps_profile() -> RadialProfile:
    side = mul(0.5, powr(_one_minus_t2(), Fraction(-1, 2)))
    cap = var_t()
    return RadialProfile([Piece((0.0, _SQ2), side), Piece((_SQ2, 1.0), cap)],
                         name="cyl_caps")


def _cyl_caps_KM_profile(M: float) -> RadialProfile:
    if M < 1.0:
        raise InvalidParam(f"cap radius M must be >= 1, got {M}")
    side = powr(_one_minus_t2(), Fraction(-1, 2))
    if M == 1.0:
        cap = mul(2, var_t())  # the tangent-cap case: rho = t + sqrt(t^2)
    else:
        s = math.sqrt(M * M - 1.0)
        a = 1.0 - s
        t = var_t()
        cap = add(mul(a, t), sqrt(add(mul(a * a, mul(t, t)), 2.0 * s)))
    return RadialProfile([Piece((0.0, _SQ2), side), Piece((_SQ2, 1.0), cap)],
                         name=f"cyl_caps_KM(M={M:g})")


def _octagon_profile(b: float) -> RadialProfile:
    if not 0.0 <= b <= 1.0:
        raise InvalidParam(f"octagon parameter b must lie in [0, 1], got {b}")
    t = var_t()
    side = powr(_one_minus_t2(), Fraction(-1, 2))
    diagonal = div(1.0 + b, add(t, sqrt(_one_minus_t2())))
    top = div(1, t)
    t1 = b / math.sqrt(1.0 + b * b)
    t2 = 1.0 / math.sqrt(1.0 + b * b)
    pieces = []
    if t1 > 0.0:
        pieces.append(Piece((0.0, t1), side))
    if t1 < t2:  # at b=1 the diagonal degenerates to the square's corner
        pieces.append(Piece((t1, t2), diagonal))
    if t2 < 1.0:
        pieces.append(Piece((t2, 1.0), top))
    return RadialProfile(pieces, name=f"octagon_Kb(b={b:g})")


def _lp_profile(p: float) -> RadialProfile:
    if p <= 0.0:
        raise InvalidParam(f"l^p exponent must be positive, got {p}")
    pf = Fraction(p)  # floats convert exactly
    t = var_t()
    inner = add(powr(t, pf), powr(_one_minus_t2(), pf / 2))
    return RadialProfile([Piece((0.0, 1.0), powr(inner, -1 / pf))],
                         name=f"lp_revolution(p={p:g})")


def _exp_profile() -> RadialProfile:
    return RadialProfile([Piece((0.0, 1.0), exp_of(neg(var_t())))],
                         name="exp_decay")


def _three_bodies_L_profile() -> RadialProfile:
    t = var_t()
    u = _one_minus_t2()
    numer = add(sub(3, mul(16, u)), mul(28, mul(u, u)))
    left = div(numer, mul(8, powr(u, Fraction(5, 2))))
    right = div(1, t)
    return RadialProfile([Piece((0.0, _SQ2), left), Piece((_SQ2, 1.0), right)],
                         name="three_bodies_L")


# name -> (default dimension, required parameters, profile builder taking
# the required parameters' values in order).
_FAMILIES = {
    "ball": (4, (), _ball_profile),
    "cylinder": (6, (), _cylinder_profile),
    "cyl_caps": (4, (), _cyl_caps_profile),
    "cyl_caps_KM": (4, ("M",), _cyl_caps_KM_profile),
    "octagon_Kb": (6, ("b",), _octagon_profile),
    "lp_revolution": (6, ("p",), _lp_profile),
    "exp_decay": (4, (), _exp_profile),
    "three_bodies_L": (6, (), _three_bodies_L_profile),
}
FAMILY_NAMES = tuple(_FAMILIES)
DEFAULT_DIMENSION = {name: dim for name, (dim, _, _) in _FAMILIES.items()}


def instantiate(spec: FamilySpec) -> BodyOfRevolution:
    """Build the body described by a FamilySpec.

    Every family accepts an optional "scale" parameter dilating the profile;
    family-specific parameters beyond those listed are rejected.
    """
    default_dimension, required, builder = _FAMILIES[spec.name]
    allowed = set(required) | {"scale"}
    unknown = set(spec.params) - allowed
    if unknown:
        raise InvalidParam(
            f"family {spec.name!r} does not take parameter(s) {sorted(unknown)}"
        )
    missing = [p for p in required if p not in spec.params]
    if missing:
        raise InvalidParam(f"family {spec.name!r} requires parameter(s) {missing}")
    profile = builder(*(spec.params[p] for p in required))
    scale = spec.params.get("scale")
    if scale is not None:
        if scale <= 0:
            raise InvalidParam(f"scale must be positive, got {scale}")
        profile = profile.scaled(scale)
    dimension = spec.dimension if spec.dimension is not None else default_dimension
    return BodyOfRevolution(dimension=dimension, profile=profile,
                            family=spec.name, params=dict(spec.params))


# ------------------------------------------------------------------- sweeps

@dataclass
class SweepResult:
    """Criterion margins over a parameter grid, with refined sign changes."""

    family: str
    parameter: str
    criterion: str
    grid: list
    margins: list
    verdicts: list
    brackets: list = dc_field(default_factory=list)
    roots: list = dc_field(default_factory=list)

    def to_csv(self, fh) -> None:
        fh.write("param,margin,verdict,is_root\n")
        for v, m, verdict in zip(self.grid, self.margins, self.verdicts):
            m_text = "" if math.isnan(m) else f"{m:.17g}"
            fh.write(f"{v:.17g},{m_text},{verdict},0\n")
        for r in self.roots:
            fh.write(f"{r:.17g},,root,1\n")

    def summary(self) -> str:
        ok = sum(1 for v in self.verdicts if v == NOT_POLAR_ZONOID)
        roots = ", ".join(f"{r:.9f}" for r in self.roots) or "none"
        return (f"{self.family}.{self.parameter}: {len(self.grid)} points, "
                f"{ok} satisfied, roots: {roots}")


def _report_fn(template: FamilySpec, param: str, criterion: str,
               settings: Settings):
    def fn(value: float):
        params = dict(template.params)
        params[param] = value
        body = instantiate(FamilySpec(template.name, params, template.dimension))
        return check_for_dimension(body.profile, body.dimension, criterion, settings)
    return fn


def step_grid(lo: float, hi: float, step: float) -> list:
    """lo, lo + step, ... up to hi, with hi itself as the last point.

    A point past hi by more than rounding is dropped, and hi is appended when
    the last step falls short of it.  Bounds or a step that are not finite,
    bounds out of order, a step that is not positive and a grid of more than
    MAX_GRID_POINTS points are an InvalidParam, raised before any point is
    built.
    """
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InvalidParam(f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if not lo < hi:
        raise InvalidParam(f"a grid needs lo < hi, got {lo}, {hi}")
    if not step > 0.0:
        raise InvalidParam(f"a grid step must be positive, got {step}")
    span = (hi - lo) / step
    if not span <= MAX_GRID_POINTS - 1:
        raise InvalidParam(f"a step of {step} from {lo} to {hi} gives more than "
                           f"{MAX_GRID_POINTS} grid points")
    count = int(round(span))
    grid = [lo + i * step for i in range(count + 1)]
    grid = [v for v in grid if v <= hi + 1e-12]
    if grid[-1] < hi - 1e-12:
        grid.append(hi)
    return grid


def sweep(template: FamilySpec, param: str, grid: Sequence[float],
          criterion: str = "auto",
          settings: Settings = DEFAULT_SETTINGS) -> SweepResult:
    """Evaluate a criterion margin across a parameter grid and refine roots.

    Grid points where the criterion does not apply (invalid parameter, no
    flat top, insufficient smoothness) are recorded with a NaN margin and an
    error verdict, and are skipped for sign-change detection.  Moments are
    integrated at the tolerances of ``settings``.
    """
    grid = [float(v) for v in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    dimension = (template.dimension if template.dimension is not None
                 else DEFAULT_DIMENSION[template.name])
    crit_name = criterion_name(criterion, dimension)
    rep_fn = _report_fn(FamilySpec(template.name, template.params, dimension),
                        param, crit_name, settings)

    def fn(value: float) -> float:
        return rep_fn(value).margin

    margins, verdicts = [], []
    for v in grid:
        try:
            report = rep_fn(v)
        except (ArithmeticError, ValueError) as e:
            margins.append(math.nan)
            verdicts.append(f"error:{type(e).__name__}")
            continue
        margins.append(report.margin)
        verdicts.append(report.verdict)

    brackets, roots = [], []
    for i in range(len(grid) - 1):
        m0, m1 = margins[i], margins[i + 1]
        if math.isnan(m0) or math.isnan(m1) or m0 * m1 >= 0.0:
            continue
        brackets.append((grid[i], grid[i + 1]))
        roots.append(find_root(fn, RootBracket(grid[i], grid[i + 1], m0, m1),
                               x_tol=REFINE_TOL))
    return SweepResult(family=template.name, parameter=param, criterion=crit_name,
                       grid=grid, margins=margins, verdicts=verdicts,
                       brackets=brackets, roots=roots)


def lp_threshold(p_lo: float, p_hi: float, step: float) -> SweepResult:
    """Sweep the flat-top dimension-6 margin over the l^p family.

    Locates where the criterion stops holding as p grows (the margin's sign
    change); the refined root is reported without further interpretation.
    """
    if not 2.0 < p_lo:
        raise InvalidParam(f"need 2 < p_lo, got {p_lo}")
    return sweep(FamilySpec("lp_revolution", {"p": p_lo}, dimension=6),
                 "p", step_grid(p_lo, p_hi, step), criterion="cor6")
