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
with sign-change bracketing and bisection refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .calculus import RootBracket, bisect
from .criteria import check_for_dimension, cor6_check, prop1_check
from .errors import InvalidParam
from .profile import (BodyOfRevolution, ExprNode, Piece, RadialProfile, add,
                      const, div, exp_of, mul, neg, powr, sqrt, sub, var_t)

FAMILY_NAMES = ("ball", "cylinder", "cyl_caps", "cyl_caps_KM", "octagon_Kb",
                "lp_revolution", "exp_decay", "three_bodies_L")

DEFAULT_DIMENSION = {
    "ball": 4,
    "cylinder": 6,
    "cyl_caps": 4,
    "cyl_caps_KM": 4,
    "octagon_Kb": 6,
    "lp_revolution": 6,
    "exp_decay": 4,
    "three_bodies_L": 6,
}

_REQUIRED_PARAMS = {
    "cyl_caps_KM": ("M",),
    "octagon_Kb": ("b",),
    "lp_revolution": ("p",),
}

_SQ2 = math.sqrt(0.5)  # 1/sqrt(2), the recurring breakpoint

# A sweep shrinks each sign-change bracket by this many 3-way subdivisions,
# then bisects it down to REFINE_TOL.
_TRISECT_ROUNDS = 2
REFINE_TOL = 1e-10


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


_BUILDERS: dict = {
    "ball": lambda params: _ball_profile(),
    "cylinder": lambda params: _cylinder_profile(),
    "cyl_caps": lambda params: _cyl_caps_profile(),
    "cyl_caps_KM": lambda params: _cyl_caps_KM_profile(params["M"]),
    "octagon_Kb": lambda params: _octagon_profile(params["b"]),
    "lp_revolution": lambda params: _lp_profile(params["p"]),
    "exp_decay": lambda params: _exp_profile(),
    "three_bodies_L": lambda params: _three_bodies_L_profile(),
}


def instantiate(spec: FamilySpec) -> BodyOfRevolution:
    """Build the body described by a FamilySpec.

    Every family accepts an optional "scale" parameter dilating the profile;
    family-specific parameters beyond those listed are rejected.
    """
    required = _REQUIRED_PARAMS.get(spec.name, ())
    allowed = set(required) | {"scale"}
    unknown = set(spec.params) - allowed
    if unknown:
        raise InvalidParam(
            f"family {spec.name!r} does not take parameter(s) {sorted(unknown)}"
        )
    missing = [p for p in required if p not in spec.params]
    if missing:
        raise InvalidParam(f"family {spec.name!r} requires parameter(s) {missing}")
    profile = _BUILDERS[spec.name](spec.params)
    scale = spec.params.get("scale")
    if scale is not None:
        if scale <= 0:
            raise InvalidParam(f"scale must be positive, got {scale}")
        profile = profile.scaled(scale)
    dimension = spec.dimension if spec.dimension is not None else DEFAULT_DIMENSION[spec.name]
    return BodyOfRevolution(dimension=dimension, profile=profile,
                            family=spec.name, params=dict(spec.params))


# --------------------------------------------------------- margin functions

def w_of_M(M: float) -> float:
    """Dimension-4 criterion margin for the capped cylinder, as a function of M.

    w(M) = 2 rho(1)^4 - 3 (int_0^1 rho^3 dt)(rho(1) + rho'(1)), evaluated by
    quadrature and jets.  Positive w certifies NotPolarZonoid.
    """
    if M < 1.0:
        raise InvalidParam(f"cap radius M must be >= 1, got {M}")
    body = instantiate(FamilySpec("cyl_caps_KM", {"M": M}, dimension=4))
    return prop1_check(body.profile).margin


def cyl_caps_int_rho3_closed(M: float) -> float:
    """Closed form of int_0^1 rho_M^3 dt for the capped-cylinder family:

        1 + M^3 + (3/4) M^2 (1 - s) - (1 + s)^3 / 4,   s = sqrt(M^2 - 1).
    """
    s = math.sqrt(M * M - 1.0)
    return 1.0 + M ** 3 + 0.75 * M * M * (1.0 - s) - (1.0 + s) ** 3 / 4.0


def w_of_M_closed(M: float) -> float:
    """Closed form of w(M), used as a cross-check of the quadrature path."""
    s = math.sqrt(M * M - 1.0)
    a = 1.0 - s
    rho1 = 1.0 + M - s
    flat = (a + M) ** 2 / M
    return 2.0 * rho1 ** 4 - 3.0 * cyl_caps_int_rho3_closed(M) * flat


def octagon_h1_closed(b: float) -> float:
    """Closed form of h(1) = int_0^1 rho_b^5 (1-t^2) dt: (1 + 5b - b^5)/4."""
    return (1.0 + 5.0 * b - b ** 5) / 4.0


def octagon_k1_closed(b: float) -> float:
    """Closed form of k(1) = int_0^1 rho_b^5 t^2 dt: (1 + 5b + 10b^2 - 5b^4 - b^5)/12."""
    return (1.0 + 5.0 * b + 10.0 * b * b - 5.0 * b ** 4 - b ** 5) / 12.0


def octagon_margin(b: float) -> float:
    """Flat-top dimension-6 margin h(1) r(1) - 2 k(1)^2 for the octagon family.

    Defined for b in (0, 1]; at b=0 (the double cone) the profile has no
    finite one-sided derivative at t=1 and the criterion does not apply.
    """
    if not 0.0 < b <= 1.0:
        raise InvalidParam(f"octagon margin requires b in (0, 1], got {b}")
    body = instantiate(FamilySpec("octagon_Kb", {"b": b}, dimension=6))
    return cor6_check(body.profile).margin


def octagon_margin_closed(b: float) -> float:
    return octagon_h1_closed(b) - 2.0 * octagon_k1_closed(b) ** 2


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
        ok = sum(1 for v in self.verdicts if v == "NotPolarZonoid")
        roots = ", ".join(f"{r:.9f}" for r in self.roots) or "none"
        return (f"{self.family}.{self.parameter}: {len(self.grid)} points, "
                f"{ok} satisfied, roots: {roots}")


def _report_fn(template: FamilySpec, param: str, criterion: str):
    def fn(value: float):
        params = dict(template.params)
        params[param] = value
        body = instantiate(FamilySpec(template.name, params, template.dimension))
        return check_for_dimension(body.profile, body.dimension, criterion)
    return fn


def _trisect(fn: Callable[[float], float], lo: float, hi: float,
             f_lo: float, f_hi: float) -> RootBracket:
    """Shrink a sign-change bracket by _TRISECT_ROUNDS 3-way subdivisions."""
    for _ in range(_TRISECT_ROUNDS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = fn(m1), fn(m2)
        if f_lo * f1 < 0.0:
            hi, f_hi = m1, f1
        elif f1 * f2 < 0.0:
            lo, f_lo, hi, f_hi = m1, f1, m2, f2
        else:
            lo, f_lo = m2, f2
    return RootBracket(lo, hi, f_lo, f_hi)


def sweep(template: FamilySpec, param: str, grid: Sequence[float],
          criterion: str = "auto") -> SweepResult:
    """Evaluate a criterion margin across a parameter grid and refine roots.

    Grid points where the criterion does not apply (invalid parameter, no
    flat top, insufficient smoothness) are recorded with a NaN margin and an
    error verdict, and are skipped for sign-change detection.
    """
    grid = [float(v) for v in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    dimension = (template.dimension if template.dimension is not None
                 else DEFAULT_DIMENSION[template.name])
    crit_name = criterion if criterion != "auto" else (
        "prop1" if dimension == 4 else "prop4")
    rep_fn = _report_fn(FamilySpec(template.name, template.params, dimension),
                        param, crit_name)

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
        tight = _trisect(fn, grid[i], grid[i + 1], m0, m1)
        brackets.append((tight.lower, tight.upper))
        roots.append(bisect(fn, tight, x_tol=REFINE_TOL))
    return SweepResult(family=template.name, parameter=param, criterion=crit_name,
                       grid=grid, margins=margins, verdicts=verdicts,
                       brackets=brackets, roots=roots)


def lp_threshold(p_lo: float, p_hi: float, step: float) -> SweepResult:
    """Sweep the flat-top dimension-6 margin over the l^p family.

    Locates where the criterion stops holding as p grows (the margin's sign
    change); the refined root is reported without further interpretation.
    """
    if not 2.0 < p_lo < p_hi:
        raise InvalidParam("need 2 < p_lo < p_hi")
    if step <= 0.0:
        raise InvalidParam("step must be positive")
    count = int(round((p_hi - p_lo) / step))
    grid = [p_lo + i * step for i in range(count + 1)]
    if grid[-1] < p_hi - 1e-12:
        grid.append(p_hi)
    return sweep(FamilySpec("lp_revolution", {"p": p_lo}, dimension=6),
                 "p", grid, criterion="cor6")
