"""Brute-force cross-checks independent of the transform pipeline.

Two oracles:

  * Monte Carlo estimation of central hyperplane-section volumes.  The
    intersection-body radial function is, up to a fixed constant, the
    (n-1)-volume of the section perpendicular to the direction; since the
    pipeline omits constants, validation compares *ratios* of section
    volumes across directions against ratios of the computed profile.

  * A sign scan of the obstruction field that searches for a concrete
    negative witness, refining the grid near minima.  Finding one certifies
    the verdict; not finding one proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import DEFAULT_SETTINGS, Settings
from .errors import DomainError, InsufficientSamples
from .profile import BodyOfRevolution
from .transform import (_AXIS_NOISE_T, box_operator, intersection_radial,
                        obstruction_field)

MIN_SAMPLES = 10 ** 4
# mc_section_volume draws its samples in this many independently seeded batches.
BATCHES = 8
DEFAULT_ANGLES = (math.pi / 2, math.pi / 4, math.pi / 6)


@dataclass
class SectionEstimate:
    """Monte Carlo estimate of one central-section volume."""

    phi: float           # angle between the section normal and the axis
    samples: int
    volume: float
    std_error: float
    seed: int
    hits: int

    def ratio_to(self, other: "SectionEstimate") -> tuple:
        """Volume ratio self/other with its propagated standard error."""
        ratio = self.volume / other.volume
        rel = math.hypot(self.std_error / self.volume,
                         other.std_error / other.volume)
        return ratio, abs(ratio) * rel


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def mc_section_volume(body: BodyOfRevolution, phi: float, samples: int,
                      seed: int = 12345) -> SectionEstimate:
    """Estimate the (n-1)-volume of the central section perpendicular to a
    direction at angle phi from the axis of revolution.

    Points are drawn uniformly from a bounding ball of the section
    hyperplane; membership uses the radial test |p| <= rho(|cos angle(p)|).
    Within the hyperplane's orthonormal frame, only the coordinate along the
    tilted basis vector contributes a vertical component, so the vertical
    cosine of a sample is |u1| sin(phi) for a uniformly random direction u.
    Raises DomainError when the bounding ball's volume overflows or
    underflows a float.
    """
    if samples < MIN_SAMPLES:
        raise InsufficientSamples(
            f"need at least {MIN_SAMPLES} samples for a meaningful estimate, got {samples}"
        )
    if not 0.0 <= phi <= math.pi / 2 + 1e-12:
        raise DomainError(f"phi must lie in [0, pi/2], got {phi}")
    d = body.dimension - 1
    radius = body.profile.max_value()
    sin_phi = math.sin(phi)
    try:
        ball_volume = _unit_ball_volume(d) * radius ** d
    except OverflowError:
        ball_volume = math.inf
    if not 0.0 < ball_volume < math.inf:
        raise DomainError(f"the bounding ball of radius {radius:g} in dimension {d} "
                          f"has no finite positive volume in floating point")

    children = np.random.SeedSequence(seed).spawn(BATCHES)
    base = samples // BATCHES
    sizes = [base] * BATCHES
    sizes[-1] += samples - base * BATCHES
    hits = 0
    for child, m in zip(children, sizes):
        if m == 0:
            continue
        rng = np.random.Generator(np.random.PCG64(child))
        gauss = rng.standard_normal((m, d))
        norms = np.linalg.norm(gauss, axis=1)
        norms[norms == 0.0] = 1.0
        cos_vertical = np.abs(gauss[:, 0]) / norms * sin_phi
        radii = radius * rng.random(m) ** (1.0 / d)
        rho_bound = body.profile.eval_array(np.clip(cos_vertical, 0.0, 1.0))
        hits += int(np.count_nonzero(radii <= rho_bound))

    p_hat = hits / samples
    volume = ball_volume * p_hat
    std_error = ball_volume * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return SectionEstimate(phi=phi, samples=samples, volume=volume,
                           std_error=std_error, seed=seed, hits=hits)


def section_ratio_report(body: BodyOfRevolution,
                         angles: Sequence[float] = DEFAULT_ANGLES,
                         samples: int = 10 ** 5, seed: int = 12345,
                         settings: Settings = DEFAULT_SETTINGS) -> dict:
    """Compare Monte Carlo section-volume ratios against the computed
    intersection profile (integrated at the tolerances of ``settings``),
    angle by angle versus the first (reference) angle.
    """
    angles = list(angles)
    if len(angles) < 2:
        raise ValueError("need at least two angles to form a ratio")
    ik = intersection_radial(body, settings)
    estimates = [mc_section_volume(body, phi, samples, seed=seed + 7919 * i)
                 for i, phi in enumerate(angles)]
    ref = estimates[0]
    ref_value = ik.value(math.sin(ref.phi))
    comparisons = []
    all_ok = True
    for est in estimates[1:]:
        mc_ratio, sigma = est.ratio_to(ref)
        quad_ratio = ik.value(math.sin(est.phi)) / ref_value
        diff = mc_ratio - quad_ratio
        # sigma can be exactly 0 when the section fills its bounding ball;
        # then only an exact ratio match counts as agreement.
        z = diff / sigma if sigma > 0 else (0.0 if diff == 0.0 else math.inf)
        ok = abs(z) <= 3.0
        all_ok = all_ok and ok
        comparisons.append({
            "phi": est.phi,
            "reference_phi": ref.phi,
            "mc_ratio": mc_ratio,
            "quadrature_ratio": quad_ratio,
            "sigma": sigma,
            "z": z,
            "within_3sigma": ok,
        })
    return {
        "body": body.describe(),
        "dimension": body.dimension,
        "samples": samples,
        "seed": seed,
        "angles": angles,
        "estimates": [{"phi": e.phi, "volume": e.volume,
                       "std_error": e.std_error, "hits": e.hits,
                       "seed": e.seed} for e in estimates],
        "comparisons": comparisons,
        "all_within_3sigma": all_ok,
    }


@dataclass
class NegativityCertificate:
    """Outcome of the field sign scan.

    When ``found``, (witness, value) pins a concrete negative point or atom;
    otherwise min_value/min_location summarize the exhaustive scan (which is
    evidence, not a proof of nonnegativity).
    """

    found: bool
    kind: str                 # "continuous" | "atom" | ""
    witness: Optional[float]
    value: Optional[float]
    refinement_levels: int
    min_value: float
    min_location: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "found": self.found, "kind": self.kind, "witness": self.witness,
            "value": self.value, "refinement_levels": self.refinement_levels,
            "min_value": self.min_value, "min_location": self.min_location,
            "verdict": self.verdict,
        }


def field_sign_scan(body: BodyOfRevolution, refinement_levels: int = 3,
                    grid: Optional[Sequence[float]] = None) -> NegativityCertificate:
    """Search the obstruction field for a negative witness.

    Starts from a full field evaluation, then zooms into the continuous-part
    minimum with successively finer local grids.  Negative atoms are
    immediate witnesses.
    """
    fld = obstruction_field(body, grid=grid)
    for t0, w in fld.atoms:
        if w < 0.0:
            return NegativityCertificate(
                found=True, kind="atom", witness=t0, value=w,
                refinement_levels=0, min_value=fld.min_value,
                min_location=fld.min_location, verdict=fld.verdict)

    n = body.dimension
    g = fld.g
    # Rows the field excludes (the dimension-6 axis rows) seed and refine
    # nothing.
    lo_bound = max(g.domain[0], 1e-6, _AXIS_NOISE_T if n == 6 else 0.0)
    breakpoints = list(g.breakpoint_locations)

    # Seed the search from the best *interior* sample: one-sided limits at a
    # kink belong to the boundary of a piece, and a certificate should name a
    # point where the density itself is negative.
    ts = np.asarray(fld.grid, dtype=float)
    vs = np.asarray(fld.continuous_values, dtype=float)
    interior = ~np.isin(ts, [t for t, _ in fld.excluded])
    for b in breakpoints:
        interior &= np.abs(ts - b) > 1e-12
    if interior.any():
        k = int(np.argmin(np.where(interior, vs, np.inf)))
        best_t, best_v = float(ts[k]), float(vs[k])
    else:
        best_t, best_v = fld.min_location, fld.min_value
    grid_vals = ts
    spacing = float(np.median(np.diff(np.unique(grid_vals)))) if grid_vals.size > 1 else 1e-3
    window = 10.0 * spacing
    levels_used = 0
    for _ in range(refinement_levels):
        lo = max(lo_bound, best_t - window)
        hi = min(1.0, best_t + window)
        if hi <= lo:
            break
        local = np.linspace(lo, hi, 101)
        keep = np.ones_like(local, dtype=bool)
        for b in breakpoints:
            keep &= np.abs(local - b) > 1e-12
        local = local[keep]
        values = box_operator(g, n, local)
        k = int(np.argmin(values))
        if values[k] < best_v:
            best_t, best_v = float(local[k]), float(values[k])
        window /= 10.0
        levels_used += 1

    if best_v < -fld.negativity_tol:
        return NegativityCertificate(
            found=True, kind="continuous", witness=best_t, value=best_v,
            refinement_levels=levels_used, min_value=best_v,
            min_location=best_t, verdict=fld.verdict)
    return NegativityCertificate(
        found=False, kind="", witness=None, value=None,
        refinement_levels=levels_used, min_value=best_v, min_location=best_t,
        verdict=fld.verdict)
