"""A brute-force cross-check independent of the transform pipeline.

Monte Carlo estimation of central hyperplane-section volumes.  The
intersection-body radial function is, up to a fixed constant, the
(n-1)-volume of the section perpendicular to the direction; since the
pipeline omits constants, validation compares *ratios* of section volumes
across directions against ratios of the computed profile.  The obstruction
field names its own negative witness (``ObstructionField.witness``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import DEFAULT_SETTINGS, Settings
from .errors import DomainError, InsufficientSamples
from .profile import BodyOfRevolution
from .transform import intersection_radial

MIN_SAMPLES = 10 ** 4
MAX_SAMPLES = 10 ** 8
# With zero variance a Monte Carlo ratio agrees when it lies within this many
# ulps of the quadrature ratio (see _z_score).
ZERO_VARIANCE_ULPS = 4
# mc_section_volume draws its samples in this many independently seeded batches
# and walks each batch in chunks of at most CHUNK rows (all it holds at a time).
BATCHES = 8
CHUNK = 1 << 14
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


def _section_inputs(body: BodyOfRevolution, phi: float, samples: int) -> tuple:
    """(d, radius, volume) of the bounding ball of the sections of ``body``,
    after every check that mc_section_volume makes before it draws."""
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise TypeError(f"the sample count must be an integer, got {samples!r}")
    if samples < MIN_SAMPLES:
        raise InsufficientSamples(f"need at least {MIN_SAMPLES} samples for a "
                                  f"meaningful estimate, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"at most {MAX_SAMPLES} samples are drawn, got {samples}")
    if not 0.0 <= phi <= math.pi / 2 + 1e-12:
        raise DomainError(f"phi must lie in [0, pi/2], got {phi}")
    d = body.dimension - 1
    radius = body.profile.max_value()
    try:
        volume = _unit_ball_volume(d) * radius ** d
    except OverflowError:
        volume = math.inf
    if not 0.0 < volume < math.inf:
        raise DomainError(f"the bounding ball of radius {radius:g} in dimension {d} "
                          f"has no finite positive volume in floating point")
    return d, radius, volume


def _vertical_cosines(factors: np.ndarray, d: int, scale: float) -> np.ndarray:
    """scale * |u1| for uniformly random directions u on S^(d-1), one per
    column of ``factors``, a (d // 2, n) array of uniforms in [0, 1): (u1,
    ..., u_(d-2)) is uniform in the ball B^(d-2) (Archimedes for d = 3;
    Barthe, Guedon, Mendelson and Naor, Ann. Probab. 2005, in general), so
    |u1| is that point's radius U^(1/(d-2)) times |u1| on S^(d-3), down to
    S^0, where |u1| = 1, or S^1, where |u1| = cos(pi U / 2).

    Each row is turned into its factor in place, and the product is built
    in the first row: ((scale * f1) * f2) * ..., so ``factors`` is
    overwritten and the result is a view of it."""
    for row, k in zip(factors, range(d - 2, -1, -2)):
        if k > 1:
            row **= 1.0 / k
        elif k == 0:
            row *= math.pi / 2
            np.cos(row, out=row)
        # for k = 1 the factor is the row itself: x ** 1.0 is x
    cos = factors[0]
    cos *= scale
    for row in factors[1:]:
        cos *= row
    return cos


def _batch_hits(profile, seed_sequence, m: int, d: int, radius: float,
                sin_phi: float) -> int:
    """Hits among the m samples of one seeded batch (see mc_section_volume)."""
    rng = np.random.Generator(np.random.PCG64(seed_sequence))
    rows = min(CHUNK, m)
    draws = np.empty((rows, 1 + d // 2))    # row-major, as the stream fills it
    columns = np.empty((1 + d // 2, rows))  # one contiguous row per column
    hits = 0
    for lo in range(0, m, CHUNK):
        n = min(CHUNK, m - lo)
        chunk, block = draws[:n], columns[:, :n]
        rng.random(out=chunk)
        block[...] = chunk.T
        cos_vertical = _vertical_cosines(block[1:], d, sin_phi)
        radii = block[0]
        radii **= 1.0 / d
        radii *= radius
        hits += int(np.count_nonzero(radii <= profile.eval_array(cos_vertical)))
    return hits


def mc_section_volume(body: BodyOfRevolution, phi: float, samples: int,
                      seed: int = 12345) -> SectionEstimate:
    """Estimate the (n-1)-volume of the central section perpendicular to a
    direction at angle phi from the axis of revolution.

    Points are drawn uniformly from a bounding ball of the section
    hyperplane; membership uses the radial test |p| <= rho(|cos angle(p)|).
    Within the hyperplane's orthonormal frame, only the coordinate along the
    tilted basis vector contributes a vertical component, so the vertical
    cosine of a sample is |u1| sin(phi) for a uniformly random direction u
    on S^(d-1), d = n - 1, drawn from its exact law (see _vertical_cosines).
    Raises TypeError for a sample count that is not an integer (a bool
    included), InsufficientSamples below MIN_SAMPLES samples, and DomainError
    above MAX_SAMPLES or when the bounding ball's volume overflows or
    underflows a float.

    The samples come in BATCHES independently seeded batches, each drawn in
    chunks of CHUNK rows of 1 + d // 2 uniforms: column 0 for the radius, the
    others for |u1|.  Consecutive draws of k rows give the numbers of one draw
    of all of them, so the chunking changes no sample and no hit.  The
    batches run one after another on the calling thread.

    A batch draws its chunks row-major into one reused buffer (``out=``
    gives the same stream) and copies each once into a column-major block,
    whose rows the powers, the cosine and the products then walk
    contiguously and in place.  Every uniform stays in its sample, numpy
    computes the same elementwise functions of it, and the products keep
    their order ((sin phi * f1) * f2 and radius * U^(1/d)), so the layout
    changes no cosine, radius or hit.
    """
    d, radius, ball_volume = _section_inputs(body, phi, samples)
    sin_phi = math.sin(phi)
    children = np.random.SeedSequence(seed).spawn(BATCHES)
    sizes = [samples // BATCHES] * BATCHES
    sizes[-1] += samples % BATCHES
    hits = sum(_batch_hits(body.profile, children[k], sizes[k], d, radius, sin_phi)
               for k in range(BATCHES))
    p_hat = hits / samples
    volume = ball_volume * p_hat
    std_error = ball_volume * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return SectionEstimate(phi=phi, samples=samples, volume=volume,
                           std_error=std_error, seed=seed, hits=hits)


def _z_score(diff: float, sigma: float, quad_ratio: float) -> float:
    """diff / sigma.  sigma is exactly 0 when every sample of both sections
    hits; then a diff within ZERO_VARIANCE_ULPS ulps of the quadrature ratio
    scores 0 (a match up to rounding) and any other scores inf."""
    if sigma > 0:
        return diff / sigma
    return 0.0 if abs(diff) <= ZERO_VARIANCE_ULPS * math.ulp(quad_ratio) else math.inf


def section_ratio_report(body: BodyOfRevolution,
                         angles: Sequence[float] = DEFAULT_ANGLES,
                         samples: int = 10 ** 5, seed: int = 12345,
                         settings: Settings = DEFAULT_SETTINGS) -> dict:
    """Compare Monte Carlo section-volume ratios against the computed
    intersection profile (integrated at the tolerances of ``settings``),
    angle by angle versus the first (reference) angle.  Raises
    InsufficientSamples when a section gets no hit.
    """
    angles = list(angles)
    if len(angles) < 2:
        raise ValueError("need at least two angles to form a ratio")
    for phi in angles:   # bad input fails here or in ik.value, before any draw
        _section_inputs(body, phi, samples)
    ik = intersection_radial(body, settings)
    quad = [ik.value(math.sin(phi)) for phi in angles]
    estimates = [mc_section_volume(body, phi, samples, seed=seed + 7919 * i)
                 for i, phi in enumerate(angles)]
    for est in estimates:   # a ratio needs a nonzero volume and error bar
        if est.hits == 0:
            raise InsufficientSamples(f"no sample of {samples} hit the section at "
                                      f"phi = {est.phi}; draw more samples")
    ref = estimates[0]
    comparisons = []
    all_ok = True
    for est, value in zip(estimates[1:], quad[1:]):
        mc_ratio, sigma = est.ratio_to(ref)
        quad_ratio = value / quad[0]
        z = _z_score(mc_ratio - quad_ratio, sigma, quad_ratio)
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
