"""The Monte Carlo section-volume estimator as it was before it walked its
batches in chunks: each batch draws its whole (m, d) Gaussian array and takes
norms with ``np.linalg.norm``.  The chunked ``oracle.mc_section_volume`` must
give the same hits, volume and standard error bit for bit.
"""

import math

import numpy as np

from ibodies.errors import DomainError, InsufficientSamples
from ibodies.oracle import BATCHES, MIN_SAMPLES, SectionEstimate, _unit_ball_volume
from ibodies.profile import BodyOfRevolution


def mc_section_volume_whole_batch(body: BodyOfRevolution, phi: float, samples: int,
                                  seed: int = 12345) -> SectionEstimate:
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
