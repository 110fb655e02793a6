"""The Monte Carlo section-volume estimator with no chunks:
each batch draws its whole (m, 1 + d // 2) block of uniforms at once, the
radius in column 0 and the factors of the vertical cosine |u1| after it, and
multiplies the factors out over the whole batch.  The chunked
``oracle.mc_section_volume`` must give the same hits, volume and standard
error bit for bit.
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
        draws = rng.random((m, 1 + d // 2))
        # |u1| on S^(d-1) is U1^(1/(d-2)) * U2^(1/(d-4)) * ..., times 1 for
        # odd d and cos(pi U / 2) for even d.
        cos_vertical = np.full(m, sin_phi)
        for j in range(1, (d - 1) // 2 + 1):
            cos_vertical = cos_vertical * draws[:, j] ** (1.0 / (d - 2 * j))
        if d % 2 == 0:
            cos_vertical = cos_vertical * np.cos(math.pi / 2 * draws[:, d // 2])
        radii = radius * draws[:, 0] ** (1.0 / d)
        rho_bound = body.profile.eval_array(cos_vertical)
        hits += int(np.count_nonzero(radii <= rho_bound))

    p_hat = hits / samples
    volume = ball_volume * p_hat
    std_error = ball_volume * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return SectionEstimate(phi=phi, samples=samples, volume=volume,
                           std_error=std_error, seed=seed, hits=hits)
