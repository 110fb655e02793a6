"""Monte Carlo section-volume oracle."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from ibodies import (DomainError, FamilySpec, InsufficientSamples, instantiate,
                     mc_section_volume, section_ratio_report)
from ibodies import oracle
from ibodies.oracle import BATCHES, CHUNK
from reference_oracle import mc_section_volume_whole_batch


def body(name, dim, **params):
    return instantiate(FamilySpec(name=name, params=params, dimension=dim))


# ---------------------------------------------------------------------------
# mc_section_volume basics


def test_ball_section_is_exact_unit_ball():
    # Every central section of the unit 4-ball is a unit 3-ball and fills its
    # bounding ball, so the hit rate is exactly 1 and the error bar collapses.
    est = mc_section_volume(body("ball", 4), math.pi / 4, 2 * 10 ** 4)
    assert est.hits == est.samples
    assert est.std_error == 0.0
    assert abs(est.volume - 4.0 * math.pi / 3.0) < 1e-12


def test_cylinder_axis_aligned_section_volume():
    # With the section normal along the axis (phi = 0) the section of the
    # dim-6 capped cylinder is exactly the unit 5-ball: an absolute check of
    # the estimator's geometry, not just of ratios.
    est = mc_section_volume(body("cylinder", 6), 0.0, 10 ** 5, seed=2024)
    exact = 8.0 * math.pi ** 2 / 15.0
    assert est.std_error > 0.0
    assert abs(est.volume - exact) <= 4.0 * est.std_error


def test_estimator_is_deterministic_for_fixed_seed():
    a = mc_section_volume(body("cyl_caps", 4), math.pi / 3, 2 * 10 ** 4, seed=99)
    b = mc_section_volume(body("cyl_caps", 4), math.pi / 3, 2 * 10 ** 4, seed=99)
    assert a.volume == b.volume and a.hits == b.hits and a.std_error == b.std_error
    c = mc_section_volume(body("cyl_caps", 4), math.pi / 3, 2 * 10 ** 4, seed=100)
    assert c.hits != a.hits


def test_sample_doubling_consistency_and_error_scaling():
    cyl = body("cylinder", 6)
    small = mc_section_volume(cyl, math.pi / 2, 5 * 10 ** 4, seed=101)
    large = mc_section_volume(cyl, math.pi / 2, 2 * 10 ** 5, seed=202)
    # Independent runs agree within combined error bars ...
    assert abs(small.volume - large.volume) <= 3.0 * math.hypot(
        small.std_error, large.std_error)
    # ... and the standard error follows ~N^{-1/2}: a 4x sample increase
    # should halve it, within a factor of two.
    ratio = small.std_error / large.std_error
    assert 1.0 < ratio < 4.0


def test_estimate_input_validation():
    with pytest.raises(InsufficientSamples):
        mc_section_volume(body("ball", 4), math.pi / 2, 9_999)
    with pytest.raises(DomainError, match="at most"):
        mc_section_volume(body("ball", 4), math.pi / 2, oracle.MAX_SAMPLES + 1)
    with pytest.raises(DomainError):
        mc_section_volume(body("ball", 4), -0.1, 10 ** 4)
    with pytest.raises(DomainError):
        mc_section_volume(body("ball", 4), math.pi / 2 + 0.1, 10 ** 4)


def test_zero_variance_accepts_only_rounding():
    # With sigma 0 a ratio within ZERO_VARIANCE_ULPS ulps of the quadrature
    # ratio agrees; anything further off, however close, does not.
    one_ulp = math.ulp(1.0)
    assert oracle._z_score(-one_ulp, 0.0, 1.0 + one_ulp) == 0.0
    assert oracle._z_score(0.0, 0.0, 1.0) == 0.0
    limit = oracle.ZERO_VARIANCE_ULPS * one_ulp
    assert oracle._z_score(limit, 0.0, 1.0) == 0.0
    assert oracle._z_score(2.0 * limit, 0.0, 1.0) == math.inf
    assert oracle._z_score(-1e-12, 0.0, 1.0) == math.inf
    assert oracle._z_score(0.3, 0.1, 1.0) == pytest.approx(3.0)


def test_bounding_ball_volume_out_of_float_range_is_a_domain_error():
    # radius ** 3 overflows at scale 1e300 and underflows to 0 at 1e-300.
    for scale in (1e300, 1e-300):
        with pytest.raises(DomainError, match="bounding ball"):
            mc_section_volume(body("ball", 4, scale=scale), math.pi / 2, 10 ** 4)
    with pytest.raises(DomainError, match="bounding ball"):
        section_ratio_report(body("ball", 4, scale=1e300), samples=10 ** 4)


def test_ratio_to_propagates_relative_errors():
    a = mc_section_volume(body("cylinder", 6), math.pi / 2, 5 * 10 ** 4, seed=7)
    b = mc_section_volume(body("cylinder", 6), math.pi / 4, 5 * 10 ** 4, seed=8)
    ratio, sigma = a.ratio_to(b)
    assert ratio == a.volume / b.volume
    expected = abs(ratio) * math.hypot(a.std_error / a.volume,
                                       b.std_error / b.volume)
    assert abs(sigma - expected) < 1e-15


# ---------------------------------------------------------------------------
# section_ratio_report


def test_ball_ratios_match_quadrature_exactly():
    # All sections equal, all hit rates exactly 1: every z-score is zero.
    # In R^6 sigma is 0 and the quadrature ratio is one ulp above 1.
    for dim in (4, 6):
        rep = section_ratio_report(body("ball", dim), samples=2 * 10 ** 4)
        assert rep["all_within_3sigma"]
        for comp in rep["comparisons"]:
            assert comp["mc_ratio"] == 1.0 and comp["sigma"] == 0.0
            assert comp["z"] == 0.0


def test_cylinder_ratio_matches_closed_form():
    # Equator/45-degree ratio of the dim-6 capped-cylinder intersection
    # profile is (15/8)/sqrt(2); Monte Carlo should land within 3 sigma.
    rep = section_ratio_report(body("cylinder", 6),
                               angles=(math.pi / 4, math.pi / 2),
                               samples=10 ** 5, seed=777)
    comp = rep["comparisons"][0]
    assert abs(comp["quadrature_ratio"] - (15.0 / 8.0) / math.sqrt(2.0)) < 1e-10
    assert abs(comp["z"]) <= 3.0
    assert rep["all_within_3sigma"]


def test_cyl_caps_default_angles_within_3sigma():
    rep = section_ratio_report(body("cyl_caps", 4), samples=10 ** 5, seed=4242)
    assert rep["all_within_3sigma"]
    assert len(rep["comparisons"]) == 2
    for comp in rep["comparisons"]:
        assert comp["within_3sigma"]


def test_report_records_inputs_and_per_angle_seeds():
    angles = (math.pi / 2, math.pi / 3)
    rep = section_ratio_report(body("ball", 4), angles=angles,
                               samples=2 * 10 ** 4, seed=31)
    assert rep["samples"] == 2 * 10 ** 4 and rep["seed"] == 31
    assert rep["angles"] == list(angles)
    seeds = [e["seed"] for e in rep["estimates"]]
    assert seeds == [31, 31 + 7919]


def test_report_needs_two_angles():
    with pytest.raises(ValueError):
        section_ratio_report(body("ball", 4), angles=(math.pi / 2,),
                             samples=2 * 10 ** 4)


# ---------------------------------------------------------------------------
# The chunked estimator against the whole-batch reference


# Batches shorter than a chunk, batches of whole chunks plus a short tail of
# two or three rows (8 * CHUNK + 17), of exactly one row (8 * (CHUNK + 1)),
# and 10^5 samples (batches of 12,500).
CHUNKED_SAMPLES = (10 ** 4 + 3, 8 * CHUNK + 17, 8 * (CHUNK + 1), 10 ** 5)


@pytest.mark.parametrize("name,dim", [("ball", 4), ("cyl_caps", 4),
                                      ("cylinder", 6), ("three_bodies_L", 6)])
@pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
def test_chunked_estimate_is_the_whole_batch_estimate(name, dim, phi):
    b = body(name, dim)
    for samples in CHUNKED_SAMPLES:
        got = mc_section_volume(b, phi, samples, seed=4321)
        want = mc_section_volume_whole_batch(b, phi, samples, seed=4321)
        assert (got.hits, got.volume, got.std_error) == \
            (want.hits, want.volume, want.std_error), (samples, got, want)


def test_section_ratio_report_hits_at_a_million_samples():
    # The hits of the whole-batch estimator, which the chunks must reproduce.
    golden = {("ball", 4): [1000000, 1000000, 1000000],
              ("cyl_caps", 4): [312052, 177219, 144744],
              ("three_bodies_L", 6): [738366, 877176, 948317]}
    for (name, dim), hits in golden.items():
        rep = section_ratio_report(body(name, dim), samples=10 ** 6)
        assert [e["hits"] for e in rep["estimates"]] == hits, name


def test_estimator_memory_is_about_one_batch_of_cosines():
    # tracemalloc counts numpy's allocations, not RSS, so the peak repeats
    # exactly.  The whole-batch estimator peaks at about 19 MB; the chunked
    # one keeps one batch of cosines (1 MB) and one chunk of draws.
    b = body("three_bodies_L", 6)
    tracemalloc.start()
    try:
        mc_section_volume(b, math.pi / 4, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


# ---------------------------------------------------------------------------
# Worker threads and the column-by-column sum of squares


@pytest.mark.parametrize("d", [3, 5])
def test_column_sum_of_squares_is_the_row_reduction_bit_for_bit(d):
    # The estimator adds the d squared columns left to right where
    # np.linalg.norm reduces each row; numpy does not promise that the two
    # agree, so check them on the chunks of normals the oracle draws at
    # 10^6 samples for the seeds of the tests above.
    m = 10 ** 6 // BATCHES
    for seed in (4321, 12345, 12345 + 7919, 12345 + 2 * 7919):
        for child in np.random.SeedSequence(seed).spawn(BATCHES):
            rng = np.random.Generator(np.random.PCG64(child))
            for lo in range(0, m, CHUNK):
                sq = rng.standard_normal((min(CHUNK, m - lo), d))
                sq *= sq
                total = sq[:, 0].copy()
                for j in range(1, d):
                    total += sq[:, j]
                assert np.array_equal(total.view(np.int64),
                                      np.add.reduce(sq, axis=1).view(np.int64))


@pytest.mark.parametrize("name,dim", [("ball", 4), ("cyl_caps", 4),
                                      ("cylinder", 6), ("three_bodies_L", 6)])
def test_hits_do_not_depend_on_the_worker_count(name, dim, monkeypatch):
    b = body(name, dim)
    for samples in (10 ** 4 + 3, 8 * CHUNK + 17, 10 ** 5):
        want = mc_section_volume_whole_batch(b, math.pi / 4, samples, seed=4321)
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(oracle, "WORKERS", workers)
            got = mc_section_volume(b, math.pi / 4, samples, seed=4321)
            assert (got.hits, got.volume, got.std_error) == \
                (want.hits, want.volume, want.std_error), (samples, workers)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("in_worker", [False, True])
def test_a_batch_exception_reaches_the_caller_after_every_thread_ends(in_worker, monkeypatch):
    # The profile fails on its second batch call in the calling thread (its
    # first call there is max_value's) or in the worker thread.
    monkeypatch.setattr(oracle, "WORKERS", 2)
    b = body("cyl_caps", 4)
    original = b.profile.eval_array
    calls = [0]

    def failing(t):
        if (threading.current_thread() is not threading.main_thread()) == in_worker:
            calls[0] += 1
            if calls[0] == (2 if in_worker else 3):
                raise _Boom
        return original(t)

    monkeypatch.setattr(b.profile, "eval_array", failing)
    before = threading.active_count()
    with pytest.raises(_Boom):
        mc_section_volume(b, math.pi / 4, 10 ** 5)
    assert threading.active_count() == before
