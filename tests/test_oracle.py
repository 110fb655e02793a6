"""Monte Carlo section-volume oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ibodies import (DomainError, FamilySpec, InsufficientSamples, instantiate,
                     mc_section_volume, section_ratio_report)
from ibodies import oracle
from ibodies.oracle import BATCHES, CHUNK
from ibodies.profile import _MAX_SCAN_POINTS
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


@pytest.mark.parametrize("samples", [1e5, True, 10 ** 5 + 0.5, "100000", np.float64(1e5)])
def test_a_sample_count_that_is_not_an_integer_is_refused_before_any_draw(samples,
                                                                        monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "_batch_hits", lambda *args: calls.append(args))
    with pytest.raises(TypeError, match=re.escape(
            f"the sample count must be an integer, got {samples!r}")):
        mc_section_volume(body("ball", 4), math.pi / 2, samples)
    with pytest.raises(TypeError, match="sample count must be an integer"):
        section_ratio_report(body("ball", 4), samples=samples)
    assert calls == []


def test_a_numpy_integer_sample_count_draws_like_an_int():
    b = body("cyl_caps", 4)
    assert mc_section_volume(b, 0.5, np.int64(10 ** 4)) == mc_section_volume(b, 0.5, 10 ** 4)


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
# The law of the vertical cosine |u1| on S^(d-1)


def vertical_cosines(d, seed, n=10 ** 5):
    rng = np.random.default_rng(seed)
    return oracle._vertical_cosines(rng.random((n, d // 2)), d, 1.0)


@pytest.mark.parametrize("d,cdf", [(3, lambda x: x),
                                   (5, lambda x: (3.0 * x - x ** 3) / 2.0)])
def test_vertical_cosine_has_the_exact_cdf(d, cdf):
    # |u1| is uniform on [0, 1] for d = 3 (Archimedes) and has the density
    # 3(1 - x^2)/2 for d = 5.
    assert stats.kstest(vertical_cosines(d, seed=100 + d), cdf).pvalue > 1e-3


@pytest.mark.parametrize("d", [2, 4, 6])
def test_vertical_cosine_has_the_law_of_a_normalised_gaussian(d):
    # Even d ends in the cos(pi U / 2) factor; compare with |g1| / |g| for
    # d independent standard normals g.
    g = np.random.default_rng(200 + d).standard_normal((10 ** 5, d))
    gaussian = np.abs(g[:, 0]) / np.linalg.norm(g, axis=1)
    assert stats.ks_2samp(vertical_cosines(d, seed=300 + d), gaussian).pvalue > 1e-3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_vertical_cosine_second_moment_is_one_over_d(d):
    sq = vertical_cosines(d, seed=400 + d) ** 2
    assert 0.0 <= sq.min() and sq.max() <= 1.0
    assert abs(sq.mean() - 1.0 / d) <= 4.0 * sq.std(ddof=1) / math.sqrt(len(sq))


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


@pytest.mark.parametrize("bad", [0.0, 2.0])
def test_report_checks_every_angle_before_any_draw(bad, monkeypatch):
    # rho_IK refuses sin(0) = 0, and 2 > pi/2 fails the angle check; either
    # must raise before the first batch is drawn, not after the valid angle's.
    b = body("cyl_caps", 4)
    calls = []
    original = oracle._batch_hits

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracle, "_batch_hits", counting)
    section_ratio_report(b, angles=(math.pi / 2, math.pi / 4), samples=10 ** 4)
    assert len(calls) == 2 * BATCHES
    calls.clear()
    with pytest.raises(DomainError):
        section_ratio_report(b, angles=(math.pi / 2, bad), samples=10 ** 4)
    assert calls == []


def test_report_scans_the_profile_for_its_maximum_once(monkeypatch):
    # Every angle's bounding ball, checked up front and again when drawn,
    # needs max rho; the pieces never change, so the scan runs once.  At
    # 10^4 samples every batch is one chunk of 1250 rows, far below the
    # scan's size.
    b = body("three_bodies_L", 6)
    sizes = []
    original = b.profile.eval_array

    def counting(t):
        sizes.append(np.size(t))
        return original(t)

    monkeypatch.setattr(b.profile, "eval_array", counting)
    first = section_ratio_report(b, samples=10 ** 4)
    assert sum(size >= _MAX_SCAN_POINTS for size in sizes) == 1
    assert section_ratio_report(b, samples=10 ** 4) == first
    assert sum(size >= _MAX_SCAN_POINTS for size in sizes) == 1
    assert first == section_ratio_report(body("three_bodies_L", 6), samples=10 ** 4)


# ---------------------------------------------------------------------------
# The chunked estimator against the whole-batch reference


# Batches shorter than a chunk, batches of whole chunks plus a short tail of
# two or three rows (8 * CHUNK + 17), of exactly one row (8 * (CHUNK + 1)),
# and 10^5 samples (batches of 12,500).
CHUNKED_SAMPLES = (10 ** 4 + 3, 8 * CHUNK + 17, 8 * (CHUNK + 1), 10 ** 5)


# R^3 and R^5 (d = 2 and 4) exercise the cos(pi U / 2) factor of |u1|.
INVARIANCE_BODIES = [("ball", 4), ("cyl_caps", 4), ("cylinder", 6), ("three_bodies_L", 6),
                     ("ball", 3), ("cylinder", 3), ("ball", 5), ("cylinder", 5)]


@pytest.mark.parametrize("name,dim", INVARIANCE_BODIES)
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
              ("cyl_caps", 4): [311867, 176497, 144633],
              ("three_bodies_L", 6): [737490, 877000, 948425]}
    for (name, dim), hits in golden.items():
        rep = section_ratio_report(body(name, dim), samples=10 ** 6)
        assert [e["hits"] for e in rep["estimates"]] == hits, name


def test_estimator_memory_is_about_one_batch_of_cosines():
    # tracemalloc counts numpy's allocations, not RSS, so the peak repeats
    # exactly.  The whole-batch estimator peaks at about 10 MB; the chunked
    # one keeps one chunk of draws and its temporaries at a time (3.0 MB).
    b = body("three_bodies_L", 6)
    tracemalloc.start()
    try:
        mc_section_volume(b, math.pi / 4, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


# ---------------------------------------------------------------------------
# A failing batch


class _Boom(Exception):
    pass


def test_a_batch_exception_reaches_the_caller(monkeypatch):
    # The profile's first eval_array call is max_value's, and each batch of
    # 12500 rows is one chunk, so the profile fails in batch 1 and no later
    # batch runs.
    b = body("cyl_caps", 4)
    original = b.profile.eval_array
    calls = [0]

    def failing(t):
        calls[0] += 1
        if calls[0] == 3:
            raise _Boom
        return original(t)

    monkeypatch.setattr(b.profile, "eval_array", failing)
    with pytest.raises(_Boom):
        mc_section_volume(b, math.pi / 4, 10 ** 5)
    assert calls[0] == 3
