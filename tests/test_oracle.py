"""Monte Carlo section-volume oracle and the field sign scan."""

import math

import numpy as np
import pytest

from ibodies import (DomainError, FamilySpec, InsufficientSamples,
                     field_sign_scan, instantiate, mc_section_volume,
                     section_ratio_report)

KINK = 1.0 / math.sqrt(2.0)


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
    with pytest.raises(DomainError):
        mc_section_volume(body("ball", 4), -0.1, 10 ** 4)
    with pytest.raises(DomainError):
        mc_section_volume(body("ball", 4), math.pi / 2 + 0.1, 10 ** 4)


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
    rep = section_ratio_report(body("ball", 4), samples=2 * 10 ** 4)
    assert rep["all_within_3sigma"]
    for comp in rep["comparisons"]:
        assert comp["mc_ratio"] == 1.0
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
# field_sign_scan


def test_scan_finds_cylinder_negative_witness_inside_outer_piece():
    cert = field_sign_scan(body("cylinder", 6))
    assert cert.found and cert.kind == "continuous"
    # The witness is a strictly interior point of the outer piece, not the
    # one-sided limit at the kink itself.
    assert KINK < cert.witness < 1.0
    assert cert.value < -2000.0
    assert cert.verdict == "NotPolarZonoid"


def test_scan_reports_no_witness_for_balls():
    # Unit-ball fields are the positive constants 3 (dim 4) and 45 (dim 6).
    cert4 = field_sign_scan(body("ball", 4))
    assert not cert4.found and cert4.witness is None and cert4.value is None
    assert cert4.kind == ""
    assert abs(cert4.min_value - 3.0) < 1e-6
    assert cert4.verdict == "Inconclusive"

    cert6 = field_sign_scan(body("ball", 6))
    assert not cert6.found
    assert abs(cert6.min_value - 45.0) < 1e-2
    assert cert6.verdict == "Inconclusive"


def test_scan_finds_exponential_witness_near_axis():
    cert = field_sign_scan(body("exp_decay", 6))
    assert cert.found and cert.kind == "continuous"
    assert cert.witness > 0.99
    assert cert.value < -0.4
    assert cert.verdict == "NotPolarZonoid"


def test_scan_refinement_does_not_lose_the_minimum():
    shallow = field_sign_scan(body("cylinder", 6), refinement_levels=0)
    deep = field_sign_scan(body("cylinder", 6), refinement_levels=3)
    assert deep.refinement_levels == 3
    assert deep.value <= shallow.value


def test_certificate_serializes_to_plain_dict():
    cert = field_sign_scan(body("cylinder", 6))
    d = cert.to_dict()
    assert set(d) == {"found", "kind", "witness", "value", "refinement_levels",
                      "min_value", "min_location", "verdict"}
    assert d["found"] is True and d["witness"] == cert.witness


def test_scan_accepts_custom_grid():
    grid = np.linspace(1e-3, 1.0, 301)
    cert = field_sign_scan(body("cylinder", 6), grid=grid)
    assert cert.found and cert.value < -1000.0
