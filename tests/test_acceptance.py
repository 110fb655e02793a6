"""End-to-end acceptance checks for the whole pipeline.

Each test covers one item of the release checklist at its stated tolerance
and prints exactly one PASS/FAIL line (visible with ``pytest -s``, and in
the failure output otherwise).  Failing sub-checks are listed on that line.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ibodies import (FamilySpec, box_operator, check_for_dimension,
                     cor6_check, instantiate, inverse_radon, obstruction_field,
                     prop4_check, prop1_check, section_ratio_report)
from ibodies.calculus import find_root
from ibodies.profile import Piece, RadialProfile, add, mul, powr, sub, var_t
from helpers import bracket, closed_form_function, flat_top_check
from reference_moments import reciprocal_intersection_profile
from reference_closed_forms import (octagon_h1_closed, octagon_k1_closed,
                                    octagon_margin, radon_transform,
                                    vamos_numerator, w_of_M, w_of_M_closed)

KINK = math.sqrt(0.5)


def body(name, dim=None, **params):
    return instantiate(FamilySpec(name=name, params=params, dimension=dim))


def profile(name, **params):
    return body(name, **params).profile


def conclude(label, problems):
    """Print the single PASS/FAIL line for one checklist item, then assert."""
    if problems:
        line = "FAIL: " + label + " — " + "; ".join(problems)
    else:
        line = "PASS: " + label
    print(line)
    assert not problems, line


def check(problems, ok, what):
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------


def test_01_capped_cylinder_dim4_example():
    rep = prop1_check(profile("cyl_caps"))
    problems = []
    moment = rep.intermediates["int_rho3"]
    check(problems, abs(moment - 5.0 / 16.0) <= 1e-10,
          f"cubic moment {moment!r} != 5/16")
    flat = rep.intermediates["flat_top_value"]
    check(problems, flat == 2.0, f"rho(1)+rho'(1) = {flat!r}, want exactly 2")
    check(problems, rep.verdict == "NotPolarZonoid",
          f"verdict {rep.verdict}")
    conclude("capped cylinder (dim 4): moment 5/16, boundary sum 2, "
             "criterion fires", problems)


def test_02a_cylinder_dim6_pinned_moments_and_failure():
    # The equator moments of the R^6 unit-radius, height-2 cylinder against
    # their exact values, and the flat-top criterion must fail.  With
    # rho = (1-t^2)^(-1/2) on [0, 1/sqrt2] and rho = 1/t on [1/sqrt2, 1]:
    #   int_0^{1/sqrt2} (1-t^2)^(-3/2) dt = [t/sqrt(1-t^2)]  = 1
    #   int_{1/sqrt2}^1 (t^-5 - t^-3) dt  = [t^-2/2 - t^-4/4] = 1/4
    # so h(1) = 5/4.  The inherited reference 1/2 + 3*pi/32 is kept as
    # pinned_h and must be refuted by the computed moment.
    rep = cor6_check(profile("cylinder"))
    h1 = rep.intermediates["h(1)"]
    k1 = rep.intermediates["k(1)"]
    tol = 1e-10
    want_h = 1.0 + 0.25
    pinned_h = 0.5 + 3.0 * math.pi / 32.0
    problems = []
    check(problems, abs(h1 - want_h) <= tol, f"h(1) = {h1!r}, want 5/4")
    check(problems, abs(k1 - 5.0 / 6.0) <= tol, f"k(1) = {k1!r}, want 5/6")
    check(problems, rep.verdict == "Inconclusive",
          f"verdict {rep.verdict}, want Inconclusive")
    check(problems, abs(h1 - pinned_h) > 1e6 * tol,
          f"h(1) computed {h1:.12g} does not refute the inherited reference "
          f"1/2+3*pi/32 = {pinned_h:.12g}")
    conclude("cylinder (dim 6): h(1) = 5/4 refutes inherited 1/2+3*pi/32, "
             "k(1) = 5/6, criterion fails", problems)


def test_02b_comparison_body_L():
    rep = cor6_check(profile("three_bodies_L"))
    h1 = rep.intermediates["h(1)"]
    k1 = rep.intermediates["k(1)"]
    want_h = 44239925.0 / 3879876.0
    want_k = 30712575.0 / 14872858.0
    problems = []
    check(problems, abs(h1 / want_h - 1.0) <= 1e-8, f"h(1) = {h1!r}")
    check(problems, abs(k1 / want_k - 1.0) <= 1e-8, f"k(1) = {k1!r}")
    check(problems, rep.verdict == "NotPolarZonoid", f"verdict {rep.verdict}")
    conclude("comparison body L (dim 6): rational moments, criterion fires",
             problems)


def test_02c_exponential_body():
    rep = cor6_check(profile("exp_decay"))
    h1 = rep.intermediates["h(1)"]
    k1 = rep.intermediates["k(1)"]
    e5 = math.exp(-5.0)
    want_h = (23.0 + 12.0 * e5) / 125.0
    want_k = (2.0 - 37.0 * e5) / 125.0
    problems = []
    check(problems, abs(h1 / want_h - 1.0) <= 1e-10, f"h(1) = {h1!r}")
    check(problems, abs(k1 / want_k - 1.0) <= 1e-10, f"k(1) = {k1!r}")
    check(problems, rep.verdict == "NotPolarZonoid", f"verdict {rep.verdict}")
    conclude("exponential-profile body (dim 6): closed-form moments, "
             "criterion fires", problems)


def test_03_cap_height_tangency_function():
    problems = []
    for M in (1.5, 2.0, 5.0):
        quad, closed = w_of_M(M), w_of_M_closed(M)
        check(problems, abs(quad / closed - 1.0) <= 1e-8,
              f"w({M}): quadrature {quad!r} vs closed {closed!r}")
    r1 = find_root(w_of_M, bracket(w_of_M, 1.01942, 1.01943)).root
    r2 = find_root(w_of_M, bracket(w_of_M, 1.31290, 1.31291)).root
    check(problems, 1.01942 < r1 < 1.01943, f"first root {r1!r}")
    check(problems, 1.31290 < r2 < 1.31291, f"second root {r2!r}")
    tail = w_of_M(1e6)
    check(problems, abs(tail - 2.0) <= 1e-3, f"w(1e6) = {tail!r}")
    conclude("cap-height margin function: quadrature matches closed form, "
             "both sign-change roots, large-cap limit 2", problems)


def test_04_octagon_family_threshold():
    problems = []
    worst_h = worst_k = 0.0
    for b in np.linspace(0.01, 1.0, 100):
        rep = cor6_check(profile("octagon_Kb", b=float(b)))
        worst_h = max(worst_h, abs(rep.intermediates["h(1)"]
                                   - octagon_h1_closed(float(b))))
        worst_k = max(worst_k, abs(rep.intermediates["k(1)"]
                                   - octagon_k1_closed(float(b))))
    check(problems, worst_h <= 1e-10, f"worst h(1) deviation {worst_h!r}")
    check(problems, worst_k <= 1e-10, f"worst k(1) deviation {worst_k!r}")
    b0 = find_root(octagon_margin, bracket(octagon_margin, 0.8, 0.85)).root
    check(problems, abs(b0 - 0.826279) <= 1e-5, f"threshold root {b0!r}")
    for b in (0.05, 0.3, 0.6, 0.82):
        check(problems,
              cor6_check(profile("octagon_Kb", b=b)).verdict == "NotPolarZonoid",
              f"criterion should fire at b={b}")
    for b in (0.83, 0.9, 1.0):
        check(problems,
              cor6_check(profile("octagon_Kb", b=b)).verdict == "Inconclusive",
              f"criterion should fail at b={b}")
    conclude("octagon family (dim 6): quadrature moments match closed forms "
             "on a 100-point grid, threshold root 0.826279, verdict split",
             problems)


def test_05_cylinder_inversion_goldens():
    def g_left(t):
        return (6 - 24 * t ** 2 + 16 * t ** 4) / (1 - t * t) ** 1.5

    def g_right(t):
        return (256 * t ** 5 * (27 - 192 * t ** 2 + 510 * t ** 4
                                - 672 * t ** 6 + 392 * t ** 8)
                / (3 - 16 * t ** 2 + 28 * t ** 4) ** 3)

    def gp_left(t):
        return -(2 * t * (15 - 20 * t ** 2 + 8 * t ** 4)) / (1 - t * t) ** 2.5

    def gp_right(t):
        poly = (405 - 3600 * t ** 2 + 11550 * t ** 4 - 19776 * t ** 6
                + 26208 * t ** 8 - 25088 * t ** 10 + 10976 * t ** 12)
        return 256 * t ** 4 * poly / (3 - 16 * t ** 2 + 28 * t ** 4) ** 4

    def gpp_left(t):
        return -30.0 / (1 - t * t) ** 3.5

    def gpp_right(t):
        poly = (81 - 648 * t ** 2 + 432 * t ** 4 + 6912 * t ** 6
                - 16848 * t ** 8 + 9856 * t ** 10)
        return 15360 * t ** 3 * poly / (3 - 16 * t ** 2 + 28 * t ** 4) ** 5

    def field_right(t):
        poly = (27 - 270 * t ** 2 + 720 * t ** 4 + 240 * t ** 6
                - 2800 * t ** 8 + 2208 * t ** 10)
        return 46080 * t ** 3 * poly / (3 - 16 * t ** 2 + 28 * t ** 4) ** 5

    problems = []
    g = inverse_radon(reciprocal_intersection_profile(body("cylinder")), 6)
    left = np.linspace(0.01, KINK - 1e-3, 100)
    right = np.linspace(KINK + 1e-3, 1.0, 100)
    worst = 0.0
    for t in left:
        got = g.eval_jet(float(t), 2)
        for v, want in zip(got, (g_left(t), gp_left(t), gpp_left(t))):
            worst = max(worst, abs(v - want) / max(1.0, abs(want)))
    for t in right:
        got = g.eval_jet(float(t), 2)
        for v, want in zip(got, (g_right(t), gp_right(t), gpp_right(t))):
            worst = max(worst, abs(v - want) / max(1.0, abs(want)))
    check(problems, worst <= 1e-8,
          f"worst relative error of g, g', g'' on 100 points/piece: {worst!r}")

    jump = (g.eval_jet(KINK, 1, side="right")[1]
            - g.eval_jet(KINK, 1, side="left")[1])
    check(problems, abs(jump - 240.0) <= 1e-6, f"derivative jump {jump!r}")

    flat = max(abs(box_operator(g, 6, float(t))) for t in left)
    check(problems, flat <= 1e-7,
          f"field should vanish below the kink, max |value| {flat!r}")
    worst_f = 0.0
    somewhere_negative = False
    for t in right:
        got = box_operator(g, 6, float(t))
        want = field_right(float(t))
        worst_f = max(worst_f, abs(got - want) / max(1.0, abs(want)))
        somewhere_negative = somewhere_negative or got < 0.0
    check(problems, worst_f <= 1e-8,
          f"field mismatch above the kink, worst relative error {worst_f!r}")
    check(problems, somewhere_negative, "field should be negative somewhere")
    at_axis = box_operator(g, 6, 1.0)
    check(problems, at_axis > 0.0, f"field at t=1 is {at_axis!r}, want > 0")

    fld = obstruction_field(body("cylinder"))
    atoms = [(t0, w) for t0, w in fld.atoms]
    ok_atom = (len(atoms) == 1 and abs(atoms[0][0] - KINK) <= 1e-12
               and abs(atoms[0][1] - 120.0) <= 1e-6)
    check(problems, ok_atom, f"atoms {atoms!r}, want weight 120 at 1/sqrt(2)")
    conclude("cylinder inversion goldens: piecewise g and derivatives, "
             "kink jump 240, vanishing/rational field pieces, atom 120",
             problems)


def test_06_lp_family_threshold():
    problems = []
    at_lo = cor6_check(profile("lp_revolution", p=9.5)).verdict
    at_hi = cor6_check(profile("lp_revolution", p=9.6)).verdict
    check(problems, at_lo == "NotPolarZonoid", f"p=9.5 verdict {at_lo}")
    check(problems, at_hi == "Inconclusive", f"p=9.6 verdict {at_hi}")
    conclude("l^p bodies of revolution (dim 6): criterion satisfied at "
             "p=9.5, failed at p=9.6", problems)


def test_07_unit_ball_negative_controls():
    problems = []
    for dim in (4, 6):
        verdict = check_for_dimension(profile("ball"), dim, "auto").verdict
        check(problems, verdict == "Inconclusive",
              f"dim {dim} verdict {verdict}")
    fld = obstruction_field(body("ball", 4))
    vals = np.asarray(fld.continuous_values, dtype=float)
    dev = float(np.nanmax(np.abs(vals - 3.0)))
    check(problems, dev <= 1e-6, f"dim-4 ball field deviates from 3 by {dev!r}")
    check(problems, float(np.nanmin(vals)) >= 0.0, "field went negative")
    conclude("unit balls: inconclusive in dims 4 and 6, dim-4 field is the "
             "constant 3", problems)


def test_08a_box_operator_affine_kernel():
    problems = []
    t = var_t()
    worst = 0.0
    for alpha, beta in ((2.5, -0.75), (1.0, 0.0), (0.3, 2.0)):
        aff = closed_form_function([Piece((0.0, 1.0), add(alpha, mul(beta, t)))],
                                   name="affine")
        for n in (4, 6):
            for x in (0.1, 0.45, 0.9):
                worst = max(worst, abs(box_operator(aff, n, x)
                                       - (n - 1) * alpha))
    check(problems, worst <= 1e-9, f"worst deviation {worst!r}")
    conclude("box operator maps alpha + beta*t to (n-1)*alpha", problems)


def test_08b_radon_round_trip():
    problems = []
    t = var_t()
    q_expr = add(1, mul(0.5, mul(t, t)))
    q = RadialProfile([Piece((0.0, 1.0), q_expr)], name="smooth test profile")
    for n, cn in ((4, 1.0), (6, 4.0)):
        # radon_transform integrates rho^(n-1), so it is fed rho = q^(1/(n-1)).
        rho = RadialProfile([Piece((0.0, 1.0), powr(q_expr, Fraction(1, n - 1)))])
        back = inverse_radon(radon_transform(rho, n), n)
        worst = max(abs(back.value(float(x)) / (cn * q.value(float(x))) - 1.0)
                    for x in np.linspace(0.05, 0.95, 19))
        check(problems, worst <= 1e-6, f"n={n} worst relative error {worst!r}")
    conclude("forward/inverse spherical transform round trip on [0.05, 0.95]",
             problems)


def test_08c_scale_invariance_of_verdicts():
    problems = []
    for lam in (0.5, 2.0, 10.0):
        cases = (
            ("cyl_caps", prop1_check, "NotPolarZonoid"),
            ("ball", prop1_check, "Inconclusive"),
            ("three_bodies_L", cor6_check, "NotPolarZonoid"),
            ("cylinder", cor6_check, "Inconclusive"),
        )
        for name, fn, want in cases:
            got = fn(profile(name).scaled(lam)).verdict
            check(problems, got == want,
                  f"{name} at scale {lam}: {got}, want {want}")
    conclude("verdicts are invariant under rescaling by 0.5, 2, 10", problems)


def test_08d_derivative_form_sign_agreement():
    problems = []
    rng = np.random.default_rng(7)
    for i in range(50):
        a = 1.0 + rng.random()
        bq = (rng.random() - 0.5) * 0.5
        c = (rng.random() - 0.5) * 0.5
        t = var_t()
        expr = add(add(a, mul(bq, mul(t, t))), mul(c, mul(t, mul(t, t))))
        prof = RadialProfile([Piece((0.0, 1.0), expr)], name="random smooth")
        v = vamos_numerator(prof)
        m = prop4_check(prof).margin
        check(problems, v != 0.0 and m != 0.0 and (v > 0.0) == (m > 0.0),
              f"draw {i}: numerator {v!r} vs margin {m!r}")
    conclude("derivative-form numerator sign matches the dim-6 margin sign "
             "on 50 random smooth profiles", problems)


def test_08e_equator_shift_perturbations():
    problems = []
    base = profile("three_bodies_L")
    rng = np.random.default_rng(20240817)
    for i in range(6):
        w0, w1, w2 = rng.random(3)
        eps = 0.02 * rng.random()
        t = var_t()
        w_expr = add(add(w0, mul(w1, t)), mul(w2, mul(t, t)))
        shape = mul(sub(mul(2, mul(t, t)), 1),
                    mul(powr(sub(1, mul(t, t)), 2), w_expr))
        psi = RadialProfile([Piece(p.interval, mul(p.expr, add(1, mul(eps, shape))))
                             for p in base.pieces], name="perturbed L")
        _, is_flat = flat_top_check(psi)
        rep = cor6_check(psi) if is_flat else None
        check(problems, is_flat, f"draw {i}: flat top lost")
        if rep is not None:
            check(problems, rep.verdict == "NotPolarZonoid",
                  f"draw {i}: verdict {rep.verdict}")
    conclude("randomized equator-shift perturbations of L keep the flat top "
             "and the firing verdict", problems)


def test_09_monte_carlo_oracle_million_samples():
    problems = []
    start = time.monotonic()
    for name, dim in (("ball", 4), ("cylinder", 6), ("cyl_caps", 4)):
        rep = section_ratio_report(body(name, dim), samples=10 ** 6)
        zs = [round(c["z"], 3) for c in rep["comparisons"]]
        check(problems, rep["all_within_3sigma"],
              f"{name} dim {dim}: z-scores {zs}")
    elapsed = time.monotonic() - start
    check(problems, elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds budget")
    conclude("Monte Carlo section volumes agree with quadrature within "
             "3 sigma at one million samples", problems)
