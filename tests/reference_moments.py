"""The scalar moment route, kept as a test oracle for the field engine.

The library computes the moments B(x) = int_0^x q and C(x) = int_0^x t^2 q
(q = rho^(n-1)) of a whole field in one cumulative Gauss-Kronrod pass
(``transform.MomentTable``).  The route it replaced integrates both from
scratch at every row with scipy's adaptive quadrature over [0, x]
(``reference_quadpack.integrate``).  :class:`ScalarMoments` is that route
behind the table's interface, so the library's own reciprocal /
inverse-Radon / box chain can run on either; :func:`reference_rows`
restates the field's row logic (grid, one-sided rows at joints, atoms) on
top of it.
"""

import numpy as np

from ibodies.calculus import QuadratureRequest
from ibodies.profile import classify_breakpoints
from ibodies.transform import (_EPS_AXIS, box_operator, default_grid,
                               inverse_radon, reciprocal_intersection_profile)
from reference_quadpack import integrate


class ScalarMoments:
    """B(x) and (n = 6) C(x) by one scalar quadrature each, per point, at
    every call; x is an array of points, as the table receives it."""

    def __init__(self, profile, power, n):
        self.profile, self.power, self.n = profile, power, n

    def prepare(self, nodes):
        pass

    def _at(self, x):
        bps = [b for b in self.profile.breakpoint_locations if 0.0 < b < x]

        def q(t):
            return self.profile.value(t) ** self.power

        b_val = integrate(QuadratureRequest(q, 0.0, x, bps))
        if self.n == 4:
            return b_val, None
        c_val = integrate(QuadratureRequest(lambda t: t * t * q(t), 0.0, x, bps))
        return b_val, c_val

    def at(self, xs):
        b_vals, c_vals = zip(*(self._at(float(x)) for x in xs))
        return np.array(b_vals), None if self.n == 4 else np.array(c_vals)


def reference_g(body):
    """g = inverse_radon(x^(n-3)/h_n) with moments from :class:`ScalarMoments`."""
    n = body.dimension
    moments = ScalarMoments(body.profile, n - 1, n)
    return inverse_radon(reciprocal_intersection_profile(body, moments=moments), n)


def reference_rows(g, grid=None, uniform_points=2000):
    """Rows (t, side, is_left_limit) and atoms of the field of ``g``.

    ``side`` is the one-sided evaluation a row stands for (None inside a
    piece).  Values are left out: the caller evaluates the rows it samples
    with ``box_operator(g, n, t, side)``.
    """
    joints = classify_breakpoints(g)
    if grid is None:
        grid = default_grid(g.breakpoint_locations, lo=max(_EPS_AXIS, g.domain[0]),
                            uniform_points=uniform_points)
    rows = [(float(t), None, False) for t in sorted(grid)
            if all(abs(t - j.location) > 1e-12 for j in joints)]
    for j in joints:
        if j.smoothness_class == "C2+":
            rows.append((j.location, "left", False))
        else:
            rows += [(j.location, "left", True), (j.location, "right", False)]
    rows.sort(key=lambda r: (r[0], not r[2]))
    atoms = [(j.location, (1.0 - j.location ** 2) * j.first_derivative_jump)
             for j in joints if j.smoothness_class == "C0"]
    return rows, atoms


def reference_value(g, n, row):
    t, side, _ = row
    return box_operator(g, n, t, side=side)
