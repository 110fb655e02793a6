"""The scalar moment route, kept as a test oracle for the field engine.

The library computes the moments B(x) = int_0^x q and C(x) = int_0^x t^2 q
(q = rho^(n-1)) of a whole field in one cumulative Gauss-Kronrod pass
(``transform.MomentTable``).  The route it replaced integrates both from
scratch at every row with scipy's adaptive quadrature over [0, x]
(``reference_quadpack.integrate``).  :class:`ScalarMoments` is that route
behind the table's interface, so the library's own reciprocal /
inverse-Radon / box chain can run on either
(:func:`reciprocal_intersection_profile`); :func:`reference_rows` restates
the field's row logic (grid, one-sided rows at joints, atoms) on top of it.
:func:`field_g` rebuilds the g that a field evaluates its rows from, on a
table over the field's own nodes.
"""

import numpy as np

from ibodies.profile import classify_breakpoints
from ibodies.transform import (_EPS_AXIS, MomentTable, _axis_series, _reciprocal,
                               _require_dimension, box_operator, default_grid,
                               inverse_radon)
from reference_quadpack import integrate


class ScalarMoments:
    """B(x) and (n = 6) C(x) by one scalar quadrature each, per point, at
    every call; x is an array of points, as the table receives it."""

    def __init__(self, profile, power, n):
        self.profile, self.power, self.n = profile, power, n

    def _at(self, x):
        bps = [b for b in self.profile.breakpoint_locations if 0.0 < b < x]

        def q(t):
            return self.profile.value(t) ** self.power

        b_val = integrate(q, 0.0, x, bps)
        if self.n == 4:
            return b_val, None
        c_val = integrate(lambda t: t * t * q(t), 0.0, x, bps)
        return b_val, c_val

    def at(self, xs):
        b_vals, c_vals = zip(*(self._at(float(x)) for x in xs))
        return np.array(b_vals), None if self.n == 4 else np.array(c_vals)


def reciprocal_intersection_profile(body, moments=None):
    """The inverse-Radon input x -> x^(n-3)/(c_n h_n(x)) that the field
    builds, on ``moments`` (a :class:`MomentTable` that holds every point
    asked, or :class:`ScalarMoments`); without one, each query integrates
    its points in a table of their own, as ``intersection_radial`` does."""
    n = body.dimension
    _require_dimension(n)
    return _reciprocal(body, lambda x: moments or MomentTable(body.profile, n - 1, n, x),
                       _axis_series(body.profile, n))


def field_g(body, grid=None, uniform_points=2000):
    """The g whose rows ``obstruction_field(body, grid, uniform_points)``
    holds: inverse_radon of the reciprocal on the field's own moment table,
    one pass over its grid before the joint split plus its joints, so each
    row's t gives the row's bits."""
    n = body.dimension
    breaks = [b for b in body.profile.breakpoint_locations if b > _EPS_AXIS]
    if grid is None:
        grid = default_grid(breaks, uniform_points=uniform_points)
    moments = MomentTable(body.profile, n - 1, n, np.concatenate([sorted(grid), breaks]))
    return inverse_radon(reciprocal_intersection_profile(body, moments), n)


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
        grid = default_grid(g.breakpoint_locations, uniform_points=uniform_points)
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
