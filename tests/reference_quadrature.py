"""The moment pass with an exact stop test in every round, kept as a test
oracle for ``calculus.integrate``.

The library decides whether a round that leaves panels open may stop from
running totals of the accepted panels' error estimates and integrals of |f|,
and runs the exact test (every node's accumulated error against rel_tol
times its integral of |f|, from one sorted running sum over all panels)
only when those totals do not already fail it at the last node; a pass
that ends on that test returns its sums.  :func:`integrate` below is the
loop it replaced, which runs the exact test in every such round and sums
every panel once more after the loop.  Both must give the same bits:
nodes, values, counters and error messages.
"""

import numpy as np

from ibodies.calculus import (MAX_BISECTIONS, MAX_PANELS, CumulativeIntegral,
                              QuadratureRequest, _at_nodes, _gk15_panels, _GK_X,
                              sorted_unique)
from ibodies.errors import NoConvergence


def integrate(request: QuadratureRequest) -> CumulativeIntegral:
    """Integrals from 0 to every node of ``request``, from one adaptive pass.

    [0, largest node] is split into panels at every node and interior
    breakpoint, so no panel straddles a kink; each round evaluates all open
    panels with one call of ``request.fn`` (Gauss-Kronrod 7/15) and bisects
    those that miss their share of the tolerance, until every panel meets
    its share or every node's accumulated error estimate (open panels
    counted at their current estimates) is within rel_tol times its
    integral of |f|.  A running sum over the panels, in order, gives every
    node's value, accumulated error estimate and integral of |f| (a round
    that accepts every open panel keeps them whole and ends the pass, and a
    first round's panels are summed unsorted).  Results are bit-reproducible
    for a given request.

    Raises ValueError for a node that is negative or not finite, or when no
    node lies above 0, and NoConvergence when the integrand is not finite at
    an evaluation point or when the accumulated error at any node exceeds
    10 * rel_tol times its integral of |f|.  ``rel_tol`` is that of
    ``request.settings``.
    """
    rel_tol = request.settings.rel_tol
    nodes = np.asarray(request.nodes, dtype=float)
    if not np.isfinite(nodes).all():
        raise ValueError(f"nodes must be finite, got {float(nodes[~np.isfinite(nodes)][0])}")
    nodes = sorted_unique(nodes)
    if nodes.size == 0 or nodes[0] < 0.0 or nodes[-1] <= 0.0:
        raise ValueError(f"nodes must lie in [0, inf) with one above it, got {nodes}")
    end = float(nodes[-1])
    inner = [x for x in request.breakpoints if 0.0 < x < end]
    edges = sorted_unique(np.concatenate([[0.0], inner, nodes]))
    a, b = edges[:-1], edges[1:]

    done_a, done_b, done_val, done_err, done_abs = [], [], [], [], []
    panels = evaluations = max_depth = 0
    for depth in range(MAX_BISECTIONS + 1):
        if a.size == 0:
            break
        val, err, resabs = _gk15_panels(request.fn, a, b)
        evaluations += a.size * _GK_X.size
        # Half of each panel's share of rel_tol * int|f|, so that the error
        # summed up to any node stays within rel_tol times its int|f|.
        allowed = 0.5 * rel_tol * resabs
        ok = np.all(err <= allowed, axis=0)
        mid = 0.5 * (a + b)
        ok |= (mid <= a) | (mid >= b)  # panel too narrow to bisect
        if depth == MAX_BISECTIONS or panels + ok.sum() + 2 * (~ok).sum() > MAX_PANELS:
            ok[:] = True
        elif not ok.all():
            # A panel can miss its share for ever (a square-root singularity
            # in a derivative at its end) while every node already meets the
            # tolerance; stop refining then, open panels at their estimates.
            errors, mass = _at_nodes(done_a + [a], done_b + [b], nodes,
                                     done_err + [err], done_abs + [resabs],
                                     in_order=depth == 0)
            if np.all(errors <= rel_tol * mass):
                ok[:] = True
        whole = ok.all()
        if ok.any():
            keep = slice(None) if whole else ok  # a whole round is not copied
            done_a.append(a[keep])
            done_b.append(b[keep])
            done_val.append(val[:, keep])
            done_err.append(err[:, keep])
            done_abs.append(resabs[:, keep])
            panels += done_a[-1].size
            max_depth = depth
        if whole:
            break
        bad = ~ok
        a, b = (np.concatenate([a[bad], mid[bad]]),
                np.concatenate([mid[bad], b[bad]]))

    values, errors, mass = _at_nodes(done_a, done_b, nodes, done_val, done_err, done_abs,
                                     in_order=max_depth == 0)
    # A node with no error (a zero integrand) has fraction 0, not 0 / 0.
    fraction = np.divide(errors, rel_tol * mass, out=np.zeros_like(errors), where=errors != 0)
    worst = np.unravel_index(int(np.argmax(fraction)), fraction.shape)
    if fraction[worst] > 10.0:
        raise NoConvergence(
            f"accumulated quadrature error {errors[worst]} up to x={nodes[worst[1]]} "
            f"exceeds tolerance {10.0 * rel_tol * mass[worst]}"
        )
    return CumulativeIntegral(nodes=nodes, values=values, panels=panels, evaluations=evaluations,
                              max_depth=max_depth,
                              worst_error_fraction=float(fraction[worst]))
