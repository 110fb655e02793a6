"""scipy's QUADPACK behind the library's quadrature interface: the tests'
independent reference.

The library integrates with one numpy adaptive Gauss-Kronrod routine
(``calculus.integrate``: running integrals from 0 to many nodes in one
pass).  :func:`integrate` below is the route it replaced: one definite
integral over [lower, upper] at the relative tolerance of ``settings``
(``epsabs=0``, as the library has no absolute tolerance), split into
subintervals at the breakpoints and handed to ``scipy.integrate.quad``,
whose ``qagse`` has epsilon extrapolation.
``fn`` receives one float at a time here.  Tests that stand for an
independent quadrature compare the library with this, never with the
library itself.
"""

from scipy import integrate as _sp_integrate

from ibodies.calculus import DEFAULT_SETTINGS, Settings
from ibodies.errors import NoConvergence


def integrate(fn, lower: float, upper: float, breakpoints=(),
              settings: Settings = DEFAULT_SETTINGS) -> float:
    """Evaluate the integral, raising NoConvergence if the error target fails.

    Breakpoints outside (lower, upper) are ignored.  Subintervals are
    integrated left to right and summed in that fixed order, so results are
    bit-reproducible for given arguments.
    """
    edges = [lower, *sorted(b for b in breakpoints if lower < b < upper), upper]
    rel_tol = settings.rel_tol
    total = 0.0
    err_budget = 0.0
    for a, b in zip(edges, edges[1:]):
        out = _sp_integrate.quad(fn, a, b, full_output=1,
                                 epsabs=0.0, epsrel=rel_tol,
                                 limit=200)
        val, abserr = out[0], out[1]
        if len(out) == 4:  # scipy attached a warning message
            tol = 10.0 * rel_tol * abs(val)
            if abserr > tol:
                raise NoConvergence(
                    f"quadrature on [{a}, {b}] did not converge: "
                    f"estimate {val}, error {abserr}: {out[3].splitlines()[0]}"
                )
        total += val
        err_budget += abserr
    tol = 10.0 * rel_tol * abs(total)
    if err_budget > tol:
        raise NoConvergence(
            f"accumulated quadrature error {err_budget} exceeds tolerance {tol}"
        )
    return total
