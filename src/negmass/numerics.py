"""Shared numerical kernels: quadrature, bracketed Newton, limit extraction.

Everything here is deterministic and dependency-light.  Checked
quadrature has one accept/halve loop, ``checked_panels``, which builds
each spherical profile's table of 4 pi/A and, with its own acceptance
test, lays the IMCF scan for where the flow stops; ``_power_tail``
closes the table at both ends.  Both mass limits, ADM (h = 1/r) and
central (h = r), run on ``ladder_limit``: four samples a factor 2 apart,
one rule for settled, steady and divergent ladders, and an error
otherwise.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonConvergenceError, NumericalError


def _floats(*vals):
    """vals as Python floats when the first is 0-d, else unchanged.

    Array kernels return values shaped like their argument, so this turns
    a float argument's results back into floats.
    """
    return tuple(map(float, vals)) if np.ndim(vals[0]) == 0 else vals


def _newton(fun, x, lo, hi):
    """Elementwise root of an increasing fun on arrays, bracketed by 0 < lo <= x <= hi.

    fun(x) returns (value, slope).  A Newton step that leaves the bracket
    is replaced by bisection.  Stops once every step s is below 1e-9 of x
    and either below 1e-4 of the step before it or at rounding level
    (1e-15 x).  Quadratic convergence leaves an error of about
    s^3 / s_prev^2 <= 1e-8 s; a bare 1e-9 x test would leave s^2 / w on a
    feature of width w, short of rounding level when w is narrow.  A step back to
    the iterate before, rounding's hop between two floats at the root, stops too.
    """
    prev, back = 0.0, np.nan
    for _ in range(60):
        val, slope = fun(x)
        lo = np.where(val < 0.0, x, lo)
        hi = np.where(val > 0.0, x, hi)
        new = x - val / slope
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        step = np.abs(new - x)
        done = (step <= 1e-4 * prev) | (step <= 1e-15 * new) | (new == back)
        if ((step <= 1e-9 * new) & done).all():
            return new
        x, prev, back = new, step, x
    raise NonConvergenceError("safeguarded Newton iteration did not converge")


@functools.cache
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached by order."""
    return leggauss(n)


def gauss_panel(f, lo, hi, n: int):
    """Order-n Gauss quadrature of a vectorized integrand on [lo, hi].

    Float ends give one panel and a float.  (P, 1) arrays of ends give P
    panels from one call of f on a (P, n) array, and their P sums.
    """
    x, w = gauss_nodes(n)
    half = 0.5 * (hi - lo)
    return _floats(np.sum(half * w * f(0.5 * (hi + lo) + half * x), axis=-1))[0]


def _power_tail(u, g) -> float:
    """int_0^u0 of the power g = c u^-q through (u0, g0) and (u1, g1): g0 u0 / (1 - q).

    Closes a radial integral between its singular end u = 0 and its last
    panel edge u0.  Returns +-inf once q >= 1 - 1e-6 (divergence), and
    raises NumericalError unless g0 and g1 are finite and of one sign.
    """
    g0, g1 = map(float, g)
    if g0 == 0.0:
        return 0.0
    if not (math.isfinite(g0) and math.isfinite(g1) and g0 * g1 > 0.0):
        raise NumericalError(f"end values {g0!r}, {g1!r} fit no power law")
    q = math.log(g0 / g1) / math.log(u[1] / u[0])
    if q >= 1.0 - 1e-6:
        return math.copysign(math.inf, g0)
    return g0 * float(u[0]) / (1.0 - q)


TAIL_TOL = 1e-13  # relative agreement required of the two Gauss orders


def checked_panels(h, lo, hi, accept=None):
    """Panels covering [lo[i], hi[i]], halved until accepted: by default once Gauss
    orders 24 and 48 of h agree to TAIL_TOL of their value (which resolves kinks).
    One call of h per round takes a (P, 72) array, the nodes of order 24 then 48,
    and returns values with the nodes on the last axis; every leading component is
    summed.  accept(lo, hi, g, fine, coarse) replaces the default test, given the
    (P,) edges, the values and the sums of orders 48 and 24; h then also takes the
    edges lo and hi as columns 72 and 73.  Returns the accepted panels in order:
    lo, hi and h at the order-24 nodes.  NonConvergenceError past 4096 panels in a
    round, or for a panel too narrow to halve.
    """
    (x, w), (x2, w2) = gauss_nodes(24), gauss_nodes(48)
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    done = []
    while lo.size:
        if lo.size > 4096:
            raise NonConvergenceError("4096 panels fail their check", lo[:8, 0])
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        nodes = mid + half * np.hstack((x, x2))
        g = h(nodes if accept is None else np.hstack((nodes, lo, hi)))
        fine = np.sum(half * w2 * g[..., 24:72], axis=-1)
        coarse = np.sum(half * w * g[..., :24], axis=-1)
        ok = (accept(lo[:, 0], hi[:, 0], g, fine, coarse) if accept else
              np.abs(fine - coarse) <= TAIL_TOL * np.abs(fine))
        done.append((lo[ok, 0], hi[ok, 0], g[..., ok, :24]))
        lo, hi = np.vstack((lo[~ok], mid[~ok])), np.vstack((mid[~ok], hi[~ok]))
        if (lo >= hi).any():
            raise NonConvergenceError(f"no check passes at {lo[lo >= hi][0]}, too narrow to halve")
    lo, hi, g = zip(*done)
    lo, hi, g = np.concatenate(lo), np.concatenate(hi), np.concatenate(g, axis=-2)
    order = np.argsort(lo)
    return lo[order], hi[order], g[..., order, :]


def dyadic_gauss(f, lo: float, hi: float, inner: float) -> float:
    """Integrate a vectorized integrand whose sharp features hug both endpoints.

    Panels shrink geometrically toward lo and hi until their width falls
    below ``inner``; each panel gets Gauss quadrature of order 24.  The
    result is accepted once doubling the order moves it by less than
    1e-8 relatively, else the order is escalated once more.
    """
    n, rel_tol = 24, 1e-8
    if not hi > lo:
        raise NumericalError("dyadic_gauss: empty interval")
    mid = 0.5 * (lo + hi)
    edges = [mid]
    w = 0.5 * (hi - lo)
    while w > inner and len(edges) < 200:
        w *= 0.5
        edges.append(hi - w)
    edges.append(hi)
    right = list(zip(edges[:-1], edges[1:]))
    left = [(lo + hi - b, lo + hi - a) for (a, b) in right]

    def total(order):
        return sum(gauss_panel(f, a, b, order) for a, b in left + right)

    coarse = total(n)
    fine = total(2 * n)
    if abs(fine - coarse) > rel_tol * max(abs(fine), 1e-300):
        finest = total(4 * n)
        if abs(finest - fine) > rel_tol * max(abs(finest), 1e-300):
            raise NumericalError("dyadic_gauss: quadrature did not settle")
        return finest
    return fine


def ladder_limit(values, floor: float, order: int | None = None) -> float:
    """Limit as h -> 0 of a ladder f(h), f(h/2), f(h/4), f(h/8).

    Settled: every step is within ``floor``, and no verdict is given.
    Steady: the steps keep one sign, their two ratios rho agree to
    0.1 |1 - rho|, and rho is 2^-order to that tolerance for a known
    order; for an unknown one, the second differences exceed 1e3 floor,
    so that rho is told apart from 1.  Any other ladder raises
    NonConvergenceError with the samples attached.  A steady rho > 1
    diverges: +-inf with the sign of the steps.  Otherwise the orders
    1, 2 and 3 are eliminated (Richardson), or for an unknown order up
    to two rounds at the order read from the last three samples, each
    stopping once their steps are within ``floor`` or do not contract.
    """
    v = [float(x) for x in values]
    d = [b - a for a, b in zip(v, v[1:])]
    if not all(abs(s) <= floor for s in d):  # a NaN step is not settled
        steady = all(s * d[0] > 0.0 for s in d)
        if steady:
            rho0, rho = d[1] / d[0], d[2] / d[1]
            tol = 0.1 * abs(1.0 - rho)
            steady = abs(rho0 - rho) <= tol and (
                abs(rho - 2.0 ** -order) <= tol if order else
                min(abs(d[1] - d[0]), abs(d[2] - d[1])) > 1e3 * floor)
        if not steady:
            raise NonConvergenceError("ladder limit is not steady", samples=v)
        if rho > 1.0:
            return math.copysign(math.inf, d[0])
    for k in (1, 2, 3) if order else (None, None):
        if k is None:
            d0, d1 = v[-2] - v[-3], v[-1] - v[-2]
            if max(abs(d0), abs(d1)) <= floor or d0 * d1 <= 0.0 or abs(d1) >= abs(d0):
                break
            k = -math.log2(d1 / d0)
        fac = 2.0 ** k
        v = [(fac * v[i + 1] - v[i]) / (fac - 1.0) for i in range(len(v) - 1)]
    return v[-1]
