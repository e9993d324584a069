"""Shared numerical kernels: quadrature, bracketed Newton, limit extraction.

Everything here is deterministic and dependency-light.  Radial integrals
into a singular end all run on ``end_integral``: the capacity tail in
u = 1/r and its head in r.
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
    feature of width w, short of rounding level when w is narrow.
    """
    prev = 0.0
    for _ in range(60):
        val, slope = fun(x)
        lo = np.where(val < 0.0, x, lo)
        hi = np.where(val > 0.0, x, hi)
        new = x - val / slope
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        step = np.abs(new - x)
        if ((step <= 1e-9 * new) & ((step <= 1e-4 * prev) | (step <= 1e-15 * new))).all():
            return new
        x, prev = new, step
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


TAIL_TOL = 1e-10  # relative agreement required of the two Gauss orders
_END_ORDER = 24


def end_integral(h, b: float, stop: float = 0.0) -> float:
    """int_0^b h(u) du for a vectorized h that may be singular at u = 0.

    Octave panels [b 2^-k-1, b 2^-k] shrink toward 0 down to 2^-40 min(1, b),
    or to ``stop`` (the least u where h is defined) if larger.  Each gets
    Gauss orders n and 2n, one call of h per order for all panels, and is
    halved while they differ by more than TAIL_TOL times the larger of its
    width's share of the total and its own value, which resolves kinks.
    ``_power_tail`` closes the sliver below: exact for h ~ u^-q, +-inf for
    q >= 1 - 1e-6.  Raises NonConvergenceError past 4096 panels.
    """
    far = max(2.0 ** -40 * min(1.0, b), stop)
    octaves = math.floor(math.log2(b / far))
    if octaves < 1:
        raise NumericalError("end integral needs b >= 2 stop")
    edges = b * 2.0 ** -np.arange(octaves + 1.0)
    lo, hi = edges[1:, None], edges[:-1, None]

    total, scale = 0.0, None
    while lo.size:
        if lo.size > 4096:
            raise NonConvergenceError("end integral: Gauss orders disagree",
                                      samples=[total, scale])
        coarse, fine = (gauss_panel(h, lo, hi, n) for n in (_END_ORDER, 2 * _END_ORDER))
        if scale is None:
            scale = abs(float(fine.sum()))
        bad = np.abs(fine - coarse) > TAIL_TOL * np.maximum(scale * (hi - lo)[:, 0] / b,
                                                            np.abs(fine))
        total += float(fine[~bad].sum())
        mid = 0.5 * (lo[bad] + hi[bad])
        lo, hi = np.vstack((lo[bad], mid)), np.vstack((mid, hi[bad]))
    u = edges[:-3:-1]
    return total + _power_tail(u, h(u))


def tail_integral(f, a: float) -> float:
    """Improper integral of f over [a, inf): ``end_integral`` in u = 1/r.

    The last edge is r = 2^40 for every a <= 1, far enough out that a log
    term such as the chart's m log R no longer biases the closing power fit.
    """
    if a <= 0.0:
        raise NumericalError("tail integral needs a positive lower limit")
    return end_integral(lambda u: f(1.0 / u) / (u * u), 1.0 / a)


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


def richardson_decay(values):
    """Extrapolate f(R), f(2R), f(4R), f(8R) to R -> inf.

    Assumes an expansion f = L + a/R + b/R^2 + c/R^3 and eliminates the
    three correction orders in turn.  Raises if the table does not
    contract (non-decaying tail).
    """
    t = [list(values)]
    for order in (1, 2, 3):
        fac = 2.0 ** order
        prev = t[-1]
        t.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                  for i in range(len(prev) - 1)])
    limit = t[-1][0]
    spread = abs(t[-2][1] - t[-2][0])
    base = max(abs(values[-1] - values[0]), 1e-30)
    if spread > 0.5 * base + 1e-9 * max(1.0, abs(limit)):
        raise NonConvergenceError(
            "limit extrapolation did not contract", samples=values)
    return limit


def limit_smallstep(values):
    """Extrapolate f(eps), f(eps/2), f(eps/4), f(eps/8) to eps -> 0 (for regular_mass).

    The leading correction exponent is unknown (profiles often carry
    fractional powers), so it is estimated from successive difference
    ratios before each elimination round.  Returns +/-inf when the
    samples run away: either growing by more than a factor 2 step over
    step, or with non-shrinking differences of one sign (slow power-law
    divergence).
    """
    v = [float(x) for x in values]
    diffs = [v[i + 1] - v[i] for i in range(len(v) - 1)]
    if all(d == 0.0 for d in diffs):
        return v[-1]

    growth = [abs(v[i + 1]) > 2.0 * abs(v[i]) for i in range(len(v) - 1)]
    slow = (all(abs(diffs[i + 1]) >= 0.95 * abs(diffs[i])
                for i in range(len(diffs) - 1))
            and all(d * diffs[-1] > 0 for d in diffs)
            and abs(diffs[-1]) > 1e-12 * max(1.0, abs(v[-1])))
    if all(growth) or slow:
        return math.inf if v[-1] > v[0] else -math.inf

    osc = sum(1 for i in range(len(diffs) - 1) if diffs[i] * diffs[i + 1] < 0)
    if osc >= 2 and abs(diffs[-1]) > 1e-10 * max(1.0, abs(v[-1])):
        raise NonConvergenceError("oscillatory non-convergence", samples=values)

    for _ in range(2):
        if len(v) < 3:
            break
        d0 = v[-2] - v[-3]
        d1 = v[-1] - v[-2]
        if d1 == 0.0 or d0 == 0.0:
            v = v[1:]
            continue
        ratio = d1 / d0
        if not 0.0 < ratio < 0.95:
            # difference ratio not contracting: take the finest sample
            v = v[1:]
            continue
        q = -math.log2(ratio)
        fac = 2.0 ** q
        v = [(fac * v[i + 1] - v[i]) / (fac - 1.0) for i in range(len(v) - 1)]
    return v[-1]
