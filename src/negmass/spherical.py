"""Spherically symmetric geometry: curvature, masses, capacity, classification.

A spherically symmetric 3-metric is encoded by its area function,

    ds^2 = dr^2 + (A(r) / 4 pi) dS^2,

with r the arclength from the center (or singularity).  Everything the
module computes is a functional of A and its first two derivatives:

    scalar curvature   R   = (16 pi A + A'^2 - 4 A A'') / (2 A^2)
    Hawking mass       m_H = sqrt(A / 16 pi) (1 - A'^2 / (16 pi A))
    mass at the center m_R = -lim_{r->0} A'^2 / (64 pi^{3/2} sqrt(A))
    capacity function  f(r) = 4 pi int_r^inf ds / A(s),  C(S_r) = 1/f(r)

Every profile implements one method, ``eval(r)``.  It takes a float or
an array of radii and returns the triple (A, A', A''): floats for a
float, arrays shaped like r otherwise.

    A, dA, d2A = profile.eval(np.geomspace(1e-3, 1e3, 200))

A synthetic metric is one array callable of the same shape,
``CustomProfile(fn, r_min, r_max)``: fn(r) takes an array of radii and
returns (A, A', A''), each broadcastable to the shape of r.

    flat = CustomProfile(lambda r: (4 * np.pi * r * r, 8 * np.pi * r, 8 * np.pi))

``area``, ``d_area`` and ``d2_area`` are one-line accessors on the base
class.  The pointwise functionals make one ``eval`` call and accept
arrays as well.  The ADM mass is the large-r limit of the
coordinate-sphere Hawking masses, and the central mass the small-r limit
of the mass integrand; both are ``numerics.ladder_limit`` of four radii.
Capacities read one checked table of 4 pi/A per profile, memoized on use.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legint, legvander

from .errors import DomainError, NonConvergenceError, NumericalError, ValidationError
from .numerics import (_floats, _newton, _power_tail, checked_panels, gauss_nodes,
                       ladder_limit)
from .tableio import read_csv

FOUR_PI = 4.0 * math.pi
MINUS_INFINITY = -math.inf


class RadialProfile:
    """Area function A(r) with two derivatives on an open radial domain."""

    kind = "abstract"

    def __init__(self, r_min: float, r_max: float):
        self.r_min = float(r_min)
        self.r_max = float(r_max)

    def eval(self, r):
        """(A, A', A'') at r: floats for a float r, arrays shaped like r otherwise."""
        raise NotImplementedError

    @property
    def inner_edge(self) -> float:
        """Smallest radius ``eval`` accepts: r_min, or a table's first edge."""
        return self.r_min

    @functools.cached_property
    def _inv_area(self) -> "_PanelTable":
        """Checked table of 4 pi/A anchored at its top, built on first use."""
        with np.errstate(all="ignore"):  # the table checks each value; A may underflow to 0
            return _PanelTable(lambda r: FOUR_PI / self.area(r), self.r_min, checked=True)

    def area(self, r):
        return self.eval(r)[0]

    def d_area(self, r):
        return self.eval(r)[1]

    def d2_area(self, r):
        return self.eval(r)[2]

    def _check(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        bad = ~((self.r_min < r) & (r < self.r_max))
        if bad.any():
            raise DomainError(f"r = {r[bad].flat[0]} outside the open domain "
                              f"({self.r_min}, {self.r_max})")
        return r

    def __repr__(self):
        return f"<{type(self).__name__} on ({self.r_min}, {self.r_max})>"


class FlatProfile(RadialProfile):
    """Euclidean space: A(r) = 4 pi r^2."""

    kind = "flat"

    def __init__(self):
        super().__init__(0.0, math.inf)

    def eval(self, r):
        r = self._check(r)
        return _floats(FOUR_PI * r * r, 2.0 * FOUR_PI * r, np.full_like(r, 2.0 * FOUR_PI))


# s/R0 = sum_j 4 (2j/(2j+1)) w^(2j+1) for m < 0: the first 12 terms, in w^2
_NEG_SERIES = np.array([0.0] + [2.0 * j / (2.0 * j + 1.0) for j in range(1, 13)])


def _chart_arclength(m: float, x: np.ndarray) -> np.ndarray:
    """Arclength over R0 of the conformal Schwarzschild chart at x = (R - R0)/R0.

    s/R0 = x + x/(1+x) + 2 sign(m) log(1+x).  For m < 0 the terms cancel
    to x^3/3 near the singularity, so below x = 1/2 the same function is
    summed as 4 (w/(1-w^2) - atanh w), w = x/(2+x), whose series in w
    has positive terms only.
    """
    if m > 0:
        return x + x / (1.0 + x) + 2.0 * np.log1p(x)
    w = x / (2.0 + x)
    w2 = w * w
    series = _NEG_SERIES[-1]
    for c in _NEG_SERIES[-2::-1]:
        series = series * w2 + c
    return np.where(x < 0.5, 4.0 * w * series,
                    x + x / (1.0 + x) - 2.0 * np.log1p(x))


def _chart_offset(m: float, rho: np.ndarray) -> np.ndarray:
    """x = (R - R0)/R0 of the sphere at arclength r = rho R0, R0 = |m|/2.

    The brackets: for m < 0, x^3/3 >= s/R0 and x - 2 sqrt(x) <= s/R0 <= x;
    for m > 0, x <= s/R0 <= 4x.
    """
    if m < 0:
        y = np.cbrt(3.0 * rho)
        lo = np.maximum(y, rho)
        hi = (1.0 + np.sqrt(1.0 + rho)) ** 2
        # s/R0 = x^3/3 - x^4/2 + ... near 0 and x + 1 - 2 log x + ... far out
        start = np.clip(np.maximum(y + 0.5 * y * y, rho - 1.0 + 2.0 * np.log1p(rho)), lo, hi)
    else:
        lo, hi = 0.25 * rho, rho
        start = lo

    def residual(x):
        phi = (x if m < 0 else x + 2.0) / (1.0 + x)
        return _chart_arclength(m, x) - rho, phi * phi

    return _newton(residual, start, lo, hi)


class ConformalSchwarzschildProfile(RadialProfile):
    """Conformally flat slice g = (1 + m/2R)^4 delta, either mass sign.

    The conformal chart runs over R in (R0, inf), R0 = |m|/2: for m < 0
    the lower end is the point singularity, for m > 0 the horizon.  The
    arclength from that end has the closed antiderivative

        s(R) = (R - R0) + m log(R/R0) + (m^2/4)(1/R0 - 1/R),

    inverted for all radii at once by safeguarded Newton in
    x = (R - R0)/R0, so that R - R0 keeps its relative accuracy down to
    the singularity.  With phi = 1 + m/2R, which is R0 x/R for m < 0 and
    R0 (x + 2)/R for m > 0, the area and its derivatives are exact in
    the chart variable:

        A   = 4 pi R^2 phi^4
        A'  = 8 pi phi (R - m/2) = 8 pi R0^2 x (x + 2) / R
        A'' = 8 pi (1 + m^2/(4R^2)) / phi^2.

    Coordinate spheres have Hawking mass identically m, and the radial
    capacity function is exactly 1/(R + m/2).
    """

    kind = "conformal-schwarzschild"

    def __init__(self, m: float):
        if m == 0.0 or not math.isfinite(m):
            raise ValidationError("conformal-schwarzschild needs a nonzero finite mass")
        super().__init__(0.0, math.inf)
        self.m = float(m)
        self.chart_min = 0.5 * abs(self.m)

    def eval(self, r):
        r = self._check(r)
        R0 = self.chart_min
        x = _chart_offset(self.m, r / R0)
        R = R0 * (1.0 + x)
        phi = (x if self.m < 0 else x + 2.0) / (1.0 + x)
        return _floats(FOUR_PI * R * R * phi ** 4,
                     2.0 * FOUR_PI * R0 * x * (x + 2.0) / (1.0 + x),
                     2.0 * FOUR_PI * (1.0 + (R0 / R) ** 2) / (phi * phi))

    def capacity_exact(self, r: float) -> float:
        """Closed-form capacity R + m/2 of the sphere at arclength r (test oracle)."""
        x = _chart_offset(self.m, self._check(r) / self.chart_min)
        return float(self.chart_min * (x if self.m < 0 else x + 2.0))


class PowerLawProfile(RadialProfile):
    """Singular profile with A(r) = k r^p exactly near the center.

    Past the radius where k r^p crosses 4 pi r^2 the area blends over
    one octave (C^2 smoothstep) into exactly flat 4 pi r^2, so that tail
    integrals converge and sphere capacities are defined.  The blend keeps
    A' > 0 only for p below about 3.603, whatever k; past that, A' < 0
    inside it makes a spurious horizon.
    """

    kind = "power-law"

    def __init__(self, k: float, p: float):
        if not (k > 0.0 and p > 0.0 and math.isfinite(k) and math.isfinite(p)):
            raise ValidationError("power-law profile needs finite k > 0 and p > 0")
        super().__init__(0.0, math.inf)
        self.k = float(k)
        self.p = float(p)
        self.r_glue = 1.0
        if p != 2.0:
            # (k / 4 pi)^(1/(2 - p)) under- or overflows as p -> 2: checked in logs
            if not abs(math.log2(self.k) - math.log2(FOUR_PI)) <= 500.0 * abs(2.0 - self.p):
                raise DomainError(f"glue radius outside [2^-500, 2^500]: k = {k}, p = {p}")
            self.r_glue = (self.k / FOUR_PI) ** (1.0 / (2.0 - self.p))

    def eval(self, r):
        r = self._check(r)
        k, p, g = self.k, self.p, self.r_glue
        t = np.clip(r / g - 1.0, 0.0, 1.0)
        w, dw, d2w = (t ** 3 * (10.0 + t * (-15.0 + 6.0 * t)),
                      30.0 * t * t * (1.0 - t) ** 2 / g,
                      60.0 * t * (1.0 - 3.0 * t + 2.0 * t * t) / g ** 2)
        head = np.array([k * r ** p, k * p * r ** (p - 1.0),
                         k * p * (p - 1.0) * r ** (p - 2.0)])
        flat = np.array([FOUR_PI * r * r, 2.0 * FOUR_PI * r, np.full_like(r, 2.0 * FOUR_PI)])
        # (1 - w) head + w flat, not head + w (flat - head), which cancels where head >> flat
        d0, d1, _ = flat - head
        blend = (1.0 - t) ** 3 * (1.0 + 3.0 * t + 6.0 * t * t) * head + w * flat
        blend[1:] += [dw * d0, d2w * d0 + 2.0 * dw * d1]
        A, dA, d2A = np.where(r <= g, head, np.where(r >= 2.0 * g, flat, blend))
        return _floats(A, dA, d2A)


class CustomProfile(RadialProfile):
    """Profile from one array callable fn(r) -> (A, A', A''), as in the
    module docstring (synthetic test metrics)."""

    kind = "custom"

    def __init__(self, fn, r_min=0.0, r_max=math.inf):
        super().__init__(r_min, r_max)
        self._fn = fn

    def eval(self, r):
        r = self._check(r)
        return _floats(*(np.broadcast_to(v, r.shape).astype(float) for v in self._fn(r)))


def bump_profile() -> CustomProfile:
    """Asymptotically flat profile A = 4 pi r^2 (1 + 0.3 e^{-(r-5)^2}).

    Its scalar curvature dips negative on the inner flank of the bump;
    this is the stock counterexample for R >= 0 hypotheses.
    """

    def fn(r):
        u = r - 5.0
        e = np.exp(-u * u)
        B, dB, d2B = 1.0 + 0.3 * e, -0.6 * u * e, 0.3 * (4.0 * u * u - 2.0) * e
        return (FOUR_PI * r * r * B, FOUR_PI * (2.0 * r * B + r * r * dB),
                FOUR_PI * (2.0 * B + 4.0 * r * dB + r * r * d2B))

    return CustomProfile(fn)


def _not_a_knot(x: np.ndarray, y: np.ndarray):
    """Per-interval coefficients (y, s, c2, c3) of the not-a-knot cubic spline
    through (x, y), x.size >= 4: y + s t + c2 t^2 + c3 t^3, t = r - x[i].

    C^2 continuity at the interior knots, and a continuous third
    derivative at the second and the next-to-last knot, make a
    tridiagonal system for the knot slopes s (de Boor, A Practical Guide
    to Splines, 1978, ch. IV).  One Thomas sweep solves it without
    pivoting: every pivot stays positive, and each interior one is at
    least the sum of its two intervals.
    """
    h = np.diff(x)
    d = np.diff(y) / h
    w0, w1 = h[0] + h[1], h[-2] + h[-1]
    # row i: sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i]
    sub = [0.0, *h[1:], w1]
    diag = [h[1], *(2.0 * (h[:-1] + h[1:])), h[-2]]
    sup = [w0, *h[:-1], 0.0]
    rhs = [((h[0] + 2.0 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0,
           *(3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])),
           (h[-1] ** 2 * d[-2] + (2.0 * w1 + h[-1]) * h[-2] * d[-1]) / w1]
    n = len(rhs)
    for i in range(1, n):
        f = sub[i] / diag[i - 1]
        diag[i] -= f * sup[i - 1]
        rhs[i] -= f * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i]
    s = np.array(rhs)
    k = (s[:-1] + s[1:] - 2.0 * d) / h
    return y[:-1], s[:-1], (d - s[:-1]) / h - k, k / h


class TabulatedProfile(RadialProfile):
    """C^2 not-a-knot cubic-spline profile through (r, A) samples.

    Requires strictly increasing r, positive finite A, at least 8
    samples per decade adjacent to each endpoint, and monotone
    interpolated A near the endpoints.
    """

    kind = "tabulated"

    def __init__(self, rs, As):
        rs = np.asarray(rs, dtype=float)
        As = np.asarray(As, dtype=float)
        if rs.ndim != 1 or rs.size < 4 or As.shape != rs.shape:
            raise ValidationError("tabulated profile needs matching 1-d samples (>= 4)")
        if not (np.all(np.isfinite(rs)) and np.all(np.isfinite(As))):
            raise ValidationError("tabulated profile rejects NaN/inf samples")
        if not np.all(np.diff(rs) > 0):
            raise ValidationError("tabulated profile needs strictly increasing r")
        if np.any(As <= 0):
            raise ValidationError("tabulated areas must be positive")
        for edge in (rs[:9], rs[-9:]):
            if edge.size >= 2 and edge[0] > 0:
                span = math.log10(edge[-1] / edge[0])
                if span > (edge.size - 1) / 8.0 + 1e-12:
                    raise ValidationError(
                        "need >= 8 samples per decade near the endpoints")
        super().__init__(rs[0], rs[-1])
        self._knots = rs
        self._coef = _not_a_knot(rs, As)
        for lo, hi in ((rs[0], rs[min(8, rs.size - 1)]),
                       (rs[max(-9, -rs.size)], rs[-1])):
            if np.any(self._cubic(np.linspace(lo, hi, 33))[1] < 0):
                raise ValidationError("interpolated A must be monotone near endpoints")

    def _cubic(self, r: np.ndarray):
        """(A, A', A'') of the spline piece holding each r (end pieces extend)."""
        i = np.clip(np.searchsorted(self._knots, r, side="right") - 1,
                    0, self._knots.size - 2)
        t = r - self._knots[i]
        y, s, c2, c3 = (c[i] for c in self._coef)
        return (((c3 * t + c2) * t + s) * t + y,
                (3.0 * c3 * t + 2.0 * c2) * t + s,
                6.0 * c3 * t + 2.0 * c2)

    def eval(self, r):
        r = self._check(r)
        return _floats(*self._cubic(r))


def parse_profile_file(path) -> TabulatedProfile:
    """Strict reader for the tabulated format: header 'r,A', then rows of two
    finite numbers with ascending r, parsed by ``tableio.read_csv``."""
    header, rows = read_csv(path)
    if header != ["r", "A"]:
        raise ValidationError(f"expected header 'r,A', got {','.join(header)!r}")
    for i, row in enumerate(rows, start=1):
        if not (len(row) == 2 and all(isinstance(c, float) and math.isfinite(c) for c in row)):
            cells = ",".join("NA" if c is None else str(c) for c in row)
            raise ValidationError(f"row {i}: expected two finite numbers, got {cells!r}")
    return TabulatedProfile([r for r, _ in rows], [a for _, a in rows])


# ---------------------------------------------------------------------------
# pointwise functionals


def scalar_curvature(profile: RadialProfile, r):
    """R = (16 pi A + A'^2 - 4 A A'') / (2 A^2)."""
    A, Ap, App = profile.eval(r)
    return (16.0 * math.pi * A + Ap * Ap - 4.0 * A * App) / (2.0 * A * A)


def _hawking(A, Ap):
    """m_H = sqrt(A / 16 pi) (1 - A'^2 / (16 pi A)): a float for a float A."""
    return _floats(np.sqrt(A / (16.0 * math.pi)) * (1.0 - Ap * Ap / (16.0 * math.pi * A)))[0]


def hawking_mass_sphere(profile: RadialProfile, r):
    """Hawking mass m_H(S_r) of the coordinate sphere at r."""
    return _hawking(*profile.eval(r)[:2])


# ---------------------------------------------------------------------------
# limits: ADM mass and the mass of the central singularity


def adm_mass(profile: RadialProfile, r0: float = 1e3) -> float:
    """ADM mass: ``ladder_limit`` of m_H over r in {r0, 2r0, 4r0, 8r0}, order 1.

    Raises NonConvergenceError when the Hawking masses do not settle as
    m + a/r + ... (the tail is not asymptotically flat).
    """
    rs = r0 * 2.0 ** np.arange(4)
    if rs[-1] >= profile.r_max:
        raise DomainError("extrapolation radii exceed the profile domain")
    vals = hawking_mass_sphere(profile, rs).tolist()
    # m_H(r) cancels to O(m/r) inside sqrt(A/16 pi) ~ r/2, so it carries
    # rounding noise ~ eps r; differences below that do not show a tail
    noise = max(1e-12 * max(1.0, max(abs(v) for v in vals)),
                16.0 * np.finfo(float).eps * rs[-1])
    return ladder_limit(vals, noise, order=1)


def _stays_off_zero(v) -> bool:
    """A ladder settles or extrapolates to more than half its least |sample|."""
    try:
        return abs(ladder_limit(v, 1e-12 * np.abs(v).max())) > 0.5 * np.abs(v).min()
    except NonConvergenceError:
        return False


def regular_mass(profile: RadialProfile) -> float:
    """Mass of the central singularity: lim_{r->0} of -A'^2 / (64 pi^{3/2} sqrt(A)).

    ``ladder_limit`` of that integrand at r = h, h/2, h/4, h/8 from h = max(1e-6,
    8 ``inner_edge``), doubled (at most 20 times, else NumericalError) until A(h/8)
    is a normal float, as the integrand would be 0/0 where A underflows.
    Divergence returns the -inf marker.  A ladder that is not steady (say, one
    straddling a profile's blend) moves down by 2^-4, at most ten times and never
    below ``inner_edge`` or where A underflows; then NonConvergenceError is raised.
    DomainError where the areas and A' both stay off 0: a boundary sphere, not a
    zero area singularity (a horizon, A' -> 0, keeps its limit 0).  The integrand is
    never positive, so a limit extrapolated above 0 (error around 0) returns 0.
    """
    if profile.r_min != 0.0:
        raise DomainError("regular mass needs the singular end at r = 0")
    h = max(1e-6, 8.0 * profile.inner_edge)
    rises = 0
    while profile.area(h / 8.0) < sys.float_info.min:
        if rises == 20:
            raise NumericalError(f"areas underflow on the central ladder up to r = {h / 8.0:.3g}")
        h, rises = 2.0 * h, rises + 1
    for moves in range(11):
        A, Ap, _ = profile.eval(h / 2.0 ** np.arange(4))
        if _stays_off_zero(A) and _stays_off_zero(Ap):
            raise DomainError(f"nonzero area at r = 0 ({A[-1]:.6g}): not a zero area singularity")
        vals = (-(Ap * Ap) / (64.0 * math.pi ** 1.5 * np.sqrt(A))).tolist()
        try:
            return min(ladder_limit(vals, 1e-12 * max(abs(v) for v in vals)), 0.0)
        except NonConvergenceError:
            h /= 16.0
            if (moves == 10 or h / 8.0 < profile.inner_edge
                    or profile.area(h / 8.0) < sys.float_info.min):
                raise


# ---------------------------------------------------------------------------
# capacity


def radial_capacity_function(profile: RadialProfile, r):
    """f(r) = 4 pi int_r^inf ds/A: the table's panels above r and its tail, or
    for a conformal profile f/phi of its base (d(f/phi)/dr = f'/phi^2).
    DomainError outside the table, NumericalError when f diverges."""
    if isinstance(profile, ConformalProfile):
        f = radial_capacity_function(profile.base, profile.old_radius(r))
        return f / (1.0 + profile.C * f)
    table = profile._inv_area
    if math.isinf(table.tail):
        raise NumericalError("the capacity function diverges: A grows no faster than r")
    return _floats(table.tail - table.integral(r))[0]


def radial_capacity(profile: RadialProfile, r0: float) -> float:
    """Capacity of the coordinate sphere at r0: f(r0)^{-1}."""
    return 1.0 / radial_capacity_function(profile, r0)


def capacity_center(profile: RadialProfile) -> float:
    """Capacity of the central point: 1/f(0), 0 when f(0) diverges at either end.

    f(0) sums the table of 4 pi/A and both its end tails; a conformal profile's
    1/f(0) is its base's plus C, or 0 where phi vanishes.  Raises DomainError
    unless the profile's inner end is r = 0.
    """
    if profile.r_min != 0.0:
        raise DomainError("central capacity needs the singular end at r = 0")
    if isinstance(profile, ConformalProfile):
        phi_vanishes = profile._arc.origin > profile.base.r_min
        return 0.0 if phi_vanishes else capacity_center(profile.base) + profile.C
    table = profile._inv_area
    return 1.0 / (table.head - float(table.F[0]) + table.tail)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class MassReport:
    """Mass structure summary.

    ``regular_mass`` may be the -inf marker; ``classification`` is one
    of 'zero-mass', 'finite-mass', 'minus-infinity'.  Positive central
    capacity forces (and is checked against) the minus-infinity class.
    """

    classification: str
    regular_mass: float
    capacity_center: float

    def __post_init__(self):
        if self.capacity_center > 0.0 and self.classification != "minus-infinity":
            raise ValidationError(
                "positive central capacity requires the minus-infinity class")


def classify_power_law(k: float, p: float) -> MassReport:
    """Classify the singularity of A ~ k r^p at the center.

    Central capacity is positive exactly when p < 1.  The central mass
    is -inf for p < 4/3, the finite value -k^{3/2}/(36 pi^{3/2}) at
    p = 4/3, and 0 for p > 4/3.
    """
    if not (k > 0.0 and p > 0.0):
        raise DomainError("need k > 0 and p > 0")
    profile = PowerLawProfile(k, p)
    cap = capacity_center(profile)
    if abs(p - 4.0 / 3.0) < 1e-12:
        return MassReport("finite-mass", -(k ** 1.5) / (36.0 * math.pi ** 1.5), cap)
    if p < 4.0 / 3.0:
        return MassReport("minus-infinity", MINUS_INFINITY, cap)
    return MassReport("zero-mass", 0.0, cap)


# ---------------------------------------------------------------------------
# harmonic conformal modification

def _bary_weights(x: np.ndarray) -> np.ndarray:
    d = x[:, None] - x
    np.fill_diagonal(d, 1.0)
    lam = 1.0 / d.prod(axis=1)
    return lam / np.abs(lam).max()


@functools.cache
def _panel_rule():
    """Gauss nodes and weights, running-integral nodes (-1 and the Gauss
    nodes), the matrix taking node values to the running integral from -1
    of their interpolant, and the barycentric weights of both node sets."""
    n = 24
    x, w = gauss_nodes(n)
    x1 = np.concatenate(([-1.0], x))
    # Legendre coefficients of the interpolant, by discrete orthogonality
    to_coef = (np.arange(n) + 0.5)[:, None] * legvander(x, n - 1).T * w
    spectral = np.einsum("ij,jk,kl->il", legvander(x, n),
                         legint(np.eye(n), lbnd=-1.0), to_coef)
    return x, w, x1, spectral, _bary_weights(x), _bary_weights(x1)


def _bary(nodes, lam, values, u):
    """Row i: the polynomial through (nodes, values[i]) at u[i] (barycentric form)."""
    c = u[:, None] - nodes
    rows, cols = np.nonzero(c == 0.0)
    c[rows, cols] = 1.0
    np.divide(lam, c, out=c)
    out = (c * values).sum(axis=1) / c.sum(axis=1)
    out[rows] = values[rows, cols]
    return out


class _PanelTable:
    """Running integral F(r) of a positive vectorized integrand on Gauss panels.

    Octaves [2^k, 2^(k+1)] of d = r - origin from 2^-64 (30 octaves below a
    positive origin) up to 2^64, halved by ``checked_panels`` if ``checked``,
    less bottom octaves where the integrand overflows.  ``_power_tail`` gives
    ``head`` below them (+inf if any were left out) and ``tail`` above, in
    u = 1/r.  F = 0 at the top edge, or where ``anchor`` puts it.  A panel
    keeps the integrand at its 24 Gauss nodes and the integral from its left
    edge to each, so F inside is barycentric interpolation (Berrut &
    Trefethen, SIAM Rev. 46, 2004); outside, ``integral`` and ``invert`` raise.
    """

    def __init__(self, integrand, origin: float, checked: bool = False):
        self.origin = origin
        k_lo = -64 if origin == 0.0 else min(-1, math.floor(math.log2(origin)) - 30)
        self.d_edges = d = 2.0 ** np.arange(k_lo, 65.0)
        x, w, _, spectral, _, _ = _panel_rule()
        h = lambda d: integrand(origin + d)
        ends, j = h(d), 0
        if checked:
            j = int(np.argmax(np.isfinite(ends * d)))  # panel sums of the rest stay finite
            lo, hi, self.g, _ = checked_panels(h, d[j:-1], d[j + 1:])
            self.d_edges = np.append(lo, hi[-1])
        else:
            self.g = h(0.5 * (d[1:] + d[:-1])[:, None] + 0.5 * np.diff(d)[:, None] * x)
        if not np.isfinite(self.g).all():
            raise NumericalError("integrand is not finite on the panel table")
        self.head = _power_tail(d[:2], ends[:2]) if j == 0 else math.inf
        r = origin + d[:-3:-1]
        self.tail = _power_tail(1.0 / r, r * r * ends[:-3:-1])
        half = 0.5 * np.diff(self.d_edges)[:, None]
        self.cum = np.hstack((np.zeros((len(self.g), 1)),
                              half * np.einsum("ij,kj->ik", self.g, spectral)))
        self.totals = (half * self.g * w).sum(axis=1)
        self.anchor(self.d_edges[-1])

    def anchor(self, d: float):
        """Set F = 0 at the edge d, summing panel totals outward from it."""
        j, t = int(np.searchsorted(self.d_edges, d)), self.totals
        self.F = np.concatenate((-np.cumsum(t[:j][::-1])[::-1], [0.0], np.cumsum(t[j:])))

    def _panel(self, edges, v):
        """Panel index and d-edges of each v, located among ``edges`` (d or F at the edges)."""
        if not ((v >= edges[0]) & (v <= edges[-1])).all():
            raise DomainError("outside the tabulated range")
        i = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, len(edges) - 2)
        return i, self.d_edges[i], self.d_edges[i + 1]

    def integral(self, r):
        d = np.ravel(r) - self.origin
        i, lo, hi = self._panel(self.d_edges, d)
        u = (2.0 * d - lo - hi) / (hi - lo)
        _, _, x1, _, _, lam1 = _panel_rule()
        return (self.F[i] + _bary(x1, lam1, self.cum[i], u)).reshape(np.shape(r))

    def invert(self, y):
        """r with F(r) = y, by safeguarded Newton on the panel interpolant."""
        flat = np.ravel(y)
        i, lo, hi = self._panel(self.F, flat)
        F0, cum, g = self.F[i], self.cum[i], self.g[i]
        x, _, x1, _, lam, lam1 = _panel_rule()

        def residual(d):
            u = (2.0 * d - lo - hi) / (hi - lo)
            return F0 + _bary(x1, lam1, cum, u) - flat, _bary(x, lam, g, u)

        start = lo + (hi - lo) * (flat - F0) / (self.F[i + 1] - F0)
        return (self.origin + _newton(residual, start, lo, hi)).reshape(np.shape(y))


class ConformalProfile(RadialProfile):
    """Base profile rescaled by the harmonic conformal factor phi = 1 + C f(r).

    f is the radial capacity function of the base, so phi is harmonic
    and asymptotically 1 + C/|x|.  The new metric phi^4 g has

        A_new = phi^4 A,      ds_new = phi^2 ds,
        A_new'  = phi^2 A' - 16 pi C phi,
        A_new'' = A'' - 8 pi C A' / (A phi) + 64 pi^2 C^2 / (A phi^2),

    derivatives taken in the new arclength (using f' = -4 pi / A).
    For C < 0, phi crosses zero at the unique radius with f = -1/C;
    the profile is restricted to the outside of that locus, which is
    exactly the conformal construction of a point singularity there
    (areas shrink to zero).

    f and the zero of phi come from the base's table of 4 pi/A, and the
    new arclength s_new = int phi^2 ds is one more panel table above the
    floor, built once.  s_new starts at the floor when int phi^2 ds
    converges there, and at base radius 1 (the domain then unbounded
    below) when it diverges.  The new capacity function is f/phi: a table
    of the new 4 pi/A would need phi = 1 + C f to better than its rounding
    error, about eps/phi, near a zero of phi.
    """

    kind = "conformal"

    def __init__(self, base: RadialProfile, C: float):
        if not math.isfinite(C):
            raise ValidationError("conformal strength must be finite")
        if not base.r_min >= 0.0:
            raise DomainError("conformal base must start at a radius >= 0")
        self.base, self.C = base, float(C)
        self._arc = arc = _PanelTable(lambda r: self._phi(r) ** 2, self._find_floor())
        diverges = math.isinf(arc.head)  # int phi^2 ds: then s_new = 0 at base radius 1
        arc.anchor(1.0 if diverges else arc.d_edges[0])
        self._s0 = 0.0 if diverges else -arc.head
        super().__init__(-math.inf if diverges else 0.0, math.inf)

    def _phi(self, r):
        return 1.0 + self.C * radial_capacity_function(self.base, r)

    def _find_floor(self) -> float:
        """phi's zero (f = -1/C; DomainError outside the base's table), else the base's r_min."""
        t = self.base._inv_area
        if self.C >= 0.0 or 1.0 + self.C * (t.head - t.F[0] + t.tail) > 0.0:
            return self.base.r_min
        return float(t.invert(t.tail + 1.0 / self.C))

    @property
    def inner_edge(self) -> float:
        """New arclength at the phi^2 table's first edge; ``eval`` raises below it."""
        return float(self._arc.F[0] - self._s0)

    def new_arclength(self, r):
        """s_new(r), the phi^2-weighted arclength, for a float or an array."""
        return _floats(self._arc.integral(r) - self._s0)[0]

    def old_radius(self, s_new):
        """Base radius r with new arclength s_new, for a float or an array."""
        return _floats(self._arc.invert(np.asarray(s_new, dtype=float) + self._s0))[0]

    def eval(self, s):
        s = self._check(s)
        r = np.asarray(self.old_radius(s))
        ph = self._phi(r)
        A, dA, d2A = self.base.eval(r)
        C = self.C
        return _floats(ph ** 4 * A, ph * ph * dA - 4.0 * FOUR_PI * C * ph,
                     d2A - 2.0 * FOUR_PI * C * dA / (A * ph)
                     + 4.0 * FOUR_PI * FOUR_PI * C * C / (A * ph * ph))


@dataclass(frozen=True)
class ConformalResult:
    """New profile plus the audit adm(new) - (adm(old) + 2C)."""

    profile: ConformalProfile
    adm_check: float


def apply_harmonic_conformal(profile: RadialProfile, C: float) -> ConformalResult:
    """Rescale by phi = 1 + C f(r) and audit the ADM mass shift.

    phi ~ 1 + C/|x| at infinity, so the ADM mass must move by exactly
    2C.  phi <= 0 regions are cut away behind the new singularity;
    raises only if no positive domain remains.
    """
    new = ConformalProfile(profile, C)
    adm_old = adm_mass(profile)
    adm_new = adm_mass(new, r0=new.new_arclength(2e3))
    return ConformalResult(new, adm_new - (adm_old + 2.0 * C))


def build_profile(name: str, *, mass: float | None = None, k: float | None = None,
                  p: float | None = None, file: str | None = None) -> RadialProfile:
    """CLI-facing factory: flat | neg-schwarzschild | power-law | tabulated."""
    if name == "flat":
        return FlatProfile()
    if name == "neg-schwarzschild":
        return ConformalSchwarzschildProfile(-1.0 if mass is None else mass)
    if name == "power-law":
        if k is None or p is None:
            raise ValidationError("power-law profile needs --k and --p")
        return PowerLawProfile(k, p)
    if name == "tabulated":
        if file is None:
            raise ValidationError("tabulated profile needs --file")
        return parse_profile_file(file)
    raise ValidationError(f"unknown profile kind {name!r}")
