"""Radial inverse mean curvature flow and its monotonicity checks.

Coordinate spheres flowing with outward speed 1/H reduce, in spherical
symmetry, to the scalar ODE

    dr/dt = 1/H = A(r) / A'(r),

so the enclosed area obeys dA/dt = A exactly and the flow has a closed
form: r(t) is the root of A(r) = A(r0) e^t, unique while A' > 0.  The
trace solves for it on evenly spaced times, so area(t) e^{-t} = area(0)
holds to rounding.  Along the flow the Hawking mass satisfies

    d m_H / dr = A' sqrt(A) R / (16 pi)^{3/2},

so it is nondecreasing exactly where the scalar curvature R >= 0.  The
classical flow breaks down where A' -> 0 (a horizon r_h); the trace then
halts at t_h = ln(A(r_h) / A(r0)) with an explicit flag rather than
jumping.  (Huisken and Ilmanen, J. Diff. Geom. 59 (2001).)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
# spherical first: it compiles before numerics loads numpy.polynomial, which
# keeps a cold import without cached bytecode 0.5 MB lower in peak RSS
from .spherical import RadialProfile, hawking_mass_sphere, radial_capacity, scalar_curvature
from .numerics import _newton

GEROCH_TOL = 1e-8  # absolute slack absorbing rounding noise in the Hawking masses
SCAN_POINTS = 64  # radii per doubling of r when scanning for where the flow stops
RESOLVE_TOL = 1e-6  # relative miss of A's rise by the integral of A' that forces resampling
STATES = 101  # evenly spaced times sampled by each trace
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FlowState:
    """One sample of the flow: time, radius, area, Hawking mass, mean curvature."""

    t: float
    r: float
    area: float
    hawking: float
    mean_curvature: float


@dataclass(frozen=True)
class GerochViolation:
    """A Hawking-mass decrease beyond tolerance between consecutive states."""

    t: float
    delta_hawking: float
    scalar_curvature: float


@dataclass(frozen=True)
class FlowTrace:
    """Time-ordered flow states; halted_at_horizon marks classical breakdown."""

    states: tuple[FlowState, ...]
    halted_at_horizon: bool = False

    def final(self) -> FlowState:
        return self.states[-1]


def imcf_flow(profile: RadialProfile, r0: float, t_end: float) -> FlowTrace:
    """Sample the flow from the sphere at r0 at STATES evenly spaced times in [0, t_end].

    Each radius solves A(r) = A(r0) e^t by safeguarded Newton.  If A'
    falls to zero at r_h before A reaches A(r0) e^{t_end}, the times
    span [0, ln(A(r_h)/A(r0))] instead, the last state sits on r_h and
    the trace is flagged 'halted_at_horizon'; a zero where A' only
    touches zero counts too.  A flow that would leave the profile's
    domain first raises DomainError, and a profile whose A' the scan
    cannot reconcile with A raises NumericalError.
    """
    r0 = float(r0)
    if not (profile.r_min < r0 < profile.r_max):
        raise DomainError("r0 outside the profile domain")
    start = profile.eval(r0)  # (A, A', A'') at r0
    A0, dA0, _ = start
    if dA0 <= 0.0:
        raise DomainError("flow needs positive mean curvature at the start")
    if not t_end > 0.0:
        raise DomainError("t_end must be positive")
    try:
        target = A0 * math.exp(t_end)
    except OverflowError:
        raise DomainError(f"A(r0) e^t_end overflows at t_end = {t_end}") from None

    rs, areas, halted = _scan(profile, r0, start, target)
    t = np.linspace(0.0, math.log(areas[-1] / A0) if halted else t_end, STATES)
    r = np.empty(STATES)
    r[0] = r0
    solve = slice(1, -1 if halted else STATES)  # a halted trace ends on r_h itself
    targets = A0 * np.exp(t[solve])
    if targets.size:
        # A rises along the scanned radii, so they bracket each target
        i = np.clip(np.searchsorted(areas, targets), 1, areas.size - 1)
        lo, hi = rs[i - 1], rs[i]
        guess = lo + (targets - areas[i - 1]) / (areas[i] - areas[i - 1]) * (hi - lo)

        def residual(x):
            A, dA, _ = profile.eval(x)
            return A - targets, dA

        r[solve] = _newton(residual, guess, lo, hi)
    if halted:
        r[-1] = rs[-1]

    A, dA, _ = profile.eval(r)
    if (dA[:-1] <= 0.0).any():
        raise NumericalError("A' <= 0 inside the flow: the profile has a feature "
                             "narrower than the scan resolves")
    hawking = hawking_mass_sphere(profile, r)
    states = tuple(FlowState(*vals) for vals in
                   zip(t.tolist(), r.tolist(), A.tolist(), hawking.tolist(),
                       (dA / A).tolist()))
    return FlowTrace(states, halted)


def _scan(profile: RadialProfile, r0: float, start: tuple, target: float):
    """Radii from r0 out to where the flow stops, with their areas.

    Scans outward in chunks of SCAN_POINTS radii, each chunk doubling r
    (or closing in on a finite r_max), until A reaches target or A'
    drops to zero or below.  Between samples A' is watched two ways: an
    interval whose rise in A disagrees with the integral of A' is
    resampled (_unresolved), and an interval where A'' turns from
    negative to nonnegative has its minimum of A' located; a minimum
    that is zero to rounding, as at a tangential zero, is a horizon too.
    Returns (rs, areas, halted) with rs[0] = r0 and A increasing on each
    [rs[i], rs[i+1]].  The last radius either has A >= target or, with
    halted set, is the horizon r_h, refined to rounding, with
    A(r_h) < target.
    """
    rs, areas = [], []
    pts = tuple(np.array([v], dtype=float) for v in (r0, *start))
    frac = np.arange(1, SCAN_POINTS + 1) / SCAN_POINTS
    while True:
        r = pts[0][-1]
        end = min(r + (r if r > 0.0 else 1.0), profile.r_max)
        if not math.isfinite(end):
            raise DomainError("the flow escapes to infinity before t_end")
        chunk = r + (end - r) * frac
        chunk = chunk[(chunk > r) & (chunk < profile.r_max)]
        if not chunk.size:
            raise DomainError(f"the flow reaches r_max = {profile.r_max} before t_end")
        pts = _insert([p[-1:] for p in pts], 1, chunk, profile)
        while True:  # resample the first unresolved interval up to the first stop
            x, A, dA, d2A = pts
            stop = (A[1:] >= target) | (dA[1:] <= 0.0)
            last = int(np.argmax(stop)) if stop.any() else stop.size - 1
            coarse = _unresolved(*(p[:last + 2] for p in pts))
            if not coarse.any():
                break
            k = int(np.argmax(coarse))
            if x[k + 1] - x[k] <= x[k] / SCAN_POINTS ** 5:  # resampled four times over
                raise NumericalError(f"A' disagrees with A near r = {x[k]}: the profile "
                                     "is too rough to follow the flow")
            pts = _insert(pts, k + 1, x[k] + (x[k + 1] - x[k]) * frac[:-1], profile)
        dips = np.flatnonzero((d2A[:last + 1] < 0.0) & (d2A[1:last + 2] >= 0.0))
        if dips.size:
            m, A_m, dA_m = _slope_minima(profile, x[dips], x[dips + 1])
            flat = dA_m <= 16.0 * _EPS * A_m / m
            if flat.any():
                i = int(np.argmax(flat))
                k = dips[i]
                r_h = m[i] if dA_m[i] >= 0.0 else _horizon(profile, x[k], m[i])
                return _halt(rs + [x[:k + 1]], areas + [A[:k + 1]], r_h, profile, target)
        if stop.any():
            if dA[last + 1] > 0.0:
                return (np.concatenate(rs + [x[:last + 2]]),
                        np.concatenate(areas + [A[:last + 2]]), False)
            r_h = x[last + 1] if dA[last + 1] == 0.0 else _horizon(profile, x[last], x[last + 1])
            return _halt(rs + [x[:last + 1]], areas + [A[:last + 1]], r_h, profile, target)
        rs.append(x[:-1])
        areas.append(A[:-1])


def _insert(pts, k: int, xs: np.ndarray, profile: RadialProfile):
    """The sampled (r, A, A', A'') arrays with the radii xs and their values put in at k."""
    vals = profile.eval(xs)
    if not all(np.isfinite(v).all() for v in vals):
        raise NumericalError(f"non-finite area on the flow between r = {xs[0]} and {xs[-1]}")
    return tuple(np.insert(p, k, v) for p, v in zip(pts, (xs, *vals)))


def _unresolved(x, A, dA, d2A) -> np.ndarray:
    """Intervals where the rise of A misses the integral of A' beyond RESOLVE_TOL.

    The integral is the trapezoid rule with its A'' end correction
    (Euler-Maclaurin), exact to O(h^5) where A' is smooth.  A dip of A'
    that falls between two samples shows up as a gap of about its area.
    """
    h = np.diff(x)
    rise = np.diff(A)
    gap = rise - 0.5 * h * (dA[:-1] + dA[1:]) + h * h / 12.0 * (d2A[1:] - d2A[:-1])
    scale = 0.5 * h * (np.abs(dA[:-1]) + np.abs(dA[1:]))
    return np.abs(gap) > RESOLVE_TOL * scale + 16.0 * _EPS * np.abs(A[1:])


def _slope_minima(profile: RadialProfile, lo: np.ndarray, hi: np.ndarray):
    """(r, A, A') where A' is least in each (lo, hi), given A''(lo) < 0 <= A''(hi).

    Bisection on the sign of A'' down to rounding.
    """
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        A, dA, d2A = profile.eval(mid)
        if (hi - lo <= 4.0 * _EPS * hi).all():
            break
        lo, hi = np.where(d2A < 0.0, mid, lo), np.where(d2A < 0.0, hi, mid)
    return mid, A, dA


def _halt(rs: list, areas: list, r_h: float, profile: RadialProfile, target: float):
    """Close a scan on the horizon r_h: (rs, areas, halted)."""
    A_h = profile.area(float(r_h))
    return np.concatenate(rs + [[r_h]]), np.concatenate(areas + [[A_h]]), A_h < target


def _horizon(profile: RadialProfile, lo: float, hi: float) -> float:
    """The radius in (lo, hi] where A' falls through zero, given A'(lo) > 0 >= A'(hi)."""

    def minus_slope(x):
        _, dA, d2A = profile.eval(x)
        return -dA, -d2A

    return float(_newton(minus_slope, np.array([0.5 * (lo + hi)]), np.array([lo]),
                         np.array([hi]))[0])


def geroch_report(trace: FlowTrace, profile: RadialProfile) -> list[GerochViolation]:
    """Hawking-mass decreases along the trace exceeding GEROCH_TOL.

    Empty whenever R >= -GEROCH_TOL along the trace; on profiles with
    negative scalar curvature regions the violations come back with the
    local R attached.
    """
    if not trace.states:
        raise DomainError("empty flow trace")
    out = []
    for prev, cur in zip(trace.states[:-1], trace.states[1:]):
        dm = cur.hawking - prev.hawking
        if dm < -GEROCH_TOL:
            out.append(GerochViolation(cur.t, dm, scalar_curvature(profile, cur.r)))
    return out


def capacity_energy_bound(area0: float, m0: float) -> float:
    """Upper bound 2 sqrt(alpha) + 2 sqrt(beta) on the capacity of the start sphere.

    alpha = 16 pi A0 and beta = (16 pi)^{3/2} sqrt(A0) |m0|; the bound
    goes to zero with A0 when m0 stays bounded.
    """
    if not (0.0 <= area0 < math.inf and math.isfinite(m0)):
        raise DomainError("bound needs a finite nonnegative area and a finite mass")
    alpha = 16.0 * math.pi * area0
    beta = (16.0 * math.pi) ** 1.5 * math.sqrt(area0) * abs(m0)
    return 2.0 * math.sqrt(alpha) + 2.0 * math.sqrt(beta)


@dataclass(frozen=True)
class CapacityCheck:
    capacity: float
    bound: float
    holds: bool


def verify_capacity_bound(profile: RadialProfile, r0: float) -> CapacityCheck:
    """Compare the sphere capacity at r0 against the energy bound.

    The bound uses the sphere's own area and Hawking mass.  Requires
    A'(r0) > 0 (in the radial class such spheres are their own
    minimizing hulls).
    """
    if profile.d_area(r0) <= 0.0:
        raise DomainError("bound check needs A' > 0 at r0")
    cap = radial_capacity(profile, r0)
    bound = capacity_energy_bound(profile.area(r0),
                                  hawking_mass_sphere(profile, r0))
    return CapacityCheck(cap, bound, cap <= bound)
