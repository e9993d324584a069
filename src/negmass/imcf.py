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
from .spherical import RadialProfile, _hawking, radial_capacity, scalar_curvature
from .numerics import TAIL_TOL, _newton, checked_panels, gauss_nodes

GEROCH_TOL = 1e-8  # absolute slack absorbing rounding noise in the Hawking masses
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

    (rs, areas, slopes), halted = _scan(profile, r0, start, target)
    t = np.linspace(0.0, math.log(areas[-1] / A0) if halted else t_end, STATES)
    r = np.empty(STATES)
    r[0] = r0
    solve = slice(1, -1 if halted else STATES)  # a halted trace ends on r_h itself
    targets = A0 * np.exp(t[solve])
    if targets.size:
        # A rises along the scanned radii, so they bracket each target
        i = np.clip(np.searchsorted(areas, targets), 1, areas.size - 1)
        lo, hi = rs[i - 1], rs[i]
        # cubic Hermite guess of r(A), with dr/dA = 1/A' at both nodes; each tangent
        # is held to 3 secants (Fritsch-Carlson), which also covers A' = 0 at r_h
        h = areas[i] - areas[i - 1]
        s = (targets - areas[i - 1]) / h
        with np.errstate(divide="ignore"):
            d0, d1 = (np.minimum(h / slopes[j], 3.0 * (hi - lo)) for j in (i - 1, i))
        guess = np.clip(lo + s * s * (3.0 - 2.0 * s) * (hi - lo)
                        + s * (1.0 - s) * ((1.0 - s) * d0 - s * d1), lo, hi)

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
    states = tuple(FlowState(*vals) for vals in
                   zip(t.tolist(), r.tolist(), A.tolist(), _hawking(A, dA).tolist(),
                       (dA / A).tolist()))
    return FlowTrace(states, halted)


def _scan(profile: RadialProfile, r0: float, start: tuple, target: float):
    """Radii from r0 out to where the flow stops, with their areas and A'.

    Scans outward in steps that double r (or halve the gap to a finite
    r_max) until A reaches target or A' drops to zero or below.  Each step
    is laid with checked panels of A' (numerics.checked_panels), accepted
    once Gauss orders 24 and 48 of its integral agree with each other and
    with the rise of A, to TAIL_TOL of the integral of |A'| plus the
    rounding of r and A: a dip of A' between nodes misses by about its
    area.  Panels past the first node where the flow must have stopped are
    taken as they are.  Over the order-24 nodes, an interval where A''
    turns from negative to nonnegative has its minimum of A' located; a
    minimum that is zero to rounding, as at a tangential zero, is a horizon
    too.  Returns ((rs, areas, slopes), halted), a (3, n) array of the
    accepted nodes' r, A and A' with rs[0] = r0 and A increasing on each
    [rs[i], rs[i+1]].  The last radius either has A >= target or, with
    halted set, is the horizon r_h, refined to rounding, with A(r_h) < target
    and A' taken as 0 there.
    """
    w = gauss_nodes(48)[1]

    def accept(a, b, g, fine, coarse):
        nonlocal cut
        if not np.isfinite(g).all():
            raise NumericalError("non-finite area on the flow between r = "
                                 f"{a.min()} and {b.max()}")
        x, A, dA, _ = g
        cut = x[(A >= target) | (dA <= 0.0)].min(initial=cut)
        slope, curve = 0.5 * (b - a) * (abs(g[2:, :, 24:72]) @ w)  # of |A'| and |A''|
        A_a, A_b = A[:, 72], A[:, 73]
        tol = TAIL_TOL * slope + 8.0 * _EPS * (np.maximum(abs(a), abs(b)) * curve
                                               + abs(A_a) + abs(A_b))
        return (a >= cut) | ((abs(fine[2] - coarse[2]) <= tol) & (abs(A_b - A_a - fine[2]) <= tol))

    kept = []  # (r, A, A') of the accepted nodes, one array per step
    prev = np.array([[r0], *([v] for v in start)])  # (r, A, A', A'') of the last node
    r = r0
    while True:
        end = min(r + (r if r > 0.0 else 1.0), 0.5 * (r + profile.r_max))
        if not math.isfinite(end):
            raise DomainError("the flow escapes to infinity before t_end")
        if not r < end < profile.r_max:
            raise DomainError(f"the flow reaches r_max = {profile.r_max} before t_end")
        cut = end
        nodes = checked_panels(lambda x: np.array((x, *profile.eval(x))), r, end, accept)[2]
        pts = np.hstack((prev, nodes.reshape(4, -1)))
        x, A, dA, d2A = pts
        stop = (A[1:] >= target) | (dA[1:] <= 0.0)
        last = int(np.argmax(stop)) if stop.any() else stop.size - 1
        dips = np.flatnonzero((d2A[:last + 1] < 0.0) & (d2A[1:last + 2] >= 0.0))
        if dips.size:
            m, A_m, dA_m = _slope_minima(profile, x[dips], x[dips + 1])
            flat = dA_m <= 16.0 * _EPS * A_m / m
            if flat.any():
                i = int(np.argmax(flat))
                k = dips[i]
                r_h = m[i] if dA_m[i] >= 0.0 else _horizon(profile, x[k], m[i])
                return _halt(kept + [pts[:3, :k + 1]], r_h, profile, target)
        if stop.any():
            if dA[last + 1] > 0.0:
                return np.hstack(kept + [pts[:3, :last + 2]]), False
            r_h = x[last + 1] if dA[last + 1] == 0.0 else _horizon(profile, x[last], x[last + 1])
            return _halt(kept + [pts[:3, :last + 1]], r_h, profile, target)
        kept.append(pts[:3, :-1])
        prev, r = pts[:, -1:], end


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


def _halt(kept: list, r_h: float, profile: RadialProfile, target: float):
    """Close a scan on the horizon r_h, where A' = 0: (nodes, halted)."""
    A_h = profile.area(float(r_h))
    return np.hstack(kept + [[[r_h], [A_h], [0.0]]]), A_h < target


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
    A, dA, _ = profile.eval(r0)
    if dA <= 0.0:
        raise DomainError("bound check needs A' > 0 at r0")
    cap = radial_capacity(profile, r0)
    bound = capacity_energy_bound(A, _hawking(A, dA))
    return CapacityCheck(cap, bound, cap <= bound)
