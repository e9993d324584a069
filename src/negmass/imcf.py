"""Radial inverse mean curvature flow and its monotonicity checks.

Coordinate spheres flowing with outward speed 1/H reduce, in spherical
symmetry, to the scalar ODE

    dr/dt = 1/H = A(r) / A'(r),

so the enclosed area obeys dA/dt = A exactly: area(t) = area(0) e^t is
an integrator-accuracy test, not a modeling statement.  Along the flow
the Hawking mass satisfies

    d m_H / dr = A' sqrt(A) R / (16 pi)^{3/2},

so it is nondecreasing exactly where the scalar curvature R >= 0.  The
classical flow breaks down where A' -> 0 (a horizon); the trace is then
halted with an explicit flag rather than jumped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .errors import DomainError, NumericalError
from .spherical import RadialProfile, hawking_mass_sphere, radial_capacity, scalar_curvature

GEROCH_TOL = 1e-8  # absolute slack absorbing integrator noise


@dataclass(frozen=True)
class FlowState:
    """One accepted step: time, radius, area, Hawking mass, mean curvature."""

    t: float
    r: float
    area: float
    hawking: float
    mean_curvature: float


@dataclass(frozen=True)
class GerochViolation:
    """A Hawking-mass decrease beyond tolerance between consecutive steps."""

    t: float
    delta_hawking: float
    scalar_curvature: float


@dataclass(frozen=True)
class FlowTrace:
    """Time-ordered flow states; halted_at_horizon marks classical breakdown."""

    states: tuple[FlowState, ...]
    violations: tuple[GerochViolation, ...] = ()
    halted_at_horizon: bool = False

    def final(self) -> FlowState:
        return self.states[-1]


def imcf_flow(profile: RadialProfile, r0: float, t_end: float,
              dt: float = 1e-3) -> FlowTrace:
    """Integrate dr/dt = A/A' from the sphere at r0 up to t_end.

    Embedded 4(5) pair (rtol 1e-9, atol 1e-12); dt only seeds the first
    step.  If A' reaches zero the flow halts there and the trace is
    flagged 'halted_at_horizon'.
    """
    r0 = float(r0)
    if not (profile.r_min < r0 < profile.r_max):
        raise DomainError("r0 outside the profile domain")
    if profile.d_area(r0) <= 0.0:
        raise DomainError("flow needs positive mean curvature at the start")
    if t_end <= 0.0:
        raise DomainError("t_end must be positive")

    def rhs(t, y):
        A, Ap, _ = profile.eval(y[0])
        return [A / Ap]

    def horizon(t, y):
        return profile.d_area(y[0])

    horizon.terminal = True
    horizon.direction = -1

    sol = solve_ivp(rhs, (0.0, t_end), [r0], method="RK45",
                    rtol=1e-9, atol=1e-12, first_step=dt, events=horizon,
                    dense_output=False)
    halted = sol.status == 1
    rs = sol.y[0]
    areas, d_areas, _ = profile.eval(rs)
    H = d_areas / areas
    if not sol.success and not halted:
        # the flow speed 1/H blows up on approach to a horizon, which can
        # underflow the step size before the A' = 0 event fires; a stall
        # with collapsing mean curvature is the same classical breakdown
        if H[-1] < 1e-5 * H[0]:
            halted = True
        else:
            raise NumericalError(f"flow integration failed: {sol.message}")
    hawking = hawking_mass_sphere(profile, rs)
    states = tuple(FlowState(*vals) for vals in
                   zip(sol.t.tolist(), rs.tolist(), areas.tolist(), hawking.tolist(),
                       H.tolist()))
    return FlowTrace(states, tuple(_decreases(states, profile, GEROCH_TOL)), halted)


def _decreases(states, profile: RadialProfile, tol: float):
    for prev, cur in zip(states[:-1], states[1:]):
        dm = cur.hawking - prev.hawking
        if dm < -tol:
            yield GerochViolation(cur.t, dm, scalar_curvature(profile, cur.r))


def geroch_report(trace: FlowTrace, profile: RadialProfile,
                  tol: float = GEROCH_TOL) -> list[GerochViolation]:
    """Hawking-mass decreases along the trace exceeding tol.

    Empty whenever R >= -tol along the trace; on profiles with negative
    scalar curvature regions the violations come back with the local R
    attached.
    """
    if not trace.states:
        raise DomainError("empty flow trace")
    return list(_decreases(trace.states, profile, tol))


def capacity_energy_bound(area0: float, m0: float) -> float:
    """Upper bound 2 sqrt(alpha) + 2 sqrt(beta) on the capacity of the start sphere.

    alpha = 16 pi A0 and beta = (16 pi)^{3/2} sqrt(A0) |m0|; the bound
    goes to zero with A0 when m0 stays bounded.
    """
    if area0 < 0.0:
        raise DomainError("area must be nonnegative")
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
