import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negmass.errors import DomainError, NumericalError
from negmass.imcf import (STATES, capacity_energy_bound, geroch_report, imcf_flow,
                          verify_capacity_bound)
from negmass.spherical import (ConformalSchwarzschildProfile, CustomProfile,
                               FlatProfile, PowerLawProfile, adm_mass,
                               bump_profile, capacity_center)

FOUR_PI = 4.0 * math.pi


def test_flat_flow_exact_solution():
    # dr/dt = r/2 on flat space: r(t) = e^{t/2}
    trace = imcf_flow(FlatProfile(), 1.0, 2.0)
    assert trace.final().r == pytest.approx(math.e, abs=1e-6)
    assert not trace.halted_at_horizon


def test_area_growth_exactly_exponential():
    for prof, r0 in ((FlatProfile(), 1.0),
                     (ConformalSchwarzschildProfile(-1.0), 0.5),
                     (bump_profile(), 1.0)):
        trace = imcf_flow(prof, r0, 5.0)
        a0 = trace.states[0].area
        for s in trace.states:
            assert s.area * math.exp(-s.t) == pytest.approx(a0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, -0.2), st.floats(0.05, 5.0), st.floats(0.5, 8.0))
# rounding in A made the Newton solve for r(t) hop between two floats
@example(m=-2.7404693127446853, r0=0.05, t_end=1.0)
def test_area_law_and_mass_on_schwarzschild_slices(m, r0, t_end):
    # the exact flow keeps A e^{-t} = A0 to rounding and m_H = m on a scalar-flat slice
    trace = imcf_flow(ConformalSchwarzschildProfile(m), r0, t_end)
    a0 = trace.states[0].area
    assert trace.final().t == t_end and not trace.halted_at_horizon
    for s in trace.states:
        assert s.area * math.exp(-s.t) == pytest.approx(a0, rel=1e-12)
        assert s.hawking == pytest.approx(m, abs=1e-9)


def test_trace_has_n_evenly_spaced_states():
    trace = imcf_flow(FlatProfile(), 1.0, 3.0)
    assert len(trace.states) == STATES == 101
    ts = [s.t for s in trace.states]
    assert ts[0] == 0.0 and ts[-1] == 3.0
    assert ts == pytest.approx([3.0 * k / 100 for k in range(101)], abs=1e-15)


def test_states_strictly_increasing():
    trace = imcf_flow(FlatProfile(), 1.0, 3.0)
    for a, b in zip(trace.states, trace.states[1:]):
        assert b.t > a.t and b.r > a.r
        assert b.mean_curvature > 0.0


def test_hawking_constant_outside_horizon():
    # positive-mass slice, flow started outside the horizon
    prof = ConformalSchwarzschildProfile(1.0)
    trace = imcf_flow(prof, 1.0, 4.0)
    for s in trace.states:
        assert s.hawking == pytest.approx(1.0, abs=1e-8)


def test_flow_validates_inputs():
    with pytest.raises(DomainError):
        imcf_flow(FlatProfile(), -1.0, 1.0)
    with pytest.raises(DomainError):
        imcf_flow(FlatProfile(), 1.0, 0.0)
    for t_end in (math.nan, 800.0):  # A0 e^800 overflows
        with pytest.raises(DomainError):
            imcf_flow(FlatProfile(), 1.0, t_end)


def test_flow_past_bounded_domain_raises():
    # A' > 0 up to r_max = 3: the flow leaves the domain before t_end
    prof = CustomProfile(lambda r: (FOUR_PI * r * r, 2.0 * FOUR_PI * r, 2.0 * FOUR_PI),
                         r_min=0.0, r_max=3.0)
    with pytest.raises(DomainError):
        imcf_flow(prof, 1.0, 5.0)
    for r_end in (math.e, 2.999):  # the second lies within 1/64 of the gap below r_max
        trace = imcf_flow(prof, 1.0, 2.0 * math.log(r_end))
        assert trace.final().r == pytest.approx(r_end, rel=1e-14)


def test_flow_halts_at_horizon():
    # A = 4 pi (2 + cos r): A' vanishes at r = 2 pi ahead of the start
    prof = CustomProfile(
        lambda r: (FOUR_PI * (2.0 + np.cos(r)), -FOUR_PI * np.sin(r), -FOUR_PI * np.cos(r)),
        r_min=0.0, r_max=4.0 * math.pi)
    trace = imcf_flow(prof, 3.5, 50.0)
    assert trace.halted_at_horizon
    assert len(trace.states) == 101
    # the flow stops where A' = 0, at t_h = ln(A(2 pi) / A(3.5))
    assert trace.final().r == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert trace.final().t == pytest.approx(math.log(3.0 / (2.0 + math.cos(3.5))), abs=1e-10)


def test_flow_halts_at_tangential_horizon():
    # A = 4 pi (1 + (r - 2)^3): A' = 12 pi (r - 2)^2 touches zero at r = 2 and
    # rises again; no scan radius lands on it, and A' stays positive at all of them
    prof = CustomProfile(lambda r: (FOUR_PI * (1.0 + (r - 2.0) ** 3),
                                    3.0 * FOUR_PI * (r - 2.0) ** 2,
                                    6.0 * FOUR_PI * (r - 2.0)), r_min=1.0)
    trace = imcf_flow(prof, 1.5, 5.0)
    assert trace.halted_at_horizon
    assert trace.final().r == pytest.approx(2.0, abs=1e-12)
    assert trace.final().t == pytest.approx(math.log(8.0 / 7.0), abs=1e-12)


def test_flow_passes_positive_minimum_of_slope():
    # the same cubic with A' >= 4 pi 1e-4: a shallow minimum is no horizon
    prof = CustomProfile(lambda r: (FOUR_PI * (1.0 + (r - 2.0) ** 3 + 1e-4 * r),
                                    FOUR_PI * (3.0 * (r - 2.0) ** 2 + 1e-4),
                                    6.0 * FOUR_PI * (r - 2.0)), r_min=1.0)
    trace = imcf_flow(prof, 1.5, 3.0)
    assert not trace.halted_at_horizon and trace.final().t == 3.0
    a0 = trace.states[0].area
    for s in trace.states:
        assert s.area * math.exp(-s.t) == pytest.approx(a0, rel=1e-12)


def test_flow_halts_at_dip_between_scan_radii():
    # A = r + 0.005 sin(402 (r - 1)): the oscillation of A' has nearly the scan
    # spacing r/64, so every scan radius sees A' ~ 3 while A' < 0 in between
    w = 402.0
    prof = CustomProfile(lambda r: (r + 0.005 * np.sin(w * (r - 1.0)),
                                    1.0 + 0.005 * w * np.cos(w * (r - 1.0)),
                                    -0.005 * w * w * np.sin(w * (r - 1.0))), r_min=0.5)
    phase = math.acos(-1.0 / (0.005 * w))  # first zero of A'
    trace = imcf_flow(prof, 1.0, 5.0)
    assert trace.halted_at_horizon
    assert trace.final().r == pytest.approx(1.0 + phase / w, abs=1e-12)
    assert all(s.mean_curvature > 0.0 for s in trace.states[:-1])


@pytest.mark.parametrize("width", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-12])
def test_flow_halts_at_narrow_dip(width):
    # A' = 1 - 3 exp(-((r - 1.3)/width)^2) dips below zero far inside one scan interval
    def fn(r):
        u = (r - 1.3) / width
        e = np.exp(-u * u)
        erf = np.vectorize(math.erf)(u)
        return r - 1.5 * width * math.sqrt(math.pi) * erf, 1.0 - 3.0 * e, 6.0 * u / width * e

    trace = imcf_flow(CustomProfile(fn, r_min=0.5), 1.0, 5.0)
    assert trace.halted_at_horizon
    r_h = 1.3 - width * math.sqrt(math.log(3.0))
    assert trace.final().r == pytest.approx(r_h, abs=1e-15)


@pytest.mark.parametrize("width", [1e-5, 1e-9, 1e-12])
def test_flow_halts_at_narrow_dip_on_curved_area(width):
    # A' = 8 pi r (1 - 3 exp(-u^2)), u = (r - 1.3)/width: the same dip on a flat
    # area, whose rounding (eps A) the check of A's rise allows for
    def fn(r):
        u = (r - 1.3) / width
        e = np.exp(-u * u)
        erf = np.vectorize(math.erf)(u)
        return (FOUR_PI * r * r - 3.0 * FOUR_PI * width * (1.3 * math.sqrt(math.pi) * erf
                                                          - width * e),
                2.0 * FOUR_PI * r * (1.0 - 3.0 * e),
                2.0 * FOUR_PI * (1.0 - 3.0 * e) + 12.0 * FOUR_PI * r * u / width * e)

    trace = imcf_flow(CustomProfile(fn, r_min=0.5), 1.0, 5.0)
    assert trace.halted_at_horizon
    assert trace.final().r == pytest.approx(1.3 - width * math.sqrt(math.log(3.0)), abs=1e-15)


def test_flow_rejects_slope_that_contradicts_area():
    # d_area is twice the derivative of area: no resampling reconciles them
    prof = CustomProfile(lambda r: (FOUR_PI * r * r, 4.0 * FOUR_PI * r, 4.0 * FOUR_PI))
    with pytest.raises(NumericalError):
        imcf_flow(prof, 1.0, 2.0)


def test_flow_rejects_area_with_a_jump():
    # A jumps by 0.1 at r = 1.7 while A' = 1: halving never reconciles the rise
    # of A there, and the panel at rounding width raises instead of looping
    prof = CustomProfile(lambda r: (r + 0.1 * (r > 1.7), np.ones_like(r), np.zeros_like(r)),
                         r_min=0.5)
    with pytest.raises(NumericalError):
        imcf_flow(prof, 1.0, 2.0)


def test_flow_halts_before_a_jump_past_the_horizon():
    # A = 1 + 2r - r^2/2 has its horizon at r = 2; past it, at r = 2.9, A jumps.
    # The scan takes panels past its first node with A' <= 0 as they are, so
    # the jump, which no halving reconciles, does not stop the flow from halting
    def fn(r):
        inner = r < 2.9
        return (np.where(inner, 1.0 + 2.0 * r - 0.5 * r * r, 3.0 + 5.0 * (r - 2.9)),
                np.where(inner, 2.0 - r, 5.0), np.where(inner, -1.0, 0.0))

    trace = imcf_flow(CustomProfile(fn, r_min=0.5), 1.0, 5.0)
    assert trace.halted_at_horizon
    assert trace.final().r == 2.0
    assert trace.final().t == pytest.approx(math.log(3.0 / 2.5), abs=1e-15)


def test_geroch_no_violations_flat():
    trace = imcf_flow(FlatProfile(), 1.0, 5.0)
    assert geroch_report(trace, FlatProfile()) == []


def test_geroch_no_violations_schwarzschild():
    prof = ConformalSchwarzschildProfile(-1.0)
    trace = imcf_flow(prof, 0.3, 5.0)
    assert geroch_report(trace, prof) == []
    for s in trace.states:
        assert s.hawking == pytest.approx(-1.0, abs=1e-8)


def test_geroch_violations_on_negative_curvature_bump():
    prof = bump_profile()
    trace = imcf_flow(prof, 1.0, 4.0)
    violations = geroch_report(trace, prof)
    assert violations
    # the reported decreases occur where the scalar curvature is negative
    assert all(v.scalar_curvature < 0.0 for v in violations)


def test_geroch_empty_trace():
    from negmass.imcf import FlowTrace
    with pytest.raises(DomainError):
        geroch_report(FlowTrace(states=()), FlatProfile())


def test_capacity_energy_bound_values():
    assert capacity_energy_bound(FOUR_PI, 0.0) == pytest.approx(16.0 * math.pi, rel=1e-14)
    # bound -> 0 as the area shrinks with bounded mass (like A^{1/4})
    vals = [capacity_energy_bound(a, -1.0) for a in (1e-2, 1e-6, 1e-12)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 0.05
    assert capacity_energy_bound(0.0, -5.0) == 0.0
    assert capacity_energy_bound(1.0, 0.5) > 0.0
    with pytest.raises(DomainError):
        capacity_energy_bound(-1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["area0", "m0"])
def test_capacity_energy_bound_rejects_non_finite(which, bad):
    args = {"area0": 1.0, "m0": -1.0, which: bad}
    with pytest.raises(DomainError):
        capacity_energy_bound(**args)


def test_flat_sphere_bound():
    check = verify_capacity_bound(FlatProfile(), 1.0)
    assert check.capacity == pytest.approx(1.0, rel=1e-9)
    assert check.bound == pytest.approx(16.0 * math.pi, rel=1e-12)
    assert check.holds


def test_capacity_bound_schwarzschild_sweep():
    # capacity of the sphere at arclength s shrinks like s^{1/3}
    prof = ConformalSchwarzschildProfile(-1.0)
    caps = []
    for r0 in (0.1, 0.01, 0.001, 1e-6):
        check = verify_capacity_bound(prof, r0)
        assert check.holds
        caps.append(check.capacity)
    assert caps == sorted(caps, reverse=True)
    assert caps[-1] < 1e-2  # capacities head to zero with the surfaces


def test_capacity_bound_all_builtin_profiles():
    profiles = [FlatProfile(), ConformalSchwarzschildProfile(-1.0),
                ConformalSchwarzschildProfile(2.0), PowerLawProfile(3.0, 0.5),
                PowerLawProfile(5.0, 2.0), bump_profile()]
    for prof in profiles:
        for r0 in (0.1, 1.0, 10.0):
            assert verify_capacity_bound(prof, r0).holds


def test_positive_center_capacity_contrapositive():
    # p < 1: capacities of shrinking spheres do NOT go to zero, and the
    # central mass is -inf, consistent with the capacity theorem
    prof = PowerLawProfile(3.0, 0.5)
    from negmass.spherical import radial_capacity, regular_mass
    caps = [radial_capacity(prof, r0) for r0 in (0.1, 0.01, 0.001)]
    center = capacity_center(prof)
    assert center > 0.0
    assert caps[-1] > 0.9 * center
    assert regular_mass(prof) == -math.inf


def test_flow_hawking_limit_equals_adm():
    for prof, r0 in ((FlatProfile(), 1.0),
                     (ConformalSchwarzschildProfile(-1.0), 0.5),
                     (bump_profile(), 1.0)):
        trace = imcf_flow(prof, r0, 16.0)
        assert trace.final().hawking == pytest.approx(adm_mass(prof), abs=1e-4)
