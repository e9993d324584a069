import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from negmass.errors import DomainError, NonConvergenceError, NumericalError, ValidationError
from negmass.spherical import (FOUR_PI, ConformalProfile, ConformalSchwarzschildProfile,
                               CustomProfile, FlatProfile, MassReport, PowerLawProfile,
                               TabulatedProfile, adm_mass, apply_harmonic_conformal,
                               bump_profile, capacity_center, classify_power_law,
                               hawking_mass_sphere, parse_profile_file,
                               radial_capacity, radial_capacity_function, regular_mass,
                               scalar_curvature)

K_SCHW = 16.0 * math.pi * (3.0 / 4.0) ** (4.0 / 3.0)  # A ~ k s^{4/3} for |m| = 1


def three_sphere_profile():
    # A = 4 pi sin^2 r: the unit round 3-sphere
    return CustomProfile(lambda r: (4 * math.pi * np.sin(r) ** 2, 4 * math.pi * np.sin(2 * r),
                                    8 * math.pi * np.cos(2 * r)),
                         r_min=0.0, r_max=math.pi)


# ---------------------------------------------------------------------------
# the eval contract


def _eval_cases():
    rs, As = _flat_samples()
    return [
        (FlatProfile(), [0.1, 1.0, 42.0]),
        (ConformalSchwarzschildProfile(-1.0), [1e-30, 0.01, 0.5, 3.0, 1e4]),
        (ConformalSchwarzschildProfile(2.0), [1e-9, 0.5, 3.0, 1e4]),
        # r_glue = 0.385: head, glue point, blend, flat tail
        (PowerLawProfile(3.0, 0.5), [0.1, 0.3848347315591266, 0.5, 1.0, 7.0]),
        (TabulatedProfile(rs, As), [0.2, 1.0, 50.0]),
        (bump_profile(), [0.5, 4.0, 5.0, 9.0]),
        (ConformalProfile(FlatProfile(), -0.5), [0.01, 0.3, 1.0, 5.0]),
    ]


def test_eval_array_matches_scalar():
    for prof, radii in _eval_cases():
        grid = np.array(radii)
        arrays = prof.eval(grid)
        for i, r in enumerate(radii):
            scalar = prof.eval(r)
            assert all(type(v) is float for v in scalar)
            assert [a[i] for a in arrays] == pytest.approx(scalar, rel=1e-13), prof
            assert (prof.area(r), prof.d_area(r), prof.d2_area(r)) == scalar
            assert type(hawking_mass_sphere(prof, r)) is float
        assert hawking_mass_sphere(prof, grid).shape == grid.shape
        square = prof.eval(np.vstack((grid, grid)))
        assert all(v.shape == (2, grid.size) for v in square)
        assert square[0][1] == pytest.approx(arrays[0], rel=1e-13)


def test_eval_rejects_any_radius_outside_domain():
    with pytest.raises(DomainError):
        FlatProfile().eval(np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        three_sphere_profile().eval(np.array([1.0, 4.0]))


def _power_law_reference(k, p, r):
    """Head, C^2 smoothstep blend and flat tail, written out piece by piece."""
    g = (k / (4 * math.pi)) ** (1 / (2 - p))
    h = (k * r ** p, k * p * r ** (p - 1), k * p * (p - 1) * r ** (p - 2))
    flat = (4 * math.pi * r * r, 8 * math.pi * r, 8 * math.pi)
    if r <= g:
        return h
    if r >= 2 * g:
        return flat
    t = r / g - 1
    w = t ** 3 * (10 - 15 * t + 6 * t * t)
    dw = 30 * t * t * (1 - t) ** 2 / g
    d2w = 60 * t * (1 - 3 * t + 2 * t * t) / g ** 2
    d = [f - hh for f, hh in zip(flat, h)]
    return (h[0] + w * d[0], h[1] + dw * d[0] + w * d[1],
            h[2] + d2w * d[0] + 2 * dw * d[1] + w * d[2])


def _power_law_blend_exact(prof, r):
    """The blend at r in rationals, from the profile's own floats k, r_glue
    and FOUR_PI and its integer p: (A, A', A'') exact for those inputs."""
    k, g, c, p, r = (Fraction(prof.k), Fraction(prof.r_glue), Fraction(FOUR_PI),
                     int(prof.p), Fraction(r))
    t = r / g - 1
    w = t ** 3 * (10 - 15 * t + 6 * t * t)
    dw = 30 * t * t * (1 - t) ** 2 / g
    d2w = 60 * t * (1 - 3 * t + 2 * t * t) / g ** 2
    h = (k * r ** p, k * p * r ** (p - 1), k * p * (p - 1) * r ** (p - 2))
    d = [f - hh for f, hh in zip((c * r * r, 2 * c * r, 2 * c), h)]
    return (h[0] + w * d[0], h[1] + dw * d[0] + w * d[1],
            h[2] + d2w * d[0] + 2 * dw * d[1] + w * d[2])


def test_power_law_eval_matches_piecewise_reference():
    for k, p in ((3.0, 0.5), (5.0, 1.2), (2.0, 2.5)):
        prof = PowerLawProfile(k, p)
        radii = prof.r_glue * np.array([0.1, 1.0, 1.3, 1.7, 2.0, 5.0])
        arrays = prof.eval(radii)
        for i, r in enumerate(radii):
            assert [a[i] for a in arrays] == pytest.approx(
                _power_law_reference(k, p, r), rel=1e-13)
    # steep blends, where head >> flat: A' formed as head' + dw (flat - head)
    # + w (flat' - head') was 3.5e-9 off at (3, 20) and t = 0.9999
    for k, p in ((3.0, 20), (1.0, 12)):
        prof = PowerLawProfile(k, p)
        radii = prof.r_glue * (1.0 + np.array([0.5, 0.9, 0.99, 0.999, 0.9999]))
        for r, got in zip(radii, np.transpose(prof.eval(radii))):
            rel = [abs(Fraction(float(a)) / b - 1) for a, b in
                   zip(got, _power_law_blend_exact(prof, r))]
            assert rel[0] <= 1e-13 and rel[1] <= 1e-12 and rel[2] <= 1e-11, (k, p, r, rel)
    head, tail = PowerLawProfile(3.0, 0.5).eval(np.array([0.1, 1.0]))[0]
    assert head == 3.0 * 0.1 ** 0.5
    assert tail == 4 * math.pi
    # the blend keeps A' > 0 only for p below about 3.603 (r A'/A dips to
    # -0.62 at p = 4), so the docstring's claim is checked up to p = 3.5
    for p in (0.5, 1.2, 2.5, 3.5):
        prof = PowerLawProfile(3.0, p)
        r = prof.r_glue * (1.0 + np.linspace(0.0, 1.0, 4097))
        assert (prof.eval(r)[1] > 0.0).all()


def test_power_law_glue_radius_near_p_two():
    # r_glue = (k/4pi)^(1/(2-p)) leaves [2^-500, 2^500] as p -> 2: a typed
    # error, neither silently flat space (underflow) nor OverflowError
    for k, p in ((0.5, 1.999), (20.0, 1.999), (0.5, 2.001)):
        with pytest.raises(DomainError):
            PowerLawProfile(k, p)
    assert PowerLawProfile(3.0, 2.0).r_glue == 1.0
    assert PowerLawProfile(20.0, 1.99).r_glue == pytest.approx(1.52e20, rel=1e-2)


def test_neg_schwarzschild_head_down_to_tiny_radii():
    # A ~ K r^{4/3} near the singularity, with a relative correction O((r/|m|)^{2/3})
    for m in (-0.5, -1.0, -3.0):
        prof = ConformalSchwarzschildProfile(m)
        K = 16.0 * math.pi * (0.75 * m * m) ** (4.0 / 3.0) / (m * m)
        r = 10.0 ** np.arange(-60.0, -1.0)
        ratio = prof.area(r) / (K * r ** (4.0 / 3.0))
        assert np.all(np.abs(ratio - 1.0) <= (r / abs(m)) ** (2.0 / 3.0) + 1e-13)


# ---------------------------------------------------------------------------
# curvature

def test_scalar_curvature_flat():
    flat = FlatProfile()
    for r in (0.1, 1.0, 42.0):
        assert scalar_curvature(flat, r) == pytest.approx(0.0, abs=1e-13)


def test_scalar_curvature_three_sphere():
    s3 = three_sphere_profile()
    for r in (0.3, 1.0, 2.0):
        assert scalar_curvature(s3, r) == pytest.approx(6.0, abs=1e-10)


def test_scalar_curvature_schwarzschild_slice():
    cs = ConformalSchwarzschildProfile(-1.0)
    for r in (0.01, 0.5, 3.0, 50.0):
        assert scalar_curvature(cs, r) == pytest.approx(0.0, abs=1e-8)


def test_domain_enforced():
    with pytest.raises(DomainError):
        scalar_curvature(FlatProfile(), -1.0)
    with pytest.raises(DomainError):
        scalar_curvature(three_sphere_profile(), 4.0)


# ---------------------------------------------------------------------------
# Hawking mass

def test_hawking_flat_zero():
    flat = FlatProfile()
    for r in (0.2, 1.0, 9.0):
        assert hawking_mass_sphere(flat, r) == pytest.approx(0.0, abs=1e-13)


def test_hawking_schwarzschild_constant():
    for m in (-1.0, 2.0):
        cs = ConformalSchwarzschildProfile(m)
        for r in (0.05, 1.0, 10.0, 1e3):
            assert hawking_mass_sphere(cs, r) == pytest.approx(m, abs=1e-10)


def test_hawking_power_law_small_r():
    # m_H ~ -(1/64 pi^{3/2}) k^{3/2} p^2 r^{(3p-4)/2} as r -> 0
    for p, k in ((1.0, 5.0), (4.0 / 3.0, K_SCHW), (2.0, 9.0)):
        prof = PowerLawProfile(k, p)
        r = 1e-8
        expect = (math.sqrt(k * r ** p / (16 * math.pi))
                  - k ** 1.5 * p ** 2 * r ** ((3 * p - 4) / 2) / (64 * math.pi ** 1.5))
        assert hawking_mass_sphere(prof, r) == pytest.approx(expect, rel=1e-10)


def test_hawking_nondecreasing_when_scalar_curvature_nonnegative():
    for prof in (FlatProfile(), ConformalSchwarzschildProfile(-1.0),
                 ConformalSchwarzschildProfile(1.5)):
        rs = np.geomspace(0.05, 200.0, 120)
        ms = [hawking_mass_sphere(prof, r) for r in rs]
        for a, b in zip(ms, ms[1:]):
            assert b >= a - 1e-10


# ---------------------------------------------------------------------------
# ADM mass

def test_adm_schwarzschild_negative():
    assert adm_mass(ConformalSchwarzschildProfile(-1.0)) == pytest.approx(-1.0, abs=1e-6)


def test_adm_flat():
    assert adm_mass(FlatProfile()) == pytest.approx(0.0, abs=1e-12)


def test_adm_schwarzschild_positive():
    assert adm_mass(ConformalSchwarzschildProfile(2.0)) == pytest.approx(2.0, abs=1e-6)


def test_adm_bump():
    assert adm_mass(bump_profile()) == pytest.approx(0.0, abs=1e-10)


def test_adm_rejects_nonflat_tail():
    # log-periodic area modulation never settles to a flat tail
    def fn(r):
        s, c = np.sin(np.log(r)), np.cos(np.log(r))
        B, dB, d2B = 1.0 + 0.3 * s, 0.3 * c / r, -0.3 * (c + s) / r ** 2
        return (4 * math.pi * r * r * B, 4 * math.pi * (2 * r * B + r * r * dB),
                4 * math.pi * (2 * B + 4 * r * dB + r * r * d2B))

    prof = CustomProfile(fn)
    with pytest.raises(NonConvergenceError):
        adm_mass(prof)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 1.0])
def test_adm_needs_a_one_over_r_tail(q):
    # A = 4 pi r^2 and A' = 8 pi r sqrt(1 - 2 m(r)/r) give m_H(r) = m(r) with
    # m = 1 + 0.5 r^-q + 0.3 r^-2; only q = 1 is an asymptotically flat tail
    def fn(r):
        m = 1.0 + 0.5 * r ** -q + 0.3 * r ** -2.0
        return 4 * math.pi * r * r, 8 * math.pi * r * np.sqrt(1.0 - 2.0 * m / r), 0.0

    prof = CustomProfile(fn)
    if q == 1.0:
        assert adm_mass(prof) == pytest.approx(1.0, abs=1e-9)
    else:
        with pytest.raises(NonConvergenceError):
            adm_mass(prof)


# ---------------------------------------------------------------------------
# regular (central) mass

def test_regular_mass_schwarzschild_oracle():
    # near the singularity A = k s^{4/3} with k = 16 pi (3/4)^{4/3} |m|^{2/3},
    # so m_R = -k^{3/2}/(36 pi^{3/2}) = m
    cs = ConformalSchwarzschildProfile(-1.0)
    k = K_SCHW
    oracle = -k ** 1.5 / (36.0 * math.pi ** 1.5)
    assert oracle == pytest.approx(-1.0, abs=1e-12)
    assert regular_mass(cs) == pytest.approx(oracle, abs=1e-4)


def test_regular_mass_power_law_exact_exponent():
    k = 20.0
    assert regular_mass(PowerLawProfile(k, 4.0 / 3.0)) == pytest.approx(
        -k ** 1.5 / (36.0 * math.pi ** 1.5), rel=1e-10)


def test_regular_mass_zero_class():
    assert regular_mass(PowerLawProfile(7.0, 2.0)) == pytest.approx(0.0, abs=1e-12)


def test_regular_mass_zero_where_the_area_underflows():
    # k r^p underflows to 0 at r = 1e-6/8 for these heads, so the ladder starts
    # higher up instead of dividing 0 by 0; p > 4/3 puts the limit at 0
    for k, p in ((3.0, 50.0), (1.0, 60.0)):
        assert regular_mass(PowerLawProfile(k, p)) == 0.0
    # an area below the normal range up to r = 0.13 gives no ladder at all
    tiny = CustomProfile(lambda r: (1e-310 * r * r, 2e-310 * r, 2e-310))
    with pytest.raises(NumericalError):
        regular_mass(tiny)


def test_regular_mass_divergent_marker():
    assert regular_mass(PowerLawProfile(3.0, 0.5)) == -math.inf
    assert regular_mass(PowerLawProfile(3.0, 1.2)) == -math.inf


_SWEEP_P = np.concatenate((np.linspace(0.2, 3.0, 2801),
                           [4 / 3 + s * 10.0 ** -e for e in range(2, 12) for s in (-1, 1)],
                           4 / 3 + np.linspace(-0.06, 0.06, 241)))


@pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 20.0])
def test_regular_mass_power_law_sweep(k):
    # the three classes of A = k r^p: -inf below p = 4/3, 0 above; never +inf
    # (the integrand is never positive) nor a value of the wrong class
    for p in _SWEEP_P[_SWEEP_P != 4 / 3].tolist():
        try:
            value = regular_mass(PowerLawProfile(k, p))
        except NonConvergenceError:
            # a ladder cannot tell r^(3p/2 - 2) from 1 (1e-5 with the rounding of 4/3 - 1e-5)
            assert abs(p - 4 / 3) <= 1.0001e-5
            continue
        except DomainError:
            assert abs(p - 2.0) < 0.01  # glue radius outside [2^-500, 2^500]
            continue
        assert value <= 0.0, p
        if p < 4 / 3:
            assert value == -math.inf, p
        else:
            assert abs(value) <= 1e-6 * k ** 1.5, p


def test_regular_mass_oscillatory_error():
    # area modulated so halving r flips the modulation: forces oscillation
    k = K_SCHW

    def fn(r):
        B = 1.0 + 0.3 * np.sin(math.pi * np.log2(r))
        dB = 0.3 * np.cos(math.pi * np.log2(r)) * math.pi / (r * math.log(2))
        return (k * r ** (4 / 3) * B, k * (4 / 3) * r ** (1 / 3) * B + k * r ** (4 / 3) * dB,
                0.0)

    prof = CustomProfile(fn)
    with pytest.raises(NonConvergenceError) as err:
        regular_mass(prof)
    assert len(err.value.samples) == 4


def test_regular_mass_agrees_with_hawking_limit():
    # the two r -> 0 extrapolations (mass integrand and Hawking mass)
    from negmass.numerics import ladder_limit
    for prof in (ConformalSchwarzschildProfile(-1.0), PowerLawProfile(K_SCHW, 4 / 3)):
        eps = 1e-6
        vals = [hawking_mass_sphere(prof, eps / 2 ** k) for k in range(4)]
        hawk = ladder_limit(vals, 1e-12 * max(abs(v) for v in vals))
        assert regular_mass(prof) == pytest.approx(hawk, abs=1e-4)


# ---------------------------------------------------------------------------
# capacity

def test_capacity_flat_is_radius():
    flat = FlatProfile()
    for r0 in (0.5, 1.0, 7.0):
        assert radial_capacity(flat, r0) == pytest.approx(r0, rel=1e-9)


def test_capacity_schwarzschild_matches_closed_form():
    cs = ConformalSchwarzschildProfile(-1.0)
    for r0 in (0.01, 0.3, 2.0):
        assert radial_capacity(cs, r0) == pytest.approx(
            cs.capacity_exact(r0), rel=1e-8)


def test_capacity_meets_closed_form_to_tail_tolerance():
    # small r0 for m = 1: the tail's octaves must still reach r = 2^40, where
    # the chart's m log R term no longer biases the closing power fit
    for m, r0 in ((-3.0, 1e-3), (1.0, 1e-3), (-1.0, 1e-2), (1.0, 1e-6), (1.0, 1e-7),
                  (1.0, 1e-9)):
        cs = ConformalSchwarzschildProfile(m)
        assert radial_capacity(cs, r0) == pytest.approx(cs.capacity_exact(r0), rel=1e-10)


def test_capacity_across_a_blend_meets_reference():
    # A = 20 r^1.5 blends into flat space over [2.533, 5.066]; the reference is
    # mpmath.quad of 4 pi/A at 40 digits, split at both ends of the blend
    prof = PowerLawProfile(20.0, 1.5)
    assert radial_capacity(prof, 2.0) == pytest.approx(1.9736942445357382787, rel=1e-14, abs=0.0)
    # a steep blend (at p = 20, A reaches thousands of times 4 pi r^2) keeps f = 1/r past it
    for p in (12.0, 20.0):
        r = 3.0 * PowerLawProfile(3.0, p).r_glue
        assert radial_capacity(PowerLawProfile(3.0, p), r) == pytest.approx(r, rel=1e-14, abs=0.0)


def test_capacity_monotone_in_radius():
    for prof in (FlatProfile(), ConformalSchwarzschildProfile(-1.0),
                 PowerLawProfile(3.0, 0.5)):
        caps = [radial_capacity(prof, r) for r in (0.1, 0.5, 1.0, 4.0)]
        assert caps == sorted(caps)


def test_capacity_center_cases():
    assert capacity_center(ConformalSchwarzschildProfile(-1.0)) == 0.0
    assert capacity_center(FlatProfile()) == 0.0
    assert capacity_center(PowerLawProfile(3.0, 0.5)) > 0.0
    # p = 30: A underflows to 0 near r = 2^-64, where the head diverges anyway
    for p in (1.0, 1.2, 4.0 / 3.0, 2.0, 30.0):
        assert capacity_center(PowerLawProfile(3.0, p)) == 0.0
    # A = 4 pi sqrt(r): the head converges, the tail diverges, so f(0) = inf
    root = CustomProfile(lambda r: (4 * math.pi * np.sqrt(r), 2 * math.pi / np.sqrt(r),
                                    -math.pi / r ** 1.5))
    assert capacity_center(root) == 0.0


def test_capacity_center_power_law_head_closed_form():
    # int_0^r ds/(k s^p) = r^(1-p)/(k (1-p)) on the pure head r <= r_glue
    for k, p in ((3.0, 0.5), (1.0, 0.9), (3.0, 0.99999)):
        prof = PowerLawProfile(k, p)
        r = 0.5 * prof.r_glue
        exact = 1.0 / (4.0 * math.pi * r ** (1.0 - p) / (k * (1.0 - p))
                       + radial_capacity_function(prof, r))
        assert capacity_center(prof) == pytest.approx(exact, rel=1e-10)


def line_profile():
    # A = 4 pi r: f = int_r^inf ds/s diverges, so no capacity is defined
    return CustomProfile(lambda r: (4 * math.pi * r, 4 * math.pi, 0.0))


def test_capacity_divergent_tail_raises():
    with pytest.raises(NumericalError):
        radial_capacity(line_profile(), 1.0)


def test_capacity_center_positive_limit():
    # the horizon of a positive mass has capacity m; phi = 1 + C f over a
    # base with f -> inf has capacity function f/phi -> 1/C at the center
    for m in (0.3, 1.0, 2.0):
        assert capacity_center(ConformalSchwarzschildProfile(m)) == pytest.approx(m, rel=1e-12)
    prof = ConformalProfile(ConformalSchwarzschildProfile(-1.0), 1.0)
    assert prof.r_min == 0.0
    assert capacity_center(prof) == pytest.approx(1.0, rel=1e-9)
    # small C: f/phi reaches 1/C only far inside, below any fixed sample radius
    for C in (0.05, 0.1, 0.3):
        prof = ConformalProfile(ConformalSchwarzschildProfile(-1.0), C)
        assert capacity_center(prof) == pytest.approx(C, rel=1e-8)


def test_capacity_center_needs_center_at_zero():
    # s_new of phi = 1 + C/r runs to -inf at the center: no r = 0 to take limits at
    for prof in (ConformalProfile(FlatProfile(), 0.3),
                 CustomProfile(lambda r: (4 * math.pi * r * r, 8 * math.pi * r, 8 * math.pi),
                               r_min=1.0)):
        with pytest.raises(DomainError):
            capacity_center(prof)


# ---------------------------------------------------------------------------
# power-law classification

def test_classify_power_law_three_regimes():
    rep = classify_power_law(3.0, 0.5)
    assert rep.classification == "minus-infinity"
    assert rep.capacity_center > 0.0
    assert rep.regular_mass == -math.inf

    rep = classify_power_law(3.0, 1.2)
    assert rep.classification == "minus-infinity"
    assert rep.capacity_center == 0.0

    rep = classify_power_law(3.0, 4.0 / 3.0)
    assert rep.classification == "finite-mass"
    assert rep.regular_mass == pytest.approx(-3.0 ** 1.5 / (36 * math.pi ** 1.5))

    rep = classify_power_law(3.0, 2.0)
    assert rep.classification == "zero-mass"
    assert rep.regular_mass == 0.0


def test_mass_report_capacity_invariant():
    with pytest.raises(ValidationError):
        MassReport("zero-mass", 0.0, capacity_center=0.5)


def test_classification_matches_numeric_extraction():
    for (k, p) in ((3.0, 0.5), (3.0, 1.2), (5.0, 4 / 3), (5.0, 2.0)):
        rep = classify_power_law(k, p)
        numeric = regular_mass(PowerLawProfile(k, p))
        if rep.classification == "minus-infinity":
            assert numeric == -math.inf
        else:
            assert numeric == pytest.approx(rep.regular_mass, abs=1e-6)


# ---------------------------------------------------------------------------
# Penrose-type inequality

def test_adm_at_least_regular_mass():
    # equality on the Schwarzschild slice
    cs = ConformalSchwarzschildProfile(-1.0)
    assert adm_mass(cs) >= regular_mass(cs) - 1e-4
    assert adm_mass(cs) == pytest.approx(regular_mass(cs), abs=1e-4)
    # strict on singular profiles with a flat tail glued on
    for k, p in ((K_SCHW, 4.0 / 3.0), (3.0, 0.5), (5.0, 2.0)):
        prof = PowerLawProfile(k, p)
        assert adm_mass(prof) >= regular_mass(prof)


# ---------------------------------------------------------------------------
# harmonic conformal factor

def test_conformal_flat_to_schwarzschild():
    # phi = 1 + m/2r over flat space is the closed-form slice of mass m < 0:
    # an oracle for the conformal tables, the floor search and the end rule
    s = np.geomspace(1e-8, 1e4, 241)
    for m in (-0.5, -1.0, -1.25, -3.0):
        res = apply_harmonic_conformal(FlatProfile(), 0.5 * m)
        assert res.adm_check == pytest.approx(0.0, abs=1e-3)
        prof, cs = res.profile, ConformalSchwarzschildProfile(m)
        for got, exact in zip(prof.eval(s), cs.eval(s)):
            assert np.abs(got / exact - 1.0).max() <= 1e-12
        assert regular_mass(prof) == pytest.approx(regular_mass(cs), abs=1e-13)
        for r in (1e-6, 1e-3, 1.0, 1e3):
            assert radial_capacity(prof, r) == pytest.approx(cs.capacity_exact(r), rel=1e-13, abs=0.0)
        assert adm_mass(prof, r0=prof.new_arclength(2e3)) == pytest.approx(m, abs=1e-6)


def test_conformal_identity():
    res = apply_harmonic_conformal(FlatProfile(), 0.0)
    assert res.adm_check == pytest.approx(0.0, abs=1e-12)
    assert res.profile.area(3.0) == pytest.approx(4 * math.pi * 9.0, rel=1e-12)


def test_conformal_mass_shift():
    res = apply_harmonic_conformal(ConformalSchwarzschildProfile(1.0), 0.5)
    assert res.adm_check == pytest.approx(0.0, abs=1e-3)
    assert adm_mass(res.profile, r0=res.profile.new_arclength(2e3)) == pytest.approx(
        2.0, abs=1e-3)


def test_conformal_flat_positive_strength():
    # phi = 1 + C/r: int phi^2 ds diverges at r = 0, so s_new is anchored at r = 1
    for C in (0.25, 0.5):
        res = apply_harmonic_conformal(FlatProfile(), C)
        assert abs(res.adm_check) <= 1e-6
        assert res.profile.r_min == -math.inf
        for r in (0.3, 1.0, 5.0):
            assert res.profile.area(res.profile.new_arclength(r)) == pytest.approx(
                4 * math.pi * r * r * (1 + C / r) ** 4, rel=1e-10)


def test_conformal_adm_audit_ignores_rounding_noise():
    # Hawking masses near r = 1e4 carry ~1e-12 of rounding noise; for these
    # strengths it once read as a non-flat tail and the audit raised
    for C in (-0.36705536726046406, -0.6328906445499611):
        assert abs(apply_harmonic_conformal(FlatProfile(), C).adm_check) <= 1e-6


def test_conformal_log_divergent_inner_end():
    # A = k r^1.5: f ~ r^-1/2 and phi^2 ~ 1/r, so s_new diverges logarithmically inward
    for k in (3.0, 7.5, 20.0):
        for C in (0.05, 0.3, 1.0):
            res = apply_harmonic_conformal(PowerLawProfile(k, 1.5), C)
            assert res.profile.r_min == -math.inf
            assert abs(res.adm_check) <= 1e-6


def test_conformal_tables_raise_outside_their_range():
    prof = ConformalProfile(FlatProfile(), -0.5)
    top = prof.new_arclength(1e19)
    # the table runs from 2^-31 above the zero of phi at r = 0.5 to 2^64
    for call, arg in ((prof.new_arclength, 1e20), (prof.new_arclength, 0.5),
                      (prof.old_radius, 2.0 * top), (prof.area, 2.0 * top)):
        with pytest.raises(DomainError):
            call(arg)
    # a table that cannot hold the zero of phi, or a base with no capacity function
    with pytest.raises(DomainError):
        ConformalProfile(PowerLawProfile(1000.0, 1.0), -0.1)
    for C in (0.0, 0.5):
        with pytest.raises(NumericalError):
            ConformalProfile(line_profile(), C)


@pytest.mark.parametrize("C", [0.3, -0.2])
def test_conformal_factor_exact_past_a_blend(C):
    # A = 5 r^2.5 blends into flat space by r = 12.63, so f(13) = 1/13 exactly;
    # a Gauss panel straddling the blend's end must be halved to get it
    prof = ConformalProfile(PowerLawProfile(5.0, 2.5), C)
    assert prof.area(prof.new_arclength(13.0)) == pytest.approx(
        (1.0 + C / 13.0) ** 4 * 4.0 * math.pi * 169.0, rel=1e-12)


def test_conformal_positive_factor_down_to_the_center():
    # f(0) = 8.06 for A = 3 r^0.5: phi = 1 - 0.1 f stays positive, -0.2 f crosses zero
    assert ConformalProfile(PowerLawProfile(3.0, 0.5), -0.1).r_min == 0.0
    prof = ConformalProfile(PowerLawProfile(3.0, 0.5), -0.2)
    assert prof.r_min == 0.0 and prof._arc.origin > 0.0


def test_conformal_regular_mass_of_created_singularity():
    res = apply_harmonic_conformal(FlatProfile(), -0.5)
    assert regular_mass(res.profile) == pytest.approx(-1.0, abs=1e-3)


def test_regular_mass_needs_a_zero_area_end():
    # phi = 1 + C f over a negative-mass slice (C > 0) ends at r = 0 with the
    # area 4 pi C^4 / R0^2, R0 = |m|/2: no zero area singularity, so no mass
    rng = random.Random(0)
    for _ in range(32):
        m, C = rng.uniform(-3.0, -0.3), rng.uniform(0.02, 1.5)
        prof = ConformalProfile(ConformalSchwarzschildProfile(m), C)
        with pytest.raises(DomainError, match="nonzero area at r = 0"):
            regular_mass(prof)


# ---------------------------------------------------------------------------
# tabulated profiles

def _flat_samples():
    rs = np.geomspace(0.1, 100.0, 400)
    return rs, 4 * math.pi * rs ** 2


def test_tabulated_round_trip(tmp_path):
    rs, As = _flat_samples()
    path = tmp_path / "profile.csv"
    lines = ["r,A"] + [f"{float(r)!r},{float(a)!r}" for r, a in zip(rs, As)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    prof = parse_profile_file(path)
    assert prof.kind == "tabulated"
    assert prof.area(1.0) == pytest.approx(4 * math.pi, rel=1e-8)
    assert prof.d_area(1.0) == pytest.approx(8 * math.pi, rel=1e-6)
    assert hawking_mass_sphere(prof, 5.0) == pytest.approx(0.0, abs=1e-6)


def test_tabulated_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("radius,area\n1.0,12.0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_profile_file(path)


def test_tabulated_rejects_nan(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,A\n1.0,12.0\n2.0,nan\n3.0,13.0\n4.0,14.0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_profile_file(path)


def test_tabulated_rejects_nonmonotone_radius(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,A\n1.0,12.0\n0.9,12.5\n2.0,13.0\n3.0,14.0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_profile_file(path)


def _profile_text(rows, header="r,A", sep="\n"):
    return sep.join([header, *rows]) + sep


@pytest.mark.parametrize("case", ["lf", "crlf", "blank lines", "spaces around cells"])
def test_profile_file_accepts_line_variants(tmp_path, case):
    # every variant gives the knots and coefficients of the samples themselves
    rs, As = _flat_samples()
    rows = [f"{r!r},{a!r}" for r, a in zip(rs.tolist(), As.tolist())]
    text = {"lf": _profile_text(rows),
            "crlf": _profile_text(rows, sep="\r\n"),
            "blank lines": _profile_text(["", rows[0], "", "  ", *rows[1:], ""]),
            "spaces around cells": _profile_text(
                [f" {r!r} , {a!r}\t" for r, a in zip(rs.tolist(), As.tolist())],
                header="  r,A ")}[case]
    path = tmp_path / "profile.csv"
    path.write_bytes(text.encode("utf-8"))
    prof, ref = parse_profile_file(path), TabulatedProfile(rs, As)
    assert np.array_equal(prof._knots, ref._knots)
    for got, want in zip(prof._coef, ref._coef):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case, bad_row", [
    ("1.0,NA", True), ("1.0,abc", True), ("1.0,2.0,3.0", True), ("1.0,inf", True),
    ("bad header", False), ("header only", False), ("empty file", False)])
def test_profile_file_rejects(tmp_path, case, bad_row):
    rs, As = _flat_samples()
    rows = [f"{r!r},{a!r}" for r, a in zip(rs.tolist(), As.tolist())]
    text = {"bad header": _profile_text(rows, header="radius,area"),
            "header only": _profile_text([]),
            "empty file": ""}.get(case) or _profile_text([*rows[:2], case, *rows[2:]])
    path = tmp_path / "profile.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        parse_profile_file(path)
    if bad_row:
        # the third data row, on the file's fourth line, is named by either count
        assert re.search(r"\b(row 3|line 4)\b", str(err.value)), str(err.value)


def test_tabulated_requires_endpoint_density():
    rs = np.geomspace(0.001, 1000.0, 12)  # 6 decades, 12 samples: far too sparse
    with pytest.raises(ValidationError):
        TabulatedProfile(rs, 4 * math.pi * rs ** 2)


def _cubic(r):
    # A' = 3 - 3 (r - 1.5)^2 > 0 on [1, 2]; A'' changes sign at r = 1.5
    u = r - 1.5
    return 2.0 + 3.0 * u - u ** 3, 3.0 - 3.0 * u * u, -6.0 * u


@pytest.mark.parametrize("n", [4, 5, 9, 40])
def test_tabulated_reproduces_cubics(n):
    # not-a-knot end conditions make the spline of cubic data that cubic
    rs = np.geomspace(1.0, 2.0, n)
    prof = TabulatedProfile(rs, _cubic(rs)[0])
    grid = np.linspace(1.0, 2.0, 1001)[1:-1]
    for got, want in zip(prof.eval(grid), _cubic(grid)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("table", ["flat", "bump"])
def test_tabulated_matches_scipy_cubic_spline(table):
    interpolate = pytest.importorskip("scipy.interpolate")
    if table == "flat":
        rs, As = _flat_samples()
    else:
        rs = np.linspace(0.5, 12.0, 500)
        As = bump_profile().area(rs)
    ref = interpolate.CubicSpline(rs, As)
    grid = np.concatenate((rs[1:-1], np.linspace(rs[0], rs[-1], 5001)[1:-1]))
    A, dA, d2A = TabulatedProfile(rs, As).eval(grid)
    assert np.max(np.abs(A / ref(grid) - 1.0)) <= 1.4e-15
    for got, nu, tol in ((dA, 1, 1e-15), (d2A, 2, 3e-12)):
        want = ref(grid, nu)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_import_loads_no_scipy(tmp_path):
    # the package, its CLI and tabulated profiles run with scipy unimportable
    import negmass

    src = os.path.dirname(os.path.dirname(negmass.__file__))
    code = ("import sys, negmass, negmass.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

    rs, As = _flat_samples()
    table = tmp_path / "profile.csv"
    table.write_text("r,A\n" + "".join(f"{r!r},{a!r}\n" for r, a in zip(rs.tolist(),
                                                                       As.tolist())),
                     encoding="utf-8")
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from negmass.cli import run\n"
            "from negmass.spherical import TabulatedProfile\n"
            "rs = np.geomspace(0.1, 100.0, 400)\n"
            "print(TabulatedProfile(rs, 4 * np.pi * rs ** 2).eval(1.0)[0])\n"
            "sys.exit(run(['spherical-report', '--profile', 'tabulated', '--file', sys.argv[1],"
            " '--r0', '1.0', '--out', sys.argv[2]]))\n")
    out = subprocess.run([sys.executable, "-c", code, str(table), str(tmp_path / "r.csv")],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(4 * math.pi, rel=1e-14)
    assert (tmp_path / "r.csv").read_text(encoding="utf-8").startswith("quantity,value\nkind,tabulated")
