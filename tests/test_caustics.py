import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negmass.caustics import (ReducedLens, _w3, caustic_curve, critical_curve,
                              critical_points_kappa1, cusp_angles, grad_Z_eta,
                              image_count_survey, reduce)
from negmass.errors import (BoundaryRegimeError, DegenerateKappaError, DomainError,
                            ValidationError)
from negmass.lens import LensModel, jacobian_det, lens_map
from oracles import scan_cusps


# ---------------------------------------------------------------------------
# reduction

def test_reduce_identity_scale():
    red = reduce(LensModel(-1.0, 0.0, 0.2))
    assert (red.m_star, red.gamma_star, red.eps_kappa) == (-1.0, 0.2, 1)


def test_reduce_above_one():
    red = reduce(LensModel(-1.0, 1.5, 0.2))
    assert red.m_star == pytest.approx(-2.0)
    assert red.gamma_star == pytest.approx(0.4)
    assert red.eps_kappa == -1


def test_reduce_below_one():
    red = reduce(LensModel(-1.0, 0.5, 0.45))
    assert red.m_star == pytest.approx(-2.0)
    assert red.gamma_star == pytest.approx(0.9)
    assert red.eps_kappa == 1


def test_reduce_rejects_kappa_one():
    with pytest.raises(DegenerateKappaError):
        reduce(LensModel(-1.0, 1.0, 0.2))


# ---------------------------------------------------------------------------
# critical curves

def test_critical_curve_isolated_unit_circle():
    red = ReducedLens(-1.0, 0.0, 1)
    samples = critical_curve(red, 64)
    for s in samples:
        assert abs(abs(s.z_plus) - 1.0) < 1e-14
        assert abs(s.z_plus + s.z_minus) < 1e-14
    # phi = 0 sample sits at +-i
    assert samples[0].z_plus == pytest.approx(1j) or samples[0].z_plus == pytest.approx(-1j)


def test_critical_curve_phi_pi_sample():
    red = ReducedLens(-1.0, 0.5, 1)
    samples = critical_curve(red, 8)
    s = samples[4]  # phi = pi
    val = 1.0 / math.sqrt(1.5)
    assert s.phi == pytest.approx(math.pi)
    assert sorted((s.z_plus.real, s.z_minus.real)) == pytest.approx(
        [-val, val], abs=1e-12)
    assert abs(s.z_plus.imag) < 1e-12


def test_critical_curve_zeroes_full_jacobian():
    for kappa, gamma in ((0.0, 0.2), (0.6, 0.2), (1.5, 0.2), (0.9, 0.2)):
        model = LensModel(-1.0, kappa, gamma)
        red = reduce(model)
        for s in critical_curve(red, 90):
            if s.gap:
                continue
            assert abs(jacobian_det(s.z_plus, model)) <= 1e-9
            assert abs(jacobian_det(s.z_minus, model)) <= 1e-9


ROTATED = (LensModel(-1.0, 0.4, 0.3, 1.19), LensModel(-0.7, 0.15, 0.6, 2.68),
           LensModel(-1.6, 0.55, 0.1, 2.63))


def test_critical_curve_of_rotated_lens_zeroes_jacobian():
    for model in ROTATED:
        for s in caustic_curve(reduce(model), model, 90):
            if s.gap:
                continue
            assert abs(jacobian_det(s.z_plus, model)) <= 1e-9
            assert abs(jacobian_det(s.z_minus, model)) <= 1e-9


def test_rotated_caustic_is_turned_by_theta():
    for model in ROTATED:
        flat = LensModel(model.m, model.kappa, model.gamma)
        turn = cmath.exp(1j * model.theta)
        pairs = zip(caustic_curve(reduce(model), model, 90),
                    caustic_curve(reduce(flat), flat, 90))
        for s, s0 in pairs:
            assert abs(s.y_plus - turn * s0.y_plus) <= 1e-12 * abs(s0.y_plus)
            assert abs(s.y_minus - turn * s0.y_minus) <= 1e-12 * abs(s0.y_minus)
    # kappa = 1: the two-point caustic of the survey mask turns as well
    from negmass.caustics import _caustic_segments
    pts, ends = _caustic_segments(LensModel(-1.0, 1.0, 0.2, 0.7), 8)
    flat, _ = _caustic_segments(LensModel(-1.0, 1.0, 0.2), 8)
    assert np.array_equal(pts, ends) and pts.size == 2
    assert np.allclose(pts, cmath.exp(0.7j) * flat, rtol=1e-14, atol=0.0)


def test_critical_curve_independent_of_eps():
    gamma = 0.2
    for kappa in (0.3, 0.6, 0.95):
        a = critical_curve(reduce(LensModel(-1.0, kappa, gamma)), 48)
        b = critical_curve(reduce(LensModel(-1.0, 2.0 - kappa, gamma)), 48)
        for sa, sb in zip(a, b):
            assert sa.gap == sb.gap
            if sa.gap:
                continue
            assert abs(sa.z_plus - sb.z_plus) <= 1e-9
            assert abs(sa.z_minus - sb.z_minus) <= 1e-9


def test_critical_curve_continuity():
    red = ReducedLens(-1.0, 0.5, 1)
    samples = critical_curve(red, 720)
    zs = [s.z_plus for s in samples if not s.gap]
    steps = [abs(b - a) for a, b in zip(zs, zs[1:])]
    assert max(steps) < 0.1  # no branch flips


def _rematched_reference(reduced, n):
    """The scalar sampling critical_curve replaced: cmath per angle, each
    sample swapped to the root nearer the previous one, reset at gaps."""
    out = []
    prev = None
    for k in range(n):
        phi = 2.0 * math.pi * k / n
        den = cmath.exp(-1j * phi) - reduced.gamma_star
        if abs(den) < 1e-9:
            out.append((phi, complex("nan"), complex("nan"), True))
            prev = None
            continue
        zp = 1j * cmath.sqrt(abs(reduced.m_star) / den)
        zm = -zp
        if prev is not None and abs(zp - prev) > abs(zm - prev):
            zp, zm = zm, zp
        prev = zp
        out.append((phi, zp, zm, False))
    return out


@pytest.mark.parametrize("gstar", [0.0, 0.5, 0.9, 1.0, 1.7])
@pytest.mark.parametrize("n", [4, 8, 720])
def test_critical_curve_matches_scalar_rematch(gstar, n):
    curve = critical_curve(ReducedLens(-1.3, gstar, 1), n)
    ref = _rematched_reference(ReducedLens(-1.3, gstar, 1), n)
    assert curve.gap.tolist() == [r[3] for r in ref]
    assert curve.phi.tolist() == [r[0] for r in ref]
    if gstar == 1.0:
        assert curve.gap[0] and np.isnan(curve.z_plus[0])  # phi = 0
    for zp, zm, (_, rp, rm, gap) in zip(curve.z_plus, curve.z_minus, ref):
        if not gap:
            assert abs(zp - rp) <= 1e-14 * abs(rp)
            assert abs(zm - rm) <= 1e-14 * abs(rm)


def test_critical_curve_gap_flags_near_gamma_one():
    red = ReducedLens(-1.0, 1.0, 1)
    samples = critical_curve(red, 360)
    assert any(s.gap for s in samples)  # phi = 0 hits the degeneracy
    finite = [s for s in samples if not s.gap]
    assert finite  # the rest of the curve is still produced


def test_critical_curve_validation():
    with pytest.raises(DomainError):
        critical_curve(ReducedLens(1.0, 0.2, 1), 32)
    with pytest.raises(ValidationError):
        critical_curve(ReducedLens(-1.0, 0.2, 1), 3)


def test_quarter_turn_correspondence():
    # negative-mass curve at (kappa, gamma) = positive-mass curve at
    # (2 - kappa, gamma) rotated by a quarter turn
    gamma, kappa = 0.2, 0.4
    red_neg = reduce(LensModel(-1.0, kappa, gamma))
    samples = critical_curve(red_neg, 128)
    pos_scale = abs(1.0 - (2.0 - kappa))
    m_pos = 1.0 / pos_scale
    g_pos = gamma / pos_scale
    rot = cmath.exp(1j * math.pi / 2)
    pos_points = []
    for k in range(128):
        phi = 2 * math.pi * k / 128
        z = cmath.sqrt(m_pos / (cmath.exp(-1j * phi) - g_pos))
        pos_points.extend((rot * z, -rot * z))
    neg_points = [s.z_plus for s in samples] + [s.z_minus for s in samples]
    for p in neg_points:
        assert min(abs(p - q) for q in pos_points) <= 1e-9


# ---------------------------------------------------------------------------
# kappa = 1 branch

def test_kappa1_points_negative_mass_on_real_axis():
    # m < 0: conj(z)^2 = -m/gamma > 0, two points on the x1 axis
    pts = critical_points_kappa1(-1.0, 1.0)
    assert sorted(p.real for p in pts) == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert all(p.imag == 0.0 for p in pts)
    pts = critical_points_kappa1(-4.0, 1.0)
    assert sorted(p.real for p in pts) == pytest.approx([-2.0, 2.0], abs=1e-14)


def test_kappa1_points_positive_mass_on_imaginary_axis():
    pts = critical_points_kappa1(1.0, 1.0)
    assert sorted(p.imag for p in pts) == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_kappa1_points_continuous_with_critical_loops():
    # the loops at gamma* >> 1 shrink toward the kappa = 1 points
    m, gamma = -1.0, 0.2
    pts = critical_points_kappa1(m, gamma)
    near = critical_curve(reduce(LensModel(m, 0.999, gamma)), 256)
    locus = [s.z_plus for s in near if not s.gap] + [s.z_minus for s in near if not s.gap]
    for p in pts:
        assert min(abs(p - q) for q in locus) < 0.05


def test_kappa1_no_shear_no_points():
    assert critical_points_kappa1(-1.0, 0.0) == ()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["m", "gamma"])
def test_kappa1_points_reject_non_finite(which, bad):
    args = {"m": -1.0, "gamma": 0.5, which: bad}
    with pytest.raises(ValidationError):
        critical_points_kappa1(**args)


def test_kappa1_points_zero_full_jacobian():
    model = LensModel(-1.0, 1.0, 0.2)
    for z in critical_points_kappa1(model.m, model.gamma):
        assert abs(jacobian_det(z, model)) <= 1e-12


# ---------------------------------------------------------------------------
# caustics

def test_caustic_isolated_circle_radius_two():
    model = LensModel(-1.0)
    samples = caustic_curve(reduce(model), model, 64)
    for s in samples:
        assert abs(abs(s.y_plus) - 2.0) < 1e-12
        assert abs(abs(s.y_minus) - 2.0) < 1e-12


def test_caustic_small_shear_hausdorff_to_circle():
    model = LensModel(-1.0, 0.0, 1e-4)
    samples = caustic_curve(reduce(model), model, 512)
    dist = max(abs(abs(s.y_plus) - 2.0) for s in samples if not s.gap)
    assert dist < 1e-3


def test_caustic_points_at_kappa_one():
    model = LensModel(-1.0, 1.0, 0.2)
    pts = [lens_map(z, model) for z in critical_points_kappa1(model.m, model.gamma)]
    assert len(pts) == 2
    assert pts[0] == pytest.approx(-pts[1])


# ---------------------------------------------------------------------------
# cusps

@pytest.mark.parametrize("gstar,eps,labels,count", [
    (0.5, 1, set(), 0),
    (0.5, -1, {"phi1", "phi2"}, 4),
    (0.9, 1, {"phi3", "phi4", "phi5", "phi6"}, 8),
    (0.9, -1, {"phi1", "phi2"}, 4),
    (1.5, 1, {"phi1", "phi4", "phi6"}, 6),
    (1.5, -1, {"phi2", "phi3", "phi5"}, 6),
])
def test_cusp_table(gstar, eps, labels, count):
    cusps = cusp_angles(ReducedLens(-1.0, gstar, eps))
    assert {lab for _, lab in cusps.angles} == labels
    assert cusps.count == count


def test_cusp_angles_values_regime_two():
    cusps = cusp_angles(ReducedLens(-1.0, 0.9, 1))
    by_label = dict((lab, phi) for phi, lab in cusps.angles)
    disc = math.sqrt(4 * 0.81 - 3)
    assert by_label["phi3"] == pytest.approx(math.acos((3 + disc) / 3.6), abs=1e-13)
    assert by_label["phi4"] == pytest.approx(math.acos((3 - disc) / 3.6), abs=1e-13)
    assert by_label["phi5"] == pytest.approx(2 * math.pi - by_label["phi3"])
    assert by_label["phi6"] == pytest.approx(2 * math.pi - by_label["phi4"])


def test_cusp_regime_strings():
    assert cusp_angles(ReducedLens(-1.0, 0.5, 1)).regime == "gstar2<3/4"
    assert cusp_angles(ReducedLens(-1.0, 0.9, 1)).regime == "3/4<=gstar2<1"
    assert cusp_angles(ReducedLens(-1.0, 1.5, 1)).regime == "gstar2>1"


def test_cusp_boundary_gamma_one():
    with pytest.raises(BoundaryRegimeError):
        cusp_angles(ReducedLens(-1.0, 1.0, 1))


def test_cusp_count_even_and_paired():
    for gstar, eps in ((0.5, -1), (0.9, 1), (1.5, 1), (1.5, -1)):
        cusps = cusp_angles(ReducedLens(-1.0, gstar, eps))
        assert cusps.count % 2 == 0
        angles = [phi for phi, _ in cusps.angles]
        for phi in angles:
            if abs(math.sin(phi)) > 1e-12:
                partner = 2 * math.pi - phi
                assert any(abs(partner - q) < 1e-12 for q in angles)


def test_corrected_im_w3_matches_closed_roots():
    # roots of 4 g^2 c^2 - 6 g c + 3 - g^2 must be the phi3/phi4 angles
    for g in (0.9, 1.2, 1.5, 2.5):
        disc = math.sqrt(4 * g * g - 3)
        for sign in (+1, -1):
            c = (3 + sign * disc) / (4 * g)
            if abs(c) <= 1.0:
                phi = math.acos(c)
                assert _w3(phi, g).imag == pytest.approx(0.0, abs=1e-12)


def test_uncorrected_variant_fails_numerical_condition():
    # the variant polynomial with constant 4 - g^2 instead of 3 - g^2:
    # in the 3/4 <= g^2 < 1 regime it has no real roots at all (the cusp
    # table demands four), and where it does have roots they fail the
    # defining condition grad_Z eta = 0
    g = 0.9
    assert 36 * g * g - 16 * g * g * (4 - g * g) < 0  # no phi3/phi4 at all

    g = 1.5
    disc = 36 * g * g - 16 * g * g * (4 - g * g)
    assert disc > 0
    model = LensModel(-1.0, 0.0, g)
    for sign in (+1, -1):
        c = (6 * g + sign * math.sqrt(disc)) / (8 * g * g)
        assert abs(c) <= 1.0
        phi_bad = math.acos(c)
        # not one of the true roots
        assert abs(_w3(phi_bad, g).imag) > 1e-3
        den = cmath.exp(-1j * phi_bad) - g
        z = 1j * cmath.sqrt(1.0 / den)
        assert abs(grad_Z_eta(z, model)) > 1e-3


def test_cusps_pass_numerical_condition_in_full_models():
    # full (kappa-carrying) models on both sides of kappa = 1; a rotated
    # shear turns the cusps by theta
    for kappa, gamma, theta in ((0.5, 0.45, 0.0), (1.5, 0.2, 0.0), (0.5, 0.45, 1.1)):
        model = LensModel(-1.0, kappa, gamma, theta)
        red = reduce(model)
        cusps = cusp_angles(red)
        for phi, _ in cusps.angles:
            den = cmath.exp(-1j * phi) - red.gamma_star
            z = cmath.exp(1j * theta) * 1j * cmath.sqrt(abs(red.m_star) / den)
            assert abs(jacobian_det(z, model)) <= 1e-9
            # the full-model cusp gradient is |1-kappa|^2 times the reduced one
            assert abs(grad_Z_eta(z, model)) <= 1e-7 * max(1.0, abs(model.m) * 8)


@settings(max_examples=200, deadline=None)
@given(gstar=st.floats(0.01, 3.0).filter(lambda g: abs(g - 1.0) >= 1e-3),
       eps=st.sampled_from((-1, 1)))
@example(gstar=0.5, eps=-1)
@example(gstar=0.9, eps=1)
@example(gstar=0.9, eps=-1)
@example(gstar=1.5, eps=1)
@example(gstar=1.5, eps=-1)
# just above gamma* = sqrt(3)/2 the phi3/phi4 pair shares a grid cell
@example(gstar=math.sqrt(3.0) / 2.0 + 1e-5, eps=1)
@example(gstar=math.sqrt(3.0) / 2.0 + 1e-7, eps=1)
@example(gstar=math.sqrt(3.0) / 2.0 + 1e-8, eps=1)
@example(gstar=math.sqrt(3.0) / 2.0 + 1e-9, eps=1)
@example(gstar=math.sqrt(3.0) / 2.0 + 1e-10, eps=1)
@example(gstar=math.sqrt(3.0) / 2.0 + 1e-12, eps=1)
def test_scan_matches_closed_form(gstar, eps):
    red = ReducedLens(-1.0, gstar, eps)
    closed = [phi for phi, _ in cusp_angles(red).angles]
    scanned = scan_cusps(red)
    assert len(scanned) == len(closed)
    for a, b in zip(scanned, closed):
        assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# multiplicity survey

def test_survey_isolated():
    model = LensModel(-1.0)
    axis = np.linspace(-4.0, 4.0, 21)
    res = image_count_survey(model, axis, axis)
    for i, b in enumerate(res.y2):
        for j, a in enumerate(res.y1):
            if res.near_caustic[i, j]:
                continue
            expect = 0 if math.hypot(a, b) < 2.0 else 2
            assert res.counts[i, j] == expect


def test_survey_identity_map():
    model = LensModel(0.0)
    axis = np.linspace(-2.0, 2.0, 9)
    res = image_count_survey(model, axis, axis)
    assert np.all(res.counts == 1)


def test_survey_sheared_regime():
    model = LensModel(-1.0, 2.0, 0.2)
    axis = np.linspace(-2.2, 2.2, 13)
    res = image_count_survey(model, axis, axis)
    vals = set(res.counts[~res.near_caustic].ravel().tolist())
    assert vals <= {2, 4}
    center = res.counts[6, 6]
    assert center == 4


def test_survey_flags_points_between_caustic_samples():
    # the widest step of this lens's 8192-angle caustic is 5.2e-3; the two
    # points 3e-4 off its middle lie 2.6e-3 from either sample but within
    # the 1e-3 margin of the caustic
    model = LensModel(-1.9585059345298044, 0.10265656862205405, 0.5959762230559241)
    red = reduce(model)
    y = caustic_curve(red, model, 8192).y_plus
    steps = np.abs(np.diff(y))
    k = int(np.argmax(steps))
    assert steps[k] == pytest.approx(5.2e-3, abs=1e-4)
    mid = 0.5 * (y[k] + y[k + 1])
    normal = 1j * (y[k + 1] - y[k]) / steps[k]
    fine = caustic_curve(red, model, 2 ** 19).y_plus
    for p in (mid + 3e-4 * normal, mid - 3e-4 * normal):
        assert np.min(np.abs(y - p)) > 2e-3
        assert np.min(np.abs(fine - p)) < 1e-3
        res = image_count_survey(model, [p.real], [p.imag])
        assert res.near_caustic.tolist() == [[True]]


def test_swallowtail_panel_structure():
    # eps = +1, gamma* = 0.9: eight cusps, four swallowtails; counts are
    # 4 inside a swallowtail, 0 in the central region, 2 outside
    from negmass.lens import find_images
    model = LensModel(-1.0, 0.0, 0.9)
    red = reduce(model)
    by_label = dict((lab, phi) for phi, lab in cusp_angles(red).angles)
    assert len(find_images(0j, model)) == 0          # central region
    assert len(find_images(5.0 + 0j, model)) == 2    # outside everything
    # walk the caustic arc between the phi3 and phi4 cusp tips and scan
    # its neighborhood for the swallowtail interior
    phis = np.linspace(by_label["phi3"], by_label["phi4"], 25)
    zs = 1j * np.sqrt(-red.m_star / (np.exp(-1j * phis) - red.gamma_star))
    arc = [lens_map(z, model) for z in zs]
    ctr = sum(arc) / len(arc)
    inside = None
    for dx in np.linspace(-0.25, 0.25, 41):
        for dy in np.linspace(-0.25, 0.25, 41):
            y = ctr + complex(dx, dy)
            found = find_images(y, model)
            if len(found) == 4:
                inside = (y, found)
                break
        if inside:
            break
    assert inside is not None
    y, found = inside
    # four distinct genuine solutions of the lens equation
    for im in found:
        assert im.residual <= 1e-9
    positions = [im.position for im in found]
    for i, a in enumerate(positions):
        for b in positions[i + 1:]:
            assert abs(a - b) > 1e-6


def test_quarter_turn_caustic_correspondence():
    # eta_neg(i z) = -i eta_pos(z) under kappa <-> 2-kappa, m <-> -m:
    # the caustics are quarter-turn rotations of each other as point sets
    kappa, gamma = 0.4, 0.2
    neg_model = LensModel(-1.0, kappa, gamma)
    neg = [s.y_plus for s in caustic_curve(reduce(neg_model), neg_model, 128)]
    pos_scale = abs(1.0 - (2.0 - kappa))
    m_pos, g_pos = 1.0 / pos_scale, gamma / pos_scale
    pos_model_eta = LensModel(1.0, 2.0 - kappa, gamma)
    pos = []
    for k in range(128):
        phi = 2 * math.pi * k / 128
        z = cmath.sqrt(m_pos / (cmath.exp(-1j * phi) - g_pos))
        pos.extend((lens_map(z, pos_model_eta), lens_map(-z, pos_model_eta)))
    rotated = [-1j * p for p in pos]
    for y in neg:
        assert min(abs(y - q) for q in rotated) <= 1e-9


def test_counts_change_by_two_across_caustic():
    model = LensModel(-1.0, 2.0, 0.2)
    from negmass.lens import find_images
    counts = []
    for t in np.linspace(0.0, 3.0, 101):
        y = t * cmath.exp(0.37j)
        counts.append(len(find_images(y, model)))
    jumps = {abs(b - a) for a, b in zip(counts, counts[1:])}
    assert jumps <= {0, 2}
