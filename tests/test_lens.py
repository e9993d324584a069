import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from negmass.errors import DomainError, SingularPointError, ValidationError
from negmass.lens import (LensModel, find_images, jacobian_det, lens_map, light_curve,
                          magnification_isolated, solve_images_isolated,
                          total_magnification_isolated)
from oracles import fermat_gradient, surface_potential


def closed_form_images(y: complex, m: float):
    ynorm = abs(y)
    yhat = y / ynorm
    root = math.sqrt(ynorm ** 2 + 4 * m)
    return [0.5 * (ynorm + root) * yhat, 0.5 * (ynorm - root) * yhat]


# ---------------------------------------------------------------------------
# potential, map, Jacobian

def test_potential_point_mass_on_unit_circle():
    assert surface_potential(1j, LensModel(-1.0)) == pytest.approx(0.0, abs=1e-15)


def test_potential_pure_convergence():
    assert surface_potential(2.0 + 0j, LensModel(0.0, kappa=1.0)) == pytest.approx(2.0)


def test_potential_combined_value():
    model = LensModel(-1.0, kappa=0.2, gamma=0.2, theta=0.0)
    expected = -1.0 * 0.5 * math.log(2.0) + 0.1 * 2.0 - 0.1 * 0.0
    assert surface_potential(1 + 1j, model) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(-0.14657, abs=5e-6)


def test_potential_singular_at_origin():
    with pytest.raises(SingularPointError):
        surface_potential(0j, LensModel(-1.0))
    with pytest.raises(ValidationError):
        surface_potential(complex("nan"), LensModel(-1.0))


def test_lens_map_isolated():
    assert lens_map(2.0 + 0j, LensModel(-1.0)) == pytest.approx(2.5 + 0j)


def test_lens_map_pure_convergence():
    for z in (1 + 2j, -0.3 + 0.1j):
        assert lens_map(z, LensModel(0.0, kappa=0.25)) == pytest.approx(0.75 * z)


def test_lens_map_pure_shear():
    assert lens_map(1 + 1j, LensModel(0.0, gamma=0.5)) == pytest.approx(1.5 + 0.5j)


def test_lens_map_identity_without_parameters():
    assert lens_map(0.3 - 4j, LensModel(0.0)) == 0.3 - 4j


def test_jacobian_isolated_critical_circle():
    model = LensModel(-1.0)
    for ang in (0.0, 1.1, 3.0):
        z = cmath.exp(1j * ang)
        assert jacobian_det(z, model) == pytest.approx(0.0, abs=1e-14)
    assert jacobian_det(2 ** 0.25 * 1j, model) == pytest.approx(0.5, abs=1e-14)
    assert jacobian_det(2 ** 0.5 + 0j, model) == pytest.approx(0.75, abs=1e-14)


def test_jacobian_identity_map():
    assert jacobian_det(5 + 1j, LensModel(0.0)) == 1.0


# ---------------------------------------------------------------------------
# isolated images

def test_isolated_images_outside_caustic():
    result = solve_images_isolated(3.0 + 0j, -1.0)
    xs = sorted(im.position.real for im in result)
    expect = sorted(x.real for x in closed_form_images(3.0 + 0j, -1.0))
    assert xs == pytest.approx(expect, abs=1e-12)
    assert xs[0] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    assert xs[1] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    # both images sit on the source ray and map back onto the source
    for im in result:
        assert abs(im.position.imag) < 1e-14
        assert abs(lens_map(im.position, LensModel(-1.0)) - 3.0) < 1e-12
    # parities: outer image positive, inner negative
    assert result[0].parity == 1 and result[1].parity == -1


def test_isolated_images_inside_caustic():
    result = solve_images_isolated(1.0 + 0j, -1.0)
    assert len(result) == 0
    assert "inside-caustic" in result.flags


def test_isolated_images_degenerate():
    result = solve_images_isolated(2.0 + 0j, -1.0)
    assert len(result) == 1
    assert result[0].critical
    assert result[0].position == pytest.approx(1.0 + 0j, abs=1e-12)


def test_isolated_images_origin_is_inside():
    assert "inside-caustic" in solve_images_isolated(0j, -1.0).flags


def test_isolated_requires_negative_mass():
    with pytest.raises(DomainError):
        solve_images_isolated(3.0 + 0j, 1.0)


# ---------------------------------------------------------------------------
# general image finding

def test_find_images_matches_closed_form():
    rng = np.random.default_rng(7)
    model_m = rng.uniform(-4.0, -0.25, size=300)
    for m in model_m:
        caustic = 2 * math.sqrt(-m)
        ynorm = rng.uniform(caustic * 1.01, 10.0)
        ang = rng.uniform(0, 2 * math.pi)
        y = ynorm * cmath.exp(1j * ang)
        found = find_images(y, LensModel(m))
        expect = closed_form_images(y, m)
        assert len(found) == 2
        for ex in expect:
            assert min(abs(im.position - ex) for im in found) < 1e-10


def test_find_images_far_source_two_images():
    model = LensModel(-1.0, kappa=0.2, gamma=0.2)
    assert len(find_images(50.0 + 0j, model)) == 2


def test_find_images_four_inside_caustic():
    # eps = -1 regime (kappa = 2): four images around the origin
    model = LensModel(-1.0, kappa=2.0, gamma=0.2)
    result = find_images(0.05 + 0.02j, model)
    assert len(result) == 4
    for im in result:
        assert abs(lens_map(im.position, model) - (0.05 + 0.02j)) <= 1e-9


def test_find_images_gamma_star_above_one():
    # kappa = 0.9, gamma = 0.2: gamma* = 2, caustic loops off-origin
    model = LensModel(-1.0, kappa=0.9, gamma=0.2)
    from negmass.caustics import caustic_curve, reduce
    pts = [s.y_plus for s in caustic_curve(reduce(model), model, 512)]
    loop = [p for p in pts if p.real > 0]
    centroid = sum(loop) / len(loop)
    assert len(find_images(centroid, model)) == 4
    assert len(find_images(0j, model)) == 2


def test_find_images_degenerate_linear_part():
    model = LensModel(-1.0, kappa=1.0, gamma=0.0)
    # eta = -m/conj(z): one image at -m/conj(y), also for sources so close
    # to the center that the image lies far out, and none at y = 0
    for y in (2.0 + 1.0j, 1e-3, 1e-6j):
        result = find_images(y, model)
        assert "degenerate-linear-part" in result.flags
        expect = -model.m / complex(y).conjugate()
        assert len(result) == 1
        assert abs(result[0].position - expect) <= 1e-12 * abs(expect)
    result = find_images(0j, model)
    assert "degenerate-linear-part" in result.flags
    assert len(result) == 0


def test_find_images_without_shear_drops_quartic_term():
    # gamma = 0: the quartic coefficient vanishes and the cubic keeps a root
    # at z = 0, which is no image.  Images lie on the ray of y at
    # x = (|y| +/- sqrt(|y|^2 + 4 (1 - kappa) m)) / (2 (1 - kappa)).
    m = -1.0
    for kappa, y, count in ((0.5, 2.0 + 0.5j, 2), (0.5, 0.3 - 0.2j, 0), (2.0, 0.7 + 0.3j, 2)):
        model = LensModel(m, kappa, 0.0)
        found = find_images(y, model)
        assert len(found) == count
        u, r = 1.0 - kappa, abs(y)
        root = math.sqrt(r * r + 4.0 * u * m) if count else 0.0
        for x in ((r + root) / (2.0 * u), (r - root) / (2.0 * u))[:count]:
            assert min(abs(im.position - x * y / r) for im in found) <= 1e-12
        for im in found:
            assert abs(lens_map(im.position, model) - y) <= 1e-9


def test_find_images_when_quartic_term_cancels():
    # gamma = |1 - kappa| (gamma* = 1) cancels the quartic coefficient up to
    # rounding: 1 - 0.7 is 0.30000000000000004, so it is -8e-18, not 0.
    # kappa = 0.7, m = -1: eta = 0.6 x1 + z/|z|^2, so a real y = a has the two
    # images 0.6 x^2 - a x + 1 = 0, and y = 0.5i the one image 2i.
    # kappa = 1.3: eta = z/|z|^2 - 0.6 i x2; a real y = a has x = 1/a, plus
    # the two points of |z|^2 = 1/0.6 with x1 = a/0.6 when |a| <= sqrt(0.6).
    for kappa, y, count in ((0.7, 3.0, 2), (0.7, 0.5j, 1), (0.7, 3.0 + 0.01j, 3),
                            (1.3, 3.0, 1), (1.3, 0.5, 3), (1.3, 2.0, 1)):
        model = LensModel(-1.0, kappa, 0.3)
        found = find_images(y, model)
        assert len(found) == count
        for im in found:
            assert abs(lens_map(im.position, model) - y) <= 1e-9


def test_find_images_none_at_unit_reduced_shear():
    # gamma* = 1 with kappa < 1, u = 1 - kappa: along the real axis
    # eta = 2u x1 - m x1/|z|^2 + i(-m x2/|z|^2), so a real source y = a has
    # an image only if 2u x^2 - a x - m = 0 has a real root, i.e. a^2 >= 8 u |m|.
    # The trimmed cubic still puts roots near infinity, where |m/z| sinks
    # below the rounding of u z + gamma conj(z); none of them is an image.
    for model, ys in ((LensModel(-1.0, 0.4, 0.6), (1.0, 0.5, 2.0, -1.0)),
                      (LensModel(-1.0, 0.99, 1.0 - 0.99), (0.05, 0.1, 0.2)),
                      (LensModel(-0.25, 0.95, 1.0 - 0.95), (0.01, 0.1))):
        for y in ys:
            assert len(find_images(y, model)) == 0


def _potential_jacobian(z: complex, model: LensModel) -> float:
    """det(I - Hessian of psi), from the second derivatives of the potential."""
    x1, x2 = z.real, z.imag
    r4 = (x1 * x1 + x2 * x2) ** 2
    c, s = math.cos(2 * model.theta), math.sin(2 * model.theta)
    p11 = model.kappa - model.gamma * c + model.m * (x2 * x2 - x1 * x1) / r4
    p22 = model.kappa + model.gamma * c + model.m * (x1 * x1 - x2 * x2) / r4
    p12 = -model.gamma * s - 2.0 * model.m * x1 * x2 / r4
    return (1.0 - p11) * (1.0 - p22) - p12 * p12


def _caustic_clearance(y, model: LensModel, n: int = 1 << 14):
    """Distance from y (a point, or an array of points at once) to the
    closed-form caustic, less one sample step."""
    u = 1.0 - model.kappa
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    z = 1j * np.sqrt(abs(model.m / u) / (np.exp(-1j * phi) - model.gamma / abs(u)))
    z = z * cmath.exp(1j * model.theta)
    caustic = u * z + model.gamma * cmath.exp(2j * model.theta) * z.conj() - model.m / z.conj()
    # the other branch is -caustic; a square-root branch switch swaps the two
    step = np.minimum(np.abs(np.diff(caustic)), np.abs(caustic[1:] + caustic[:-1])).max()
    y = np.asarray(y)[..., None]
    return np.minimum(np.abs(caustic - y).min(-1), np.abs(caustic + y).min(-1)) - step


def _quartic_image_count(y: complex, model: LensModel) -> int:
    """Images of y counted in w = conj(z), apart from find_images's polynomial.

    The lens equation y = u z + G w - m/w gives z = N/(u w) with
    N = y w - G w^2 + m; its conjugate conj(y) = u w + conj(G) z - m/z then
    reads u w N (conj(y) - u w) - conj(G) N^2 + m u^2 w^2 = 0.  Leading
    coefficients at or below 1e-14 max(1, max|p|) are trimmed, as
    find_images trims; a root counts if z = conj(w) solves the lens
    equation to 1e-6 max(1, |z|).
    """
    u, G = 1.0 - model.kappa, model.gamma * cmath.exp(2j * model.theta)
    N = np.array([-G, y, model.m])
    p = np.polysub(np.polymul(np.polymul([u, 0.0], N), [-u, y.conjugate()]),
                   G.conjugate() * np.polymul(N, N))
    p = list(np.polyadd(p, [model.m * u * u, 0.0, 0.0]))
    tiny = 1e-14 * max(1.0, *map(abs, p))
    while p and abs(p[0]) <= tiny:
        p.pop(0)
    w = np.roots(p) if p else np.empty(0, dtype=complex)
    w = w[w != 0]
    z = w.conj()
    res = np.abs(u * z + G * w - model.m / w - y)
    return int((res <= 1e-6 * np.maximum(1.0, np.abs(z))).sum())


_AWAY_FROM_ONE = st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 2.5))


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, -0.2), _AWAY_FROM_ONE, _AWAY_FROM_ONE, st.floats(0.0, 3.1),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_images_solve_lens_equation_with_unit_mu_j(m, kappa, gstar, theta, y1, y2):
    model = LensModel(m, kappa, gstar * abs(1.0 - kappa), theta)
    y = complex(y1, y2)
    assume(_caustic_clearance(y, model) >= 1e-3)
    found = find_images(y, model)
    assert len(found) % 2 == 0
    assert len(found) == _quartic_image_count(y, model)
    for im in found:
        assert abs(lens_map(im.position, model) - y) <= 1e-9
        assert im.signed_magnification * _potential_jacobian(im.position, model) == \
            pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("m, kappa, gstar, theta", [
    (-1.0, 0.4, 0.5, 0.7), (-1.0, 1.5, 0.25, 1.1), (-0.7, 0.85, 1.8, 2.0),
    (-1.3, 0.2, 0.9, 2.9)])
def test_image_counts_match_conjugate_quartic_on_grid(m, kappa, gstar, theta):
    # sheared, rotated lenses on a fixed 21 x 21 source grid; sources within
    # 1e-3 of the caustic are skipped (6 of the 1,764 points)
    model = LensModel(m, kappa, gstar * abs(1.0 - kappa), theta)
    axis = np.linspace(-2.5, 2.5, 21)
    grid = axis[None, :] + 1j * axis[:, None]
    clear = np.array([_caustic_clearance(row, model) for row in grid]) >= 1e-3
    assert clear.sum() >= 420
    for y in grid[clear].tolist():
        assert len(find_images(y, model)) == _quartic_image_count(y, model), y


def test_find_images_zero_mass_identity():
    result = find_images(1.5 - 0.5j, LensModel(0.0))
    assert len(result) == 1
    assert result[0].position == pytest.approx(1.5 - 0.5j)


def test_find_images_sorted_by_radius():
    result = find_images(3.0 + 0j, LensModel(-1.0))
    radii = [abs(im.position) for im in result]
    assert radii == sorted(radii, reverse=True)


def test_find_images_count_agreement_inside_and_out():
    # dual route: polynomial solver vs closed form, counts included
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = rng.uniform(-4.0, -0.25)
        y = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if abs(abs(y) - 2 * math.sqrt(-m)) < 1e-3 or abs(y) < 1e-3:
            continue  # stay off the caustic and the axis point
        found = find_images(y, LensModel(m))
        closed = solve_images_isolated(y, m)
        assert len(found) == len(closed)
        for ex in closed:
            assert min((abs(im.position - ex.position) for im in found),
                       default=math.inf) < 1e-10


def test_jacobian_matches_numerical_determinant():
    # central-difference determinant of the full real lens map
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(40):
        model = LensModel(rng.uniform(-3, -0.3), rng.uniform(0, 1.8),
                          rng.uniform(0, 0.5), rng.uniform(0, 3.0))
        z = complex(rng.uniform(0.3, 3), rng.uniform(0.3, 3))
        f = lambda p: lens_map(p, model)
        dfx = (f(z + h) - f(z - h)) / (2 * h)
        dfy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
        det_fd = dfx.real * dfy.imag - dfy.real * dfx.imag
        assert jacobian_det(z, model) == pytest.approx(det_fd, abs=1e-7)


def test_deflection_is_potential_gradient():
    # the deflection alpha = z - eta(z) is grad psi
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(40):
        model = LensModel(rng.uniform(-3, -0.3), rng.uniform(0, 1.8),
                          rng.uniform(0, 0.5), rng.uniform(0, 3.0))
        z = complex(rng.uniform(0.3, 3), rng.uniform(0.3, 3))
        gx = (surface_potential(z + h, model) - surface_potential(z - h, model)) / (2 * h)
        gy = (surface_potential(z + 1j * h, model)
              - surface_potential(z - 1j * h, model)) / (2 * h)
        alpha = z - lens_map(z, model)
        assert alpha.real == pytest.approx(gx, abs=1e-7)
        assert alpha.imag == pytest.approx(gy, abs=1e-7)


def test_round_trip_and_magnification_consistency():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = rng.uniform(-3.0, -0.3)
        kappa = rng.choice([0.0, 0.3, 1.6])
        gamma = rng.uniform(0.0, 0.4)
        model = LensModel(m, kappa, gamma)
        y = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        for im in find_images(y, model):
            assert abs(lens_map(im.position, model) - y) <= 1e-9
            jac = jacobian_det(im.position, model)
            assert im.signed_magnification * jac == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, -0.3), st.floats(0.0, 0.45), st.floats(0.05, 3.0),
       st.floats(0.1, 5.0), st.floats(0.0, 6.2))
def test_theta_covariance(m, gamma, theta, r, ang):
    z = r * cmath.exp(1j * ang)
    tilted = LensModel(m, 0.2, gamma, theta)
    base = LensModel(m, 0.2, gamma, 0.0)
    rotated = cmath.exp(1j * tilted.theta) * lens_map(
        cmath.exp(-1j * tilted.theta) * z, base)
    assert abs(lens_map(z, tilted) - rotated) <= 1e-12 * max(1.0, abs(z))


def test_theta_normalization():
    assert LensModel(-1.0, theta=math.pi + 0.3).theta == pytest.approx(0.3)
    assert LensModel(-1.0, theta=-0.25).theta == pytest.approx(math.pi - 0.25)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, -0.2), _AWAY_FROM_ONE, _AWAY_FROM_ONE, st.floats(0.0, 3.1),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@example(-1.0, 0.3, 0.25 / 0.7, 0.7, 2.5, -0.8)
def test_find_images_in_rotated_frame(m, kappa, gstar, theta, y1, y2):
    # images of the tilted lens are the rotated images of the theta = 0 lens:
    # the same count, positions turned by theta, the same signed magnifications
    base = LensModel(m, kappa, gstar * abs(1.0 - kappa), 0.0)
    tilted = LensModel(m, kappa, base.gamma, theta)
    y0 = complex(y1, y2)
    assume(_caustic_clearance(y0, base) >= 1e-3)
    rot = cmath.exp(1j * tilted.theta)
    base_imgs = find_images(y0, base)
    tilt_imgs = find_images(rot * y0, tilted)
    assert len(base_imgs) == len(tilt_imgs)
    for im in base_imgs:
        zt = rot * im.position
        match = min(tilt_imgs, key=lambda t: abs(t.position - zt))
        assert abs(match.position - zt) <= 1e-10 * max(1.0, abs(zt))
        assert match.signed_magnification == pytest.approx(im.signed_magnification, rel=1e-9)
        assert abs(lens_map(match.position, tilted) - rot * y0) <= 1e-9


def test_survey_polish_work(monkeypatch):
    # the polish stops at rounding level and gives up on roots that do not
    # converge: this 41 x 41 survey takes about 33,000 lens-map evaluations,
    # and an extraneous root run to the 60-step cap each time would take 75,000
    from negmass import lens
    from negmass.caustics import image_count_survey
    calls = 0
    kernel = lens._eta_b

    def counted(z, model):
        nonlocal calls
        calls += 1
        return kernel(z, model)

    monkeypatch.setattr(lens, "_eta_b", counted)
    a = np.linspace(-4.0, 4.0, 41)
    image_count_survey(LensModel(-1.0, 0.4, 0.2), a, a)
    assert calls <= 40_000


# ---------------------------------------------------------------------------
# magnification

def test_total_magnification_example():
    mu = total_magnification_isolated(3.0, -1.0)
    assert mu == pytest.approx(7.0 / (3.0 * math.sqrt(5.0)), rel=1e-14)
    assert mu == pytest.approx(1.04350, abs=5e-6)


def test_total_magnification_unlensed_limit():
    assert total_magnification_isolated(1e3, -1.0) == pytest.approx(1.0, abs=1e-6)


def test_total_magnification_divergence_near_caustic():
    assert total_magnification_isolated(2.0001, -1.0) > 50.0


def test_total_magnification_domain_error():
    with pytest.raises(DomainError):
        total_magnification_isolated(1.9, -1.0)


def test_magnification_isolated_infinite_on_critical_circle():
    # |x|^2 = |m|: J = 0, reported as find_images reports it
    assert magnification_isolated(1.0, -1.0) == math.inf
    assert magnification_isolated(1j, 1.0) == math.inf
    assert magnification_isolated(2.0, 4.0) == math.inf
    assert magnification_isolated(2.0, -1.0) == pytest.approx(16.0 / 15.0, rel=1e-15)


def test_total_magnification_brute_force_identity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = rng.uniform(-4.0, -0.25)
        y = rng.uniform(2 * math.sqrt(-m) * 1.001, 10.0)
        xp, xm = closed_form_images(y + 0j, m)
        brute = magnification_isolated(xp, m) - magnification_isolated(xm, m)
        assert total_magnification_isolated(y, m) == pytest.approx(brute, abs=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda v: magnification_isolated(2.0, v),
    lambda v: solve_images_isolated(3.0, v),
    lambda v: total_magnification_isolated(v, -1.0),
    lambda v: total_magnification_isolated(3.0, v),
    lambda v: light_curve(v, 3.0, [0.0]),
    lambda v: light_curve(-1.0, v, [0.0]),
    lambda v: light_curve(-1.0, 3.0, [0.0, v]),
], ids=["single_m", "closed_m", "total_y", "total_m", "curve_m", "curve_d", "curve_time"])
def test_scalar_entry_points_reject_non_finite(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


_FAR = LensModel(-1.0, 0.3, 0.2)
_WEAK = LensModel(-1e-6, 0.3, 0.2)
_WEAK_Y = (3e4, 6e4, 1e5, 3e5)


@pytest.mark.parametrize("call, expect", [
    (lambda: jacobian_det(1e200, _FAR), 0.7 ** 2 - 0.2 ** 2),
    (lambda: jacobian_det(1e-200, _FAR), SingularPointError),
    (lambda: lens_map(1e-320, _FAR), SingularPointError),
    (lambda: surface_potential(1e200, _FAR), DomainError),
    (lambda: surface_potential(1e-320, LensModel(-1.0)), -math.log(1e-320)),
    (lambda: find_images(1e200, _FAR), DomainError),
    (lambda: total_magnification_isolated(1e200, -1.0), 1.0),
    (lambda: total_magnification_isolated(1e-200, 1.0), 1e200),
    (lambda: light_curve(-1.0, 1e200, [0.0])[0].magnification, 1.0),
    (lambda: [im.position for im in solve_images_isolated(1e200, -1.0)], [1e200, 1e-200]),
    # a weak point mass: the outer image is the linear part's own image, where
    # |m/z| is below the rounding of eta, and it is kept
    *[(lambda y=y: len(find_images(complex(y, 0.3 * y), _WEAK)), 2) for y in _WEAK_Y],
], ids=["jacobian_far", "jacobian_near", "map_near", "potential_far", "potential_near",
        "images_far", "total_far", "total_near", "curve_far", "closed_far",
        *[f"weak_images_{y:g}" for y in _WEAK_Y]])
def test_extreme_magnitudes_accurate_or_raise(call, expect):
    # each value is accurate to rounding, or the function raises a typed error
    if isinstance(expect, type):
        with pytest.raises(expect):
            call()
    else:
        assert call() == pytest.approx(expect, rel=1e-15)


# ---------------------------------------------------------------------------
# light curves

def test_light_curve_matches_total_magnification():
    samples = light_curve(-1.0, 3.0, [0.0])
    assert samples[0].magnification == pytest.approx(
        total_magnification_isolated(3.0, -1.0), rel=1e-14)


def test_light_curve_even_in_time():
    a, b = light_curve(-1.0, 3.0, [-4.0, 4.0])
    assert a.magnification == pytest.approx(b.magnification, rel=1e-15)


def test_light_curve_occulted_samples():
    # d = 1 < 2 sqrt(-m): samples near t = 0 are occulted
    samples = light_curve(-1.0, 1.0, [-2.0, 0.0, 2.0])
    assert samples[1].magnification is None
    assert samples[0].magnification is not None


def test_light_curve_positive_negative_degeneracy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.uniform(-2.0, -0.3)
        d = rng.uniform(2 * math.sqrt(-m) + 0.1, 6.0)
        ts = rng.uniform(-5, 5, size=7)
        twin_d = math.sqrt(d * d + 4 * m)
        neg = light_curve(m, d, ts)
        pos = light_curve(-m, twin_d, ts)
        for a, b in zip(neg, pos):
            assert a.magnification == pytest.approx(b.magnification, abs=1e-12)


# ---------------------------------------------------------------------------
# Fermat potential

def test_fermat_stationarity_at_images():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = rng.uniform(-2.0, -0.4)
        model = LensModel(m, 0.3, 0.15)
        y = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        for im in find_images(y, model):
            gx, gy = fermat_gradient(im.position, y, model)
            assert math.hypot(gx, gy) < 1e-8
