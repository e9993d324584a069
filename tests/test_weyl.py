import math

import numpy as np
import pytest

from negmass.errors import DomainError, NumericalError, SingularPointError, ValidationError
from negmass.weyl import (RHO_FLOOR, SQRT33_ENDPOINT, ZVModel, adm_flux,
                          cylinder_area, cylinder_area_exponent, energy_exponent,
                          level_set_energy, level_set_mass_integrand,
                          observed_cylinder_exponent, vacuum_residuals, zv_fields,
                          zv_potentials)


def log_slope(f, x_hi, x_lo):
    return math.log(f(x_hi) / f(x_lo)) / math.log(x_hi / x_lo)


# ---------------------------------------------------------------------------
# model and potentials

def test_zv_model_parameters():
    zv = ZVModel(1.0, 0.5)
    assert zv.ratio == pytest.approx(2.0)
    assert ZVModel(1.0, 1.0).is_excluded
    with pytest.raises(ValidationError):
        ZVModel(1.0, 0.0)
    # a^2 underflows, so m^2 / 2a^2 in mu cannot be formed
    with pytest.raises(ValidationError):
        ZVModel(-0.0035, 5e-324)


def test_potential_on_axis_value():
    # rho = 0, z = 2, m = 1, a = 0.5: Rp = 2.5, Rm = 1.5 -> lam = ln(3/5)
    lam, _ = zv_potentials(ZVModel(1.0, 0.5), 0.0, 2.0)
    assert lam == pytest.approx(math.log(3.0 / 5.0), rel=1e-14)
    assert lam == pytest.approx(-0.51083, abs=5e-6)


def test_potential_far_field():
    zv = ZVModel(1.3, 1.0)
    r = 1e3
    for ang in (0.3, 1.2):
        rho, z = r * math.sin(ang), r * math.cos(ang)
        lam, mu = zv_potentials(zv, rho, z)
        assert abs(lam + zv.m / r) < 1e-5 * abs(zv.m) / r
        assert abs(mu) < 1e-5


def test_potential_sign_follows_mass():
    lam_pos, _ = zv_potentials(ZVModel(1.0, 1.0), 2.0, 0.0)
    lam_neg, _ = zv_potentials(ZVModel(-1.0, 1.0), 2.0, 0.0)
    assert lam_pos < 0.0 < lam_neg


def test_on_rod_rejected():
    zv = ZVModel(-1.0, 1.0)
    with pytest.raises(SingularPointError):
        zv_potentials(zv, 0.0, 0.5)
    with pytest.raises(SingularPointError):
        zv_fields(zv, 0.0, -1.0)
    # just past the rod end on the axis is fine
    lam, _ = zv_potentials(zv, 0.0, 1.5)
    assert math.isfinite(lam)


def test_zero_mass_trivial():
    lam, mu = zv_potentials(ZVModel(0.0, 1.0), 0.7, 0.3)
    assert lam == 0.0 and mu == 0.0


@pytest.mark.parametrize("m", [1.3, 0.0, -1.0])
def test_fields_scalar_floats_and_arrays_pointwise(m):
    zv = ZVModel(m, 1.0)
    rho = np.array([0.5, 2.0, 0.0, 1e-3])
    z = np.array([0.3, -1.2, 1.5, 0.999])
    for fn, width in ((zv_potentials, 2), (zv_fields, 6)):
        arrays = fn(zv, rho, z)
        assert len(arrays) == width
        for i in range(rho.size):
            scalars = fn(zv, float(rho[i]), float(z[i]))
            assert all(type(v) is float for v in scalars)
            assert [float(col[i]) for col in arrays] == list(scalars)
    # the potentials are the leading pair of the fields
    assert zv_fields(zv, 0.5, 0.3)[:2] == zv_potentials(zv, 0.5, 0.3)


def test_gradients_match_finite_differences():
    zv = ZVModel(1.3, 1.0)
    h = 1e-6
    for rho, z in ((0.5, 0.3), (2.0, -1.2), (0.2, 1.4)):
        _, _, lam_rho, lam_z, mu_rho, mu_z = zv_fields(zv, rho, z)
        lam_p, mu_p = zv_potentials(zv, rho + h, z)
        lam_m, mu_m = zv_potentials(zv, rho - h, z)
        assert lam_rho == pytest.approx((lam_p - lam_m) / (2 * h), abs=1e-8)
        assert mu_rho == pytest.approx((mu_p - mu_m) / (2 * h), abs=1e-8)
        lam_p, mu_p = zv_potentials(zv, rho, z + h)
        lam_m, mu_m = zv_potentials(zv, rho, z - h)
        assert lam_z == pytest.approx((lam_p - lam_m) / (2 * h), abs=1e-8)
        assert mu_z == pytest.approx((mu_p - mu_m) / (2 * h), abs=1e-8)


# ---------------------------------------------------------------------------
# vacuum equations

def test_vacuum_residuals_rod_potentials():
    grid_rho = np.linspace(0.1, 5.0, 50)
    grid_z = np.linspace(-5.0, 5.0, 50)
    for m in (1.3, -1.0):
        res = vacuum_residuals(ZVModel(m, 1.0), grid_rho, grid_z)
        assert res.harmonic < 1e-6
        assert res.mu_rho_eq < 1e-6
        assert res.mu_z_eq < 1e-6


def test_vacuum_residuals_flat_zero():
    res = vacuum_residuals(ZVModel(0.0, 1.0), np.linspace(0.2, 2, 8),
                           np.linspace(-2, 2, 8))
    assert res.harmonic == 0.0 and res.mu_rho_eq == 0.0 and res.mu_z_eq == 0.0


def test_vacuum_residual_grid_margin():
    with pytest.raises(DomainError):
        vacuum_residuals(ZVModel(1.0, 1.0), np.array([1e-4, 1.0]),
                         np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# ADM flux

def test_adm_flux_returns_rod_mass():
    zv = ZVModel(1.3, 1.0)
    for radius in (2.0, 5.0, 50.0):
        assert adm_flux(zv, radius) == pytest.approx(1.3, abs=1e-6)


def test_adm_flux_negative_mass():
    assert adm_flux(ZVModel(-1.0, 1.0), 5.0) == pytest.approx(-1.0, abs=1e-6)


def test_adm_flux_surface_independence():
    zv = ZVModel(-0.7, 1.0)
    vals = [adm_flux(zv, r) for r in (2.0, 5.0, 50.0)]
    assert max(vals) - min(vals) < 1e-6


def test_adm_flux_requires_enclosing_sphere():
    with pytest.raises(DomainError):
        adm_flux(ZVModel(1.0, 1.0), 0.5)
    # radius^2 overflows: a typed error, not an OverflowError
    with pytest.raises(DomainError):
        adm_flux(ZVModel(-1.0, 1.0), 1e300)


@pytest.mark.parametrize("m, radius", [(-1.0, 1e154), (-1e-300, 1e10)])
def test_adm_flux_raises_where_the_gradient_underflows(m, radius):
    # grad lam ~ m / radius^2 is 0 or a subnormal: the flux would read 0 or noise
    with pytest.raises(NumericalError):
        adm_flux(ZVModel(m, 1.0), radius)
    assert adm_flux(ZVModel(m, 1.0), 1e3) == pytest.approx(m, rel=1e-6)


# ---------------------------------------------------------------------------
# cylinder areas

def test_cylinder_area_flat():
    zv = ZVModel(0.0, 1.0)
    for rho in (0.1, 1.0):
        assert cylinder_area(zv, rho) == pytest.approx(
            2 * math.pi * rho * 2 * zv.a, rel=1e-12)


def test_cylinder_area_requires_positive_rho():
    with pytest.raises(DomainError):
        cylinder_area(ZVModel(1.0, 1.0), 0.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x", [-2.0, -1.0, -0.5, 0.5, 1.3, 1.6])
def test_rod_quadratures_keep_their_slope_down_to_the_floor(x, a):
    # the last decade above RHO_FLOOR * a scales like the decade before it
    zv = ZVModel(x * a, a)
    for f in (cylinder_area, level_set_energy):
        def g(r):
            return f(zv, r * a)
        assert log_slope(g, 1e-9, 1e-10) == pytest.approx(log_slope(g, 1e-8, 1e-9),
                                                          rel=0.015)


@pytest.mark.parametrize("m, rho", [(-1.0, 0.99e-10), (1.6, 1e-22), (-0.5, 1e-26),
                                    (1.3, 1e-200), (-1.0, 1e-150), (1.6, 1e-140)])
def test_rod_quadratures_reject_rho_below_floor(m, rho):
    # below the floor the dyadic panels return wrong slopes, 0, NaN or denormals
    zv = ZVModel(m, 1.0)
    assert rho < RHO_FLOOR * zv.a
    for f in (cylinder_area, level_set_energy):
        with pytest.raises(DomainError):
            f(zv, rho)


@pytest.mark.parametrize("m", [-50.0, -1e6])
def test_rod_quadratures_raise_outside_the_double_range(m):
    # near a massive rod the area ~ rho^{(m/a - 1)^2} underflows to 0, and the
    # energy's integrand (at m/a = -1e6 its level e^lam too) overflows to inf:
    # a typed error, not a saturated value nor an OverflowError or RuntimeWarning
    zv = ZVModel(m, 1.0)
    for f in (cylinder_area, level_set_energy):
        with pytest.raises(NumericalError):
            f(zv, 1e-3)


def test_cylinder_area_exponent_values():
    assert cylinder_area_exponent(ZVModel(-1.0, 1.0)) == pytest.approx(4.0)
    assert cylinder_area_exponent(ZVModel(-2.0, 1.0)) == pytest.approx(9.0)
    with pytest.raises(DomainError):
        cylinder_area_exponent(ZVModel(1.0, 1.0))


def test_cylinder_slope_bulk_dominated_ratios():
    # boundary layers are subleading here: slope matches (x-1)^2 at 2%
    for ratio in (0.5, -0.5):
        zv = ZVModel(ratio, 1.0)
        slope = log_slope(lambda r: cylinder_area(zv, r), 1e-3, 1e-4)
        assert slope == pytest.approx(cylinder_area_exponent(zv),
                                      rel=0.02)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("delta", [0.3, 0.5])
def test_cylinder_area_near_rod_head(delta, a):
    # near the rod the bulk gives cylinder_area ~ K rho^{(delta-1)^2}, with
    # s = delta - delta^2 and K = 2 pi 4^delta a^{delta^2+2s+1} sqrt(pi)
    # Gamma(s+1)/Gamma(s+3/2); at rho = 1e-4 a the ratio is 1 + 3.0e-6
    # (delta = 0.3) and 1 + 2.0e-6 (delta = 0.5)
    s = delta - delta * delta
    K = (2.0 * math.pi * 4.0 ** delta * a ** (delta * delta + 2.0 * s + 1.0)
         * math.sqrt(math.pi) * math.gamma(s + 1.0) / math.gamma(s + 1.5))
    rho = 1e-4 * a
    ratio = cylinder_area(ZVModel(delta * a, a), rho) / (K * rho ** ((delta - 1.0) ** 2))
    assert abs(ratio - 1.0) <= 1e-5


def test_cylinder_slope_endpoint_dominated_ratios():
    # at m/a = -1 and -2 the rod-end layers win: observed slope is 2 - x,
    # not the bulk form (x-1)^2
    for ratio, expect in ((-1.0, 3.0), (-2.0, 4.0)):
        zv = ZVModel(ratio, 1.0)
        slope = log_slope(lambda r: cylinder_area(zv, r), 1e-3, 1e-4)
        assert slope == pytest.approx(expect, rel=0.02)
        assert observed_cylinder_exponent(zv) == pytest.approx(expect)
        assert slope != pytest.approx(cylinder_area_exponent(zv), rel=0.02)


def test_cylinder_slope_ratio_three_halves():
    # bulk-dominated but with a slowly decaying rho^{1/4} correction:
    # compare against the bulk exponent at smaller rho
    zv = ZVModel(1.5, 1.0)
    slope = log_slope(lambda r: cylinder_area(zv, r), 1e-6, 1e-7)
    assert slope == pytest.approx(0.25, rel=0.02)


def test_areas_shrink_for_nonexcluded_ratios():
    for ratio in (-2.0, -1.0, -0.5, 0.5, 1.5):
        zv = ZVModel(ratio, 1.0)
        assert cylinder_area(zv, 1e-4) < cylinder_area(zv, 1e-3)


def test_excluded_ratio_area_approaches_constant():
    # m = a: the exponent (x-1)^2 = 0; areas tend to a positive constant
    zv = ZVModel(1.0, 1.0)
    a1 = cylinder_area(zv, 1e-3)
    a2 = cylinder_area(zv, 1e-4)
    assert a2 == pytest.approx(a1, rel=0.05)
    assert a2 > 0.0


# ---------------------------------------------------------------------------
# singularity-mass exponent

def test_energy_exponent_classification():
    expo, cls = energy_exponent(ZVModel(0.5, 1.0))
    assert expo == pytest.approx(-1.0 / 3.0)
    assert cls == "minus-infinity"

    expo, cls = energy_exponent(ZVModel(-1.0, 1.0))
    assert expo == 0.0
    assert cls == "boundary"

    expo, cls = energy_exponent(ZVModel(-2.0, 1.0))
    assert expo == pytest.approx(7.0 / 3.0)
    assert cls == "zero-mass"


def test_energy_exponent_interval():
    for ratio in (-0.999, -0.5, 0.1, 0.5, SQRT33_ENDPOINT - 1e-3):
        _, cls = energy_exponent(ZVModel(ratio, 1.0))
        assert cls == "minus-infinity"
    for ratio in (-1.5, SQRT33_ENDPOINT + 1e-3, 2.0):
        _, cls = energy_exponent(ZVModel(ratio, 1.0))
        assert cls == "zero-mass"


def test_interval_endpoint_identity():
    x = SQRT33_ENDPOINT
    assert (2.0 / 3.0) * x * x + x - 1.0 == pytest.approx(0.0, abs=1e-15)
    assert x == pytest.approx(math.sqrt(33.0) / 4.0 - 0.75, abs=1e-16)


def test_level_set_integrand_values():
    assert level_set_mass_integrand(ZVModel(0.0, 1.0), 1e-3, 0.0, 2.0) == 0.0
    val = level_set_mass_integrand(ZVModel(-1.0, 1.0), 1e-3, 0.0, 2.0)
    assert val > 0.0 and math.isfinite(val)
    with pytest.raises(DomainError):
        level_set_mass_integrand(ZVModel(-1.0, 1.0), 1e-3, 0.0, 1.0)


def test_level_set_integrand_array_matches_scalar_calls():
    zv = ZVModel(-1.3, 1.0)
    zs = np.array([-0.999, -0.4, 0.0, 0.7, 0.9999])
    vals = level_set_mass_integrand(zv, 1e-3, zs, 2.0)
    assert vals.shape == zs.shape
    assert list(vals) == [level_set_mass_integrand(zv, 1e-3, float(z), 2.0) for z in zs]


def test_level_set_energy_degenerate_levels_rejected():
    # m = 0: e^lam is 1 everywhere, so the midplane level value is L = 1
    with pytest.raises(DomainError):
        level_set_energy(ZVModel(0.0, 1.0), 1e-3)
    with pytest.raises(DomainError):
        level_set_energy(ZVModel(-1.0, 1.0), 1e-3, 1.0)


def test_level_set_scaling_in_L():
    # (L-1)^{-4/3} is the entire L dependence: scaled values coincide
    zv = ZVModel(-1.0, 1.0)
    vals = [level_set_energy(zv, 1e-3, L) * (L - 1.0) ** (4.0 / 3.0)
            for L in (2.0, 4.0, 8.0, 16.0)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-12)


def test_level_set_energy_slope_matches_exponent():
    # ratio -2: cylinder-surrogate E(rho) scales with the closed form 7/3
    zv = ZVModel(-2.0, 1.0)
    slope = log_slope(lambda r: level_set_energy(zv, r), 1e-2, 1e-3)
    expo, _ = energy_exponent(zv)
    assert slope == pytest.approx(expo, rel=0.05)


def test_level_set_energy_slope_positive_mass():
    # ratio 1/3 on the m > 0 branch: exponent -16/27; needs smaller rho
    # than the negative branch because |L - 1| approaches 1 only slowly
    zv = ZVModel(1.0 / 3.0, 1.0)
    slope = log_slope(lambda r: level_set_energy(zv, r), 1e-3, 1e-4)
    expo, _ = energy_exponent(zv)
    assert expo == pytest.approx(-16.0 / 27.0)
    assert slope == pytest.approx(expo, rel=0.05)


# ---------------------------------------------------------------------------
# harmonic e^lambda

def test_exp_lambda_flux_equals_rod_mass():
    # the metric flux of the harmonic e^lam collapses to the flat flux
    # of lam, so it is exactly m at every radius
    zv = ZVModel(-1.0, 1.0)
    for radius in (2.0, 50.0):
        assert adm_flux(zv, radius) == pytest.approx(zv.m, abs=1e-9)


# ---------------------------------------------------------------------------
# non-finite arguments

_ZV = ZVModel(-1.0, 1.0)
_GRID = np.linspace(0.2, 2.0, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda v: cylinder_area(_ZV, v),
    lambda v: adm_flux(_ZV, v),
    lambda v: level_set_energy(_ZV, v),
    lambda v: level_set_energy(_ZV, 1e-3, v),
    lambda v: level_set_mass_integrand(_ZV, 1e-3, 0.0, v),
    lambda v: vacuum_residuals(_ZV, np.append(_GRID, v), _GRID),
    lambda v: vacuum_residuals(_ZV, _GRID, np.append(_GRID, v)),
    lambda v: zv_potentials(_ZV, v, 0.0),
    lambda v: zv_fields(_ZV, 0.5, v),
], ids=["cylinder_area", "adm_flux", "energy_rho", "energy_L", "integrand_L",
        "residuals_rho", "residuals_z", "potentials", "fields"])
def test_non_finite_arguments_rejected(call, bad):
    with pytest.raises(DomainError):
        call(bad)
