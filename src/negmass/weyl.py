"""Zipoy-Voorhees rod metrics: potentials, flux mass, near-rod asymptotics.

The static axisymmetric vacuum metric

    g = -e^{2 lam} dt^2 + e^{-2 lam} [rho^2 dtheta^2 + e^{2 mu} (drho^2 + dz^2)]

generated by a uniform rod of mass m and half-length a on the z-axis has

    lam = (m/2a) ln[(Rp + Rm - 2a) / (Rp + Rm + 2a)]
    mu  = -(m^2/2a^2) ln[4 Rp Rm / ((Rp + Rm)^2 - 4a^2)]

with Rpm = sqrt(rho^2 + (z +- a)^2).  lam is harmonic in the flat
(rho, z, theta) space and behaves like -m/r at infinity, so the ADM
mass is recoverable as the flux (1/4 pi) closed-integral <nu, grad lam>
over any surface enclosing the rod.  Near the rod, constant-rho
cylinders have area 2 pi rho int_-a^a e^{mu - 2 lam} dz, whose bulk
scales like rho^{(m/a)^2 - 2(m/a) + 1}; boundary layers of width ~rho
at the rod ends contribute rho^{2 - m/a}, so the observable exponent is
the smaller of the two.  The level-set energy needs m != 0: for m = 0,
e^lam is identically 1, has no level sets, and its level L = 1 raises.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SingularPointError, ValidationError
from .numerics import _floats, dyadic_gauss, gauss_panel

SQRT33_ENDPOINT = (math.sqrt(33.0) - 3.0) / 4.0  # positive root of (2/3)x^2 + x - 1
# smallest rho/a the rod quadratures accept: below it the dyadic panels
# cannot resolve the end layers of width ~rho against the rounding of z = +-a
RHO_FLOOR = 1e-10


@dataclass(frozen=True)
class ZVModel:
    """Rod parameters: mass m, half-length a > 0.

    ratio = m/a classifies the family; ratio 1 is the excluded m = a
    case for the near-rod asymptotics (cylinder areas stop shrinking
    there).
    """

    m: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.a)):
            raise ValidationError("rod parameters must be finite")
        if self.a <= 0.0:
            raise ValidationError("rod half-length a must be positive")
        # the potentials scale by m/2a and m^2/2a^2
        if not (self.a * self.a >= sys.float_info.min
                and math.isfinite(self.m * self.m / (self.a * self.a))):
            raise ValidationError("rod parameters need m^2, a^2 and m^2/a^2 within the double range")

    @property
    def ratio(self) -> float:
        return self.m / self.a

    @property
    def is_excluded(self) -> bool:
        return self.ratio == 1.0


def _rod_fields(zv: ZVModel, rho, z):
    """(rho, z, Rp, Rm, S, S^2 - 4a^2, lam, mu) at points off the rod.

    Near the rod S - 2a is a tiny difference of O(a) terms; the identity
    R - |u| = rho^2 / (R + |u|) rewrites it as

        S - 2a = rho^2/(Rp + |z+a|) + rho^2/(Rm + |z-a|)
                 + (|z+a| + |z-a| - 2a),

    where the last bracket is exactly 0 between the rod ends and
    2(|z| - a) beyond them.
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    a = zv.a
    if ((rho == 0.0) & (np.abs(z) <= a)).any():
        raise SingularPointError("potential evaluated on the rod")
    Rp = np.hypot(rho, z + a)
    if not np.isfinite(Rp).all():  # NaN or +-inf in rho or z
        raise DomainError("rod fields need finite (rho, z)")
    Rm = np.hypot(rho, z - a)
    up = np.abs(z + a)
    um = np.abs(z - a)
    excess = (rho * rho / (Rp + up) + rho * rho / (Rm + um)
              + np.maximum(up + um - 2.0 * a, 0.0))
    S = Rp + Rm
    S2m = excess * (S + 2.0 * a)  # = S^2 - 4 a^2, stable near the rod
    lam = (zv.m / (2.0 * a)) * np.log(excess / (S + 2.0 * a))
    mu = -(zv.m ** 2 / (2.0 * a ** 2)) * np.log(4.0 * Rp * Rm / S2m)
    return rho, z, Rp, Rm, S, S2m, lam, mu


def zv_potentials(zv: ZVModel, rho, z):
    """(lam, mu) at (rho, z); accepts scalars or arrays, point off the rod."""
    return _floats(*_rod_fields(zv, rho, z)[6:])


def zv_fields(zv: ZVModel, rho, z):
    """(lam, mu, lam_rho, lam_z, mu_rho, mu_z) in closed form, from one evaluation."""
    rho, z, Rp, Rm, S, S2m, lam, mu = _rod_fields(zv, rho, z)
    a = zv.a
    S_rho = rho / Rp + rho / Rm
    S_z = (z + a) / Rp + (z - a) / Rm
    c = -(zv.m ** 2) / (2.0 * a * a)
    return _floats(lam, mu, 2.0 * zv.m * S_rho / S2m, 2.0 * zv.m * S_z / S2m,
                   c * (rho / Rp ** 2 + rho / Rm ** 2 - 2.0 * S * S_rho / S2m),
                   c * ((z + a) / Rp ** 2 + (z - a) / Rm ** 2 - 2.0 * S * S_z / S2m))


@dataclass(frozen=True)
class VacuumResiduals:
    """Max |residual| of the three vacuum field equations over a grid."""

    harmonic: float      # lam_rr + lam_r/r + lam_zz
    mu_rho_eq: float     # mu_rho - rho (lam_rho^2 - lam_z^2)
    mu_z_eq: float       # mu_z - 2 rho lam_rho lam_z


def vacuum_residuals(zv: ZVModel, rho_axis, z_axis) -> VacuumResiduals:
    """Finite-difference residuals of the vacuum equations on a grid.

    First derivatives of the potentials enter by central differences of
    the closed forms (step = 1e-5 * local scale); the closed-form
    gradients seed the divergence term.  For the exact rod potentials
    all three residuals measure only the differencing error.
    """
    rho = np.asarray(rho_axis, dtype=float)
    z = np.asarray(z_axis, dtype=float)
    if not (np.isfinite(rho).all() and np.isfinite(z).all() and (rho >= 1e-3).all()):
        raise DomainError("grid must be finite and keep a margin >= 1e-3 off the rod axis")
    R, Z = np.meshgrid(rho, z, indexing="ij")
    # local scale = distance to the rod segment, the length over which
    # the potentials actually vary
    scale = np.hypot(R, np.maximum(np.abs(Z) - zv.a, 0.0))
    h = 1e-5 * scale

    lam_p, mu_p, lr_p, _, _, _ = zv_fields(zv, R + h, Z)
    lam_m, mu_m, lr_m, _, _, _ = zv_fields(zv, R - h, Z)
    lam_pz, mu_pz, _, lz_p, _, _ = zv_fields(zv, R, Z + h)
    lam_mz, mu_mz, _, lz_m, _, _ = zv_fields(zv, R, Z - h)
    lam_rho = zv_fields(zv, R, Z)[2]
    lam_rr = (lr_p - lr_m) / (2.0 * h)
    lam_zz = (lz_p - lz_m) / (2.0 * h)
    res1 = lam_rr + lam_rho / R + lam_zz

    mu_rho_fd = (mu_p - mu_m) / (2.0 * h)
    lam_rho_fd = (lam_p - lam_m) / (2.0 * h)
    mu_z_fd = (mu_pz - mu_mz) / (2.0 * h)
    lam_z_fd = (lam_pz - lam_mz) / (2.0 * h)
    res2 = mu_rho_fd - R * (lam_rho_fd ** 2 - lam_z_fd ** 2)
    res3 = mu_z_fd - 2.0 * R * lam_rho_fd * lam_z_fd

    return VacuumResiduals(float(np.max(np.abs(res1))),
                           float(np.max(np.abs(res2))),
                           float(np.max(np.abs(res3))))


def adm_flux(zv: ZVModel, radius: float) -> float:
    """ADM mass as the flux (1/4 pi) closed-integral <nu, grad lam> dA.

    Evaluated on the Euclidean sphere of the given radius (which must
    enclose the rod); lam is flat-harmonic, so the value is independent
    of the radius.  Axisymmetry reduces the integral to 2 pi times one
    polar Gauss-Legendre panel of 64 nodes.
    """
    if not (zv.a < radius and radius * radius < math.inf):
        raise DomainError("flux sphere must enclose the rod: radius > a, radius^2 finite")

    def flux(theta):
        sin, cos = np.sin(theta), np.cos(theta)
        _, _, lam_rho, lam_z, _, _ = zv_fields(zv, radius * sin, radius * cos)
        grad = sin * lam_rho + cos * lam_z  # ~ m / radius^2, never 0 for m != 0
        if zv.m != 0.0 and not (np.abs(grad) >= sys.float_info.min).all():
            raise NumericalError(f"flux integrand leaves the double range at radius {radius:g}")
        return grad * (radius * radius) * sin

    with np.errstate(over="ignore", invalid="ignore"):  # the integrand is checked
        return 0.5 * gauss_panel(flux, 0.0, math.pi, 64)


def _layer_width(zv: ZVModel, rho: float) -> float:
    """Panel width at which the rod quadratures stop refining toward z = +-a."""
    if not RHO_FLOOR * zv.a <= rho < math.inf:
        raise DomainError(f"rod quadratures need finite rho >= {RHO_FLOOR:g} a, got {rho}")
    return min(1e-3 * rho, 1e-3 * zv.a)


def _rod_integral(f, zv: ZVModel, inner: float, scale: float, what: str) -> float:
    """scale * int_-a^a f dz by ``dyadic_gauss``, or NumericalError where the value
    is not a normal double: inf or NaN where f overflows somewhere, 0 or a
    subnormal where the value underflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = scale * dyadic_gauss(f, -zv.a, zv.a, inner)
    if not sys.float_info.min <= value < math.inf:
        raise NumericalError(f"{what} {value!r} leaves the double range (m/a = {zv.ratio:g})")
    return value


def cylinder_area(zv: ZVModel, rho: float) -> float:
    """Area 2 pi rho int_-a^a e^{mu - 2 lam} dz of the rho-cylinder around the rod.

    The integrand develops boundary layers of width ~rho at z = +-a, so
    the quadrature refines dyadically toward the rod ends; it needs
    rho >= RHO_FLOOR * a.  NumericalError where the integrand or the area
    leaves the double range, as for |m|/a >> 1 near the rod.
    """
    def f(zs):
        lam, mu = zv_potentials(zv, rho, zs)
        return np.exp(mu - 2.0 * lam)

    return _rod_integral(f, zv, _layer_width(zv, rho), 2.0 * math.pi * rho, "cylinder area")


def cylinder_area_exponent(zv: ZVModel) -> float:
    """Bulk scaling exponent (m/a)^2 - 2(m/a) + 1 of the cylinder areas.

    This is the closed-form exponent of the near-rod bulk; the rod-end
    boundary layers scale like rho^{2 - m/a}, so the slope actually
    measured on shrinking cylinders is min((x-1)^2, 2-x) with x = m/a.
    The two agree exactly for x between (1-sqrt(5))/2 and (1+sqrt(5))/2.
    """
    if zv.is_excluded:
        raise DomainError("excluded case m = a: cylinder areas do not shrink")
    x = zv.ratio
    return x * x - 2.0 * x + 1.0


def observed_cylinder_exponent(zv: ZVModel) -> float:
    """min((x-1)^2, 2-x): the exponent honest quadrature converges to."""
    if zv.is_excluded:
        raise DomainError("excluded case m = a")
    x = zv.ratio
    return min((x - 1.0) ** 2, 2.0 - x)


def energy_exponent(zv: ZVModel) -> tuple[float, str]:
    """Scaling exponent of the level-set mass integral and its verdict.

    E ~ rho^{(2/3)x^2 + x - 1} for m > 0 and rho^{(2/3)x^2 - x/3 - 1}
    for m < 0 (x = m/a).  Exponent < 0 (x strictly inside
    (-1, (sqrt(33)-3)/4)) sends the singularity-mass estimate to -inf;
    > 0 sends it to zero; = 0 marks the boundary members.
    """
    x = zv.ratio
    if x == 0.0:
        raise DomainError("energy exponent needs a nonzero rod mass")
    if x > 0:
        expo = (2.0 / 3.0) * x * x + x - 1.0
    else:
        expo = (2.0 / 3.0) * x * x - x / 3.0 - 1.0
    if abs(expo) < 1e-12:
        return 0.0, "boundary"
    return expo, ("minus-infinity" if expo < 0.0 else "zero-mass")


def level_set_mass_integrand(zv: ZVModel, rho: float, z, L: float):
    """z-integrand 2 pi rho nu(h)^{4/3} e^{mu - 2 lam} of the level-set energy.

    For the test function h = (L - e^lam)/(L - 1), nu(h)^{4/3} =
    |L-1|^{-4/3} e^{(4/3) lam - (4/3) mu} (lam_rho^2 + lam_z^2)^{2/3}, and
    rho e^{mu - 2 lam} dtheta dz is the area element of the rho-cylinder.
    z may be a scalar or an array.
    """
    if not math.isfinite(L) or abs(L - 1.0) < 1e-14:
        raise DomainError("L must be finite and not 1, which degenerates the test function")
    lam, mu, lam_rho, lam_z, _, _ = zv_fields(zv, rho, z)
    # one exponential for nu^{4/3} e^{mu - 2 lam}: (4/3)(lam - mu) + mu - 2 lam
    return (2.0 * math.pi * rho * abs(L - 1.0) ** (-4.0 / 3.0)
            * np.exp(-(2.0 * lam + mu) / 3.0)
            * (lam_rho ** 2 + lam_z ** 2) ** (2.0 / 3.0))


def level_set_energy(zv: ZVModel, rho: float, L: float | None = None) -> float:
    """Mass integral E(rho) = closed-int nu(h)^{4/3} dA over the rho-cylinder.

    When L is None the level value e^{lam(rho, 0)} of the cylinder
    midplane is used, mirroring the level-set surfaces the cylinders
    approximate.  With m = 0, e^lam is identically 1 and has no level
    sets; the midplane value is then L = 1, which raises DomainError.
    Like ``cylinder_area`` it needs rho >= RHO_FLOOR * a, and it raises
    NumericalError where the midplane level, the integrand or the energy
    leaves the double range.
    """
    inner = _layer_width(zv, rho)
    if L is None:
        try:
            L = math.exp(zv_potentials(zv, rho, 0.0)[0])
        except OverflowError as exc:
            raise NumericalError(
                f"level e^lam overflows at rho = {rho!r} (m/a = {zv.ratio:g})") from exc
    return _rod_integral(lambda zs: level_set_mass_integrand(zv, rho, zs, L), zv, inner,
                         1.0, "level-set energy")
