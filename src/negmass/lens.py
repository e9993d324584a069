"""Thin-lens physics for a point mass with continuous matter and shear.

All quantities are dimensionless.  Positions in the image and source
planes are complex numbers z = x1 + i*x2.  The deflection potential is

    psi(x) = m ln|x| + (kappa/2)|x|^2
             - (gamma/2)[(x1^2 - x2^2) cos 2theta + 2 x1 x2 sin 2theta]

and the lens map in complex form (theta = 0 frame) is

    eta(z) = (1 - kappa) z + gamma conj(z) - m / conj(z).

The point mass m may carry either sign; the negative branch is the case
of interest throughout.  Nonzero shear angles are handled by rotating
into the theta = 0 frame, applying the map, and rotating back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularPointError, ValidationError

RESIDUAL_TOL = 1e-9          # spurious-root rejection on |eta(z) - y|
CENTER_TOL = 1e-12           # roots this close to the lens center are dropped
CAUSTIC_TIE_TOL = 1e-12      # |y| within this of 2 sqrt(-m) counts as critical
_EPS = float(np.finfo(float).eps)


def _as_point(z, what: str = "point") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{what} must have finite components, got {z!r}")
    return z


@dataclass(frozen=True)
class LensModel:
    """Dimensionless lens: point mass m, convergence kappa, shear gamma, angle theta.

    theta is normalized into [0, pi); the shear potential is pi-periodic
    in it.  kappa and gamma are required nonnegative.
    """

    m: float
    kappa: float = 0.0
    gamma: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("m", "kappa", "gamma", "theta"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"LensModel.{name} must be finite")
            object.__setattr__(self, name, v)
        if self.kappa < 0:
            raise ValidationError("convergence kappa must be >= 0")
        if self.gamma < 0:
            raise ValidationError("shear gamma must be >= 0")
        object.__setattr__(self, "theta", self.theta % math.pi)


@dataclass(frozen=True)
class LensGeometry:
    """Physical lens geometry: angular diameter distances, mass, redshift.

    The critical surface density is sigma_c = d_s / (2 pi d_l d_ls).
    """

    d_l: float
    d_s: float
    d_ls: float
    mass: float
    z_l: float = 0.0

    def __post_init__(self):
        for name in ("d_l", "d_s", "d_ls"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"LensGeometry.{name} must be positive and finite")
        if not math.isfinite(self.mass) or not math.isfinite(self.z_l):
            raise ValidationError("LensGeometry mass and z_l must be finite")

    @property
    def sigma_c(self) -> float:
        return self.d_s / (2.0 * math.pi * self.d_l * self.d_ls)


@dataclass(frozen=True)
class ImageSolution:
    """One lensed image: position, signed magnification, residual, parity."""

    position: complex
    signed_magnification: float
    residual: float
    parity: int
    critical: bool = False


@dataclass(frozen=True)
class ImageSet:
    """Image list plus status flags ('inside-caustic', 'critical', ...)."""

    images: tuple[ImageSolution, ...] = ()
    flags: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.images)

    def __len__(self):
        return len(self.images)

    def __getitem__(self, i):
        return self.images[i]

    def positions(self) -> list[complex]:
        return [im.position for im in self.images]


@dataclass(frozen=True)
class LightCurveSample:
    """One light-curve sample; magnification is None when the source is occulted."""

    t: float
    magnification: float | None


def nondimensionalize(geometry: LensGeometry) -> tuple[float, float]:
    """Return (sigma_c, m): critical surface density and dimensionless mass.

    m = M / (pi d_l^2 sigma_c); the sign of m follows the sign of M.
    """
    sigma_c = geometry.sigma_c
    m = geometry.mass / (math.pi * geometry.d_l ** 2 * sigma_c)
    return sigma_c, m


def _rotated_into_frame(z: complex, model: LensModel) -> complex:
    """Map a lab-frame point into the theta = 0 working frame."""
    if model.theta == 0.0:
        return z
    return cmath.exp(-1j * model.theta) * z


def _rotated_out_of_frame(z: complex, model: LensModel) -> complex:
    if model.theta == 0.0:
        return z
    return cmath.exp(1j * model.theta) * z


def surface_potential(x, model: LensModel) -> float:
    """Dimensionless surface potential psi(x) of the combined lens."""
    z = _as_point(x, "image position")
    r2 = z.real * z.real + z.imag * z.imag
    if model.m != 0.0 and r2 == 0.0:
        raise SingularPointError("potential is singular at the point mass")
    val = 0.5 * model.kappa * r2
    if model.m != 0.0:
        val += 0.5 * model.m * math.log(r2)
    if model.gamma != 0.0:
        c2t = math.cos(2.0 * model.theta)
        s2t = math.sin(2.0 * model.theta)
        x1, x2 = z.real, z.imag
        val -= 0.5 * model.gamma * ((x1 * x1 - x2 * x2) * c2t + 2.0 * x1 * x2 * s2t)
    return val


def lens_map(x, model: LensModel) -> complex:
    """Source position eta(z) = (1 - kappa) z + gamma e^{2 i theta} conj(z) - m/conj(z).

    Summed term by term so that, unlike z - alpha(z), nothing cancels at
    kappa = 1.
    """
    z = _as_point(x, "image position")
    if model.m != 0.0 and z == 0:
        raise SingularPointError("lens map is singular at the point mass")
    return _eta(z, model)


def _eta(z, model: LensModel):
    """The lens map's arithmetic, for a complex or a complex ndarray z."""
    eta = (1.0 - model.kappa) * z
    if model.gamma != 0.0:
        eta += model.gamma * cmath.exp(2j * model.theta) * z.conjugate()
    if model.m != 0.0:
        eta -= model.m / z.conjugate()
    return eta


def deflection(x, model: LensModel) -> complex:
    """Complex deflection angle alpha = grad psi = m/conj(z) + kappa z - gamma e^{2 i theta} conj(z)."""
    z = _as_point(x, "image position")
    return z - lens_map(z, model)


def _shear_term(z: complex, model: LensModel) -> complex:
    """d eta / d conj(z) = gamma e^{2 i theta} + m / conj(z)^2."""
    b = model.gamma * cmath.exp(2j * model.theta)
    if model.m != 0.0:
        b += model.m / (z.conjugate() ** 2)
    return b


def jacobian_det(x, model: LensModel) -> float:
    """Jacobian of the lens map, J = (1 - kappa)^2 - |gamma e^{2 i theta} + m/conj(z)^2|^2.

    Real by construction (|d eta/dz|^2 - |d eta/d conj z|^2); it vanishes
    exactly on the critical curves.
    """
    z = _as_point(x, "image position")
    if model.m != 0.0 and z == 0:
        raise SingularPointError("Jacobian is singular at the point mass")
    return (1.0 - model.kappa) ** 2 - abs(_shear_term(z, model)) ** 2


def magnification_isolated(x, m: float) -> float:
    """Signed magnification |x|^4 / (|x|^4 - m^2) of an isolated point mass."""
    z = _as_point(x)
    r4 = abs(z) ** 4
    return r4 / (r4 - m * m)


def solve_images_isolated(y, m: float) -> ImageSet:
    """Closed-form images of an isolated point mass with m < 0.

    x_pm = (|y| +/- sqrt(|y|^2 + 4m)) / 2 along the unit vector of y.
    Outside the caustic |y| = 2 sqrt(-m) there are two images; inside,
    none; on it (within 1e-12), one degenerate image flagged critical.
    """
    yv = _as_point(y, "source position")
    if m >= 0:
        raise DomainError("isolated closed form applies to negative masses only")
    ynorm = abs(yv)
    rad = ynorm * ynorm + 4.0 * m
    caustic = 2.0 * math.sqrt(-m)
    if ynorm == 0.0 or (ynorm < caustic and abs(ynorm - caustic) > CAUSTIC_TIE_TOL):
        return ImageSet(flags=("inside-caustic",))
    yhat = yv / ynorm
    if abs(ynorm - caustic) <= CAUSTIC_TIE_TOL:
        pos = math.sqrt(-m) * yhat
        return ImageSet(
            images=(ImageSolution(pos, math.inf, abs(lens_map(pos, LensModel(m)) - yv), 0, True),),
            flags=("critical",),
        )
    root = math.sqrt(rad)
    out = []
    for xr in (0.5 * (ynorm + root), 0.5 * (ynorm - root)):
        pos = xr * yhat
        mu = magnification_isolated(pos, m)
        res = abs(lens_map(pos, LensModel(m)) - yv)
        out.append(ImageSolution(pos, mu, res, 1 if mu > 0 else -1))
    out.sort(key=lambda im: -abs(im.position))
    return ImageSet(images=tuple(out))


def _image_polynomial(y: complex, m: float, kappa: float, gamma: float) -> list[complex]:
    """Coefficients (degree 4 down to 0) of the image polynomial in z.

    Clearing conj(z) between eta(z) = y and its conjugate yields

        g(g^2-u^2) z^4 + [(u^2-2g^2) conj(y) + u g y] z^3
        + [g conj(y)^2 - u |y|^2 - 2 g^2 m] z^2
        + m (2 g conj(y) - u y) z + g m^2 = 0

    with u = 1 - kappa, g = gamma.  Elimination introduces extraneous
    roots, which the residual filter removes downstream.
    """
    u = 1.0 - kappa
    g = gamma
    yb = y.conjugate()
    return [
        g * (g * g - u * u),
        (u * u - 2.0 * g * g) * yb + u * g * y,
        g * yb * yb - u * abs(y) ** 2 - 2.0 * g * g * m,
        m * (2.0 * g * yb - u * y),
        g * m * m,
    ]


def _newton_polish(z: complex, y: complex, model: LensModel) -> complex:
    """Newton iteration (at most 60 steps) on the real 2x2 system eta(z) - y = 0."""
    u = 1.0 - model.kappa
    for _ in range(60):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            break
        if model.m != 0.0 and abs(z) < 1e-14:
            break
        f = lens_map(z, model) - y
        if abs(f) < 1e-15:
            break
        b = _shear_term(z, model)
        det = u * u - abs(b) ** 2
        if det == 0.0:
            break
        b1, b2 = b.real, b.imag
        # real Jacobian [[u+b1, b2], [b2, u-b1]]
        dx = (-f.real * (u - b1) + f.imag * b2) / det
        dy = (-f.imag * (u + b1) + f.real * b2) / det
        step = complex(dx, dy)
        z = z + step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z


def _collect_images(cands, y: complex, model: LensModel) -> list[ImageSolution]:
    # rounding of eta's linear part per unit |z|: a point-mass term |m/z|
    # below it is invisible to the residual filter
    linear = _EPS * (abs(1.0 - model.kappa) + model.gamma)
    kept: list[ImageSolution] = []
    for z in cands:
        z = _newton_polish(z, y, model)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            continue
        if model.m != 0.0 and (abs(z) < CENTER_TOL or abs(model.m) <= linear * abs(z) ** 2):
            continue
        res = abs(lens_map(z, model) - y)
        if res > RESIDUAL_TOL:
            continue
        if any(abs(z - im.position) <= 1e-8 * max(1.0, abs(z)) for im in kept):
            continue
        jac = jacobian_det(z, model)
        mu = math.inf if jac == 0.0 else 1.0 / jac
        kept.append(ImageSolution(z, mu, res, 1 if jac > 0 else (-1 if jac < 0 else 0),
                                  critical=(jac == 0.0)))
    kept.sort(key=lambda im: -abs(im.position))
    return kept


def find_images(y, model: LensModel) -> ImageSet:
    """All images of a source at y under the combined lens map.

    The conjugate equation is eliminated analytically to a complex
    polynomial of degree <= 4.  Leading coefficients below 1e-14 of the
    largest (or of 1) are trimmed, and the roots of what remains
    (companion-matrix eigenvalues, ``np.roots``) seed a Newton polish on
    the real system.  Roots with lens-equation residual above 1e-9, or
    within 1e-12 of the lens center, are discarded, and so are roots
    so far out that |m/z| sinks below the rounding of the linear part
    of eta.  Images come back sorted by |z| descending.

    kappa = 1 with gamma = 0 leaves eta = -m/conj(z), whose one image
    z = -m/conj(y) is taken in closed form (none at y = 0); that case is
    flagged 'degenerate-linear-part'.
    """
    yv = _as_point(y, "source position")
    y0 = _rotated_into_frame(yv, model)
    base = LensModel(model.m, model.kappa, model.gamma, 0.0)
    flags: tuple[str, ...] = ()

    if model.m == 0.0:
        u = 1.0 - model.kappa
        g = model.gamma
        det = u * u - g * g
        if det == 0.0:
            return ImageSet(flags=("degenerate-linear-part",))
        z0 = (u * y0 - g * y0.conjugate()) / det
        images = _collect_images([z0], y0, base)
    elif model.kappa == 1.0 and model.gamma == 0.0:
        flags = ("degenerate-linear-part",)
        images = _collect_images([-model.m / y0.conjugate()] if y0 else [], y0, base)
    else:
        coeffs = _image_polynomial(y0, model.m, model.kappa, model.gamma)
        tiny = 1e-14 * max(1.0, *map(abs, coeffs))
        while coeffs and abs(coeffs[0]) <= tiny:
            coeffs.pop(0)
        images = _collect_images([complex(z) for z in np.roots(coeffs)], y0, base)

    if model.theta != 0.0:
        images = [ImageSolution(_rotated_out_of_frame(im.position, model),
                                im.signed_magnification, im.residual,
                                im.parity, im.critical) for im in images]
    return ImageSet(images=tuple(images), flags=flags)


def total_magnification_isolated(y_norm: float, m: float) -> float:
    """Total magnification mu(x+) - mu(x-) = (y^2 + 2m) / (y sqrt(y^2 + 4m)).

    Valid outside the caustic, y > 2 sqrt(-m); diverges on approach to it.
    """
    y = float(y_norm)
    if m >= 0:
        if y <= 0:
            raise DomainError("need y_norm > 0")
        return (y * y + 2.0 * m) / (y * math.sqrt(y * y + 4.0 * m))
    if y <= 2.0 * math.sqrt(-m):
        raise DomainError("source on or inside the caustic: no total magnification")
    return (y * y + 2.0 * m) / (y * math.sqrt(y * y + 4.0 * m))


def light_curve(m: float, d: float, times) -> list[LightCurveSample]:
    """Total magnification of a unit-speed source with impact parameter d.

    mu(t) = (d^2 + t^2 + 2m) / (sqrt(d^2 + t^2) sqrt(d^2 + t^2 + 4m)).
    Samples with d^2 + t^2 + 4m <= 0 (source behind the caustic disk,
    m < 0) are reported with magnification None rather than 0 or NaN.
    """
    out = []
    for t in times:
        t = float(t)
        r2 = d * d + t * t
        disc = r2 + 4.0 * m
        if r2 <= 0.0 or disc <= 0.0:
            out.append(LightCurveSample(t, None))
            continue
        out.append(LightCurveSample(t, (r2 + 2.0 * m) / (math.sqrt(r2) * math.sqrt(disc))))
    return out


@dataclass(frozen=True)
class TimeDelay:
    """Dimensionless Fermat potential and, when geometry is given, its physical scale.

    Only differences between images are physically meaningful; the
    arrival-time reference constant is left unfixed.
    """

    tau: float
    physical: float | None = None


def time_delay(x, y, model: LensModel, geometry: LensGeometry | None = None) -> TimeDelay:
    """Fermat potential tau(x; y) = |x - y|^2 / 2 - psi(x).

    Images of the source at y are exactly the stationary points of tau.
    With geometry, the physical delay applies the (1 + z_l) d_l d_s / d_ls
    prefactor.
    """
    xv = _as_point(x, "image position")
    yv = _as_point(y, "source position")
    tau = 0.5 * abs(xv - yv) ** 2 - surface_potential(xv, model)
    if geometry is None:
        return TimeDelay(tau)
    pref = (1.0 + geometry.z_l) * geometry.d_l * geometry.d_s / geometry.d_ls
    return TimeDelay(tau, pref * tau)


def fermat_gradient(x, y, model: LensModel) -> tuple[float, float]:
    """Central-difference gradient (step 1e-6) of the Fermat potential at x."""
    xv = _as_point(x)
    yv = _as_point(y)
    step = 1e-6

    def tau(p):
        return 0.5 * abs(p - yv) ** 2 - surface_potential(p, model)

    gx = (tau(xv + step) - tau(xv - step)) / (2.0 * step)
    gy = (tau(xv + 1j * step) - tau(xv - 1j * step)) / (2.0 * step)
    return gx, gy
