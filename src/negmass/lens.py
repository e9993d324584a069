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


@dataclass(frozen=True)
class LightCurveSample:
    """One light-curve sample; magnification is None when the source is occulted."""

    t: float
    magnification: float | None


def _finite(w, z: complex, what: str):
    """w, or a typed error where it overflowed: next to the point mass or far out."""
    if math.isfinite(w.real) and math.isfinite(w.imag):
        return w
    raise (SingularPointError if abs(z) < 1.0 else DomainError)(
        f"{what} overflows at z = {z!r}")


def _rotated(z, angle: float):
    """z turned by angle; -theta takes the lab frame to the theta = 0 working frame."""
    return z if angle == 0.0 else cmath.exp(1j * angle) * z


def surface_potential(x, model: LensModel) -> float:
    """Dimensionless surface potential psi(x) of the combined lens."""
    z = _as_point(x, "image position")
    if model.m != 0.0 and z == 0:
        raise SingularPointError("potential is singular at the point mass")
    x1, x2 = z.real, z.imag
    val = 0.5 * model.kappa * (x1 * x1 + x2 * x2)
    if model.m != 0.0:
        val += model.m * math.log(abs(z))
    if model.gamma != 0.0:
        c2t = math.cos(2.0 * model.theta)
        s2t = math.sin(2.0 * model.theta)
        val -= 0.5 * model.gamma * ((x1 * x1 - x2 * x2) * c2t + 2.0 * x1 * x2 * s2t)
    return _finite(val, z, "potential")


def lens_map(x, model: LensModel) -> complex:
    """Source position eta(z) = (1 - kappa) z + gamma e^{2 i theta} conj(z) - m/conj(z).

    Summed term by term so that, unlike z - alpha(z), nothing cancels at
    kappa = 1.  Where it overflows, next to the point mass or far out, it
    raises SingularPointError or DomainError.
    """
    z = _as_point(x, "image position")
    if model.m != 0.0 and z == 0:
        raise SingularPointError("lens map is singular at the point mass")
    return _finite(_eta(z, model), z, "lens map")


def _eta(z, model: LensModel):
    """The lens map's arithmetic, for a complex or a complex ndarray z."""
    eta = (1.0 - model.kappa) * z
    if model.gamma != 0.0:
        eta += model.gamma * cmath.exp(2j * model.theta) * z.conjugate()
    if model.m != 0.0:
        eta -= model.m / z.conjugate()
    return eta


def _shear_term(z: complex, model: LensModel) -> complex:
    """d eta / d conj(z) = gamma e^{2 i theta} + m / conj(z)^2.

    m is divided by conj(z) twice, so that conj(z)^2 cannot overflow far out.
    """
    b = model.gamma * cmath.exp(2j * model.theta)
    if model.m != 0.0:
        b += model.m / z.conjugate() / z.conjugate()
    return b


def jacobian_det(x, model: LensModel) -> float:
    """Jacobian of the lens map, J = (1 - kappa)^2 - |gamma e^{2 i theta} + m/conj(z)^2|^2.

    Real by construction (|d eta/dz|^2 - |d eta/d conj z|^2); it vanishes
    exactly on the critical curves.  Raises SingularPointError where it
    overflows next to the point mass.
    """
    z = _as_point(x, "image position")
    if model.m != 0.0 and z == 0:
        raise SingularPointError("Jacobian is singular at the point mass")
    u, b = 1.0 - model.kappa, abs(_shear_term(z, model))
    return _finite(u * u - b * b, z, "Jacobian")


def magnification_isolated(x, m: float) -> float:
    """Signed magnification |x|^4 / (|x|^4 - m^2) of an isolated point mass.

    Taken as 1 / (1 - q^2), q = m/|x|^2, which cannot overflow; math.inf
    on the critical circle |x|^2 = |m|, as ``find_images`` reports J = 0.
    """
    z = _as_point(x)
    if not math.isfinite(m):
        raise ValidationError(f"point mass m must be finite, got {m!r}")
    r2 = abs(z) * abs(z)
    if r2 == 0.0:  # the limit x -> 0; no lens at all for m = 0
        return 1.0 if m == 0.0 else -0.0
    den = 1.0 - (m / r2) * (m / r2)
    return math.inf if den == 0.0 else 1.0 / den


def solve_images_isolated(y, m: float) -> ImageSet:
    """Closed-form images of an isolated point mass with m < 0.

    x_pm = (|y| +/- sqrt(|y|^2 + 4m)) / 2 along the unit vector of y,
    x_- taken as -m / x_+ so that nothing cancels.  Outside the caustic
    |y| = 2 sqrt(-m) there are two images; inside, none; on it (within
    1e-12), one degenerate image flagged critical.
    """
    yv = _as_point(y, "source position")
    if not -math.inf < m < 0.0:
        raise DomainError(f"isolated closed form needs a finite negative mass, got {m!r}")
    ynorm = abs(yv)
    caustic = 2.0 * math.sqrt(-m)
    if ynorm == 0.0 or (ynorm < caustic and abs(ynorm - caustic) > CAUSTIC_TIE_TOL):
        return ImageSet(flags=("inside-caustic",))
    yhat = yv / ynorm
    if abs(ynorm - caustic) <= CAUSTIC_TIE_TOL:
        pos = math.sqrt(-m) * yhat
        res = abs(lens_map(pos, LensModel(m)) - yv)
        return ImageSet(images=(ImageSolution(pos, math.inf, res, 0, True),), flags=("critical",))
    root = ynorm * math.sqrt(1.0 + 4.0 * (m / ynorm / ynorm))
    out = []
    for xr in (0.5 * (ynorm + root), -2.0 * m / (ynorm + root)):
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
    flagged 'degenerate-linear-part'.  Raises DomainError past |y| =
    RESIDUAL_TOL / (8 eps) = 5.6e5, where rounding of y nears RESIDUAL_TOL.
    """
    yv = _as_point(y, "source position")
    if 8.0 * _EPS * abs(yv) > RESIDUAL_TOL:
        raise DomainError(f"source at |y| = {abs(yv):g} is too far out for the residual test")
    y0 = _rotated(yv, -model.theta)
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
        images = [ImageSolution(_rotated(im.position, model.theta),
                                im.signed_magnification, im.residual,
                                im.parity, im.critical) for im in images]
    return ImageSet(images=tuple(images), flags=flags)


def _total_magnification(y: float, m: float) -> float | None:
    """(y^2 + 2m) / (y sqrt(y^2 + 4m)) as (s + 1/s) / 2, s = sqrt(1 + 4m/y^2), which
    cannot overflow; None at y = 0 and on or inside the caustic."""
    if y <= (2.0 * math.sqrt(-m) if m < 0 else 0.0):
        return None
    s = math.hypot(1.0, 2.0 * math.sqrt(m) / y) if m > 0 else math.sqrt(1.0 + 4.0 * (m / y / y))
    return 0.5 * (s + 1.0 / s)


def total_magnification_isolated(y_norm: float, m: float) -> float:
    """Total magnification mu(x+) - mu(x-) = (y^2 + 2m) / (y sqrt(y^2 + 4m)).

    Valid outside the caustic, y > 2 sqrt(-m); diverges on approach to it.
    """
    y = float(y_norm)
    if not (math.isfinite(y) and math.isfinite(m)):
        raise ValidationError("total magnification needs finite y_norm and m")
    mu = _total_magnification(y, m)
    if mu is None:
        raise DomainError("no total magnification at y_norm <= 0 or on or inside the caustic")
    return mu


def light_curve(m: float, d: float, times) -> list[LightCurveSample]:
    """Total magnification of a unit-speed source with impact parameter d.

    mu(t) is ``total_magnification_isolated`` at y = sqrt(d^2 + t^2).
    Samples on or inside the caustic disk y <= 2 sqrt(-m) (m < 0), and at
    y = 0, are reported with magnification None rather than 0 or NaN.
    """
    times = [float(t) for t in times]
    if not all(map(math.isfinite, (m, d, *times))):
        raise ValidationError("light curve needs finite m, d and times")
    return [LightCurveSample(t, _total_magnification(math.hypot(d, t), m)) for t in times]


def fermat_gradient(x, y, model: LensModel) -> tuple[float, float]:
    """Central-difference gradient (step 1e-6) of the Fermat potential at x.

    Only tests call it, as the oracle that images are stationary points of
    the arrival time; it is built on ``surface_potential``, not the lens map.
    """
    xv = _as_point(x)
    yv = _as_point(y)
    step = 1e-6

    def tau(p):
        return 0.5 * abs(p - yv) ** 2 - surface_potential(p, model)

    gx = (tau(xv + step) - tau(xv - step)) / (2.0 * step)
    gy = (tau(xv + 1j * step) - tau(xv - 1j * step)) / (2.0 * step)
    return gx, gy
