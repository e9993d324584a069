"""Thin-lens physics for a point mass with continuous matter and shear.

All quantities are dimensionless.  Positions in the image and source
planes are complex numbers z = x1 + i*x2.  The deflection potential is

    psi(x) = m ln|x| + (kappa/2)|x|^2
             - (gamma/2)[(x1^2 - x2^2) cos 2theta + 2 x1 x2 sin 2theta]

and the lens map in complex form is

    eta(z) = (1 - kappa) z + G conj(z) - m / conj(z),  G = gamma e^{2 i theta}.

m may carry either sign; the negative branch is the case of interest.  The
map, the image polynomial and the Newton polish all work in this lab frame.
A model computes u = 1 - kappa and G once; one kernel gives eta and b = d eta/d conj(z)
for a point or an array, and J = u^2 - |b|^2.  The polish takes both from one
call per step, so an image's J is the polish's own value at the z it returns.
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
        # u and G of the lens map; attributes, not fields, so ==, hash and repr ignore them
        object.__setattr__(self, "_u", 1.0 - self.kappa)
        object.__setattr__(self, "_G", self.gamma * cmath.exp(2j * self.theta))


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
    """z turned by angle; theta takes the theta = 0 critical curve to the lab frame."""
    return z if angle == 0.0 else cmath.exp(1j * angle) * z


def _image_position(x, model: LensModel, what: str) -> complex:
    """x as a finite point, off the point mass where the map is singular."""
    z = _as_point(x, "image position")
    if model.m != 0.0 and z == 0:
        raise SingularPointError(f"{what} is singular at the point mass")
    return z


def _eta_b(z, model: LensModel):
    """(eta, b = d eta/d conj(z) = G + m/conj(z)^2) at a complex or a complex ndarray z.

    m is divided by conj(z) twice, so that conj(z)^2 cannot overflow far out."""
    zb = z.conjugate()
    eta, b = model._u * z, model._G
    if model.gamma != 0.0:
        eta += model._G * zb
    if model.m != 0.0:
        q = model.m / zb
        eta, b = eta - q, b + q / zb
    return eta, b


def lens_map(x, model: LensModel) -> complex:
    """Source position eta(z) = (1 - kappa) z + gamma e^{2 i theta} conj(z) - m/conj(z).

    Summed term by term so that, unlike z - alpha(z), nothing cancels at
    kappa = 1.  Where it overflows, next to the point mass or far out, it
    raises SingularPointError or DomainError.
    """
    z = _image_position(x, model, "lens map")
    return _finite(_eta_b(z, model)[0], z, "lens map")


def jacobian_det(x, model: LensModel) -> float:
    """Jacobian of the lens map, J = (1 - kappa)^2 - |gamma e^{2 i theta} + m/conj(z)^2|^2.

    Real by construction (|d eta/dz|^2 - |d eta/d conj z|^2); it vanishes
    exactly on the critical curves.  Raises SingularPointError where it
    overflows next to the point mass.
    """
    z = _image_position(x, model, "Jacobian")
    b = abs(_eta_b(z, model)[1])  # b * b: inf, where abs(b) ** 2 raises OverflowError
    return _finite(model._u * model._u - b * b, z, "Jacobian")


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


def _image_polynomial(y: complex, m: float, u: float, G: complex) -> list[complex]:
    """Coefficients (degree 4 down to 0) of the image polynomial in z.

    Clearing conj(z) between eta(z) = y and its conjugate yields

        conj(G)(|G|^2-u^2) z^4 + [(u^2-2|G|^2) conj(y) + u conj(G) y] z^3
        + [G conj(y)^2 - u |y|^2 - 2 |G|^2 m] z^2
        + m (2 G conj(y) - u y) z + G m^2 = 0

    with u = 1 - kappa, G = gamma e^{2 i theta}.  Elimination adds extraneous
    roots, which the residual filter removes.
    """
    yb, Gb, gg = y.conjugate(), G.conjugate(), abs(G) ** 2
    return [
        Gb * (gg - u * u),
        (u * u - 2.0 * gg) * yb + u * Gb * y,
        G * yb * yb - u * abs(y) ** 2 - 2.0 * gg * m,
        m * (2.0 * G * yb - u * y),
        G * m * m,
    ]


def _polish(z: complex, y: complex, model: LensModel) -> tuple[complex, float, float]:
    """Newton on the real 2x2 system eta(z) = y; returns z, |eta(z) - y| and J at that z.

    Stops at |f| <= 1e-15 max(1, |z|) (about 4.5 eps), at a step <= 4 eps |z|,
    where J = 0, or after 60 steps.  Past 8 steps it gives up on a root whose
    |f| is above 1e3 RESIDUAL_TOL and no longer halves per step, which spares
    linear convergence onto a double root (a source on a fold caustic).  A
    root within CENTER_TOL of the point mass gets an infinite residual.
    """
    u = model._u
    step = last = math.inf
    for k in range(61):
        if (r := abs(z)) < CENTER_TOL and model.m != 0.0:
            return z, math.inf, math.nan
        eta, b = _eta_b(z, model)
        res, bb = abs(f := eta - y), abs(b)
        det = u * u - bb * bb  # as jacobian_det forms it
        if (res <= 1e-15 * max(1.0, r) or abs(step) <= 4.0 * _EPS * r or k == 60 or det == 0.0
                or (k >= 8 and res > 1e3 * RESIDUAL_TOL and res > 0.5 * last)):
            return z, res, det
        b1, b2 = b.real, b.imag
        # real Jacobian [[u+b1, b2], [b2, u-b1]]
        step = complex((-f.real * (u - b1) + f.imag * b2) / det,
                       (-f.imag * (u + b1) + f.real * b2) / det)
        z, last = z + step, res


def _collect_images(cands, y: complex, model: LensModel,
                    z_lin: complex | None) -> list[ImageSolution]:
    # eta's linear part rounds at about linear * |z|: a root whose |m/z| is below
    # that passes the residual test whatever it is, so it stays only if it is z_lin
    linear = _EPS * (abs(1.0 - model.kappa) + model.gamma)
    kept: list[ImageSolution] = []
    for z in cands:
        z, res, jac = _polish(z, y, model)
        tol = 1e-8 * max(1.0, abs(z))
        if not res <= RESIDUAL_TOL or any(abs(z - im.position) <= tol for im in kept):
            continue
        if model.m != 0.0 and abs(model.m) <= linear * abs(z) ** 2 and (
                z_lin is None or abs(z - z_lin) > tol):
            continue
        jac = _finite(jac, z, "Jacobian")
        mu = math.inf if jac == 0.0 else 1.0 / jac
        kept.append(ImageSolution(z, mu, res, 1 if jac > 0 else (-1 if jac < 0 else 0),
                                  critical=(jac == 0.0)))
    kept.sort(key=lambda im: -abs(im.position))
    return kept


def _roots_many(polys) -> list[list[complex]]:
    """``np.roots`` of each complex coefficient list (highest degree first), bit for bit.

    As np.roots does, exact zeros are stripped from both ends, each trailing
    zero gives a root at 0 after the others, and an all-zero list has no
    roots.  The companion matrices of np.roots (first row -p[1:] / p[0],
    ones below the diagonal) are stacked by size, one eigvals call a size.
    """
    out, tails, sizes = [], [], {}
    for i, p in enumerate(polys):
        nz = [k for k, c in enumerate(p) if c != 0]
        out.append([])
        tails.append(len(p) - 1 - nz[-1] if nz else 0)
        if nz and nz[-1] > nz[0]:
            sizes.setdefault(nz[-1] - nz[0], []).append((i, p[nz[0]:nz[-1] + 1]))
    for n, group in sizes.items():
        p = np.array([p for _, p in group], dtype=complex)
        a = np.zeros((len(group), n, n), dtype=complex)
        a[:, 0] = -p[:, 1:] / p[:, :1]
        a[:, range(1, n), range(n - 1)] = 1.0
        for (i, _), roots in zip(group, np.linalg.eigvals(a).tolist()):
            out[i] = roots
    for roots, k in zip(out, tails):
        roots += [0j] * k
    return out


def find_images(y, model: LensModel) -> ImageSet:
    """All images of a source at y under the combined lens map.

    The conjugate equation is eliminated, in the lab frame, to a complex
    polynomial of degree <= 4; leading coefficients below 1e-14 of the
    largest (or of 1) are trimmed.  Each root (the eigenvalues of
    ``np.roots``' companion matrix, bit for bit) is Newton-polished on the
    real system to rounding level and kept if its residual |eta(z) - y| is
    at most 1e-9 and it lies 1e-12 or more from the lens center.  A root so
    far out that |m/z| sinks below the rounding of eta's linear part stays
    only if it is that part's own image z_lin = (u y - G conj(y)) /
    (u^2 - gamma^2), u = 1 - kappa, G = gamma e^{2 i theta}; at
    u^2 = gamma^2 there is no z_lin, and all such roots are dropped.
    Images come back sorted by |z| descending.

    kappa = 1 with gamma = 0 leaves eta = -m/conj(z), whose one image
    z = -m/conj(y) is taken in closed form (none at y = 0); it and m = 0
    at u^2 = gamma^2 are flagged 'degenerate-linear-part'.  Raises
    DomainError past |y| = RESIDUAL_TOL / (8 eps) = 5.6e5, where rounding
    of y nears RESIDUAL_TOL.  This is ``find_images_many([y], model)[0]``.
    """
    return find_images_many([y], model)[0]


def find_images_many(ys, model: LensModel) -> list[ImageSet]:
    """``find_images`` of each source in ys, with its checks and its results.

    The polynomials of all the sources are rooted together (one stacked
    eigvals call per degree); each source's roots are then polished and
    filtered on their own.
    """
    ys = [_as_point(y, "source position") for y in ys]
    for yv in ys:
        if 8.0 * _EPS * abs(yv) > RESIDUAL_TOL:
            raise DomainError(f"source at |y| = {abs(yv):g} is too far out for the residual test")
    u, G, m = model._u, model._G, model.m
    det = u * u - model.gamma * model.gamma
    z_lins = [(u * yv - G * yv.conjugate()) / det if det != 0.0 else None for yv in ys]
    if m == 0.0:
        cands = [[] if z is None else [z] for z in z_lins]
    elif model.kappa == 1.0 and model.gamma == 0.0:
        cands = [[-m / yv.conjugate()] if yv else [] for yv in ys]
    else:
        polys = []
        for yv in ys:
            coeffs = _image_polynomial(yv, m, u, G)
            tiny = 1e-14 * max(1.0, *map(abs, coeffs))
            while coeffs and abs(coeffs[0]) <= tiny:
                coeffs.pop(0)
            polys.append(coeffs)
        cands = _roots_many(polys)
    flags = ("degenerate-linear-part",) if det == 0.0 and (m == 0.0 or model.gamma == 0.0) else ()
    return [ImageSet(images=tuple(_collect_images(c, yv, model, z)), flags=flags)
            for c, yv, z in zip(cands, ys, z_lins)]


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
