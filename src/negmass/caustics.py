"""Critical curves, caustics, cusps, and image-multiplicity surveys.

Removing kappa from the combined lens map leaves the reduced parameters

    gamma* = gamma / |1 - kappa|,  m* = m / |1 - kappa|,
    eps = sgn(1 - kappa),

and for m* < 0 the critical curves are

    z_pm(phi) = +/- i sqrt(|m*| / (e^{-i phi} - gamma*)),   phi in [0, 2pi).

Caustics are their images under the full lens map.  Cusps are the
angles where, additionally, the directional derivative of the map along
Z = 2i dJ/dconj(z) vanishes; writing w = 1 - gamma* e^{-i phi}, they are
the angles with w^3 real and of sign opposite to eps.  The closed form
reads w^3 from w itself (``_w3``), as does the grid scan that tests
check it against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryRegimeError, DegenerateKappaError, DomainError,
                     NumericalError, ValidationError)
from .lens import LensModel, _eta_b, _rotated, find_images_many, lens_map

GAP_TOL = 1e-9  # |e^{-i phi} - gamma*| below this is a parametrization gap
_NAN = complex(math.nan, math.nan)  # z and y at a gap


@dataclass(frozen=True)
class ReducedLens:
    """Kappa-free lens parameters (m*, gamma*, eps = sgn(1 - kappa))."""

    m_star: float
    gamma_star: float
    eps_kappa: int

    def __post_init__(self):
        if self.eps_kappa not in (-1, 1):
            raise ValidationError("eps_kappa must be +1 or -1")
        if not (math.isfinite(self.m_star) and math.isfinite(self.gamma_star)):
            raise ValidationError("reduced parameters must be finite")
        if self.gamma_star < 0:
            raise ValidationError("gamma_star must be >= 0")


@dataclass(frozen=True)
class CuspSet:
    """Cusp angles with root labels, total cusp count, and shear regime."""

    angles: tuple[tuple[float, str], ...]
    count: int
    regime: str
    eps_kappa: int


def reduce(model: LensModel) -> ReducedLens:
    """Strip kappa from the lens: (m*, gamma*, eps).

    Undefined at kappa = 1; that branch has its own two-point critical set.
    """
    if model.kappa == 1.0:
        raise DegenerateKappaError(
            "kappa = 1: use critical_points_kappa1 for the critical set")
    scale = abs(1.0 - model.kappa)
    eps = 1 if model.kappa < 1.0 else -1
    return ReducedLens(model.m / scale, model.gamma / scale, eps)


def _z_plus(phi: np.ndarray, reduced: ReducedLens) -> np.ndarray:
    """Principal-root z_+(phi); NaN where |e^{-i phi} - gamma*| < GAP_TOL."""
    den = np.exp(-1j * phi) - reduced.gamma_star
    gap = np.abs(den) < GAP_TOL
    return np.where(gap, _NAN, 1j * np.sqrt(abs(reduced.m_star) / np.where(gap, 1.0, den)))


def critical_curve(reduced: ReducedLens, n_samples: int) -> np.recarray:
    """Sample z_pm(phi) over [0, 2pi); independent of eps_kappa.

    Returns a record array with fields ``phi``, ``z_plus``, ``z_minus``
    and ``gap``, one record per angle.  Principal square roots flip branch
    where the radicand crosses the negative real axis; each sample is
    rematched to the root nearer the previous one, so each branch traces
    a continuous curve.  Samples with |e^{-i phi} - gamma*| < 1e-9
    (gamma* = 1 degeneracy) are gaps: ``gap`` is set and z is NaN there.
    """
    if reduced.m_star >= 0:
        raise DomainError("critical_curve expects a negative reduced mass")
    if n_samples < 4:
        raise ValidationError("need at least 4 samples")
    phi = 2.0 * np.pi * np.arange(n_samples) / n_samples
    z = _z_plus(phi, reduced)
    gap = np.isnan(z)
    # z_- = -z_+, so sample k is nearer the other root of sample k-1 exactly
    # when Re(z_k conj z_{k-1}) < 0; the flip count restarts after each gap
    flips = np.cumsum(np.concatenate(([False], (z[1:] * z[:-1].conj()).real < 0.0)))
    flips -= np.maximum.accumulate(np.where(gap, flips, 0))
    z = np.where(flips % 2 == 1, -z, z)
    return np.rec.fromarrays((phi, z, -z, gap), names="phi,z_plus,z_minus,gap")


def critical_points_kappa1(m: float, gamma: float) -> tuple[complex, ...]:
    """Critical set for kappa = 1: the two solutions of conj(z)^2 = -m / gamma.

    At kappa = 1 the Jacobian is J = -|gamma + m/conj(z)^2|^2, which
    vanishes exactly where m/conj(z)^2 = -gamma.  (Dropping the minus
    sign puts the points a quarter turn off and leaves J = -4 gamma^2
    there.)  For m < 0 the two points lie on the x1 axis, the kappa -> 1
    limit of the shrinking critical loops.
    """
    if not (math.isfinite(m) and math.isfinite(gamma)):
        raise ValidationError("critical_points_kappa1 needs finite m and gamma")
    if gamma == 0.0:
        return ()
    if m == 0.0:
        raise DomainError("critical_points_kappa1 needs m != 0")
    root = cmath.sqrt(-m / gamma)
    z = root.conjugate()
    return (z, -z)


def caustic_curve(reduced: ReducedLens, model: LensModel, n_samples: int) -> np.recarray:
    """The critical curve turned by e^{i theta} into the model's lab frame,
    with its image under the full lens map in the added record fields
    ``y_plus`` and ``y_minus`` (NaN at gaps, like z)."""
    curve = critical_curve(reduced, n_samples)
    z = _rotated(curve.z_plus, model.theta)
    # eta is odd, so the minus branch maps to -y
    y = np.where(curve.gap, _NAN, _eta_b(np.where(curve.gap, 1.0, z), model)[0])
    return np.rec.fromarrays((curve.phi, z, -z, curve.gap, y, -y),
                             names="phi,z_plus,z_minus,gap,y_plus,y_minus")


def _w3(phi, gstar: float):
    """w^3 for w = 1 - gamma* e^{-i phi}, complex and elementwise in phi.

    Cusps sit where Im(w^3) = 0; there |Re(w^3)| = |w|^3, so the sign of
    Re(w^3) that picks eps is never a rounding call (|w| >= |1 - gamma*|).
    """
    return (1.0 - gstar * np.exp(-1j * np.asarray(phi))) ** 3


def shear_regime(gstar: float) -> str:
    g2 = gstar * gstar
    if g2 < 0.75:
        return "gstar2<3/4"
    if g2 < 1.0:
        return "3/4<=gstar2<1"
    if g2 > 1.0:
        return "gstar2>1"
    raise BoundaryRegimeError("gamma* = 1: higher-order caustic at infinity")


def _candidate_angles(gstar: float) -> list[tuple[float, str]]:
    """The zeros phi1..phi6 of Im(w^3); phi3..phi6 exist only for gamma*^2 >= 3/4.

    Im(w^3) = gamma* sin(phi) [4 gamma*^2 cos^2 phi - 6 gamma* cos phi + 3 - gamma*^2]:
    sin(phi) gives phi1 = 0 and phi2 = pi, the quadratic in cos(phi) the
    rest.  (Its constant term is 3 - gamma*^2; a variant with 4 - gamma*^2
    has no real roots for 3/4 <= gamma*^2 < 1, where the cusp table needs four.)
    """
    roots = [(0.0, "phi1"), (math.pi, "phi2")]
    disc = 4.0 * gstar * gstar - 3.0
    if gstar > 0.0 and disc >= 0.0:
        s = math.sqrt(disc)
        for sign, lab in ((+1.0, "phi3"), (-1.0, "phi4")):
            c = (3.0 + sign * s) / (4.0 * gstar)
            if abs(c) <= 1.0:
                phi = math.acos(c)
                roots.append((phi, lab))
                partner = "phi5" if lab == "phi3" else "phi6"
                roots.append((2.0 * math.pi - phi, partner))
    return roots


def _equivalent_model(reduced: ReducedLens) -> LensModel:
    """A full model realizing the reduced map: kappa = 0 (eps=+1) or 2 (eps=-1)."""
    kappa = 0.0 if reduced.eps_kappa == 1 else 2.0
    return LensModel(reduced.m_star, kappa, reduced.gamma_star)


def grad_Z_eta(z: complex, model: LensModel) -> complex:
    """Directional derivative of eta along Z = 2i dJ/dconj(z).

    grad_Z eta = (1 - kappa) Z + b conj(Z) with b = d eta/d conj(z) and
    Z = 4 i m conj(b) / conj(z)^3; it vanishes exactly at cusps (together
    with J = 0).  m is divided by conj(z) one factor at a time, so that
    conj(z)^3 can neither overflow nor underflow.
    """
    b = _eta_b(z, model)[1]
    zb = z.conjugate()
    Z = 4j * (model.m / zb / zb / zb) * b.conjugate()
    return model._u * Z + b * Z.conjugate()


def cusp_angles(reduced: ReducedLens) -> CuspSet:
    """Cusp angles for the reduced lens, selected by the sign of Re(w^3).

    A candidate root phi_i is a cusp for the eps with sign(Re w^3) = -eps;
    each angle contributes two cusps (one per critical branch), so the
    count is twice the number of selected angles.  Every selected angle
    is cross-checked against the defining condition |grad_Z eta| <= 1e-7
    |(1 - kappa) Z| at the corresponding critical point.  Relative to
    |(1 - kappa) Z|, that condition depends on gamma* and eps alone, so
    the check holds at every scale of m*.
    """
    if reduced.m_star >= 0:
        raise DomainError("cusp_angles expects a negative reduced mass")
    g = reduced.gamma_star
    regime = shear_regime(g)  # raises on gamma* = 1
    selected = [(phi, lab) for phi, lab in _candidate_angles(g)
                if g > 0.0 and _w3(phi, g).real * reduced.eps_kappa < 0.0]
    model = _equivalent_model(reduced)
    zs = _z_plus(np.array([phi for phi, _ in selected]), reduced).tolist()
    for (_, lab), z in zip(selected, zs):
        # |(1 - kappa) Z| = 4 |m*| / |z|^3, since |b| = |1 - kappa| = 1 where J = 0
        if not abs(grad_Z_eta(z, model)) <= 4e-7 * abs(model.m / z / z / z):
            raise NumericalError(f"closed-form cusp {lab} fails the numerical condition")
    selected.sort()
    return CuspSet(tuple(selected), 2 * len(selected), regime, reduced.eps_kappa)


@dataclass(frozen=True)
class SurveyResult:
    """Image counts on a source-plane grid, with a near-caustic mask.

    ``counts`` is an int8 array (an image count is 0 to 4) and ``near_caustic``
    a bool array, both with rows along y2 and columns along y1.
    """

    y1: np.ndarray
    y2: np.ndarray
    counts: np.ndarray
    near_caustic: np.ndarray
    margin: float


def _caustic_segments(model: LensModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The caustic as (start, end) segments between consecutive samples at
    n angles per branch, none across a gap; each branch closes on the one
    of +/- its first sample that continues the critical curve.  kappa = 1
    gives two points (zero-length segments), m = 0 none."""
    if model.m == 0.0:
        return np.empty(0, dtype=complex), np.empty(0, dtype=complex)
    if model.kappa == 1.0:
        pts = np.array([lens_map(_rotated(z, model.theta), model)
                        for z in critical_points_kappa1(model.m, model.gamma)], dtype=complex)
        return pts, pts
    curve = caustic_curve(reduce(model), model, n)
    y, z = curve.y_plus, curve.z_plus
    nxt = np.append(y[1:], -y[0] if (z[-1] * z[0].conjugate()).real < 0.0 else y[0])
    start, end = np.concatenate((y, -y)), np.concatenate((nxt, -nxt))
    keep = ~np.isnan(start + end)
    return start[keep], end[keep]


def _near_caustic(segments, y1: np.ndarray, y2: np.ndarray, margin: float) -> np.ndarray:
    """Grid points within margin of a segment.  Only a point within margin
    of a segment's bounding box can be, so each row y2 = b measures just
    the (column, segment) pairs that pass that test."""
    a, b = segments
    d = b - a
    len2 = np.where(d == 0, 1.0, np.abs(d) ** 2)  # zero length: projection 0
    x_lo, x_hi = np.minimum(a.real, b.real) - margin, np.maximum(a.real, b.real) + margin
    y_lo, y_hi = np.minimum(a.imag, b.imag) - margin, np.maximum(a.imag, b.imag) + margin
    near = np.zeros((y2.size, y1.size), dtype=bool)
    for i, row in enumerate(y2):
        s = np.flatnonzero((y_lo <= row) & (row <= y_hi))
        j, k = np.nonzero((x_lo[s] <= y1[:, None]) & (y1[:, None] <= x_hi[s]))
        k = s[k]
        p = y1[j] + 1j * row - a[k]
        t = np.clip((p * d[k].conj()).real / len2[k], 0.0, 1.0)
        near[i, j[np.abs(p - t * d[k]) < margin]] = True
    return near


def image_count_survey(model: LensModel, y1_axis, y2_axis,
                       margin: float = 1e-3, samples: int = 8192) -> SurveyResult:
    """Count the images of find_images over a rectangular source grid.

    Each grid row goes through one ``find_images_many`` call, so a row's
    polynomials are rooted together and no temporaries outlive the row.
    Grid points within ``margin`` of the caustic, drawn as segments
    between its samples at ``samples`` angles per branch, are flagged
    unreliable (counts there are still reported).
    """
    y1 = np.asarray(y1_axis, dtype=float)
    y2 = np.asarray(y2_axis, dtype=float)
    near = _near_caustic(_caustic_segments(model, samples), y1, y2, margin)
    counts = np.zeros((y2.size, y1.size), dtype=np.int8)
    for row, b in zip(counts, y2.tolist()):
        row[:] = [len(s) for s in find_images_many([complex(a, b) for a in y1.tolist()], model)]
    return SurveyResult(y1, y2, counts, near, margin)
