"""Independent checks that only tests run.

Each computes a result of the package by a different route than the
package does: cusps by scanning w^3 on a grid instead of the closed form
of ``caustics.cusp_angles``, and the Fermat-potential gradient from the
lens potential psi instead of the lens map.  They read the package's
private helpers for input checks and w^3, and nothing in ``negmass``
imports them.
"""

from __future__ import annotations

import math

import numpy as np

from negmass.caustics import ReducedLens, _w3
from negmass.lens import LensModel, _as_point, _finite, _image_position

SCAN_RESOLUTION = 10 ** 4  # phi grid on which scan_cusps brackets the cusps


def _sign_changes(fun, phis: np.ndarray) -> np.ndarray:
    """Zeros of fun on the circle: the sorted angles where it vanishes, and
    one root per cell of phis (wrapping past 2pi) where it changes sign,
    all cells bisected together to 1e-13."""
    two_pi = 2.0 * math.pi
    vals = fun(phis)
    bracket = vals * np.roll(vals, -1) < 0.0
    lo, flo = phis[bracket], vals[bracket]
    hi = np.append(phis[1:], phis[0] + two_pi)[bracket]
    while (hi - lo > 1e-13 * np.maximum(1.0, hi)).any():
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        left = flo * fmid <= 0.0  # the sign change lies in [lo, mid]
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
        hi = np.where(left, mid, hi)
    return np.sort(np.concatenate((phis[vals == 0.0], 0.5 * (lo + hi) % two_pi)))


def scan_cusps(reduced: ReducedLens) -> list[float]:
    """Locate cusps from w^3 alone (no closed form, no factorization).

    Brackets Im(w^3) on SCAN_RESOLUTION uniform angles and on the zeros
    of its slope, found on the same grid, which split two roots that
    share a cell (gamma* just above sqrt(3)/2).  Keeps the angles whose
    Re(w^3) has sign opposite to eps.  Only tests call it, as the
    numerical check of the closed-form cusps of ``cusp_angles``.
    """
    g = reduced.gamma_star
    if g == 0.0:
        return []

    def slope(phi):  # d Im(w^3)/dphi = Im(3 w^2 dw/dphi), w = 1 - e, dw/dphi = i e
        e = g * np.exp(-1j * phi)
        return (3j * e * (1.0 - e) ** 2).imag

    grid = np.linspace(0.0, 2.0 * math.pi, SCAN_RESOLUTION, endpoint=False)
    phis = np.sort(np.concatenate((grid, _sign_changes(slope, grid))))
    roots = _sign_changes(lambda phi: _w3(phi, g).imag, phis)
    re = _w3(roots, g).real
    found: list[float] = []
    for root in roots[(re != 0.0) & ((re > 0) != (reduced.eps_kappa > 0))].tolist():
        if all(abs(root - r) > 1e-6 and abs(abs(root - r) - 2.0 * math.pi) > 1e-6
               for r in found):
            found.append(root)
    return found


def surface_potential(x, model: LensModel) -> float:
    """Dimensionless surface potential psi(x) of the combined lens."""
    z = _image_position(x, model, "potential")
    x1, x2 = z.real, z.imag
    val = 0.5 * model.kappa * (x1 * x1 + x2 * x2)
    if model.m != 0.0:
        val += model.m * math.log(abs(z))
    if model.gamma != 0.0:
        c2t = math.cos(2.0 * model.theta)
        s2t = math.sin(2.0 * model.theta)
        val -= 0.5 * model.gamma * ((x1 * x1 - x2 * x2) * c2t + 2.0 * x1 * x2 * s2t)
    return _finite(val, z, "potential")


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
