"""Gravitational lensing, quasilocal mass, and Weyl-metric diagnostics
for negative point masses.

Subpackages by topic:

- ``lens``      thin-lens map, images, magnifications, light curves
- ``caustics``  critical curves, caustics, cusp classification, surveys
- ``spherical`` spherically symmetric curvature/mass/capacity engine
- ``imcf``      radial inverse mean curvature flow and monotonicity checks
- ``weyl``      Zipoy-Voorhees rod-metric diagnostics
- ``cli``       command-line front end (CSV and SVG emitters)

The topic modules load on first use (``negmass.lens``, ``from negmass
import lens``), so ``import negmass`` loads neither them nor numpy.
"""

import importlib

from .errors import (BoundaryRegimeError, DegenerateKappaError, DomainError,
                     NonConvergenceError, NumericalError, SingularPointError,
                     ValidationError)

_TOPICS = ("caustics", "imcf", "lens", "spherical", "weyl")

__all__ = [
    *_TOPICS,
    "BoundaryRegimeError", "DegenerateKappaError", "DomainError",
    "NonConvergenceError", "NumericalError", "SingularPointError",
    "ValidationError",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _TOPICS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_TOPICS})
