"""Command-line front end: run the computational modules, emit CSV and SVG.

Subcommands: lens-images, lens-lightcurve, lens-critical, lens-caustics,
lens-cusps, lens-survey, spherical-report, imcf-flow, weyl-zv.  Each body
returns its CSV header, its rows and its plot; ``run`` writes the table to
--out and, under --svg, the plot.

A flat ``key = value`` config file (--config) reads as the flags
``--key=value`` placed before the command line's own, so flags win.
argparse reports unknown keys, bad values and missing flags.  Exit codes:
0 success, 2 validation error, 3 numerical failure or unwritable output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import DomainError, NonConvergenceError, NumericalError, ValidationError
from .svgplot import Series, emit_svg
from .tableio import write_csv

REQUIRED = object()  # default marker: flag must be supplied (CLI or config)

_COMMON_PROFILE = {"profile": (str, REQUIRED), "mass": (float, -1.0), "k": (float, None),
                   "p": (float, None), "file": (str, None)}

_LENS = {"m": (float, REQUIRED), "kappa": (float, 0.0), "gamma": (float, 0.0)}
_CURVE = {**_LENS, "samples": (int, 720)}


def _parse_pair(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--{what} expects 'a,b', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"--{what}: {exc}") from exc


def _profile_from_args(args):
    from . import spherical as sph
    return sph.build_profile(args.profile, mass=args.mass, k=args.k,
                             p=args.p, file=args.file)


def _linspace(lo: float, hi: float, n: int, least: int):
    """np.linspace(lo, hi, n) for --n >= least; a size numpy refuses is a ValidationError."""
    import numpy as np
    if n < least:
        raise ValidationError(f"--n must be >= {least}")
    try:
        return np.linspace(lo, hi, n)
    except ValueError as exc:  # past numpy's largest array
        raise ValidationError(f"--n {n}: {exc}") from None


def _re_im(z) -> tuple[float, float]:
    return float(z.real), float(z.imag)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (header, rows, plot), where plot is None
# when there is nothing to draw, or a function returning the SVG series
# and the emit_svg options, called only under --svg.  Each imports what it
# runs, so a process loads numpy and the topic modules of its own command only


def _cmd_lens_images(args):
    from . import lens
    model = lens.LensModel(args.m, args.kappa, args.gamma, args.theta)
    y = _parse_pair(args.y, "y")
    result = lens.find_images(y, model)
    rows = [[*_re_im(im.position), im.signed_magnification, im.residual,
             im.parity, 1 if im.critical else 0] for im in result]
    return ["x1", "x2", "signed_magnification", "residual", "parity", "critical"], rows, lambda: (
        [Series([im.position.real for im in result], [im.position.imag for im in result],
                label="images"), Series([y.real], [y.imag], label="source")],
        dict(title="lens images", equal_aspect=True, x_label="x1", y_label="x2"))


def _cmd_lens_lightcurve(args):
    from . import lens
    samples = lens.light_curve(args.m, args.d, _linspace(args.t0, args.t1, args.n, 2))
    ts, mus = [s.t for s in samples], [s.magnification for s in samples]
    return ["t", "mu"], list(zip(ts, mus)), lambda: (
        [Series(ts, mus, label="mu(t)")], dict(title="light curve", x_label="t", y_label="mu"))


def _cmd_lens_curve(args):
    """lens-critical writes the critical curve z, lens-caustics its image y."""
    import numpy as np

    from . import caustics, lens
    caustic = args.command == "lens-caustics"
    p = "y" if caustic else "z"
    model = lens.LensModel(args.m, args.kappa, args.gamma)
    if model.kappa == 1.0:
        pts = caustics.critical_points_kappa1(model.m, model.gamma)
        if caustic:
            pts = [lens.lens_map(z, model) for z in pts]
        rows = [[None, *_re_im(pts[0]), *_re_im(pts[1])]] if pts else []
        branches = [(pts, None)]
    else:
        red = caustics.reduce(model)
        curve = (caustics.caustic_curve(red, model, args.samples) if caustic
                 else caustics.critical_curve(red, args.samples))
        plus, minus = curve[f"{p}_plus"], curve[f"{p}_minus"]
        cols = (curve.phi, plus.real, plus.imag, minus.real, minus.imag)
        # NaN marks a gap; it is written as NA and drawn as a break
        rows = [[None if v != v else v for v in row] for row in zip(*(c.tolist() for c in cols))]
        branches = [(plus, p + "+"), (minus, p + "-")]
    axis = "y" if caustic else "x"
    return ["phi", f"{p}p1", f"{p}p2", f"{p}m1", f"{p}m2"], rows, lambda: (
        [Series(np.real(b).tolist(), np.imag(b).tolist(), label=label) for b, label in branches],
        dict(title="caustics" if caustic else "critical curves", equal_aspect=True,
             x_label=f"{axis}1", y_label=f"{axis}2"))


def _cmd_lens_cusps(args):
    from . import caustics, lens
    model = lens.LensModel(args.m, args.kappa, args.gamma)
    cusps = caustics.cusp_angles(caustics.reduce(model))
    rows = [[phi, label, cusps.count] for phi, label in cusps.angles]
    return ["phi", "label", "count"], rows, None if not cusps.angles else lambda: (
        [Series([phi for phi, _ in cusps.angles], [0.0] * len(cusps.angles),
                label="cusp angles")],
        dict(title=f"cusps (count {cusps.count})", x_label="phi"))


def _cmd_lens_survey(args):
    import numpy as np

    from . import caustics, lens
    model = lens.LensModel(args.m, args.kappa, args.gamma)
    pair = _parse_pair(args.y, "y")
    lo, hi = pair.real, pair.imag
    if not hi > lo:
        raise ValidationError("--y for lens-survey is 'lo,hi' with hi > lo")
    axis = _linspace(lo, hi, args.n, 1)
    result = caustics.image_count_survey(model, axis, axis, samples=args.samples)
    y1, y2 = np.meshgrid(result.y1, result.y2)
    cols = (y1, y2, result.counts, result.near_caustic.astype(int))
    rows = list(zip(*(c.ravel().tolist() for c in cols)))
    # not np.unique: it imports numpy.ma, 1.6 MB of RSS for one call
    return ["y1", "y2", "count", "near_caustic"], rows, lambda: (
        [Series(y1[result.counts == c].tolist(), y2[result.counts == c].tolist(),
                label=f"count {c}") for c in sorted(set(result.counts.ravel().tolist()))],
        dict(title="image multiplicity", equal_aspect=True, x_label="y1", y_label="y2"))


def _or_na(errors, fn, *args):
    """fn(*args), or None (an NA cell) when it raises one of ``errors``."""
    try:
        return fn(*args)
    except errors:
        return None


def _cmd_spherical_report(args):
    import numpy as np

    from . import spherical as sph
    profile = _profile_from_args(args)
    r0 = args.r0
    # NA where a limit does not settle, or its end is not in the profile:
    # no singular end at r = 0, or no tail on a bounded domain
    limit = (NonConvergenceError, DomainError)
    rows = [["kind", profile.kind],
            ["adm", _or_na(limit, sph.adm_mass, profile)],
            ["regular_mass", _or_na(limit, sph.regular_mass, profile)],
            ["capacity_center", _or_na(DomainError, sph.capacity_center, profile)],
            ["capacity_r0", _or_na(DomainError, sph.radial_capacity, profile, r0)],
            ["hawking_r0", sph.hawking_mass_sphere(profile, r0)],
            ["scalar_curvature_r0", sph.scalar_curvature(profile, r0)]]

    def plot():
        rs = np.geomspace(max(profile.r_min * 1.01, 1e-3), 100.0, 200)
        return ([Series(rs.tolist(), sph.hawking_mass_sphere(profile, rs).tolist(),
                        label="m_H(r)")],
                dict(title="Hawking mass", x_label="r", y_label="m_H"))
    return ["quantity", "value"], rows, plot


def _cmd_imcf_flow(args):
    from . import imcf
    states = imcf.imcf_flow(_profile_from_args(args), args.r0, args.t_end).states
    rows = [[s.t, s.r, s.area, s.mean_curvature, s.hawking] for s in states]
    return ["t", "r", "area", "H", "m_H"], rows, lambda: (
        [Series([s.t for s in states], [s.hawking for s in states], label="m_H(t)")],
        dict(title="IMCF Hawking mass", x_label="t", y_label="m_H"))


def _cmd_weyl_zv(args):
    import numpy as np

    from . import weyl
    zv = weyl.ZVModel(args.m, args.a)
    flux = weyl.adm_flux(zv, args.radius)
    res = weyl.vacuum_residuals(
        zv, np.linspace(0.1, 5.0, 30) * zv.a, np.linspace(-5.0, 5.0, 30) * zv.a)
    try:
        exp_area = weyl.cylinder_area_exponent(zv)
        exp_obs = weyl.observed_cylinder_exponent(zv)
    except DomainError:
        exp_area = exp_obs = None
    try:
        exp_energy, classification = weyl.energy_exponent(zv)
    except DomainError:
        exp_energy, classification = None, "NA"
    rhos = [args.rho * 10.0 ** (0.5 * k) for k in range(5)]
    rows = [[rho, weyl.cylinder_area(zv, rho),
             weyl.level_set_energy(zv, rho) if zv.m != 0.0 else None,
             flux, res.harmonic, res.mu_rho_eq, res.mu_z_eq,
             exp_area, exp_obs, exp_energy, classification] for rho in rhos]
    header = ["rho", "area", "energy", "adm_flux", "res_harmonic", "res_mu_rho", "res_mu_z",
              "area_exponent_bulk", "area_exponent_observed", "energy_exponent",
              "classification"]
    return header, rows, lambda: (
        [Series([math.log10(r) for r in rhos], [math.log10(row[1]) for row in rows],
                label="log10 area")],
        dict(title="cylinder areas", x_label="log10 rho", y_label="log10 area"))


# subcommand -> (body, {option: (type, default)}); each also takes --out,
# --svg and --config
_COMMANDS = {
    "lens-images": (_cmd_lens_images, {**_LENS, "theta": (float, 0.0), "y": (str, REQUIRED)}),
    "lens-lightcurve": (_cmd_lens_lightcurve, {
        "m": (float, REQUIRED), "d": (float, REQUIRED), "t0": (float, -5.0),
        "t1": (float, 5.0), "n": (int, 101)}),
    "lens-critical": (_cmd_lens_curve, _CURVE),
    "lens-caustics": (_cmd_lens_curve, _CURVE),
    "lens-cusps": (_cmd_lens_cusps, _LENS),
    "lens-survey": (_cmd_lens_survey, {
        **_LENS, "y": (str, "-4,4"), "n": (int, 41), "samples": (int, 8192)}),
    "spherical-report": (_cmd_spherical_report, {**_COMMON_PROFILE, "r0": (float, 1.0)}),
    "imcf-flow": (_cmd_imcf_flow, {
        **_COMMON_PROFILE, "r0": (float, REQUIRED), "t-end": (float, REQUIRED)}),
    "weyl-zv": (_cmd_weyl_zv, {
        "m": (float, REQUIRED), "a": (float, 1.0), "radius": (float, 5.0),
        "rho": (float, 1e-3)}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negmass",
        description="Negative point-mass lensing and geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_body, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        common = {"out": (str, f"{name}.csv"), "svg": (str, None), "config": (str, None)}
        for opt, (typ, default) in {**options, **common}.items():
            p.add_argument(f"--{opt}", type=typ, default=default,
                           required=default is REQUIRED)
    return parser


def _config_flags(argv) -> list[str]:
    """The --config file's ``key = value`` lines as ``--key=value`` flags.

    A parser that knows only --config finds the file, so that abbreviations
    such as --conf work as they do on the full parser.
    """
    finder = argparse.ArgumentParser(prog="negmass", add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(lineno, text) for lineno, raw in enumerate(fh, start=1)
                     if (text := raw.split("#", 1)[0].strip())]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    flags = []
    for lineno, line in lines:
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or key == "config":
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', key not config")
        flags.append(f"--{key}={value}")
    return flags


def _join_negative_values(argv):
    """Fold '--y -4,4' into '--y=-4,4' so argparse keeps negative pairs.

    argparse only recognizes bare negative numbers; values like '-4,4'
    would otherwise be mistaken for option strings.
    """
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and len(tok) > 1 and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv) -> int:
    """Parse argv, run the subcommand, write its table and plot; return the exit code."""
    argv = _join_negative_values(list(argv))
    try:
        # config flags go right after the subcommand, so the command line's own win
        args = _build_parser().parse_args([*argv[:1], *_config_flags(argv), *argv[1:]])
        header, rows, plot = _COMMANDS[args.command][0](args)
        write_csv(args.out, header, rows)
        if args.svg and plot is None:
            print(f"{args.command}: nothing to plot; skipping SVG", file=sys.stderr)
        elif args.svg:
            series, options = plot()
            emit_svg(series, args.svg, **options)
    except SystemExit as exc:  # argparse has printed its error
        return int(exc.code if exc.code is not None else 2)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OSError) as exc:
        print(f"numerical/output failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    """Process entry (``negmass`` and ``python -m negmass.cli``).

    OpenBLAS starts a worker thread per extra core when numpy loads, and
    that thread costs CPU which no negmass kernel is large enough to use.
    So, before numpy loads, this process runs BLAS on one thread, unless
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS says otherwise.  ``run`` leaves
    the environment alone.
    """
    if "numpy" not in sys.modules and "OMP_NUM_THREADS" not in os.environ:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
