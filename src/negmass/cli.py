"""Command-line front end: run the computational modules, emit CSV and SVG.

Subcommands: lens-images, lens-lightcurve, lens-critical, lens-caustics,
lens-cusps, lens-survey, spherical-report, imcf-flow, weyl-zv.

A flat ``key = value`` config file (--config) is merged underneath the
command-line flags: flags win, unknown keys are rejected.  Exit codes:
0 success, 2 validation error, 3 numerical failure or unwritable output.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import caustics, imcf, lens, weyl
from . import spherical as sph
from .errors import DomainError, NonConvergenceError, NumericalError, ValidationError
from .svgplot import Series, emit_svg
from .tableio import write_csv

REQUIRED = object()  # default marker: flag must be supplied (CLI or config)
OPTIONAL = object()  # default marker: flag may stay unset

_COMMON_PROFILE = {
    "profile": (str, REQUIRED),
    "mass": (float, -1.0),
    "k": (float, OPTIONAL),
    "p": (float, OPTIONAL),
    "file": (str, OPTIONAL),
}

_CURVE = {
    "m": (float, REQUIRED), "kappa": (float, 0.0), "gamma": (float, 0.0),
    "samples": (int, 720),
}

_SPECS: dict[str, dict[str, tuple]] = {
    "lens-images": {
        "m": (float, REQUIRED), "kappa": (float, 0.0), "gamma": (float, 0.0),
        "theta": (float, 0.0), "y": (str, REQUIRED),
    },
    "lens-lightcurve": {
        "m": (float, REQUIRED), "d": (float, REQUIRED), "t0": (float, -5.0),
        "t1": (float, 5.0), "n": (int, 101),
    },
    "lens-critical": _CURVE,
    "lens-caustics": _CURVE,
    "lens-cusps": {
        "m": (float, REQUIRED), "kappa": (float, 0.0), "gamma": (float, 0.0),
    },
    "lens-survey": {
        "m": (float, REQUIRED), "kappa": (float, 0.0), "gamma": (float, 0.0),
        "y": (str, "-4,4"), "n": (int, 41), "samples": (int, 8192),
    },
    "spherical-report": {**_COMMON_PROFILE, "r0": (float, 1.0)},
    "imcf-flow": {**_COMMON_PROFILE, "r0": (float, REQUIRED),
                  "t-end": (float, REQUIRED)},
    "weyl-zv": {
        "m": (float, REQUIRED), "a": (float, 1.0), "radius": (float, 5.0),
        "rho": (float, 1e-3),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negmass",
        description="Negative point-mass lensing and geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SPECS.items():
        p = sub.add_parser(name)
        for opt, (typ, _default) in spec.items():
            p.add_argument(f"--{opt}", dest=opt.replace("-", "_"),
                           type=typ, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--svg", type=str, default=None)
        p.add_argument("--config", type=str, default=None)
    return parser


def _load_config(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return out


def _merge_config(args, command: str):
    if args.config is None:
        return
    spec = _SPECS[command]
    allowed = {**spec, "out": (str, None), "svg": (str, None)}
    for key, raw in _load_config(args.config).items():
        if key not in allowed:
            raise ValidationError(f"unknown config key {key!r} for {command}")
        dest = key.replace("-", "_")
        if getattr(args, dest) is None:  # flags win over config
            typ = allowed[key][0]
            try:
                setattr(args, dest, typ(raw))
            except ValueError as exc:
                raise ValidationError(f"config key {key!r}: {exc}") from exc


def _apply_defaults(args, command: str):
    for opt, (_typ, default) in _SPECS[command].items():
        dest = opt.replace("-", "_")
        if getattr(args, dest) is None:
            if default is REQUIRED:
                raise ValidationError(f"missing required flag --{opt}")
            setattr(args, dest, None if default is OPTIONAL else default)
    if args.out is None:
        args.out = f"{command}.csv"


def _parse_pair(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--{what} expects 'a,b', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"--{what}: {exc}") from exc


def _profile_from_args(args) -> sph.RadialProfile:
    if args.profile is None:
        raise ValidationError("missing required flag --profile")
    return sph.build_profile(args.profile, mass=args.mass, k=args.k,
                             p=args.p, file=args.file)


def _re_im(z) -> tuple[float, float]:
    return float(z.real), float(z.imag)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_lens_images(args):
    model = lens.LensModel(args.m, args.kappa, args.gamma, args.theta)
    y = _parse_pair(args.y, "y")
    result = lens.find_images(y, model)
    rows = [[*_re_im(im.position), im.signed_magnification, im.residual,
             im.parity, 1 if im.critical else 0] for im in result]
    write_csv(args.out, ["x1", "x2", "signed_magnification", "residual",
                         "parity", "critical"], rows)
    if args.svg:
        pts = Series([im.position.real for im in result],
                     [im.position.imag for im in result], label="images")
        src = Series([y.real], [y.imag], label="source")
        emit_svg([pts, src], args.svg, title="lens images",
                 equal_aspect=True, x_label="x1", y_label="x2")


def _cmd_lens_lightcurve(args):
    if args.n < 2:
        raise ValidationError("--n must be >= 2")
    times = np.linspace(args.t0, args.t1, args.n)
    samples = lens.light_curve(args.m, args.d, times)
    rows = [[s.t, s.magnification] for s in samples]
    write_csv(args.out, ["t", "mu"], rows)
    if args.svg:
        emit_svg([Series([s.t for s in samples],
                         [s.magnification for s in samples], label="mu(t)")],
                 args.svg, title="light curve", x_label="t", y_label="mu")


def _cmd_lens_curve(args):
    """lens-critical writes the critical curve z, lens-caustics its image y."""
    caustic = args.command == "lens-caustics"
    p = "y" if caustic else "z"
    model = lens.LensModel(args.m, args.kappa, args.gamma)
    if model.kappa == 1.0:
        pts = caustics.critical_points_kappa1(model.m, model.gamma)
        if caustic:
            pts = [lens.lens_map(z, model) for z in pts]
        rows = [[None, *_re_im(pts[0]), *_re_im(pts[1])]] if pts else []
        series = [Series([q.real for q in pts], [q.imag for q in pts])]
    else:
        red = caustics.reduce(model)
        curve = (caustics.caustic_curve(red, model, args.samples) if caustic
                 else caustics.critical_curve(red, args.samples))
        plus, minus = curve[f"{p}_plus"], curve[f"{p}_minus"]
        cols = (curve.phi, plus.real, plus.imag, minus.real, minus.imag)
        # NaN marks a gap; it is written as NA and drawn as a break
        rows = [[None if v != v else v for v in row] for row in zip(*(c.tolist() for c in cols))]
        series = [Series(branch.real.tolist(), branch.imag.tolist(), label=p + sign)
                  for branch, sign in ((plus, "+"), (minus, "-"))]
    write_csv(args.out, ["phi", f"{p}p1", f"{p}p2", f"{p}m1", f"{p}m2"], rows)
    if args.svg:
        axis = "y" if caustic else "x"
        emit_svg(series, args.svg, title="caustics" if caustic else "critical curves",
                 equal_aspect=True, x_label=f"{axis}1", y_label=f"{axis}2")


def _cmd_lens_cusps(args):
    model = lens.LensModel(args.m, args.kappa, args.gamma)
    cusps = caustics.cusp_angles(caustics.reduce(model))
    rows = [[phi, label, cusps.count] for phi, label in cusps.angles]
    write_csv(args.out, ["phi", "label", "count"], rows)
    if args.svg:
        if not cusps.angles:
            print("no cusps in this regime; skipping SVG", file=sys.stderr)
        else:
            emit_svg([Series([phi for phi, _ in cusps.angles],
                             [0.0 for _ in cusps.angles], label="cusp angles")],
                     args.svg, title=f"cusps (count {cusps.count})",
                     x_label="phi", y_label="")


def _cmd_lens_survey(args):
    model = lens.LensModel(args.m, args.kappa, args.gamma)
    pair = _parse_pair(args.y, "y")
    lo, hi = pair.real, pair.imag
    if not hi > lo:
        raise ValidationError("--y for lens-survey is 'lo,hi' with hi > lo")
    axis = np.linspace(lo, hi, args.n)
    result = caustics.image_count_survey(model, axis, axis, samples=args.samples)
    rows = []
    for i, b in enumerate(result.y2):
        for j, a in enumerate(result.y1):
            rows.append([a, b, int(result.counts[i, j]),
                         1 if result.near_caustic[i, j] else 0])
    write_csv(args.out, ["y1", "y2", "count", "near_caustic"], rows)
    if args.svg:
        series = []
        for count in sorted({int(c) for c in result.counts.ravel()}):
            mask = result.counts == count
            ys, xs = np.nonzero(mask)
            series.append(Series(list(result.y1[xs]), list(result.y2[ys]),
                                 label=f"count {count}"))
        emit_svg(series, args.svg, title="image multiplicity",
                 equal_aspect=True, x_label="y1", y_label="y2")


def _cmd_spherical_report(args):
    profile = _profile_from_args(args)
    r0 = args.r0
    rows = [["kind", profile.kind]]
    try:
        rows.append(["adm", sph.adm_mass(profile)])
    except (NonConvergenceError, DomainError):
        rows.append(["adm", None])
    if profile.r_min == 0.0:
        rows.append(["regular_mass", sph.regular_mass(profile)])
        rows.append(["capacity_center", sph.capacity_center(profile)])
    else:
        rows.append(["regular_mass", None])
        rows.append(["capacity_center", None])
    try:
        rows.append(["capacity_r0", sph.radial_capacity(profile, r0)])
    except DomainError:  # bounded domain: no tail integral
        rows.append(["capacity_r0", None])
    rows.append(["hawking_r0", sph.hawking_mass_sphere(profile, r0)])
    rows.append(["scalar_curvature_r0", sph.scalar_curvature(profile, r0)])
    write_csv(args.out, ["quantity", "value"], rows)
    if args.svg:
        rs = np.geomspace(max(profile.r_min * 1.01, 1e-3), 100.0, 200)
        emit_svg([Series(rs.tolist(), sph.hawking_mass_sphere(profile, rs).tolist(),
                         label="m_H(r)")],
                 args.svg, title="Hawking mass", x_label="r", y_label="m_H")


def _cmd_imcf_flow(args):
    profile = _profile_from_args(args)
    trace = imcf.imcf_flow(profile, args.r0, args.t_end)
    rows = [[s.t, s.r, s.area, s.mean_curvature, s.hawking]
            for s in trace.states]
    write_csv(args.out, ["t", "r", "area", "H", "m_H"], rows)
    if args.svg:
        emit_svg([Series([s.t for s in trace.states],
                         [s.hawking for s in trace.states], label="m_H(t)")],
                 args.svg, title="IMCF Hawking mass", x_label="t", y_label="m_H")


def _cmd_weyl_zv(args):
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
    rows = []
    for rho in rhos:
        rows.append([rho, weyl.cylinder_area(zv, rho),
                     weyl.level_set_energy(zv, rho) if zv.m != 0.0 else None,
                     flux, res.harmonic, res.mu_rho_eq, res.mu_z_eq,
                     exp_area, exp_obs, exp_energy, classification])
    write_csv(args.out,
              ["rho", "area", "energy", "adm_flux", "res_harmonic",
               "res_mu_rho", "res_mu_z", "area_exponent_bulk",
               "area_exponent_observed", "energy_exponent", "classification"],
              rows)
    if args.svg:
        emit_svg([Series([math.log10(r) for r in rhos],
                         [math.log10(row[1]) for row in rows],
                         label="log10 area")],
                 args.svg, title="cylinder areas", x_label="log10 rho",
                 y_label="log10 area")


_DISPATCH = {
    "lens-images": _cmd_lens_images,
    "lens-lightcurve": _cmd_lens_lightcurve,
    "lens-critical": _cmd_lens_curve,
    "lens-caustics": _cmd_lens_curve,
    "lens-cusps": _cmd_lens_cusps,
    "lens-survey": _cmd_lens_survey,
    "spherical-report": _cmd_spherical_report,
    "imcf-flow": _cmd_imcf_flow,
    "weyl-zv": _cmd_weyl_zv,
}


def _join_negative_values(argv):
    """Fold '--y -4,4' into '--y=-4,4' so argparse keeps negative pairs.

    argparse only recognizes bare negative numbers; values like '-4,4'
    would otherwise be mistaken for option strings.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1
                and not argv[i + 1].startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def run(argv) -> int:
    """Parse argv, run the subcommand, return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code if exc.code is not None else 2)
    try:
        _merge_config(args, args.command)
        _apply_defaults(args, args.command)
        _DISPATCH[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OSError) as exc:
        print(f"numerical/output failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
