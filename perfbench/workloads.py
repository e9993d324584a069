"""Seeded inputs and the operations of the three workloads.

``build(workload, seed)`` returns one round: a fixed list of operations
in a fixed order.  A run repeats whole rounds, so every run does the
same work whatever its length, and the share of failed operations is the
same in every run.  Inputs come from ``random.Random(seed)`` only; the
program sees nothing but the generated values.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

import checks

WORKLOADS = ("cli-cold", "lens-survey", "geometry")

# lens-survey: grid points per axis of each survey, the program's default
# (negmass lens-survey --n).  The grid size sets how a survey's cost splits
# between the caustic sampling, fixed per survey, and the root finding per
# point (README, "Reference figures").
SURVEY_N = 41
SURVEY_SAMPLES = 4  # grid points per survey whose images are checked one by one
SURVEYS_PER_REGIME = 4  # a round has 16 surveys, so its median is not one lens's cost

# geometry: the conformal modification of the slice costs 0.6-1.7 s, and
# that cost jumps by 2x under a 1% change of (m, C): four draws within 1%
# of (-1, -0.35) made 53k-96k chart inversions in the ADM audit of the new
# slice.  A seeded (m, C) would make op_p50_ms depend on the seed, so (m, C) and the arclengths
# whose areas are evaluated come from this fixed list, one entry per
# operation of a round; everything else in a geometry operation is seeded.
# The five entries cost within 25% of each other, and an odd count puts
# the median inside one entry's operations rather than between two.
GEOMETRY_SLOTS = (
    (-0.75, -0.15, (0.1, 1.0)),
    (-1.25, -0.25, (0.2, 2.0)),
    (-1.0, -0.35, (0.1, 1.0)),
    (-0.9, -0.3, (0.1, 1.0)),
    (-1.25, -0.4375, (0.3, 1.5)),
)
POWER_LAW_P = ((0.3, 0.9), (1.05, 1.3), (4.0 / 3.0, 4.0 / 3.0), (1.45, 2.5))

CLI_SUBCOMMANDS = ("lens-images", "lens-lightcurve", "lens-critical", "lens-caustics",
                   "lens-cusps", "lens-survey", "spherical-report", "imcf-flow", "weyl-zv")


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(seed)
    if workload == "lens-survey":
        return [survey_input(rng, regime) for _ in range(SURVEYS_PER_REGIME)
                for regime in SURVEY_REGIMES]
    if workload == "geometry":
        return [geometry_input(rng, i) for i in range(len(GEOMETRY_SLOTS))]
    if workload == "cli-cold":
        return [cli_input(rng, sub) for sub in CLI_SUBCOMMANDS]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# lens-survey


def _lens(regime: str, rng) -> dict:
    m = -rng.uniform(0.5, 2.0)
    if regime == "isolated":
        return {"m": m, "kappa": 0.0, "gamma": 0.0, "theta": 0.0}
    if regime == "sheared":  # kappa < 1; theta = 0, see caustic_extent
        kappa, gstar = rng.uniform(0.1, 0.6), rng.uniform(0.2, 0.8)
        return {"m": m, "kappa": kappa, "gamma": gstar * (1.0 - kappa), "theta": 0.0}
    if regime == "kappa>1":  # four-image region around the lens
        kappa, gstar = rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.5)
        return {"m": m, "kappa": kappa, "gamma": gstar * (kappa - 1.0), "theta": 0.0}
    if regime == "gamma*>1":
        kappa, gstar = rng.uniform(0.8, 0.9), rng.uniform(1.3, 2.5)
        return {"m": m, "kappa": kappa, "gamma": gstar * (1.0 - kappa), "theta": 0.0}
    raise ValueError(regime)


SURVEY_REGIMES = ("isolated", "sheared", "kappa>1", "gamma*>1")


def caustic_extent(lens: dict, n: int = 720) -> float:
    """Largest |y| on the caustics, from the closed-form critical curve.

    Every survey has theta = 0: for a rotated shear the program's
    near-caustic mask is built from the unrotated critical curve, so it
    misses the true caustic by up to 0.2 (CHANGES.md, FOUND).
    """
    return float(np.abs(checks.caustic_points(lens, n)).max())


def survey_input(rng, regime: str) -> dict:
    """A lens of the regime and a square source window 1.3x its caustics."""
    lens = _lens(regime, rng)
    half = 1.3 * caustic_extent(lens)
    step = 2.0 * half / (SURVEY_N - 1)
    off1, off2 = rng.uniform(-0.5, 0.5) * step, rng.uniform(-0.5, 0.5) * step
    return {"regime": regime, "lens": lens,
            "y1": [-half + off1 + i * step for i in range(SURVEY_N)],
            "y2": [-half + off2 + i * step for i in range(SURVEY_N)],
            "sample_seed": rng.randrange(2 ** 31)}


def run_survey(op: dict, nm):
    """One operation: the program's image-count survey of the window."""
    L = op["lens"]
    model = nm.lens.LensModel(L["m"], L["kappa"], L["gamma"], L["theta"])
    return nm.caustics.image_count_survey(model, op["y1"], op["y2"])


def survey_samples(op: dict, result, nm) -> list:
    """Images at a few grid points, four-image points first, for check_survey."""
    L = op["lens"]
    model = nm.lens.LensModel(L["m"], L["kappa"], L["gamma"], L["theta"])
    cells = [(i, j) for i in range(len(op["y2"])) for j in range(len(op["y1"]))
             if not result.near_caustic[i, j]]
    rng = random.Random(op["sample_seed"])
    rng.shuffle(cells)
    cells.sort(key=lambda c: -int(result.counts[c]))
    out = []
    for i, j in cells[:SURVEY_SAMPLES]:
        y = complex(op["y1"][j], op["y2"][i])
        images = [(im.position, im.signed_magnification, im.parity)
                  for im in nm.lens.find_images(y, model)]
        out.append((y, images, False))
    return out


# ---------------------------------------------------------------------------
# geometry


def geometry_input(rng, slot: int) -> dict:
    m, C, mod_s = GEOMETRY_SLOTS[slot]
    p_lo, p_hi = POWER_LAW_P[slot % len(POWER_LAW_P)]
    x, a = -rng.uniform(0.8, 2.5), rng.uniform(0.5, 2.0)
    return {
        "m": m, "C": C, "mod_s": list(mod_s),
        "radii": sorted(_log_uniform(rng, 1e-2, 1e2) for _ in range(4)),
        "cap_radii": sorted(_log_uniform(rng, 1e-2, 10.0) for _ in range(2)),
        "r0": rng.uniform(0.2, 2.0), "t_end": rng.uniform(3.0, 6.0),
        "C_flat": -rng.uniform(0.2, 0.8),
        "flat_s": sorted(rng.uniform(0.05, 3.0) for _ in range(2)),
        "k": rng.uniform(1.0, 5.0), "p": rng.uniform(p_lo, p_hi),
        "rod": {"m": x * a, "a": a, "radius": rng.uniform(2.0, 10.0) * a,
                "rho": _log_uniform(rng, 5e-4, 2e-3) * a},
    }


def run_geometry(op: dict, nm) -> dict:
    """One operation: the audit of one negative-mass slice and one rod."""
    sph, imcf, weyl = nm.spherical, nm.imcf, nm.weyl
    m = op["m"]
    cs = sph.ConformalSchwarzschildProfile(m)
    out = {
        "hawking": [sph.hawking_mass_sphere(cs, r) for r in op["radii"]],
        "capacities": [sph.radial_capacity(cs, r) for r in op["cap_radii"]],
        "adm": sph.adm_mass(cs),
        "central_mass": sph.regular_mass(cs),
        "central_capacity": sph.capacity_center(cs),
    }
    trace = imcf.imcf_flow(cs, op["r0"], op["t_end"])
    out["flow"] = [(s.t, s.r, s.area, s.hawking) for s in trace.states]
    out["geroch"] = len(imcf.geroch_report(trace, cs))
    for key, base, C, svals in (("flat_conformal", sph.FlatProfile(), op["C_flat"], op["flat_s"]),
                                ("slice_conformal", cs, op["C"], op["mod_s"])):
        res = sph.apply_harmonic_conformal(base, C)
        with nm.span("spherical.area"):
            areas = [res.profile.area(s) for s in svals]
        out[key] = {"adm_check": res.adm_check, "s": svals, "areas": areas}
    rep = sph.classify_power_law(op["k"], op["p"])
    out["power_law"] = (rep.classification, rep.regular_mass, rep.capacity_center)
    rod = op["rod"]
    zv = weyl.ZVModel(rod["m"], rod["a"])
    a = rod["a"]
    res = weyl.vacuum_residuals(zv, [a * (0.1 + 4.9 * i / 29) for i in range(30)],
                                [a * (-5.0 + 10.0 * i / 29) for i in range(30)])
    out["rod"] = {
        "flux": weyl.adm_flux(zv, rod["radius"]),
        "residuals": (res.harmonic, res.mu_rho_eq, res.mu_z_eq),
        "cylinder_areas": (weyl.cylinder_area(zv, rod["rho"]),
                           weyl.cylinder_area(zv, 0.1 * rod["rho"])),
        "energy": weyl.level_set_energy(zv, rod["rho"]),
    }
    return out


# ---------------------------------------------------------------------------
# cli-cold


def _fmt(x: float) -> str:
    return repr(float(x))


def cli_input(rng, sub: str) -> dict:
    """Small inputs for one subcommand: its flags and the values behind them."""
    m = -rng.uniform(0.5, 2.0)
    p: dict = {"m": m}
    svg = False
    if sub == "lens-images":
        kappa, gstar = rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.4)
        p.update(kappa=kappa, gamma=gstar * (kappa - 1.0), theta=rng.uniform(0.0, math.pi))
        y = 0.03 * math.sqrt(-m) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        p["y"] = (y.real, y.imag)
        flags = ["--m", _fmt(m), "--kappa", _fmt(kappa), "--gamma", _fmt(p["gamma"]),
                 "--theta", _fmt(p["theta"]), "--y", f"{_fmt(y.real)},{_fmt(y.imag)}"]
    elif sub == "lens-lightcurve":
        p.update(d=rng.uniform(0.5, 4.0), t0=-5.0, t1=5.0, n=101)
        flags = ["--m", _fmt(m), "--d", _fmt(p["d"]), "--t0", _fmt(p["t0"]),
                 "--t1", _fmt(p["t1"]), "--n", str(p["n"])]
        svg = True
    elif sub in ("lens-critical", "lens-caustics"):
        kappa, gstar = rng.uniform(0.1, 0.6), rng.uniform(0.2, 0.8)
        p.update(kappa=kappa, gamma=gstar * (1.0 - kappa), samples=360)
        flags = ["--m", _fmt(m), "--kappa", _fmt(kappa), "--gamma", _fmt(p["gamma"]),
                 "--samples", "360"]
        svg = sub == "lens-critical"
    elif sub == "lens-cusps":
        kappa = rng.choice((rng.uniform(0.1, 0.6), rng.uniform(1.4, 1.9)))
        gstar = rng.choice((rng.uniform(0.2, 0.8), rng.uniform(0.9, 0.97),
                            rng.uniform(1.1, 2.0)))
        p.update(kappa=kappa, gamma=gstar * abs(1.0 - kappa))
        flags = ["--m", _fmt(m), "--kappa", _fmt(kappa), "--gamma", _fmt(p["gamma"])]
    elif sub == "lens-survey":
        kappa, gstar = rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.5)
        p.update(kappa=kappa, gamma=gstar * (kappa - 1.0), n=9)
        half = round(1.3 * caustic_extent({**p, "theta": 0.0}), 6)
        p.update(lo=-half, hi=half)
        flags = ["--m", _fmt(m), "--kappa", _fmt(kappa), "--gamma", _fmt(p["gamma"]),
                 "--y", f"{_fmt(-half)},{_fmt(half)}", "--n", "9",
                 "--samples", str(checks.MASK_SAMPLES)]
        svg = True
    elif sub == "spherical-report":
        p = {"mass": m, "r0": _log_uniform(rng, 0.05, 5.0)}
        flags = ["--profile", "neg-schwarzschild", "--mass", _fmt(m), "--r0", _fmt(p["r0"])]
        svg = True
    elif sub == "imcf-flow":
        p = {"mass": m, "r0": rng.uniform(0.2, 2.0), "t_end": rng.uniform(2.0, 4.0)}
        flags = ["--profile", "neg-schwarzschild", "--mass", _fmt(m), "--r0", _fmt(p["r0"]),
                 "--t-end", _fmt(p["t_end"])]
    elif sub == "weyl-zv":
        a = rng.uniform(0.5, 2.0)
        p = {"m": -rng.uniform(0.8, 2.5) * a, "a": a, "radius": rng.uniform(2.0, 10.0) * a,
             "rho": _log_uniform(rng, 1e-3, 1e-2) * a}
        flags = ["--m", _fmt(p["m"]), "--a", _fmt(a), "--radius", _fmt(p["radius"]),
                 "--rho", _fmt(p["rho"])]
        svg = True
    else:
        raise ValueError(sub)
    return {"sub": sub, "params": p, "flags": flags, "svg": svg}


def cli_argv(op: dict, out_dir: str) -> tuple[list[str], str, str | None]:
    """Arguments of one CLI call writing into out_dir, and its CSV/SVG paths."""
    csv_path = f"{out_dir}/{op['sub']}.csv"
    svg_path = f"{out_dir}/{op['sub']}.svg" if op["svg"] else None
    argv = [op["sub"], *op["flags"], "--out", csv_path]
    if svg_path:
        argv += ["--svg", svg_path]
    return argv, csv_path, svg_path
