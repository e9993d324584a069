"""Output checkers for the benchmark's operations.

Every checker compares a program output with a computation made here,
apart from the program, or with a property the method must have.  None
of them compares against a saved copy of an earlier output.  Each
returns a list of failure messages; an empty list means the output
passed.

The oracles below use only the closed forms of the physics:

- the lens map eta(z) = (1 - kappa) z + gamma e^{2 i theta} conj(z) - m / conj(z)
  and its Jacobian J = (1 - kappa)^2 - |gamma e^{2 i theta} + m / conj(z)^2|^2;
- an image count from ``numpy.roots`` of a quartic in w = conj(z), derived
  here by eliminating z (the program eliminates conj(z) instead);
- the critical curve z = +/- i sqrt(|m*| / (e^{-i phi} - gamma*)) and its
  image, the caustic, from which the near-caustic mask is checked;
- the arclength s(R) of the conformally flat slice (1 + m/2R)^4 delta,
  inverted by bisection, which gives areas, capacities R + m/2 and the
  Hawking mass m of every coordinate sphere;
- the fact that the harmonic conformal factor 1 + C/(R + m/2) turns that
  slice into the same slice with mass m + 2C (flat space being m = 0).
"""

from __future__ import annotations

import cmath
import csv
import math
import xml.etree.ElementTree as ET

import numpy as np

# ---------------------------------------------------------------------------
# lens oracles


def lens_map(z: complex, m: float, kappa: float, gamma: float, theta: float) -> complex:
    """Source position of an image at z (lab frame)."""
    zb = z.conjugate()
    return (1.0 - kappa) * z + gamma * cmath.exp(2j * theta) * zb - m / zb


def jacobian(z: complex, m: float, kappa: float, gamma: float, theta: float) -> float:
    b = gamma * cmath.exp(2j * theta) + m / z.conjugate() ** 2
    return (1.0 - kappa) ** 2 - abs(b) ** 2


def _critical_points(phi, m: float, kappa: float, gamma: float):
    """z_pm(phi) = +/- i sqrt(|m*| / (e^{-i phi} - gamma*)), theta = 0.

    phi may be a number or a numpy array.
    """
    scale = abs(1.0 - kappa)
    z = 1j * np.sqrt(abs(m / scale) / (np.exp(-1j * np.asarray(phi)) - gamma / scale))
    return z, -z


def caustic_points(lens: dict, n: int) -> np.ndarray:
    """The caustic of the z_+ branch at n angles, in the lab frame.

    The z_- branch is -z_+ and the lens map is odd, so its caustic is the
    negative of this one.  The critical curve of a shear at angle theta is
    the theta = 0 curve turned by theta.  Angles where e^{-i phi} = gamma*
    (the curve runs to infinity) are dropped.
    """
    m, kappa, gamma, theta = lens["m"], lens["kappa"], lens["gamma"], lens["theta"]
    phi = 2.0 * np.pi * np.arange(n) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        z = _critical_points(phi, m, kappa, gamma)[0] * cmath.exp(1j * theta)
        y = lens_map(z, m, kappa, gamma, theta)
    return y[np.isfinite(y)]


def conj_quartic(y0: complex, m: float, u: float, g: float) -> np.ndarray:
    """Coefficients of the quartic whose roots are w = conj(z), theta = 0 frame.

    From y = u z + g w - m/w one gets z = N / (u w) with N = -g w^2 + y w + m;
    putting that into the conjugate equation conj(y) = u w + g z - m/z gives

        g N^2 + u w N (u w - conj(y)) - m u^2 w^2 = 0.
    """
    yb = y0.conjugate()
    return np.array([
        g ** 3 - g * u * u,
        u * u * y0 - 2.0 * g * g * y0 + u * g * yb,
        g * y0 * y0 - 2.0 * g * g * m - u * abs(y0) ** 2,
        2.0 * g * m * y0 - u * m * yb,
        g * m * m,
    ], dtype=complex)


def count_images(y: complex, m: float, kappa: float, gamma: float, theta: float) -> int:
    """Number of images of y: quartic roots that solve the lens equation."""
    u = 1.0 - kappa
    y0 = y * cmath.exp(-1j * theta)
    coeffs = np.trim_zeros(conj_quartic(y0, m, u, gamma), "f")
    if coeffs.size < 2:
        return 0
    scale = 1.0 + abs(y0)
    found: list[complex] = []
    for w in np.roots(coeffs):
        if abs(w) < 1e-12 * scale:
            continue
        z = complex(w).conjugate()
        if abs(u * z + gamma * w - m / w - y0) > 1e-6 * scale:
            continue  # root of the elimination, not of the lens equation
        if all(abs(z - q) > 1e-8 * max(1.0, abs(z)) for q in found):
            found.append(z)
    return len(found)


def isolated_images(y: complex, m: float) -> list[complex]:
    """Closed-form images x_pm = (|y| +/- sqrt(|y|^2 + 4m))/2 along y (m < 0)."""
    r = abs(y)
    disc = r * r + 4.0 * m
    if disc <= 0.0:
        return []
    root = math.sqrt(disc)
    return [0.5 * (r + root) * y / r, 0.5 * (r - root) * y / r]


def check_images(y: complex, lens: dict, images, *, near_caustic: bool = False) -> list[str]:
    """Images of one source: residual, mu J = 1, parity, count, closed forms.

    ``images`` holds (position, signed magnification, parity) triples.
    Counts and the four-image magnification sum are only compared away
    from caustics, where both sides are well conditioned.
    """
    m, kappa, gamma, theta = lens["m"], lens["kappa"], lens["gamma"], lens["theta"]
    out = []
    if len(images) % 2:
        out.append(f"y={y}: odd image count {len(images)}")
    for pos, mu, parity in images:
        res = abs(lens_map(pos, m, kappa, gamma, theta) - y)
        if not res <= 1e-9:
            out.append(f"y={y}: image {pos} has residual {res:.2e}")
        jac = jacobian(pos, m, kappa, gamma, theta)
        if not abs(mu * jac - 1.0) <= 1e-6:
            out.append(f"y={y}: mu*J = {mu * jac!r} at {pos}")
        if parity != (1 if jac > 0 else -1):
            out.append(f"y={y}: parity {parity} but J = {jac:.3e}")
    if near_caustic:
        return out
    expected = count_images(y, m, kappa, gamma, theta)
    if len(images) != expected:
        out.append(f"y={y}: {len(images)} images, quartic gives {expected}")
    if kappa == 0.0 and gamma == 0.0:
        closed = isolated_images(y, m)
        if len(images) != len(closed):
            out.append(f"y={y}: {len(images)} images, closed form gives {len(closed)}")
        for x in closed:
            err = min((abs(pos - x) for pos, _, _ in images), default=math.inf)
            if not err <= 1e-10 * max(1.0, abs(x)):
                out.append(f"y={y}: closed-form image {x} missed by {err:.2e}")
    if len(images) == 4:
        total = sum(mu for _, mu, _ in images)
        expect = 1.0 / ((1.0 - kappa) ** 2 - gamma ** 2)  # Witt & Mao 1995
        tol = 1e-6 * sum(abs(mu) for _, mu, _ in images)
        if not abs(total - expect) <= tol:
            out.append(f"y={y}: four-image sum mu = {total!r}, expected {expect!r}")
    return out


MASK_SAMPLES = 8192  # caustic angles per branch that a near-caustic mask may sample at
FINE = 8  # the checker measures distances on a caustic sampled FINE times as densely


def survey_oracle(lens: dict, y1, y2) -> dict:
    """What a survey of this grid must agree with; it depends on the inputs only.

    ``counts`` are quartic image counts (rows follow y2, columns y1).
    ``dist`` is each point's distance to a sampling of the caustic at
    FINE x MASK_SAMPLES angles per branch, and ``fine_gap`` the largest
    step of that sampling: the caustic point nearest to a grid point lies
    within fine_gap/2 of a sample.  ``mask_gap`` is the step of a
    MASK_SAMPLES-angle sampling next to each point's nearest sample.
    """
    from scipy.spatial import cKDTree

    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    counts = np.array([[count_images(complex(a, b), lens["m"], lens["kappa"], lens["gamma"],
                                     lens["theta"]) for a in y1] for b in y2], dtype=int)
    grid = (y1[None, :] + 1j * y2[:, None]).ravel()
    if lens["m"] == 0.0:
        inf = np.full(counts.shape, np.inf)
        return {"counts": counts, "dist": inf, "fine_gap": 0.0, "mask_gap": inf}
    y = caustic_points(lens, FINE * MASK_SAMPLES)
    # the caustic is odd in z, so a step that jumps to the other branch
    # of the square root is measured against -y
    step = np.minimum(np.abs(np.roll(y, -1) - y), np.abs(np.roll(y, -1) + y))
    step = np.maximum(step, np.roll(step, 1))  # the steps on both sides of a sample
    pts = np.concatenate([y, -y])
    dist, idx = cKDTree(np.column_stack([pts.real, pts.imag])).query(
        np.column_stack([grid.real, grid.imag]))
    return {"counts": counts, "dist": dist.reshape(counts.shape),
            "fine_gap": float(step.max()),
            "mask_gap": FINE * step[idx % y.size].reshape(counts.shape)}


def check_mask(near, margin: float, oracle: dict) -> list[str]:
    """The near-caustic mask against distances to the closed-form caustic.

    A flagged point must lie within margin of the caustic.  An unflagged
    point must lie beyond sqrt(margin^2 - h^2), where h is the local step
    of a MASK_SAMPLES-angle sampling: a mask that samples the caustic at
    those angles sees it only at its samples, which are up to h/2 away
    from the point of the caustic nearest to a grid point.
    """
    dist = oracle["dist"]
    out = []
    inner = np.sqrt(margin * margin + oracle["fine_gap"] ** 2)
    for i, j in zip(*np.nonzero(near & (dist >= inner))):
        out.append(f"grid point ({i}, {j}) is flagged near a caustic but lies "
                   f"{dist[i, j]:.3e} from it (margin {margin})")
    outer = np.sqrt(np.maximum(0.0, margin * margin - oracle["mask_gap"] ** 2))
    for i, j in zip(*np.nonzero(~near & (dist < outer))):
        out.append(f"grid point ({i}, {j}) lies {dist[i, j]:.3e} from a caustic "
                   f"and is not flagged (margin {margin})")
    return out


def check_survey(lens: dict, y1, y2, counts, near, margin: float, samples,
                 oracle=None) -> list[str]:
    """An image-count survey and the images found at a few of its points.

    ``samples`` is a list of (y, images, near) with images as in
    check_images.  The near-caustic mask must agree with the caustic's
    closed form (check_mask); away from the points it flags every count
    must match the quartic count, and isolated lenses must also follow
    |y| >< 2 sqrt(-m).  ``oracle`` is survey_oracle's result for this
    grid, computed here when not given.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    counts = np.asarray(counts)
    near = np.asarray(near, dtype=bool)
    if counts.shape != (y2.size, y1.size) or near.shape != counts.shape:
        return [f"survey shape {counts.shape} for a {y2.size}x{y1.size} grid"]
    out = []
    if np.any(counts % 2) or np.any(counts < 0) or np.any(counts > 4):
        out.append("survey has odd, negative or > 4 counts")
    if oracle is None:
        oracle = survey_oracle(lens, y1, y2)
    out.extend(check_mask(near, margin, oracle))
    expected = oracle["counts"]
    far = ~near
    for i, j in zip(*np.nonzero(far & (counts != expected))):
        out.append(f"y=({y1[j]}, {y2[i]}): survey count {counts[i, j]}, "
                   f"quartic gives {expected[i, j]}")
    if lens["kappa"] == 0.0 and lens["gamma"] == 0.0:
        radius = np.hypot(*np.meshgrid(y1, y2))
        rule = np.where(radius < 2.0 * math.sqrt(-lens["m"]), 0, 2)
        for i, j in zip(*np.nonzero(far & (counts != rule))):
            out.append(f"y=({y1[j]}, {y2[i]}): isolated count {counts[i, j]} "
                       f"breaks the |y| >< 2 sqrt(-m) rule")
    for y, images, near_point in samples:
        out.extend(check_images(y, lens, images, near_caustic=near_point))
    return out


# ---------------------------------------------------------------------------
# spherical oracles


def chart_radius(m: float, r: float) -> float:
    """Isotropic radius R of the sphere at arclength r from the singularity (m < 0).

    s(R) = (R - R0) + m ln(R/R0) + (m^2/4)(1/R0 - 1/R) with R0 = |m|/2 is
    increasing, so bisection converges without a derivative.
    """
    R0 = 0.5 * abs(m)

    def s(R):
        return (R - R0) + m * math.log(R / R0) + 0.25 * m * m * (1.0 / R0 - 1.0 / R)

    lo, hi = R0, R0 + r + 4.0 * abs(m) + 1.0
    while s(hi) < r:
        hi *= 2.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if s(mid) < r:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * hi:
            break
    return 0.5 * (lo + hi)


def slice_area(m: float, r: float) -> float:
    """Area of the sphere at arclength r of the slice (1 + m/2R)^4 delta, m < 0."""
    R = chart_radius(m, r)
    return 4.0 * math.pi * R * R * (1.0 + m / (2.0 * R)) ** 4


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def power_law_class(p: float) -> str:
    """Class of the singularity of A ~ k r^p: -inf below 4/3, finite at 4/3, zero above."""
    if abs(p - 4.0 / 3.0) < 1e-12:
        return "finite-mass"
    return "minus-infinity" if p < 4.0 / 3.0 else "zero-mass"


def power_law_capacity_bounds(k: float, p: float) -> tuple[float, float]:
    """Bounds on the central capacity of a power-law head glued to flat space (p < 1).

    Past r_g, where k r^p = 4 pi r^2, the area lies between the two; from
    2 r_g on it is flat.  So 1/A on [r_g, 2 r_g] lies between the two
    reciprocals, which brackets f(0) = 4 pi int_0^inf ds/A.
    """
    rg = (k / (4.0 * math.pi)) ** (1.0 / (2.0 - p))
    head = rg ** (1.0 - p) / (k * (1.0 - p))
    head2 = (2.0 * rg) ** (1.0 - p) / (k * (1.0 - p))
    flat_tail = 1.0 / (4.0 * math.pi * 2.0 * rg)
    f_lo = 4.0 * math.pi * (head + (1.0 / rg - 1.0 / (2.0 * rg)) / (4.0 * math.pi) + flat_tail)
    f_hi = 4.0 * math.pi * (head2 + flat_tail)
    return 1.0 / f_hi, 1.0 / f_lo


def check_geometry(params: dict, out: dict) -> list[str]:
    """Every quantity of one slice audit against the closed forms above."""
    m = params["m"]
    C = params["C"]
    errs = []
    for r, mh in zip(params["radii"], out["hawking"]):
        if not _rel(mh, m) <= 1e-9:
            errs.append(f"Hawking mass {mh!r} at r={r}, expected {m}")
    for r, cap in zip(params["cap_radii"], out["capacities"]):
        expect = chart_radius(m, r) + 0.5 * m
        if not _rel(cap, expect) <= 1e-7:
            errs.append(f"capacity {cap!r} at r={r}, expected R + m/2 = {expect!r}")
    if not _rel(out["adm"], m) <= 1e-6:
        errs.append(f"ADM mass {out['adm']!r}, expected {m}")
    if not _rel(out["central_mass"], m) <= 1e-6:
        errs.append(f"central mass {out['central_mass']!r}, expected {m}")
    if not abs(out["central_capacity"]) <= 1e-9 * abs(m):
        errs.append(f"central capacity {out['central_capacity']!r}, expected 0")

    states = out["flow"]
    if not states or states[0][0] != 0.0 or abs(states[-1][0] - params["t_end"]) > 1e-9:
        errs.append("IMCF trace does not run from t = 0 to t_end")
    else:
        a0 = states[0][2]
        if not _rel(states[0][1], params["r0"]) <= 1e-12:
            errs.append(f"IMCF trace starts at r={states[0][1]!r}, not r0")
        for t, r, area, mh in states:
            if not _rel(area * math.exp(-t), a0) <= 1e-6:
                errs.append(f"IMCF area e^-t drifts at t={t}: {area * math.exp(-t)!r} vs {a0!r}")
                break
            if not _rel(area, slice_area(m, r)) <= 1e-10:
                errs.append(f"IMCF area {area!r} at r={r} is not the slice area")
                break
        if any(b[0] <= a[0] for a, b in zip(states, states[1:])):
            errs.append("IMCF times are not increasing")
        if not _rel(states[-1][3], out["adm"]) <= 1e-6:
            errs.append(f"final IMCF Hawking mass {states[-1][3]!r} differs from ADM mass")
    if out["geroch"]:
        errs.append(f"Geroch audit reports {out['geroch']} decreases on a scalar-flat slice")

    for label, mass, res in (("flat", 2.0 * params["C_flat"], out["flat_conformal"]),
                             ("slice", m + 2.0 * C, out["slice_conformal"])):
        if not abs(res["adm_check"]) <= 1e-6:
            errs.append(f"{label} conformal ADM shift misses 2C by {res['adm_check']!r}")
        for s, area in zip(res["s"], res["areas"]):
            expect = slice_area(mass, s)
            if not _rel(area, expect) <= 1e-10:
                errs.append(f"{label} conformal area {area!r} at s={s}, "
                            f"mass-{mass} slice gives {expect!r}")

    k, p = params["k"], params["p"]
    cls, reg, cap = out["power_law"]
    if cls != power_law_class(p):
        errs.append(f"power law p={p} classified {cls!r}")
    if cls == "finite-mass" and not _rel(reg, -(k ** 1.5) / (36.0 * math.pi ** 1.5)) <= 1e-9:
        errs.append(f"finite central mass {reg!r} for k={k}")
    if cls == "minus-infinity" and reg != -math.inf:
        errs.append(f"central mass {reg!r} for p={p}, expected -inf")
    if cls == "zero-mass" and reg != 0.0:
        errs.append(f"central mass {reg!r} for p={p}, expected 0")
    if p < 1.0:
        lo, hi = power_law_capacity_bounds(k, p)
        if not lo <= cap <= hi:
            errs.append(f"central capacity {cap!r} outside [{lo!r}, {hi!r}] for p={p}")
    elif cap != 0.0:
        errs.append(f"central capacity {cap!r} for p={p} >= 1, expected 0")

    errs.extend(check_rod(params["rod"], out["rod"]))
    return errs


# ---------------------------------------------------------------------------
# rod oracles


def rod_exponents(x: float) -> tuple[float, float]:
    """Bulk area exponent (x-1)^2 and the observed one min((x-1)^2, 2-x), x = m/a."""
    bulk = (x - 1.0) ** 2
    return bulk, min(bulk, 2.0 - x)


def energy_class(x: float) -> str:
    """Sign of the level-set energy exponent (2/3)x^2 + x - 1 (m > 0) or (2/3)x^2 - x/3 - 1."""
    expo = (2.0 / 3.0) * x * x + (x - 1.0 if x > 0 else -x / 3.0 - 1.0)
    if abs(expo) < 1e-12:
        return "boundary"
    return "minus-infinity" if expo < 0.0 else "zero-mass"


def check_rod(params: dict, out: dict) -> list[str]:
    m, a = params["m"], params["a"]
    errs = []
    if not abs(out["flux"] - m) <= 1e-9 * max(1.0, abs(m)):
        errs.append(f"rod flux {out['flux']!r}, expected m = {m}")
    if not max(out["residuals"]) <= 1e-6:
        errs.append(f"vacuum residuals {out['residuals']} above 1e-6")
    a1, a2 = out["cylinder_areas"]
    if not (a1 > 0.0 and a2 > 0.0 and math.isfinite(a1) and math.isfinite(a2)):
        errs.append(f"cylinder areas {a1!r}, {a2!r}")
    else:
        slope = math.log(a1 / a2) / math.log(10.0)
        observed = rod_exponents(m / a)[1]
        if not _rel(slope, observed) <= 0.01:
            errs.append(f"cylinder-area slope {slope:.5f}, expected {observed:.5f}")
    energy = out["energy"]
    if not (energy > 0.0 and math.isfinite(energy)):
        errs.append(f"level-set energy {energy!r}")
    return errs


# ---------------------------------------------------------------------------
# CLI tables


def read_table(path) -> tuple[list[str], list[list]]:
    """CSV as written by the CLI: floats, None for NA, strings otherwise."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty table")

    def cell(text):
        if text == "NA":
            return None
        try:
            return float(text)
        except ValueError:
            return text

    return rows[0], [[cell(c) for c in row] for row in rows[1:]]


def check_svg(path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path}: not a readable SVG ({exc})"]
    if not root.tag.endswith("svg"):
        return [f"{path}: root element is {root.tag}"]
    if not any(el.tag.endswith(("polyline", "circle", "path", "line")) for el in root.iter()):
        return [f"{path}: SVG has no drawn element"]
    return []


def _columns(header, rows, names):
    if header[:len(names)] != names:
        raise ValueError(f"header {header} does not start with {names}")
    return rows




def _cusp_count(gstar: float, eps: int) -> int:
    """Cusps per regime (the paper's table): gamma*^2 < 3/4, [3/4, 1), > 1."""
    g2 = gstar * gstar
    if g2 < 0.75:
        return 0 if eps > 0 else 4
    if g2 < 1.0:
        return 8 if eps > 0 else 4
    return 6


def check_cli(sub: str, p: dict, csv_path, svg_path=None) -> list[str]:
    """One subcommand's CSV (and SVG, when asked for) against the oracles."""
    try:
        header, rows = read_table(csv_path)
    except (OSError, ValueError) as exc:
        return [f"{sub}: {exc}"]
    errs = check_svg(svg_path) if svg_path else []
    lensp = {k: p.get(k, 0.0) for k in ("m", "kappa", "gamma", "theta")}
    try:
        if sub == "lens-images":
            rows = _columns(header, rows, ["x1", "x2", "signed_magnification",
                                           "residual", "parity"])
            images = [(complex(r[0], r[1]), r[2], int(r[4])) for r in rows]
            errs += check_images(complex(*p["y"]), lensp, images)
        elif sub == "lens-lightcurve":
            rows = _columns(header, rows, ["t", "mu"])
            times = np.linspace(p["t0"], p["t1"], p["n"])
            if len(rows) != len(times):
                errs.append(f"{sub}: {len(rows)} samples for n={p['n']}")
            for (t, mu), t_ref in zip(rows, times):
                y = math.hypot(p["d"], t_ref)
                images = isolated_images(complex(y, 0.0), p["m"])
                if abs(t - t_ref) > 1e-12 * max(1.0, abs(t_ref)):
                    errs.append(f"{sub}: sample time {t} != {t_ref}")
                elif not images:
                    if mu is not None:
                        errs.append(f"{sub}: occulted source at t={t} has mu={mu}")
                else:
                    r4 = [abs(x) ** 4 for x in images]
                    expect = sum(abs(q / (q - p["m"] ** 2)) for q in r4)
                    # both forms lose digits as y^2 + 4m -> 0, next to the caustic
                    tol = 1e-9 * (1.0 + y * y / (y * y + 4.0 * p["m"]))
                    if mu is None or not _rel(mu, expect) <= tol:
                        errs.append(f"{sub}: mu({t}) = {mu!r}, expected {expect!r}")
        elif sub in ("lens-critical", "lens-caustics"):
            rows = _columns(header, rows, ["phi"])
            if len(rows) != p["samples"]:
                errs.append(f"{sub}: {len(rows)} rows for {p['samples']} samples")
            for k, row in enumerate(rows):
                phi = row[0]
                if abs(phi - 2.0 * math.pi * k / p["samples"]) > 1e-12:
                    errs.append(f"{sub}: row {k} has phi={phi}")
                    break
                got = {complex(row[1], row[2]), complex(row[3], row[4])}
                zs = _critical_points(phi, p["m"], p["kappa"], p["gamma"])
                if sub == "lens-critical":
                    worst = max(abs(jacobian(z, p["m"], p["kappa"], p["gamma"], 0.0)) for z in got)
                    if not worst <= 1e-9:
                        errs.append(f"{sub}: |J| = {worst:.2e} at phi={phi}")
                        break
                    want = zs
                else:
                    want = [lens_map(z, p["m"], p["kappa"], p["gamma"], 0.0) for z in zs]
                for w in want:
                    if not min(abs(w - g) for g in got) <= 1e-9 * max(1.0, abs(w)):
                        errs.append(f"{sub}: phi={phi} misses {w}")
                        break
        elif sub == "lens-cusps":
            rows = _columns(header, rows, ["phi", "label", "count"])
            scale = abs(1.0 - p["kappa"])
            gstar = p["gamma"] / scale
            eps = 1 if p["kappa"] < 1.0 else -1
            expect = _cusp_count(gstar, eps)
            got = int(rows[0][2]) if rows else 0
            if got != expect or (rows and 2 * len(rows) != got):
                errs.append(f"{sub}: {got} cusps over {len(rows)} angles, "
                            f"expected {expect} (gamma*={gstar:.4f}, eps={eps})")
            for row in rows:
                errs += _check_cusp(row[0], p)
        elif sub == "lens-survey":
            rows = _columns(header, rows, ["y1", "y2", "count", "near_caustic"])
            axis = np.linspace(p["lo"], p["hi"], p["n"])
            if len(rows) != p["n"] ** 2:
                errs.append(f"{sub}: {len(rows)} rows for n={p['n']}")
            counts = np.array([int(r[2]) for r in rows]).reshape(p["n"], p["n"])
            near = np.array([r[3] == 1.0 for r in rows]).reshape(p["n"], p["n"])
            # the CLI surveys with the library's default margin, 1e-3
            errs += check_survey(lensp, axis, axis, counts, near, 1e-3, [])
        elif sub == "spherical-report":
            values = dict((r[0], r[1]) for r in _columns(header, rows, ["quantity", "value"]))
            m, r0 = p["mass"], p["r0"]
            for key in ("adm", "regular_mass", "hawking_r0"):
                if not isinstance(values.get(key), float) or not _rel(values[key], m) <= 1e-6:
                    errs.append(f"{sub}: {key} = {values.get(key)!r}, expected {m}")
            expect = chart_radius(m, r0) + 0.5 * m
            if not isinstance(values.get("capacity_r0"), float) \
                    or not _rel(values["capacity_r0"], expect) <= 1e-7:
                errs.append(f"{sub}: capacity_r0 = {values.get('capacity_r0')!r}, "
                            f"expected {expect!r}")
            if values.get("capacity_center") != 0.0:
                errs.append(f"{sub}: capacity_center = {values.get('capacity_center')!r}")
            scal = values.get("scalar_curvature_r0")
            if not isinstance(scal, float) or not abs(scal) * slice_area(m, r0) <= 1e-6:
                errs.append(f"{sub}: scalar curvature {scal!r} on a scalar-flat slice")
        elif sub == "imcf-flow":
            rows = _columns(header, rows, ["t", "r", "area", "H", "m_H"])
            if not rows or rows[0][0] != 0.0 or abs(rows[-1][0] - p["t_end"]) > 1e-9:
                errs.append(f"{sub}: trace does not run from 0 to t_end")
            for t, r, area, H, mh in rows:
                if not _rel(area, slice_area(p["mass"], r)) <= 1e-10:
                    errs.append(f"{sub}: area {area!r} at r={r}")
                    break
                if not _rel(area * math.exp(-t), rows[0][2]) <= 1e-6:
                    errs.append(f"{sub}: area e^-t drifts at t={t}")
                    break
                if not _rel(mh, p["mass"]) <= 1e-9:
                    errs.append(f"{sub}: m_H = {mh!r} at t={t}")
                    break
        elif sub == "weyl-zv":
            rows = _columns(header, rows, ["rho", "area", "energy", "adm_flux",
                                           "res_harmonic", "res_mu_rho", "res_mu_z",
                                           "area_exponent_bulk", "area_exponent_observed",
                                           "energy_exponent", "classification"])
            x = p["m"] / p["a"]
            bulk, observed = rod_exponents(x)
            if not rows or not _rel(rows[0][0], p["rho"]) <= 1e-15:
                errs.append(f"{sub}: the first cylinder is not at --rho {p['rho']}")
            for row in rows:
                if not abs(row[3] - p["m"]) <= 1e-9 * max(1.0, abs(p["m"])):
                    errs.append(f"{sub}: flux {row[3]!r}, expected {p['m']}")
                if not max(row[4:7]) <= 1e-6:
                    errs.append(f"{sub}: vacuum residuals {row[4:7]}")
                if not (_rel(row[7], bulk) <= 1e-12 and _rel(row[8], observed) <= 1e-12):
                    errs.append(f"{sub}: area exponents {row[7:9]}, expected {bulk}, {observed}")
                if row[10] != energy_class(x):
                    errs.append(f"{sub}: class {row[10]!r}, expected {energy_class(x)!r}")
                if not (row[1] > 0.0 and row[2] > 0.0):
                    errs.append(f"{sub}: area/energy {row[1:3]} not positive")
            rhos, areas = [row[0] for row in rows], [row[1] for row in rows]
            if areas != [a for _, a in sorted(zip(rhos, areas))]:
                errs.append(f"{sub}: cylinder areas do not grow with rho")
        else:
            errs.append(f"unknown subcommand {sub}")
    except (IndexError, TypeError, ValueError) as exc:
        errs.append(f"{sub}: malformed table ({exc})")
    return errs


def _check_cusp(phi: float, p: dict) -> list[str]:
    """At a cusp the caustic's tangent vanishes: |dy/dphi| is ~0 there and not nearby.

    The principal square root may switch branch between phi - h and
    phi + h; the map is odd, so the other branch is -y and the difference
    is taken against whichever sign is closer.
    """
    def y(ph):
        z, _ = _critical_points(ph, p["m"], p["kappa"], p["gamma"])
        return lens_map(z, p["m"], p["kappa"], p["gamma"], 0.0)

    def speed(ph, h=1e-5):
        a, b = y(ph + h), y(ph - h)
        return min(abs(a - b), abs(a + b)) / (2.0 * h)

    at = speed(phi)
    ref = max(speed(phi + d) for d in (-0.2, 0.2))
    if not at <= 1e-4 * ref:
        return [f"lens-cusps: caustic speed {at:.2e} at phi={phi} (nearby {ref:.2e})"]
    return []
