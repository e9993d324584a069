"""Pinned CSV outputs of fixed negmass CLI calls, and the check against them.

    python tests/pin_cli.py           # rewrite tests/pinned/*.csv from the current code
    python tests/pin_cli.py --check   # report each cell that moved; exit 1 if any did

CALLS holds the 27 calls of the benchmark's cli-cold workload, seeds 1-3,
written out literally, plus the reduced shear gamma* = 1 (the curves have
NA gap rows) and kappa = 1 cases, four m = -1 surveys at the default
41 x 41 grid (gamma* = 0, 1/3, 0.2 and 1.8), four spherical reports at
r0 = 2 that reach the power-law and positive-mass capacity paths, and one
positive-mass report at r0 = 1e-5, whose capacity needs the far end of the
capacity integral at r = 2^40, and one power-law report at r0 = 13, just
above the blend into flat space at r = 12.63, where the capacity is exactly
13 only if the integral of 4 pi/A resolves the blend's end.  Each call runs in process through
``negmass.cli.run`` with --svg too, so every plot is drawn (SVGs are not
pinned); it needs numpy alone.  ``moved`` says how cells compare.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

from negmass.cli import run

PINNED = Path(__file__).with_name("pinned")

CALLS = {
    "seed1-lens-images": ["lens-images", "--m", "-0.7015463661686019", "--kappa", "2.3474337369372327", "--gamma", "0.44348408040136433", "--theta", "0.801322977421273", "--y", "-0.02511717432463382,0.0007206132788793575"],
    "seed1-lens-lightcurve": ["lens-lightcurve", "--m", "-1.1742365971831072", "--d", "2.7805754045296704", "--t0", "-5.0", "--t1", "5.0", "--n", "101"],
    "seed1-lens-critical": ["lens-critical", "--m", "-1.6830850267032698", "--kappa", "0.14692979338711745", "--gamma", "0.18512347391472558", "--samples", "360"],
    "seed1-lens-caustics": ["lens-caustics", "--m", "-1.7536476558798046", "--kappa", "0.3163835339525267", "--gamma", "0.44938762287445966", "--samples", "360"],
    "seed1-lens-cusps": ["lens-cusps", "--m", "-0.5031590800266661", "--kappa", "0.32269359702740075", "--gamma", "0.37569648459389754"],
    "seed1-lens-survey": ["lens-survey", "--m", "-0.5381687914901911", "--kappa", "2.0414124727934966", "--gamma", "0.49535790805179397", "--y", "-1.278597,1.278597", "--n", "9", "--samples", "8192"],
    "seed1-spherical-report": ["spherical-report", "--profile", "neg-schwarzschild", "--mass", "-1.0718063565323186", "--r0", "0.13557162404420706"],
    "seed1-imcf-flow": ["imcf-flow", "--profile", "neg-schwarzschild", "--mass", "-1.133174863374076", "--r0", "0.2522734176347623", "--t-end", "2.44338333254607"],
    "seed1-weyl-zv": ["weyl-zv", "--m", "-1.4877900878464898", "--a", "1.243718362072776", "--radius", "4.784500379367628", "--rho", "0.0020582735046181934"],
    "seed2-lens-images": ["lens-images", "--m", "-1.934051407833874", "--kappa", "2.4478274870593495", "--gamma", "0.16934573609363734", "--theta", "0.26663323648677667", "--y", "0.02135020418914969,-0.03584431681776208"],
    "seed2-lens-lightcurve": ["lens-lightcurve", "--m", "-1.6039549836027849", "--d", "2.844056405040773", "--t0", "-5.0", "--t1", "5.0", "--n", "101"],
    "seed2-lens-critical": ["lens-critical", "--m", "-0.9622046863837164", "--kappa", "0.40297208283923125", "--gamma", "0.3367721285312336", "--samples", "360"],
    "seed2-lens-caustics": ["lens-caustics", "--m", "-1.3718060256680047", "--kappa", "0.1791914351274028", "--gamma", "0.3762601106035238", "--samples", "360"],
    "seed2-lens-cusps": ["lens-cusps", "--m", "-1.090297730308057", "--kappa", "1.8974097814748712", "--gamma", "0.4724918394252867"],
    "seed2-lens-survey": ["lens-survey", "--m", "-1.8065494525519556", "--kappa", "1.8640144278473694", "--gamma", "0.40845298965266436", "--y", "-2.114788,2.114788", "--n", "9", "--samples", "8192"],
    "seed2-spherical-report": ["spherical-report", "--profile", "neg-schwarzschild", "--mass", "-1.8616251652689455", "--r0", "0.3517158526992204"],
    "seed2-imcf-flow": ["imcf-flow", "--profile", "neg-schwarzschild", "--mass", "-1.8260968498038437", "--r0", "0.4960791633197564", "--t-end", "2.354872870983532"],
    "seed2-weyl-zv": ["weyl-zv", "--m", "-0.837839750925001", "--a", "0.7650799713113485", "--radius", "4.652706496775194", "--rho", "0.0017514519882719057"],
    "seed3-lens-images": ["lens-images", "--m", "-0.856946940637837", "--kappa", "2.0442292252959517", "--gamma", "0.22031832161721587", "--theta", "1.8972707566094689", "--y", "-0.019548289805074268,-0.019726038940215105"],
    "seed3-lens-lightcurve": ["lens-lightcurve", "--m", "-0.5982932888597197", "--d", "0.5460879704420595", "--t0", "-5.0", "--t1", "5.0", "--n", "101"],
    "seed3-lens-critical": ["lens-critical", "--m", "-1.75620362314469", "--kappa", "0.22967700716400383", "--gamma", "0.26237091490377507", "--samples", "360"],
    "seed3-lens-caustics": ["lens-caustics", "--m", "-1.993467253265694", "--kappa", "0.33513175376122395", "--gamma", "0.46665564414084176", "--samples", "360"],
    "seed3-lens-cusps": ["lens-cusps", "--m", "-1.2145298130490025", "--kappa", "0.419534070272081", "--gamma", "1.0257568257860004"],
    "seed3-lens-survey": ["lens-survey", "--m", "-1.6658520221415696", "--kappa", "1.6593999397622812", "--gamma", "0.3184893986564688", "--y", "-1.830486,1.830486", "--n", "9", "--samples", "8192"],
    "seed3-spherical-report": ["spherical-report", "--profile", "neg-schwarzschild", "--mass", "-0.5641835440091899", "--r0", "1.816029849083243"],
    "seed3-imcf-flow": ["imcf-flow", "--profile", "neg-schwarzschild", "--mass", "-1.7353557668498967", "--r0", "0.684977004311594", "--t-end", "3.189499031287788"],
    "seed3-weyl-zv": ["weyl-zv", "--m", "-2.313991113713675", "--a", "1.0814128784179258", "--radius", "5.856368828057234", "--rho", "0.005782524883119671"],
    "gap-lens-critical": ["lens-critical", "--m", "-1.0", "--kappa", "0.4", "--gamma", "0.6", "--samples", "360"],
    "gap-lens-caustics": ["lens-caustics", "--m", "-1.0", "--kappa", "0.4", "--gamma", "0.6", "--samples", "360"],
    "kappa1-lens-critical": ["lens-critical", "--m", "-1.0", "--kappa", "1.0", "--gamma", "0.3"],
    "kappa1-lens-caustics": ["lens-caustics", "--m", "-1.0", "--kappa", "1.0", "--gamma", "0.3"],
    "kappa1-lens-images": ["lens-images", "--m", "-1.0", "--kappa", "1.0", "--gamma", "0.0", "--y", "0.5,-0.25"],
    "n41-lens-survey-k0-g0": ["lens-survey", "--m", "-1.0", "--kappa", "0.0", "--gamma", "0.0", "--y=-4,4", "--n", "41", "--samples", "8192"],
    "n41-lens-survey-k0.4-g0.2": ["lens-survey", "--m", "-1.0", "--kappa", "0.4", "--gamma", "0.2", "--y=-4,4", "--n", "41", "--samples", "8192"],
    "n41-lens-survey-k2-g0.2": ["lens-survey", "--m", "-1.0", "--kappa", "2.0", "--gamma", "0.2", "--y=-4,4", "--n", "41", "--samples", "8192"],
    "n41-lens-survey-k0.85-g0.27": ["lens-survey", "--m", "-1.0", "--kappa", "0.85", "--gamma", "0.27", "--y=-4,4", "--n", "41", "--samples", "8192"],
    "k3-p0.5-spherical-report": ["spherical-report", "--profile", "power-law", "--k", "3", "--p", "0.5", "--r0", "2"],
    "k20-p1.5-spherical-report": ["spherical-report", "--profile", "power-law", "--k", "20", "--p", "1.5", "--r0", "2"],
    "k2-p4_3-spherical-report": ["spherical-report", "--profile", "power-law", "--k", "2", "--p", "1.3333333333333333", "--r0", "2"],
    "pos-m1-spherical-report": ["spherical-report", "--profile", "neg-schwarzschild", "--mass", "1", "--r0", "2"],
    "pos-m1-r1e-5-spherical-report": ["spherical-report", "--profile", "neg-schwarzschild", "--mass", "1", "--r0", "1e-5"],
    "k5-p2.5-r13-spherical-report": ["spherical-report", "--profile", "power-law", "--k", "5", "--p", "2.5", "--r0", "13"],
}

REL_TOL = 1e-13
# These columns hold an error, not a value, so they compare absolutely at
# that error's size.  lens-images' residual |eta(z) - y| after the Newton
# polish is rounding of eta, eps times |z| and |m/z| (up to 7e-16 here).
# weyl-zv's res_* are maxima of central-difference errors of the field
# equations, step 1e-5 times the distance to the rod, dominated by the
# rounding of the fields over that step (up to 2.2e-8 for res_harmonic
# and 2.1e-9 for res_mu_rho and res_mu_z here).
ABS_TOL = {"residual": 1e-14, "res_harmonic": 1e-7, "res_mu_rho": 1e-8, "res_mu_z": 1e-8}


def run_call(argv, out_dir) -> str:
    """CSV text that one call writes; raises if the call fails."""
    out = Path(out_dir) / "out.csv"
    code = run([*argv, "--out", str(out), "--svg", str(out.with_suffix(".svg"))])
    if code != 0:
        raise RuntimeError(f"negmass {' '.join(argv)} exited with {code}")
    return out.read_text(encoding="utf-8")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def moved(expected: str, actual: str) -> list[str]:
    """The cells of actual that differ from expected, one line each.

    Headers, row counts, NA and text cells must match exactly; numbers
    to REL_TOL relative, and the ABS_TOL columns absolutely.
    """
    exp = [line.split(",") for line in expected.splitlines()]
    act = [line.split(",") for line in actual.splitlines()]
    if exp[0] != act[0]:
        return [f"header {act[0]} != {exp[0]}"]
    if len(exp) != len(act):
        return [f"{len(act) - 1} rows != {len(exp) - 1}"]
    out = []
    for i, (erow, arow) in enumerate(zip(exp[1:], act[1:]), start=1):
        for col, e, a in zip(exp[0], erow, arow):
            x, y = _number(e), _number(a)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                if a != e:
                    out.append(f"row {i} {col}: {a} != {e}")
                continue
            diff = abs(y - x)
            if col in ABS_TOL:
                if diff > ABS_TOL[col]:
                    out.append(f"row {i} {col}: {a} != {e} (abs {diff:.3g})")
            elif diff > REL_TOL * abs(x):
                rel = diff / abs(x) if x else math.inf
                out.append(f"row {i} {col}: {a} != {e} (rel {rel:.3g})")
    return out


def main(argv) -> int:
    check = argv == ["--check"]
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    PINNED.mkdir(exist_ok=True)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, call in CALLS.items():
            text = run_call(call, tmp)
            path = PINNED / f"{name}.csv"
            if not check:
                path.write_text(text, encoding="utf-8", newline="\n")
                continue
            cells = moved(path.read_text(encoding="utf-8"), text)
            bad += bool(cells)
            for cell in cells:
                print(f"{name}: {cell}")
    if check:
        print(f"{len(CALLS) - bad} of {len(CALLS)} pinned outputs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
