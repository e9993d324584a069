"""The benchmark's checkers accept the program's outputs and reject corrupted ones.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import contextlib
import copy
import csv
import math
import random
import types

import numpy as np
import pytest

import checks
import tracing
import workloads
from negmass import caustics, cli, imcf, lens, spherical, weyl

NM = types.SimpleNamespace(lens=lens, caustics=caustics, spherical=spherical, imcf=imcf,
                           weyl=weyl, span=lambda name: contextlib.nullcontext())


def _survey(regime, seed=5):
    op = workloads.survey_input(random.Random(seed), regime)
    res = workloads.run_survey(op, NM)
    return op, res, workloads.survey_samples(op, res, NM)


@pytest.mark.parametrize("regime", workloads.SURVEY_REGIMES)
def test_survey_checker_rejects_a_wrong_count(regime):
    op, res, samples = _survey(regime)
    args = (op["lens"], res.y1, res.y2)
    assert checks.check_survey(*args, res.counts, res.near_caustic, res.margin, samples) == []
    far = np.argwhere(~res.near_caustic)
    i, j = far[len(far) // 2]
    bad = res.counts.copy()
    bad[i, j] = 2 if bad[i, j] != 2 else 4
    assert checks.check_survey(*args, bad, res.near_caustic, res.margin, samples)


def _on_caustic_survey(lens_params, margin=1e-3):
    """A survey whose grid puts points on, next to and far from the caustic."""
    y = checks.caustic_points(lens_params, 64)[5]
    y1 = [y.real - 3e-3, y.real, y.real + 0.4 * margin, y.real + 0.5]
    y2 = [y.imag - 0.5, y.imag, y.imag + 2e-3]
    model = lens.LensModel(*(lens_params[k] for k in ("m", "kappa", "gamma", "theta")))
    return y1, y2, caustics.image_count_survey(model, y1, y2, margin=margin)


@pytest.mark.parametrize("regime", workloads.SURVEY_REGIMES)
def test_mask_checker_rejects_flagging_everything_and_missing_the_caustic(regime):
    L = workloads._lens(regime, random.Random(11))
    y1, y2, res = _on_caustic_survey(L)
    assert res.near_caustic[1, 1] and res.near_caustic[1, 2]  # on the caustic, 0.4 margin off
    oracle = checks.survey_oracle(L, y1, y2)
    assert checks.check_mask(res.near_caustic, res.margin, oracle) == []
    everything = np.ones_like(res.near_caustic)
    assert checks.check_mask(everything, res.margin, oracle)
    cleared = res.near_caustic.copy()
    cleared[1, 1] = False
    assert checks.check_mask(cleared, res.margin, oracle)
    counts = res.counts.copy()
    counts[0, 0] = 2 if counts[0, 0] != 2 else 4  # hidden by the all-true mask no longer
    assert checks.check_survey(L, y1, y2, counts, everything, res.margin, [], oracle)


def test_mask_checker_rejects_a_mask_of_the_unrotated_caustic():
    # small enough that a mask sampled at MASK_SAMPLES angles must see the caustic
    L = {"m": -0.3, "kappa": 0.3, "gamma": 0.35, "theta": 0.7}
    y1, y2, _ = _on_caustic_survey(L)
    wrong = checks.survey_oracle({**L, "theta": 0.0}, y1, y2)["dist"] < 1e-3
    assert not wrong[1, 1]
    assert checks.check_mask(wrong, 1e-3, checks.survey_oracle(L, y1, y2))


def test_image_checker_rejects_moved_dropped_and_rescaled_images():
    op, res, samples = _survey("kappa>1")
    y, images, _ = samples[0]
    assert len(images) == 4
    L = op["lens"]
    assert checks.check_images(y, L, images) == []
    moved = [(images[0][0] + 1e-7, *images[0][1:])] + images[1:]
    assert any("residual" in e for e in checks.check_images(y, L, moved))
    assert checks.check_images(y, L, images[:3])  # odd count, quartic disagrees
    assert checks.check_images(y, L, images[:2])  # even, but the quartic has four
    rescaled = [(images[0][0], images[0][1] * (1 + 1e-5), images[0][2])] + images[1:]
    assert any("mu*J" in e for e in checks.check_images(y, L, rescaled))
    flipped = [(images[0][0], images[0][1], -images[0][2])] + images[1:]
    assert any("parity" in e for e in checks.check_images(y, L, flipped))


def test_isolated_images_follow_the_closed_form():
    L = {"m": -1.0, "kappa": 0.0, "gamma": 0.0, "theta": 0.0}
    y = 3.0 + 0.5j
    images = [(im.position, im.signed_magnification, im.parity)
              for im in lens.find_images(y, lens.LensModel(-1.0))]
    assert checks.check_images(y, L, images) == []
    # still two images, but scaled off the closed-form positions
    shifted = [(p * (1 + 1e-9), mu, par) for p, mu, par in images]
    assert any("closed-form" in e for e in checks.check_images(y, L, shifted))
    assert checks.count_images(1.0 + 0.5j, -1.0, 0.0, 0.0, 0.0) == 0


def test_quartic_count_matches_find_images_away_from_caustics():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m, kappa, gamma = -rng.uniform(0.5, 2), rng.uniform(0.0, 2.5), rng.uniform(0.05, 0.4)
        if abs(kappa - 1.0) < 0.05:
            continue
        theta, y = rng.uniform(0, math.pi), complex(*rng.uniform(-4, 4, 2))
        found = lens.find_images(y, lens.LensModel(m, kappa, gamma, theta))
        if min((abs(1.0 / im.signed_magnification) for im in found), default=1.0) < 1e-3:
            continue
        assert checks.count_images(y, m, kappa, gamma, theta) == len(found)


@pytest.fixture(scope="module")
def geometry():
    op = workloads.geometry_input(random.Random(7), 0)
    return op, workloads.run_geometry(op, NM)


def test_geometry_checker_accepts_the_program(geometry):
    op, out = geometry
    assert checks.check_geometry(op, out) == []


@pytest.mark.parametrize("corrupt", [
    lambda o: o["slice_conformal"]["areas"].__setitem__(0, o["slice_conformal"]["areas"][0] * (1 + 1e-8)),
    lambda o: o["flat_conformal"]["areas"].__setitem__(1, o["flat_conformal"]["areas"][1] * (1 - 1e-8)),
    lambda o: o["capacities"].__setitem__(0, o["capacities"][0] * (1 + 1e-6)),
    lambda o: o["hawking"].__setitem__(2, o["hawking"][2] + 1e-7),
    lambda o: o.__setitem__("adm", o["adm"] * 1.001),
    lambda o: o.__setitem__("central_capacity", 0.01),
    lambda o: o["flow"].__setitem__(3, (o["flow"][3][0], o["flow"][3][1],
                                        o["flow"][3][2] * (1 + 1e-5), o["flow"][3][3])),
    lambda o: o.__setitem__("geroch", 1),
    lambda o: o.__setitem__("power_law", ("zero-mass",) + o["power_law"][1:]),
    lambda o: o["rod"].__setitem__("flux", o["rod"]["flux"] + 1e-6),
    lambda o: o["rod"].__setitem__("cylinder_areas", (o["rod"]["cylinder_areas"][0] * 1.1,
                                                      o["rod"]["cylinder_areas"][1])),
], ids=["slice-area", "flat-area", "capacity", "hawking", "adm", "central-capacity",
        "imcf-area", "geroch", "classification", "rod-flux", "cylinder-area"])
def test_geometry_checker_rejects_corruption(geometry, corrupt):
    op, out = geometry
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert checks.check_geometry(op, bad)


@pytest.mark.parametrize("cls,p", [("minus-infinity", 0.5), ("minus-infinity", 1.2),
                                   ("finite-mass", 4.0 / 3.0), ("zero-mass", 2.0)])
def test_power_law_rule(cls, p):
    assert checks.power_law_class(p) == cls
    rep = spherical.classify_power_law(3.0, p)
    assert rep.classification == cls
    if p < 1.0:
        lo, hi = checks.power_law_capacity_bounds(3.0, p)
        assert lo <= rep.capacity_center <= hi


# ---------------------------------------------------------------------------
# CLI tables: run each subcommand in process, then corrupt one cell


def _cli_case(sub, tmp_path, seed=4):
    op = workloads.cli_input(random.Random(seed), sub)
    argv, csv_path, svg_path = workloads.cli_argv(op, str(tmp_path))
    assert cli.run(argv) == 0
    return op, csv_path, svg_path


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scale(rows, i, j, factor):
    rows[i][j] = repr(float(rows[i][j]) * factor)


CLI_CORRUPTIONS = {
    "lens-images": lambda rows: _scale(rows, 1, 0, 1 + 1e-7),            # moved image
    "lens-lightcurve": lambda rows: _scale(rows, 101, 1, 1 + 1e-7),      # perturbed mu
    "lens-critical": lambda rows: _scale(rows, 7, 1, 1 + 1e-6),          # moved point
    "lens-caustics": lambda rows: _scale(rows, 7, 3, 1 + 1e-6),
    "lens-cusps": lambda rows: rows.__setitem__(slice(1, None), [r[:2] + ["2"] for r in rows[1:]])
    if len(rows) > 1 else rows.append(["0.0", "phi1", "2"]),            # wrong count
    "lens-survey": lambda rows: rows[41].__setitem__(2, "2" if rows[41][2] != "2" else "4"),
    "spherical-report": lambda rows: _scale(rows, 5, 1, 1 + 1e-6),       # capacity_r0
    "imcf-flow": lambda rows: _scale(rows, 2, 2, 1 + 1e-6),              # perturbed area
    "weyl-zv": lambda rows: rows[1].__setitem__(10, "zero-mass"
                                                if rows[1][10] != "zero-mass"
                                                else "minus-infinity"),  # flipped class
}


@pytest.mark.parametrize("sub", workloads.CLI_SUBCOMMANDS)
def test_cli_checker_accepts_output_and_rejects_corruption(sub, tmp_path):
    op, csv_path, svg_path = _cli_case(sub, tmp_path)
    assert checks.check_cli(sub, op["params"], csv_path, svg_path) == []
    _rewrite(csv_path, CLI_CORRUPTIONS[sub])
    assert checks.check_cli(sub, op["params"], csv_path, svg_path)


def test_cli_checker_rejects_a_broken_svg(tmp_path):
    op, csv_path, svg_path = _cli_case("weyl-zv", tmp_path)
    with open(svg_path, "a") as fh:
        fh.write("<unclosed")
    assert checks.check_cli("weyl-zv", op["params"], csv_path, svg_path)


# ---------------------------------------------------------------------------
# tracing helpers


def test_self_times_add_up_to_the_root():
    spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0], ["a", 2.0, 3.0, 1, 0],
             ["b", 7.0, 9.0, 0, 0]]
    table = tracing.span_table(spans)
    assert table["a"]["calls"] == 2 and table["a"]["incl"] == 5.0 and table["a"]["self"] == 5.0
    assert table["op"]["self"] == 3.0
    assert sum(row["self"] for row in table.values()) == 10.0
    assert tracing.unattributed_shares(spans) == [0.3]


def test_import_time_parser_sums_top_most_package_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |     numpy.linalg",
        "import time:        40 |         45 |   scipy",
        "import time:         7 |         82 | negmass",
        "import time:         3 |          3 | numpy.fft",
    ])
    assert tracing.import_cumulative_us(text, "numpy") == 38.0
    assert tracing.import_cumulative_us(text, "scipy") == 45.0
    assert tracing.import_cumulative_us(text, "negmass") == 82.0


def test_missing_names_are_skipped():
    tracer = tracing.Tracer()
    tracer.wrap(types.SimpleNamespace(), "durand_kerner", "numerics.durand_kerner")
    assert tracer.skipped == ["numerics.durand_kerner"]
