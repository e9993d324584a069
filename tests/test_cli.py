import math
import warnings

import numpy as np
import pytest

from negmass.cli import run
from negmass.errors import ValidationError
from negmass.svgplot import Series, emit_svg
from negmass.tableio import format_cell, read_csv, render_rows, write_csv


# ---------------------------------------------------------------------------
# CSV layer

def test_format_cell_round_trips_floats():
    rng = np.random.default_rng(2)
    for _ in range(500):
        x = float(rng.uniform(-1e6, 1e6) * 10.0 ** rng.integers(-12, 12))
        assert float(format_cell(x)) == x
    assert format_cell(None) == "NA"
    assert float(format_cell(-math.inf)) == -math.inf


def test_format_cell_rejects_nan():
    with pytest.raises(ValidationError):
        format_cell(float("nan"))


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1.0 / 3.0, None, "label"], [math.pi, -2.5e-300, "x"]]
    write_csv(path, ["a", "b", "c"], rows)
    header, back = read_csv(path)
    assert header == ["a", "b", "c"]
    assert back[0][0] == 1.0 / 3.0
    assert back[0][1] is None
    assert back[0][2] == "label"
    assert back[1][1] == -2.5e-300
    # re-rendering reproduces the bytes exactly
    assert render_rows(header, back) == path.read_text(encoding="utf-8")


def test_rows_must_be_rectangular():
    with pytest.raises(ValidationError):
        render_rows(["a", "b"], [[1.0]])


# ---------------------------------------------------------------------------
# SVG layer

def test_svg_emission(tmp_path):
    path = tmp_path / "p.svg"
    emit_svg([Series([0, 1, 2], [0.0, 1.0, 0.5], label="s")], path,
             title="demo", equal_aspect=True)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert "polyline" in text and "</svg>" in text


def test_svg_gaps_split_polyline(tmp_path):
    path = tmp_path / "p.svg"
    emit_svg([Series([0, 1, 2, 3], [0.0, None, 1.0, 2.0])], path)
    text = path.read_text(encoding="utf-8")
    # one isolated point (circle) plus one two-point polyline
    assert "circle" in text and "polyline" in text


def test_svg_rejects_empty():
    with pytest.raises(ValidationError):
        emit_svg([], "/tmp/never.svg")
    with pytest.raises(ValidationError):
        emit_svg([Series([], [])], "/tmp/never.svg")


def test_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    series = [Series(list(range(10)), [math.sin(t) for t in range(10)])]
    emit_svg(series, a)
    emit_svg(series, b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# subcommands

def test_cli_lightcurve(tmp_path):
    out = tmp_path / "lc.csv"
    code = run(["lens-lightcurve", "--m", "-1", "--d", "3", "--t0", "-5",
                "--t1", "5", "--n", "101", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "mu"]
    assert len(rows) == 101
    mid = rows[50]
    assert mid[0] == 0.0
    assert mid[1] == pytest.approx(1.04350, abs=5e-6)


def test_cli_lightcurve_occulted_na(tmp_path):
    out = tmp_path / "lc.csv"
    assert run(["lens-lightcurve", "--m", "-1", "--d", "0.5", "--n", "11",
                "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "NA" in text


def test_cli_images(tmp_path):
    out = tmp_path / "im.csv"
    svg = tmp_path / "im.svg"
    code = run(["lens-images", "--m", "-1", "--y", "3,0",
                "--out", str(out), "--svg", str(svg)])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 2
    assert rows[0][0] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-10)
    assert svg.exists()


def test_cli_cusps_both_regimes(tmp_path, capsys):
    out = tmp_path / "c.csv"
    svg = tmp_path / "c.svg"
    # kappa = 0 (eps = +1), gamma* = 0.5: no cusps, so nothing to plot
    assert run(["lens-cusps", "--m", "-1", "--kappa", "0", "--gamma", "0.5",
                "--out", str(out), "--svg", str(svg)]) == 0
    _, rows = read_csv(out)
    assert rows == []
    assert not svg.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "skipping SVG" in err
    # kappa = 1.5 (eps = -1), gamma* = 0.5: cusps at 0 and pi, count 4
    assert run(["lens-cusps", "--m", "-1", "--kappa", "1.5", "--gamma", "0.25",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [(r[0], r[1]) for r in rows] == [(0.0, "phi1"), (pytest.approx(math.pi), "phi2")]
    assert all(r[2] == 4 for r in rows)


def test_cli_imcf_flow(tmp_path):
    out = tmp_path / "f.csv"
    code = run(["imcf-flow", "--profile", "flat", "--r0", "1", "--t-end", "2",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "r", "area", "H", "m_H"]
    final_area = rows[-1][2]
    assert final_area == pytest.approx(4 * math.pi * math.e ** 2, rel=1e-6)
    assert len(rows) == 101


def test_cli_critical_and_caustics(tmp_path):
    crit = tmp_path / "crit.csv"
    caus = tmp_path / "caus.csv"
    assert run(["lens-critical", "--m", "-1", "--kappa", "0.6", "--gamma", "0.2",
                "--samples", "90", "--out", str(crit)]) == 0
    assert run(["lens-caustics", "--m", "-1", "--kappa", "0.6", "--gamma", "0.2",
                "--samples", "90", "--out", str(caus)]) == 0
    _, crit_rows = read_csv(crit)
    _, caus_rows = read_csv(caus)
    assert len(crit_rows) == 90 and len(caus_rows) == 90
    # kappa = 1: two-point critical/caustic sets
    assert run(["lens-critical", "--m", "-1", "--kappa", "1", "--gamma", "0.2",
                "--out", str(crit)]) == 0
    _, rows = read_csv(crit)
    assert len(rows) == 1 and rows[0][0] is None


def test_cli_survey(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["lens-survey", "--m", "-1", "--y", "-4,4", "--n", "11",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 121
    for y1, y2, count, near in rows:
        if near:
            continue
        assert count == (0 if math.hypot(y1, y2) < 2 else 2)


def test_cli_survey_samples_change_mask(tmp_path):
    # on this 18 x 18 grid four points lie within the margin of the caustic
    # sampled at 8192 angles, and none within that of a 16-angle sampling
    masks = []
    for samples in ("16", "8192"):
        out = tmp_path / f"s{samples}.csv"
        assert run(["lens-survey", "--m", "-1", "--kappa", "2", "--gamma", "0.3",
                    "--y=-2,2", "--n", "18", "--samples", samples, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        masks.append([row[3] for row in rows])
    assert sum(masks[0]) == 0 and sum(masks[1]) == 4


def test_cli_spherical_report(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["spherical-report", "--profile", "neg-schwarzschild",
                "--mass", "-1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert table["adm"] == pytest.approx(-1.0, abs=1e-6)
    assert table["regular_mass"] == pytest.approx(-1.0, abs=1e-4)
    assert table["capacity_center"] == 0.0


def test_cli_spherical_report_small_r0(tmp_path):
    # the capacity tail from r0 = 1e-6 must settle, not raise NonConvergenceError
    out = tmp_path / "r.csv"
    assert run(["spherical-report", "--profile", "neg-schwarzschild", "--mass", "1",
                "--r0", "1e-6", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert table["capacity_r0"] == pytest.approx(1.0 + 2.5e-7, rel=1e-10)


def test_cli_spherical_report_power_law(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["spherical-report", "--profile", "power-law", "--k", "3",
                "--p", "0.5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert table["regular_mass"] == -math.inf
    assert table["capacity_center"] > 0.0


def test_cli_spherical_report_unsteady_regular_mass_is_na(tmp_path):
    # p = 4/3 + 7e-6: the mass ladder cannot tell r^(3p/2 - 2) from a constant
    out = tmp_path / "r.csv"
    assert run(["spherical-report", "--profile", "power-law", "--k", "3",
                "--p", "1.33334", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert {r[0]: r[1] for r in rows}["regular_mass"] is None


def test_cli_tabulated_profile(tmp_path):
    prof = tmp_path / "prof.csv"
    rs = np.geomspace(0.05, 200.0, 500)
    lines = ["r,A"] + [f"{float(r)!r},{float(4 * math.pi * r * r)!r}" for r in rs]
    prof.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "r.csv"
    assert run(["spherical-report", "--profile", "tabulated", "--file", str(prof),
                "--r0", "1.0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert table["hawking_r0"] == pytest.approx(0.0, abs=1e-6)


def test_cli_weyl(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["weyl-zv", "--m", "-1", "--a", "1", "--radius", "5",
                "--rho", "1e-3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    table = dict(zip(header, rows[0]))
    assert table["adm_flux"] == pytest.approx(-1.0, abs=1e-6)
    assert table["res_harmonic"] < 1e-6
    assert table["classification"] == "boundary"


def test_cli_critical_gamma_star_one_gaps(tmp_path):
    # gamma* = 1 (kappa 0, gamma 1): parametrization gaps become NA rows
    out = tmp_path / "g.csv"
    svg = tmp_path / "g.svg"
    assert run(["lens-critical", "--m", "-1", "--kappa", "0", "--gamma", "1",
                "--samples", "180", "--out", str(out), "--svg", str(svg)]) == 0
    _, rows = read_csv(out)
    na_rows = [r for r in rows if r[1] is None]
    assert na_rows  # the phi = 0 degeneracy is emitted as a gap
    assert len(rows) == 180
    assert svg.exists()


def test_cli_caustics_gap_row_without_warning(tmp_path):
    # gamma* = 1 puts a gap at phi = 0: an NA row, and no NaN arithmetic warns
    out = tmp_path / "c.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["lens-caustics", "--m", "-1", "--kappa", "0", "--gamma", "1",
                    "--samples", "8", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 8
    assert rows[0] == [0.0, None, None, None, None]
    assert all(None not in row for row in rows[1:])


def test_cli_survey_svg(tmp_path):
    out = tmp_path / "s.csv"
    svg = tmp_path / "s.svg"
    assert run(["lens-survey", "--m", "-1", "--y", "-3,3", "--n", "7",
                "--out", str(out), "--svg", str(svg)]) == 0
    assert svg.exists() and b"</svg>" in svg.read_bytes()


_SVG_CALLS = {
    "lens-images": (["--m", "-1", "--y", "3,0"], "lens images", ["images", "source"]),
    "lens-lightcurve": (["--m", "-1", "--d", "3", "--n", "11"], "light curve", ["mu(t)"]),
    "lens-critical": (["--m", "-1", "--kappa", "0.6", "--gamma", "0.2", "--samples", "90"],
                      "critical curves", ["z+", "z-"]),
    "lens-caustics": (["--m", "-1", "--kappa", "0.6", "--gamma", "0.2", "--samples", "90"],
                      "caustics", ["y+", "y-"]),
    "lens-cusps": (["--m", "-1", "--kappa", "1.5", "--gamma", "0.25"],
                   "cusps (count 4)", ["cusp angles"]),
    "lens-survey": (["--m", "-1", "--y", "-3,3", "--n", "7"],
                    "image multiplicity", ["count 0", "count 2"]),
    "spherical-report": (["--profile", "neg-schwarzschild", "--mass", "-1"],
                         "Hawking mass", ["m_H(r)"]),
    "imcf-flow": (["--profile", "flat", "--r0", "1", "--t-end", "2"],
                  "IMCF Hawking mass", ["m_H(t)"]),
    "weyl-zv": (["--m", "-1"], "cylinder areas", ["log10 area"]),
}


@pytest.mark.parametrize("command", _SVG_CALLS)
def test_cli_svg_title_and_series_labels(command, tmp_path):
    import xml.etree.ElementTree as ET
    flags, title, labels = _SVG_CALLS[command]
    out, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    assert run([command, *flags, "--out", str(out), "--svg", str(svg)]) == 0
    assert out.exists()
    texts = [el.text for el in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
    # the title comes first and the series labels last, in series order
    assert texts[0] == title
    assert texts[-len(labels):] == labels


def test_cli_weyl_excluded_ratio(tmp_path):
    # m = a: exponents are NA but the run still succeeds
    out = tmp_path / "w.csv"
    assert run(["weyl-zv", "--m", "1", "--a", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    table = dict(zip(header, rows[0]))
    assert table["area_exponent_bulk"] is None
    assert table["adm_flux"] == pytest.approx(1.0, abs=1e-6)
    # m = 0 is flat space: no level-set energy and no energy exponent
    assert run(["weyl-zv", "--m", "0", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    for row in rows:
        table = dict(zip(header, row))
        assert table["energy"] is None and table["energy_exponent"] is None
        assert table["classification"] is None  # the NA cell
        assert table["adm_flux"] == 0.0


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["lens-lightcurve", "--m", "-1", "--d", "3", "--n", "31"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# flags, config, exit codes

def test_console_entry_point(tmp_path):
    import subprocess
    import sys
    out = tmp_path / "lc.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "negmass.cli", "lens-lightcurve", "--m", "-1",
         "--d", "3", "--n", "5", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_cli_unknown_flag_exits_2(capsys):
    assert run(["lens-images", "--m", "-1", "--y", "3,0", "--frobnicate", "1"]) == 2


def test_cli_missing_required_flag(tmp_path, capsys):
    assert run(["lens-images", "--y", "3,0", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "--m" in err


def test_cli_bad_pair_exits_2(tmp_path):
    for y in ("3;0", "3,x"):
        assert run(["lens-images", "--m", "-1", "--y", y,
                    "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_validation_error_exits_2(tmp_path):
    out = ["--out", str(tmp_path / "x.csv")]
    # gamma* = 1 boundary regime
    assert run(["lens-cusps", "--m", "-1", "--kappa", "0", "--gamma", "1", *out]) == 2
    # a light curve needs two samples, and a survey axis lo < hi
    assert run(["lens-lightcurve", "--m", "-1", "--d", "3", "--n", "1", *out]) == 2
    assert run(["lens-survey", "--m", "-1", "--y=4,-4", *out]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_cli_numerical_error_exits_3(tmp_path, monkeypatch, capsys):
    from negmass import lens
    from negmass.errors import NumericalError

    def fail(*args):
        raise NumericalError("did not settle")

    monkeypatch.setattr(lens, "light_curve", fail)
    assert run(["lens-lightcurve", "--m", "-1", "--d", "3",
                "--out", str(tmp_path / "x.csv")]) == 3
    assert "did not settle" in capsys.readouterr().err
    # a rod this massive has cylinder areas below the double range
    assert run(["weyl-zv", "--m", "-1e6", "--a", "1", "--out", str(tmp_path / "x.csv")]) == 3
    assert "double range" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_unwritable_output_exits_3(tmp_path):
    assert run(["lens-lightcurve", "--m", "-1", "--d", "3",
                "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3


def test_cli_config_merge(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a light curve\nm = -1\n\nd = 3\nn = 11\nt0 = -2  # comment\nt1 = 2\n",
                   encoding="utf-8")
    out = tmp_path / "lc.csv"
    # the config supplies the required --m; --n on the command line wins
    # over the config's n = 11; --conf abbreviates --config
    assert run(["lens-lightcurve", "--n", "5",
                "--conf", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    assert rows[0][0] == -2.0 and rows[-1][0] == 2.0


def test_cli_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    # an unknown key, a nested config, a bad value and a line without '='
    for text in ("nonsense = 3\n", "config = other.cfg\n", "n = many\n", "n 5\n"):
        cfg.write_text(text, encoding="utf-8")
        assert run(["lens-lightcurve", "--m", "-1", "--d", "3",
                    "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2, text
    assert not (tmp_path / "x.csv").exists()


def test_cli_config_missing_file(tmp_path):
    assert run(["lens-lightcurve", "--m", "-1", "--d", "3",
                "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path / "x.csv")]) == 2


# ---------------------------------------------------------------------------
# figure reproduction drivers

def test_nine_panel_critical_figure(tmp_path):
    # gamma = 0.2 fixed, kappa sweeping through both eps regimes; the
    # panel pairs (kappa, 2 - kappa) must render identically
    kappas = [0.0, 0.6, 0.9, 0.95, 1.0, 1.05, 1.1, 1.4, 2.0]
    panels = []
    for i, kappa in enumerate(kappas):
        svg = tmp_path / f"panel{i}.svg"
        out = tmp_path / f"panel{i}.csv"
        code = run(["lens-critical", "--m", "-1", "--kappa", str(kappa),
                    "--gamma", "0.2", "--samples", "240",
                    "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert svg.exists() and svg.stat().st_size > 0
        panels.append(svg.read_bytes())
    for i in range(4):
        assert panels[i] == panels[8 - i]  # eps-independence, kappa <-> 2-kappa
    assert len(set(panels)) == 5  # five genuinely distinct shapes


def test_light_curve_family_peak_ordering(tmp_path):
    # impact parameters from just outside the caustic up to twice its radius:
    # peak magnification decreases monotonically with d
    from negmass.lens import light_curve
    caustic = 2.0
    peaks = []
    for d in np.linspace(caustic + 0.05, 2 * caustic, 6):
        samples = light_curve(-1.0, float(d), np.linspace(-6, 6, 301))
        peaks.append(max(s.magnification for s in samples
                         if s.magnification is not None))
    assert peaks == sorted(peaks, reverse=True)
    svg = tmp_path / "family.svg"
    series = []
    for d in np.linspace(caustic + 0.05, 2 * caustic, 6):
        samples = light_curve(-1.0, float(d), np.linspace(-6, 6, 301))
        series.append(Series([s.t for s in samples],
                             [s.magnification for s in samples],
                             label=f"d={d:.2f}"))
    emit_svg(series, svg, title="light curves")
    assert svg.exists()
