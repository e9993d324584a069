"""What a process loads: the package lazily, each subcommand its own modules.

The checks run fresh interpreters, since this test process has loaded
everything already.  A ``python -v`` child names every module it loads
on stderr.
"""

import os
import re
import subprocess
import sys

import pytest

import negmass
from negmass import cli

TOPICS = {"caustics", "imcf", "lens", "numerics", "spherical", "weyl"}


def _fresh(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(negmass.__file__)),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-v", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


def _imported(stderr):
    return set(re.findall(r"^import '([\w.]+)'", stderr, re.MULTILINE))


def test_import_negmass_loads_no_topic_module_nor_numpy(tmp_path):
    proc = _fresh(["-c", "import negmass"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = _imported(proc.stderr)
    assert "negmass" in loaded
    assert "numpy" not in loaded
    assert not {f"negmass.{t}" for t in TOPICS} & loaded


def test_topic_modules_load_on_first_use(tmp_path):
    code = ("import negmass, sys\n"
            "assert 'negmass.lens' not in sys.modules\n"
            "assert negmass.lens.LensModel\n"
            "from negmass import spherical\n"
            "assert spherical is sys.modules['negmass.spherical']\n"
            "assert {'caustics', 'imcf', 'lens', 'spherical', 'weyl'} <= set(dir(negmass))\n"
            "assert 'negmass.weyl' not in sys.modules\n")
    proc = _fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError):
        negmass.nonexistent


_LOADS = {
    "lens-images": (["--m", "-1", "--y", "3,0"], {"lens"}),
    "lens-lightcurve": (["--m", "-1", "--d", "3", "--n", "5"], {"lens"}),
    "lens-critical": (["--m", "-1", "--samples", "8"], {"lens", "caustics"}),
    "lens-caustics": (["--m", "-1", "--samples", "8"], {"lens", "caustics"}),
    "lens-cusps": (["--m", "-1", "--kappa", "1.5", "--gamma", "0.25"], {"lens", "caustics"}),
    "lens-survey": (["--m", "-1", "--n", "3", "--samples", "16"], {"lens", "caustics"}),
    "spherical-report": (["--profile", "flat"], {"spherical", "numerics"}),
    "imcf-flow": (["--profile", "flat", "--r0", "1", "--t-end", "1"],
                  {"spherical", "numerics", "imcf"}),
    "weyl-zv": (["--m", "-1"], {"weyl", "numerics"}),
}


@pytest.mark.parametrize("command", _LOADS)
def test_a_cli_process_loads_only_its_own_topic_modules(command, tmp_path):
    flags, topics = _LOADS[command]
    proc = _fresh(["-m", "negmass.cli", command, *flags], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{command}.csv").exists()
    loaded = {name.split(".")[1] for name in _imported(proc.stderr)
              if name.startswith("negmass.")}
    assert loaded & TOPICS == topics


# ---------------------------------------------------------------------------
# main() runs BLAS on one thread; run() leaves the environment alone


def _main_env(monkeypatch, env, numpy_loaded):
    """os.environ as main() leaves it, with run() stubbed out."""
    if numpy_loaded:
        import numpy  # noqa: F401
    else:
        monkeypatch.delitem(sys.modules, "numpy", raising=False)  # the stub imports nothing
    env = dict(env)
    monkeypatch.setattr(os, "environ", env)
    monkeypatch.setattr(sys, "argv", ["negmass", "lens-images"])
    monkeypatch.setattr(cli, "run", lambda argv: 0)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    return env


def test_main_runs_blas_on_one_thread_unless_told_otherwise(monkeypatch):
    assert _main_env(monkeypatch, {}, numpy_loaded=False) == {"OPENBLAS_NUM_THREADS": "1"}
    for env in ({"OPENBLAS_NUM_THREADS": "4"}, {"OMP_NUM_THREADS": "2"}):
        assert _main_env(monkeypatch, env, numpy_loaded=False) == env


def test_main_changes_nothing_once_numpy_is_loaded(monkeypatch):
    # numpy has sized its thread pool already
    assert _main_env(monkeypatch, {}, numpy_loaded=True) == {}


def test_run_leaves_the_environment_alone(tmp_path):
    before = dict(os.environ)
    assert cli.run(["lens-images", "--m", "-1", "--y", "3,0",
                    "--out", str(tmp_path / "x.csv")]) == 0
    assert dict(os.environ) == before
