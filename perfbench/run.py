"""Benchmark of the negmass toolkit: three workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {cli-cold,lens-survey,geometry}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports that checkout's own
``src``, never an installed copy.  Each workload is a closed loop with
one client: one operation at a time, repeated in whole rounds of a fixed
seeded list until ``--seconds`` have passed.  Outputs are checked after
the timed phase.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
layers are wrapped (see tracing.py) and the metrics are the per-layer
ones.  Spans and a per-span summary go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / "work"

SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 120.0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {  # name -> unit, in the order they are printed
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, *, cwd, stderr_path):
    """Run a child to completion: (exit code, start, end, its rusage, its stdout)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        finally:
            timer.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, start, end, usage, out.decode()


# ---------------------------------------------------------------------------
# set-up: fresh interpreters that import negmass and build the inputs

PROBE = """\
import sys, time
first = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import negmass, workloads
workloads.build({workload!r}, {seed!r})
print(first, negmass.__file__)
"""


def measure_setup(workload: str, seed: int, traced: bool, imports: dict, work: Path) -> float:
    """Median wall time of SETUP_LAUNCHES probes; traced probes add import splits."""
    code = PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    times = []
    for k in range(SETUP_LAUNCHES):
        cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + ["-c", code]
        err = work / f"probe{k}.err"
        rc, start, end, _, out = spawn(cmd, cwd=str(work), stderr_path=err)
        if rc != 0:
            raise SystemExit(f"set-up probe failed ({rc}): {err.read_text()[-2000:]}")
        first, path = out.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"imported negmass from {path}, not from {SRC}")
        times.append(end - start)
        if traced:
            record_imports(imports, err.read_text(), float(first) - start)
    return statistics.median(times)


def record_imports(imports: dict, stderr_text: str, start_s: float) -> None:
    imports.setdefault("python_start", []).append(1e3 * start_s)
    for pkg in ("numpy", "scipy", "negmass"):
        imports.setdefault(pkg, []).append(1e-3 * tracing.import_cumulative_us(stderr_text, pkg))


# ---------------------------------------------------------------------------
# the timed phase


def timed_rounds(ops, seconds: float, run_one) -> tuple[list, float]:
    """Run whole rounds of ops until seconds have passed; returns records and wall."""
    records = []
    start = time.perf_counter()
    while True:
        for op in ops:
            records.append(run_one(op, len(records)))
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def run_in_process(workload, ops, seconds, tracer):
    import negmass.caustics
    import negmass.imcf
    import negmass.lens
    import negmass.spherical
    import negmass.weyl

    nm = types.SimpleNamespace(
        lens=negmass.lens, caustics=negmass.caustics, spherical=negmass.spherical,
        imcf=negmass.imcf, weyl=negmass.weyl,
        span=tracer.span if tracer else (lambda name: contextlib.nullcontext()))
    if tracer:
        tracing.install(tracer, nm)
    op_fn = workloads.run_survey if workload == "lens-survey" else workloads.run_geometry

    def run_one(op, n):
        if tracer:
            tracer.op = n
            idx = tracer.open("op")
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, ok = op_fn(op, nm), True
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            out, ok = None, False
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.close(idx, t1)
        return {"op": op, "out": out, "ok": ok, "wall": t1 - t0, "cpu": c1 - c0}

    run_one(ops[0], -1)  # untimed warm-up; its spans carry op -1
    if tracer:
        tracer.counts.clear()
    records, wall = timed_rounds(ops, seconds, run_one)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()

    errors = []
    oracle = {}  # per survey of the round: it depends on the survey's inputs only
    for rec in records:
        if not rec["ok"]:
            continue
        op, out = rec["op"], rec["out"]
        if workload == "lens-survey":
            if id(op) not in oracle:
                oracle[id(op)] = checks.survey_oracle(op["lens"], op["y1"], op["y2"])
            samples = workloads.survey_samples(op, out, nm)
            errs = checks.check_survey(op["lens"], out.y1, out.y2, out.counts,
                                       out.near_caustic, out.margin, samples, oracle[id(op)])
        else:
            errs = checks.check_geometry(op, out)
        label = op["regime"] if workload == "lens-survey" else f"m={op['m']}"
        errors.extend(f"{workload} op {label}: {e}" for e in errs)
    return records, wall, [peak_mb], errors


def run_cli(ops, seconds, tracer, work: Path, imports: dict):
    """cli-cold: every operation is a fresh `python -m negmass.cli` process."""
    peaks = []

    def run_one(op, n):
        out_dir = work / f"op{n}"
        out_dir.mkdir()
        argv, csv_path, svg_path = workloads.cli_argv(op, str(out_dir))
        if tracer:
            trace_path = out_dir / "trace.json"
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"),
                   str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "negmass.cli", *argv]
        err = out_dir / "stderr.txt"
        rc, start, end, usage, _ = spawn(cmd, cwd=str(out_dir), stderr_path=err)
        peaks.append(usage.ru_maxrss / 1024.0)
        if tracer and rc == 0:
            child = json.loads(trace_path.read_text())
            merge_child_trace(tracer, n, op["sub"], child, start, end)
            record_imports(imports, err.read_text(), child["first"] - start)
        if rc != 0:
            print(f"{op['sub']} exited {rc}: {err.read_text()[-2000:]}", file=sys.stderr)
        return {"op": op, "ok": rc == 0, "wall": end - start,
                "cpu": usage.ru_utime + usage.ru_stime, "csv": csv_path, "svg": svg_path}

    records, wall = timed_rounds(ops, seconds, run_one)
    errors = []
    for rec in records:
        if rec["ok"]:
            errs = checks.check_cli(rec["op"]["sub"], rec["op"]["params"], rec["csv"], rec["svg"])
            errors.extend(f"cli-cold {e}" for e in errs)
    return records, wall, peaks, errors


def merge_child_trace(tracer, n: int, sub: str, child: dict, start: float, end: float):
    """Put a child's phases and spans under one root span of operation n.

    perf_counter reads the same monotonic clock in every process, so the
    child's timestamps line up with the parent's spawn and reap times.
    """
    tracer.op = n
    root = tracer.add("op", start, end, -1)
    tracer.add("cli.python_start", start, child["first"], root)
    tracer.add("cli.import", child["import"][0], child["import"][1], root)
    base = len(tracer.spans)
    for name, s0, s1, parent, _ in child["spans"]:
        name = f"cli.run.{sub}" if name == "cli.run" else name
        tracer.add(name, s0, s1, root if parent < 0 else base + parent)
    tracer.add("cli.exit", child["end"], end, root)
    tracer.counts.update(child["counts"])


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records, wall, peaks, setup_s) -> dict:
    done = [r for r in records if r["ok"]]
    walls = [1e3 * r["wall"] for r in done] or [0.0]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(done) / wall,
        "op_p50_ms": statistics.median(walls),
        "cpu_ms_per_op": 1e3 * sum(r["cpu"] for r in done) / max(1, len(done)),
        "peak_rss_mb": max(peaks),
    }


def tail_line(records) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    walls = sorted(1e3 * r["wall"] for r in records if r["ok"])
    n = len(walls)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = n - int(n * pct / 100.0)
        if n >= 40 and beyond >= 10:
            value = walls[min(n - 1, int(n * pct / 100.0))]
            return f"tail: p{pct:g} op_ms = {value:.3f} over {n} operations ({beyond} beyond)"
    return f"tail: none ({n} operations, fewer than 40)"


def layer_metrics(tracer, records, imports: dict) -> dict:
    """Per-layer metrics, each per operation of the traced run."""
    n = max(1, len(records))
    table = tracing.span_table(tracer.spans)
    c = tracer.counts

    def incl(name):
        return 1e3 * table.get(name, {}).get("incl", 0.0) / n

    def self_ms(name):
        return 1e3 * table.get(name, {}).get("self", 0.0) / n

    def calls(name):
        return table.get(name, {}).get("calls", 0) / n

    def med(key):
        return statistics.median(imports[key]) if imports.get(key) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    fi = table.get("lens.find_images", {"incl": 0.0, "calls": 0})
    cli_runs = [k for k in table if k.startswith("cli.run.")]
    m = {
        "cli.python_start_ms": (med("python_start"), "ms"),
        "cli.import_numpy_ms": (med("numpy"), "ms"),
        "cli.import_scipy_ms": (med("scipy"), "ms"),
        "cli.import_negmass_ms": (med("negmass"), "ms"),
        "cli.run_ms": (sum(incl(k) for k in cli_runs), "ms"),
    }
    for sub in workloads.CLI_SUBCOMMANDS:
        runs = [r for r in records if r["op"].get("sub") == sub]
        total = table.get(f"cli.run.{sub}", {}).get("incl", 0.0)
        m[f"cli.run_ms.{sub}"] = (1e3 * total / len(runs) if runs else 0.0, "ms")
    m.update({
        "tableio.write_csv_ms": (incl("tableio.write_csv"), "ms"),
        "tableio.csv_bytes": (c["tableio.csv_bytes"] / n, "bytes"),
        "svgplot.emit_svg_ms": (incl("svgplot.emit_svg"), "ms"),
        "lens.find_images_calls": (calls("lens.find_images"), "count"),
        "lens.find_images_self_ms": (self_ms("lens.find_images"), "ms"),
        "lens.find_images_us_per_call": (1e6 * ratio(fi["incl"], fi["calls"]), "us"),
        "lens.images_per_root": (ratio(c["lens.images"], c["lens.roots"]), "ratio"),
        "numerics.durand_kerner_ms": (incl("numerics.durand_kerner"), "ms"),
        "numerics.durand_kerner_calls": (calls("numerics.durand_kerner"), "count"),
        "caustics.survey_self_ms": (self_ms("caustics.survey"), "ms"),
        "caustics.caustic_curve_ms": (incl("caustics.caustic_curve"), "ms"),
        "caustics.caustic_samples": (c["caustics.caustic_samples"] / n, "count"),
        "caustics.grid_points": (c["caustics.grid_points"] / n, "count"),
        "caustics.near_caustic_points": (c["caustics.near_caustic_points"] / n, "count"),
        "spherical.chart_radius_calls": (c["spherical.chart_radius_calls"] / n, "count"),
        "spherical.area_evals": (c["spherical.area_evals"] / n, "count"),
        "spherical.gauss_panel_calls": (calls("spherical.gauss_panel"), "count"),
        "spherical.gauss_panel_ms": (self_ms("spherical.gauss_panel"), "ms"),
        "spherical.conformal_ms": (incl("spherical.conformal"), "ms"),
        "spherical.conformal_build_ms": (incl("spherical.conformal_build"), "ms"),
        "spherical.radial_capacity_ms": (incl("spherical.radial_capacity"), "ms"),
        "spherical.capacity_center_ms": (incl("spherical.capacity_center"), "ms"),
        "spherical.adm_mass_ms": (incl("spherical.adm_mass"), "ms"),
        "spherical.regular_mass_ms": (incl("spherical.regular_mass"), "ms"),
        "numerics.tail_integral_calls": (calls("numerics.tail_integral"), "count"),
        "numerics.tail_integral_ms": (incl("numerics.tail_integral"), "ms"),
        "numerics.simpson_evals": (c["numerics.simpson_evals"] / n, "count"),
        "numerics.limit_smallstep_calls": (calls("numerics.limit_smallstep"), "count"),
        "imcf.flow_ms": (incl("imcf.flow"), "ms"),
        "imcf.solve_ivp_ms": (incl("imcf.solve_ivp"), "ms"),
        "imcf.solve_ivp_nfev": (c["imcf.solve_ivp_nfev"] / n, "count"),
        "imcf.states": (c["imcf.states"] / n, "count"),
        "imcf.states_per_nfev": (ratio(c["imcf.states"], c["imcf.solve_ivp_nfev"]), "ratio"),
        "imcf.geroch_report_ms": (incl("imcf.geroch_report"), "ms"),
        "weyl.cylinder_area_ms": (incl("weyl.cylinder_area"), "ms"),
        "weyl.level_set_energy_ms": (incl("weyl.level_set_energy"), "ms"),
        "weyl.dyadic_gauss_calls": (calls("weyl.dyadic_gauss"), "count"),
        "weyl.potential_points": (c["weyl.potential_points"] / n, "count"),
        "weyl.adm_flux_ms": (incl("weyl.adm_flux"), "ms"),
        "weyl.vacuum_residuals_ms": (incl("weyl.vacuum_residuals"), "ms"),
    })
    walls = [1e3 * r["wall"] for r in records if r["ok"]]
    shares = tracing.unattributed_shares(tracer.spans)
    m["trace.op_p50_ms"] = (statistics.median(walls) if walls else 0.0, "ms")
    m["trace.unattributed_max_pct"] = (100.0 * max(shares, default=0.0), "%")
    return m


def write_trace(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{workload}-{seed}"
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    table = tracing.span_table(tracer.spans)
    summary = {"skipped": tracer.skipped, "counts": dict(tracer.counts),
               "spans": {k: {"calls": v["calls"], "self_s": v["self"], "incl_s": v["incl"]}
                         for k, v in sorted(table.items(), key=lambda kv: -kv[1]["self"])}}
    Path(f"{stem}.summary.json").write_text(json.dumps(summary, indent=1))
    return stem


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "negmass" / "__init__.py").is_file():
        print(f"no negmass sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    traced = bool(args.trace)
    imports: dict = {}
    try:
        setup_s = measure_setup(args.workload, args.seed, traced, imports, work)
        ops = workloads.build(args.workload, args.seed)
        import negmass
        if not Path(negmass.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"imported negmass from {negmass.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tracer = tracing.Tracer() if traced else None
        if args.workload == "cli-cold":
            if traced:
                imports.clear()  # per-operation figures come from the CLI children
            records, wall, peaks, errors = run_cli(ops, args.seconds, tracer, work, imports)
        else:
            records, wall, peaks, errors = run_in_process(args.workload, ops, args.seconds,
                                                          tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if not r["ok"])
    if failed:  # no operation may fail: a fast failure would flatter the time metrics
        errors.append(f"{failed} of {len(records)} operations failed")
    for e in errors[:50]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    if traced:
        stem = write_trace(tracer, args.workload, args.seed)
        metrics = layer_metrics(tracer, records, imports)
        print(f"trace: spans and summary written to {stem}.*")
    else:
        values = end_to_end(records, wall, peaks, setup_s)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        print(tail_line(records))
    result = {"correct": not errors, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
