"""Spans and counters recorded from outside the program.

``install`` replaces public names of the negmass modules, as the calling
module sees them, with wrappers that open a span or bump a counter and
then call the original.  Nothing in the package changes; ``restore``
puts every original back.  A name that no longer exists is skipped and
listed in ``Tracer.skipped``, so the benchmark outlives refactors that
delete a routine (``durand_kerner``, ``solve_ivp``).

A span is [name, start, end, parent, op]; spans stay in memory until the
run writes them out.  A span's self time is its duration minus the time
its child spans cover.  Hot leaf routines (chart inversion, area
evaluations, rod potentials) only bump counters: a span per call would
cost more than the call.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import sys
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1  # spans outside a measured operation carry op -1
        self.skipped: list[str] = []
        self._undo: list[tuple] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter() if start is None else start, 0.0,
                           parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][END] = perf_counter() if end is None else end
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """A finished span measured elsewhere (a child process's phases)."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    # -- wrapping --------------------------------------------------------------

    def _replace(self, owner, attr: str, label: str, make):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.skipped.append(label)
            print(f"trace: {label} is gone; its metrics read 0", file=sys.stderr)
            return
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((owner, attr, orig))

    def wrap(self, owner, attr: str, name: str, after=None, label: str | None = None):
        """Time every call of owner.attr as a span; after(result, args) may count."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                counts[name + ".calls"] += 1
                if after is not None:
                    after(result, args)
                return result
            return wrapper

        self._replace(owner, attr, label or name, make)

    def count(self, owner, attr: str, key: str, amount=None, label: str | None = None):
        """Count calls of owner.attr (or amount(args) per call) without a span."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1 if amount is None else amount(args)
                return fn(*args, **kwargs)
            return wrapper

        self._replace(owner, attr, label or key, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install(tracer: Tracer, nm, with_cli: bool = False) -> None:
    """Wrap the layers' public names.  nm holds the negmass modules."""
    lens, caustics, sph, imcf, weyl = nm.lens, nm.caustics, nm.spherical, nm.imcf, nm.weyl
    c = tracer.counts
    w = tracer.wrap

    # lens, caustics and their polynomial roots
    w(lens, "durand_kerner", "numerics.durand_kerner",
      after=lambda r, a: c.update({"lens.roots": len(r)}), label="negmass.lens.durand_kerner")
    for owner in (lens, caustics):
        w(owner, "find_images", "lens.find_images",
          after=lambda r, a: c.update({"lens.images": len(r)}),
          label=f"{owner.__name__}.find_images")
    w(caustics, "image_count_survey", "caustics.survey",
      after=lambda r, a: c.update({"caustics.grid_points": int(r.counts.size),
                                   "caustics.near_caustic_points": int(r.near_caustic.sum())}))
    w(caustics, "caustic_curve", "caustics.caustic_curve",
      after=lambda r, a: c.update({"caustics.caustic_samples":
                                   2 * sum(1 for s in r if not s.gap)}))

    # spherical: leaf evaluations are counted, functionals are spans
    tracer.count(sph.ConformalSchwarzschildProfile, "chart_radius",
                 "spherical.chart_radius_calls",
                 label="ConformalSchwarzschildProfile.chart_radius")
    for cls in vars(sph).values():
        if isinstance(cls, type) and issubclass(cls, sph.RadialProfile) and "area" in vars(cls):
            tracer.count(cls, "area", "spherical.area_evals", label=f"{cls.__name__}.area")
    w(sph, "gauss_panel", "spherical.gauss_panel")
    w(sph.ConformalProfile, "__init__", "spherical.conformal_build",
      label="ConformalProfile.__init__")
    w(sph, "apply_harmonic_conformal", "spherical.conformal")
    for fn in ("radial_capacity", "capacity_center", "adm_mass", "regular_mass",
               "hawking_mass_sphere", "classify_power_law"):
        w(sph, fn, f"spherical.{fn}")
    w(sph, "limit_smallstep", "numerics.limit_smallstep")

    def tail_integral(fn):
        def wrapper(f, *args, **kwargs):
            def counted(x):
                c["numerics.simpson_evals"] += 1
                return f(x)
            return fn(counted, *args, **kwargs)
        return wrapper

    tracer._replace(sph, "tail_integral", "negmass.spherical.tail_integral", tail_integral)
    w(sph, "tail_integral", "numerics.tail_integral")

    # imcf
    w(imcf, "imcf_flow", "imcf.flow",
      after=lambda r, a: c.update({"imcf.states": len(r.states)}))
    w(imcf, "solve_ivp", "imcf.solve_ivp",
      after=lambda r, a: c.update({"imcf.solve_ivp_nfev": int(getattr(r, "nfev", 0))}),
      label="negmass.imcf.solve_ivp")
    w(imcf, "geroch_report", "imcf.geroch_report")

    # weyl
    for fn in ("adm_flux", "vacuum_residuals", "cylinder_area", "level_set_energy"):
        w(weyl, fn, f"weyl.{fn}")
    w(weyl, "dyadic_gauss", "weyl.dyadic_gauss", label="negmass.weyl.dyadic_gauss")
    import numpy as np

    tracer.count(weyl, "zv_potentials", "weyl.potential_points",
                 amount=lambda a: int(np.broadcast(np.asarray(a[1]), np.asarray(a[2])).size))

    if with_cli:
        cli = nm.cli
        w(cli, "write_csv", "tableio.write_csv",
          after=lambda r, a: c.update({"tableio.csv_bytes": os.path.getsize(a[0])}))
        w(cli, "emit_svg", "svgplot.emit_svg")


# ---------------------------------------------------------------------------
# aggregation


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self seconds and outermost-inclusive seconds.

    Spans with op -1 (warm-up, set-up) are left out.  A span nested in
    another of the same name adds to calls and self time but not to the
    inclusive time, which would otherwise count the outer interval twice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    table: dict[str, dict] = collections.defaultdict(
        lambda: {"calls": 0, "self": 0.0, "incl": 0.0})
    for i, s in enumerate(spans):
        if s[OP] < 0:
            continue
        row = table[s[NAME]]
        dur = s[END] - s[START]
        row["calls"] += 1
        row["self"] += dur - child[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            row["incl"] += dur
    return dict(table)


def unattributed_shares(spans: list[list], root: str = "op") -> list[float]:
    """Per operation: the share of its wall time that no layer span covers."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = []
    for i, s in enumerate(spans):
        if s[NAME] == root and s[OP] >= 0:
            dur = s[END] - s[START]
            out.append((dur - child[i]) / dur if dur > 0 else 0.0)
    return out


def import_cumulative_us(stderr_text: str, package: str) -> float:
    """Cumulative import time of a package's top-most modules, from -X importtime.

    Lines come in post-order (children before their parent), so walking
    them backwards visits each parent before its children.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip())) // 2
        entries.append((depth, name, int(parts[1])))
    total = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside the package)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = name == package or name.startswith(package + ".")
        if inside and not any(flag for _, flag in stack):
            total += cumulative
        stack.append((depth, inside))
    return float(total)
