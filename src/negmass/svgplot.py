"""Minimal static SVG line plots: axes, ticks, polylines, nothing else.

One plot per file, no scripting, no timestamps.  Series may contain
None gaps (occulted light-curve samples, parametrization gaps); gaps
split the polyline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ValidationError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")


@dataclass
class Series:
    """One polyline: x and y sequences of equal length (None = gap)."""

    x: list
    y: list
    label: str | None = None

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValidationError("series x and y must have equal length")


def _ticks(lo: float, hi: float):
    """Round tick values in [lo, hi], about five of them."""
    n = 5
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _span(values):
    """(lo, hi) of the values widened by a 4% margin; one value alone gets
    5% of its magnitude (at least 0.05) on each side first."""
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = max(abs(hi), 1.0) * 0.05
        lo, hi = lo - pad, hi + pad
    margin = 0.04 * (hi - lo)
    return lo - margin, hi + margin


def _finite(point) -> bool:
    return all(v is not None and math.isfinite(float(v)) for v in point)


def emit_svg(series, path, *, title: str | None = None, equal_aspect: bool = False,
             x_label: str = "", y_label: str = "") -> None:
    """Write a standalone 640 x 480 SVG with the given line series.

    Rejects empty input (no series, or no finite points).  With
    equal_aspect the data box is padded so x and y share one scale,
    which curve plots (critical curves, caustics) want.
    """
    series = list(series)
    if not series:
        raise ValidationError("emit_svg needs at least one series")
    xs = [float(v) for s in series for v in s.x if v is not None and math.isfinite(v)]
    ys = [float(v) for s in series for v in s.y if v is not None and math.isfinite(v)]
    if not xs or not ys:
        raise ValidationError("emit_svg needs at least one finite point")

    (x_lo, x_hi), (y_lo, y_hi) = _span(xs), _span(ys)

    width, height = 640, 480
    box = (60.0, 20.0, width - 20.0, height - 45.0)  # left, top, right, bottom
    bw, bh = box[2] - box[0], box[3] - box[1]
    if equal_aspect:
        x_span, y_span = x_hi - x_lo, y_hi - y_lo
        scale = max(x_span / bw, y_span / bh)
        x_mid, y_mid = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
        x_lo, x_hi = x_mid - 0.5 * scale * bw, x_mid + 0.5 * scale * bw
        y_lo, y_hi = y_mid - 0.5 * scale * bh, y_mid + 0.5 * scale * bh

    def px(x):
        return box[0] + (x - x_lo) / (x_hi - x_lo) * bw

    def py(y):
        return box[3] - (y - y_lo) / (y_hi - y_lo) * bh

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{box[0]:.2f}" y="{box[1]:.2f}" width="{bw:.2f}" height="{bh:.2f}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="14" text-anchor="middle" '
                     f'font-size="13" font-family="sans-serif">{title}</text>')
    for t in _ticks(x_lo, x_hi):
        X = px(t)
        parts.append(f'<line x1="{X:.2f}" y1="{box[3]:.2f}" x2="{X:.2f}" '
                     f'y2="{box[3] + 5:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{X:.2f}" y="{box[3] + 17:.2f}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        Y = py(t)
        parts.append(f'<line x1="{box[0] - 5:.2f}" y1="{Y:.2f}" x2="{box[0]:.2f}" '
                     f'y2="{Y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{box[0] - 8:.2f}" y="{Y + 3:.2f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{t:g}</text>')
    if x_label:
        parts.append(f'<text x="{(box[0] + box[2]) / 2:.1f}" y="{height - 6}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="14" y="{(box[1] + box[3]) / 2:.1f}" font-size="11" '
                     f'font-family="sans-serif" text-anchor="middle" '
                     f'transform="rotate(-90 14 {(box[1] + box[3]) / 2:.1f})">'
                     f'{y_label}</text>')

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        for finite, run in itertools.groupby(zip(s.x, s.y), key=_finite):
            if not finite:  # a gap splits the polyline
                continue
            chunk = [f"{px(float(xv)):.2f},{py(float(yv)):.2f}" for xv, yv in run]
            if len(chunk) == 1:
                x0, y0 = chunk[0].split(",")
                parts.append(f'<circle cx="{x0}" cy="{y0}" r="2" fill="{color}"/>')
            else:
                parts.append(f'<polyline points="{" ".join(chunk)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.4"/>')
        if s.label:
            parts.append(f'<text x="{box[2] - 6:.1f}" y="{box[1] + 14 + 13 * i:.1f}" '
                         f'text-anchor="end" font-size="11" fill="{color}" '
                         f'font-family="sans-serif">{s.label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
