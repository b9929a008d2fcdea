"""Minimal self-contained SVG rendering of failure-probability curves.

No plotting dependency: the output is a single hand-written ``<svg>`` with a
log-scale y axis (failure probability), linear x axis (total noise standard
deviation), one polyline per (results file, level) series with Wilson
interval whiskers, and optional vertical threshold markers.  Points whose
failure count is zero have no point estimate on a log axis; they are drawn
as one-sided markers (an open downward triangle at the interval's upper
bound) instead of being dropped.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
]

# a character XML 1.0 cannot hold, escaped or not: a control character other
# than tab, newline and carriage return, a lone surrogate (an undecodable byte
# of a path), U+FFFE or U+FFFF
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_WIDTH, _HEIGHT = 840, 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 190, 24, 52


@dataclass
class _Series:
    label: str
    color: str
    points: list  # of PointEstimate, sorted by sigma


def _series_label(est) -> str:
    return f"{est.protocol}/{'analog' if est.analog else 'digital'} L{est.level}"


def _nice_x_ticks(lo: float, hi: float, max_ticks: int = 8) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max_ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12:
        ticks.append(round(t, 10))
        t += step
    return ticks


def render_curves(sweeps, out_path, threshold=None, title: str = "") -> None:
    """Write an SVG of the failure curves; ``threshold`` is a ThresholdEstimate.

    ``sweeps`` maps each results file to its estimates.  A file holds one
    sweep, so each of its levels is one series; with several files, a
    series' label starts with its file's directory.
    """
    # imported here, not at the top: xml.sax.saxutils loads urllib.request,
    # which added megabytes and tens of milliseconds to every `gkptrack` start
    from xml.sax.saxutils import escape

    def text(value: str) -> str:
        """``value`` as SVG text: markup escaped, and U+FFFD for each character XML cannot hold."""
        return escape(_NOT_XML.sub("\ufffd", value))

    estimates = [e for rows in sweeps.values() for e in rows]
    if not estimates:
        raise ValueError("no data points to plot")
    series = []
    for path, rows in sweeps.items():
        prefix = f"{os.path.basename(os.path.dirname(os.path.abspath(path)))}: " if len(sweeps) > 1 else ""
        for level in sorted({e.level for e in rows}):
            pts = sorted((e for e in rows if e.level == level), key=lambda e: e.sigma_total)
            series.append(_Series(prefix + _series_label(pts[0]), _PALETTE[len(series) % len(_PALETTE)], pts))

    xs = [e.sigma_total for e in estimates]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    ys = [e.p_fail for e in estimates if e.failures > 0]
    ys += [e.ci_high for e in estimates if e.ci_high > 0.0]
    ys += [e.ci_low for e in estimates if e.ci_low > 0.0]
    y_hi = min(1.0, max(ys) * 1.5)
    y_lo = max(min(ys) / 1.5, 1e-12)
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)

    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        ly = math.log10(max(y, y_lo))
        return _MARGIN_T + ph * (ly_hi - ly) / (ly_hi - ly_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_MARGIN_L}" y="16" font-size="13">{text(title)}</text>')

    # y decades
    for d in range(math.ceil(ly_lo), math.floor(ly_hi) + 1):
        y = py(10.0 ** d)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + pw}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.7"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">1e{d}</text>'
        )
    # x ticks
    for t in _nice_x_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + ph}" x2="{x:.1f}" y2="{_MARGIN_T + ph + 5}" '
            'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + ph + 20}" text-anchor="middle">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle">'
        "total noise standard deviation</text>"
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + ph / 2:.1f})">failure probability</text>'
    )

    if threshold is not None:
        x = px(threshold.sigma_star)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" y2="{_MARGIN_T + ph}" '
            'stroke="#555" stroke-width="1" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{x + 4:.1f}" y="{_MARGIN_T + 14}" fill="#555">'
            f"threshold {threshold.sigma_star:.3f}</text>"
        )

    for s in series:
        line_pts = [(px(e.sigma_total), py(e.p_fail)) for e in s.points if e.failures > 0]
        if len(line_pts) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in line_pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{s.color}" stroke-width="1.6"/>'
            )
        for e in s.points:
            x = px(e.sigma_total)
            if e.failures > 0:
                y = py(e.p_fail)
                parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{s.color}"/>')
                y0, y1 = py(max(e.ci_low, y_lo)), py(e.ci_high)
                parts.append(
                    f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y1:.1f}" '
                    f'stroke="{s.color}" stroke-width="1"/>'
                )
            else:
                # zero failures: draw the one-sided 95% bound, not a point
                y = py(max(e.ci_high, y_lo))
                parts.append(
                    f'<path d="M {x - 5:.1f} {y:.1f} L {x + 5:.1f} {y:.1f} L {x:.1f} {y + 8:.1f} Z" '
                    f'fill="none" stroke="{s.color}" stroke-width="1.3"/>'
                )

    ly = _MARGIN_T + 8
    lx = _MARGIN_L + pw + 14
    parts.append(
        f'<text x="{lx}" y="{ly}" font-size="12" fill="#333">series</text>'
    )
    for i, s in enumerate(series):
        y = ly + 18 * (i + 1)
        parts.append(
            f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 22}" y2="{y - 4}" '
            f'stroke="{s.color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{y}">{text(s.label)}</text>')

    parts.append("</svg>")
    # an SVG without an XML declaration is read as UTF-8
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
