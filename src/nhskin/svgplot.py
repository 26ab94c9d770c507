"""Dependency-free static SVG scatter/line plots (fixed 800x600 canvas).

A figure is a list of panels, laid out side by side.  Each panel is a
tuple (title, xlabel, ylabel, series), and each series (xs, ys, mode)
with mode "scatter" or "line"; series take their colours by index.
Figures exist for eyeballing; the CSV files are the contract.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 800, 600
MARGIN = 60
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _limits(vals):
    lo, hi = min(vals), max(vals)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = 0.0, 1.0
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _render(x0, y0, w, h, title, xlabel, ylabel, series):
    """SVG elements of one panel whose axes rectangle is (x0, y0, w, h)."""
    xlo, xhi = _limits([x for xs, _, _ in series for x in xs] or [0.0, 1.0])
    ylo, yhi = _limits([y for _, ys, _ in series for y in ys] or [0.0, 1.0])

    def px(x):
        return x0 + (x - xlo) / (xhi - xlo) * w

    def py(y):
        return y0 + h - (y - ylo) / (yhi - ylo) * h

    parts = [
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{x0 + w / 2:.1f}" y="{y0 - 8}" '
        f'text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{x0 + w / 2:.1f}" y="{y0 + h + 32}" '
        f'text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="{x0 - 42}" y="{y0 + h / 2:.1f}" '
        f'text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 {x0 - 42} {y0 + h / 2:.1f})">'
        f'{ylabel}</text>',
    ]
    for lab, v in (("%.3g" % xlo, xlo), ("%.3g" % xhi, xhi)):
        parts.append(
            f'<text x="{px(v):.1f}" y="{y0 + h + 16}" '
            f'text-anchor="middle" font-size="10">{lab}</text>')
    for lab, v in (("%.3g" % ylo, ylo), ("%.3g" % yhi, yhi)):
        parts.append(
            f'<text x="{x0 - 6}" y="{py(v):.1f}" '
            f'text-anchor="end" font-size="10">{lab}</text>')
    for si, (xs, ys, mode) in enumerate(series):
        c = COLORS[si % len(COLORS)]
        if mode == "line":
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{c}" stroke-width="1.2"/>')
        else:
            for x, y in zip(xs, ys):
                parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" '
                             f'r="2.2" fill="{c}" fill-opacity="0.75"/>')
    return "\n".join(parts)


def write_svg(path, panels):
    """Write the figure `panels` (see the module docstring) to `path`."""
    w = (WIDTH - (len(panels) + 1) * MARGIN) // len(panels)
    h = HEIGHT - 2 * MARGIN - 20
    body = "\n".join(_render(MARGIN + i * (w + MARGIN), MARGIN, w, h, *panel)
                     for i, panel in enumerate(panels))
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
