"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output bytes depend only on the input data, so
plots are diffable and testable. Not a general plotting layer. Every
series is a non-empty float64 array of finite values, as
`data.read_floats` returns them (a non-finite one would print as "nan").
"""

from __future__ import annotations

import numpy as np

WIDTH = 960
HEIGHT = 360
MARGIN = 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float,
           out_hi: float) -> np.ndarray:
    if hi == lo:  # flat series still renders as a centered line
        return np.full_like(values, 0.5 * (out_lo + out_hi))
    # values within 2**1000 of zero are left as they are; larger ones are
    # brought below that by an exact power of two, so that hi - lo and
    # (values - lo) * (out_hi - out_lo) cannot overflow
    shift = min(1000 - np.frexp(max(abs(lo), abs(hi)))[1], 0)
    values, lo, hi = (np.ldexp(v, shift) for v in (values, lo, hi))
    return out_lo + (values - lo) * (out_hi - out_lo) / (hi - lo)


def _polyline(xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{pts}"/>')


def _panel(series: list[tuple[str, np.ndarray]], title: str,
           y_offset: int) -> list[str]:
    n = max(s.size for _, s in series)
    lo = min(float(s.min()) for _, s in series)
    hi = max(float(s.max()) for _, s in series)
    left, right = MARGIN, WIDTH - MARGIN
    top, bottom = y_offset + MARGIN, y_offset + HEIGHT - MARGIN
    parts = [
        f'<rect x="{left}" y="{top}" width="{right - left}" '
        f'height="{bottom - top}" fill="none" stroke="#333"/>',
        f'<text x="{left}" y="{top - 10}" font-size="14">{title}</text>',
        f'<text x="{left - 45}" y="{top + 12}" font-size="11">{hi:.6g}</text>',
        f'<text x="{left - 45}" y="{bottom}" font-size="11">{lo:.6g}</text>',
    ]
    for idx, (label, values) in enumerate(series):
        xs = _scale(np.arange(values.size, dtype=np.float64), 0,
                    max(n - 1, 1), left, right)
        ys = _scale(values, lo, hi, bottom, top)
        color = COLORS[idx % len(COLORS)]
        parts.append(_polyline(xs, ys, color))
        parts.append(f'<text x="{right - 140}" y="{top + 16 + 14 * idx}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    return parts


def _document(parts: list[str], total_height: int) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{total_height}" viewBox="0 0 {WIDTH} {total_height}">\n'
            f'{body}\n</svg>\n')


def render_lines(series: list[tuple[str, np.ndarray]], title: str, path) -> None:
    """One panel, one polyline per (label, values) entry."""
    doc = _document(_panel(series, title, 0), HEIGHT)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(doc)


def render_overlay(real: np.ndarray, generated: np.ndarray, window: int,
                   title: str, path) -> None:
    """Two stacked panels: the full series and the first `window` samples."""
    window = min(window, real.size, generated.size)
    parts = _panel([("real", real), ("generated", generated)],
                   f"{title} (full)", 0)
    parts += _panel([("real", real[:window]), ("generated", generated[:window])],
                    f"{title} (first {window})", HEIGHT)
    doc = _document(parts, 2 * HEIGHT)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(doc)
