"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output bytes depend only on the input data, so
plots are diffable and testable. Not a general plotting layer.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

WIDTH = 960
HEIGHT = 360
MARGIN = 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float,
           out_hi: float) -> np.ndarray:
    if hi == lo:  # flat series still renders as a centered line
        return np.full_like(values, 0.5 * (out_lo + out_hi))
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


def _checked(series: list[tuple[str, np.ndarray]]):
    """The series as float64 arrays; DataError if one is empty or holds a
    value that is not finite (it would print as "nan" into the SVG)."""
    series = [(lbl, np.asarray(v, dtype=np.float64)) for lbl, v in series]
    if not series or any(v.size == 0 for _, v in series):
        raise DataError("nothing to plot")
    for label, values in series:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(f"cannot plot {label}: value {values[bad[0]]} "
                            f"at index {bad[0]} is not finite")
    return series


def render_lines(series: list[tuple[str, np.ndarray]], title: str, path) -> None:
    """One panel, one polyline per (label, values) entry."""
    series = _checked(series)
    doc = _document(_panel(series, title, 0), HEIGHT)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(doc)


def render_overlay(real: np.ndarray, generated: np.ndarray, window: int,
                   title: str, path) -> None:
    """Two stacked panels: the full series and the first `window` samples."""
    (_, real), (_, generated) = _checked([("real", real),
                                          ("generated", generated)])
    window = min(window, real.size, generated.size)
    parts = _panel([("real", real), ("generated", generated)],
                   f"{title} (full)", 0)
    parts += _panel([("real", real[:window]), ("generated", generated[:window])],
                    f"{title} (first {window})", HEIGHT)
    doc = _document(parts, 2 * HEIGHT)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(doc)
