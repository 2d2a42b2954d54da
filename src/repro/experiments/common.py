"""Shared experiment plumbing: summary statistics and text rendering.

No plotting library is assumed; figures are reproduced as printed data
series (the numbers behind each curve) plus compact ASCII charts, which
is what the benchmark harness records in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class BoxStats:
    """Box-whisker summary of one distribution (Figure 6a/6c style)."""

    count: int
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    mean: float

    @staticmethod
    def of(values: Sequence[float]) -> "BoxStats":
        """Summarize ``values``; infinities are kept out of the percentiles
        but reported through ``count`` bookkeeping by the caller."""
        arr = np.asarray([v for v in values if math.isfinite(v)], dtype=float)
        if arr.size == 0:
            nan = float("nan")
            return BoxStats(0, nan, nan, nan, nan, nan, nan)
        return BoxStats(
            count=int(arr.size),
            minimum=float(arr.min()),
            p25=float(np.percentile(arr, 25)),
            median=float(np.percentile(arr, 50)),
            p75=float(np.percentile(arr, 75)),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
        )

    def row(self) -> str:
        return (
            f"n={self.count:<5d} min={self.minimum:<8.4g} p25={self.p25:<8.4g} "
            f"med={self.median:<8.4g} p75={self.p75:<8.4g} max={self.maximum:<8.4g} "
            f"mean={self.mean:<8.4g}"
        )


def series_table(
    x_label: str,
    xs: Sequence[float],
    columns: Dict[str, Sequence[float]],
    *,
    fmt: str = "10.4g",
) -> str:
    """Render aligned columns: one row per x, one column per named series."""
    header = f"{x_label:>10} " + " ".join(f"{name:>12}" for name in columns)
    lines = [header, "-" * len(header)]
    for i, x in enumerate(xs):
        cells = []
        for values in columns.values():
            v = values[i]
            cells.append(f"{v:>12.4g}" if math.isfinite(v) else f"{'inf':>12}")
        lines.append(f"{x:>{10}.4g} " + " ".join(cells))
    return "\n".join(lines)


def contour_grid(
    row_label: str,
    col_label: str,
    rows: Sequence[float],
    cols: Sequence[float],
    grid: np.ndarray,
    *,
    fmt: str = "7.3g",
) -> str:
    """Render a 2-D sweep (Figure 5 contours / Figure 7 heat map) as text.

    ``grid[i, j]`` is the value at ``rows[i]``, ``cols[j]``.
    """
    header = f"{row_label}\\{col_label:<6}" + " ".join(f"{c:>8.3g}" for c in cols)
    lines = [header, "-" * len(header)]
    for i, r in enumerate(rows):
        cells = []
        for j in range(len(cols)):
            v = grid[i, j]
            cells.append(f"{v:>8.3g}" if math.isfinite(v) else f"{'inf':>8}")
        lines.append(f"{r:>12.3g} " + " ".join(cells))
    return "\n".join(lines)


def ascii_curve(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    width: int = 60,
    height: int = 12,
    title: str = "",
) -> str:
    """Tiny ASCII scatter/line plot for quick visual checks in benches."""
    pairs = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
    if not pairs:
        return f"{title}: (no finite data)"
    px = np.asarray([p[0] for p in pairs])
    py = np.asarray([p[1] for p in pairs])
    x0, x1 = float(px.min()), float(px.max())
    y0, y1 = float(py.min()), float(py.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    canvas = [[" "] * width for _ in range(height)]
    for x, y in pairs:
        col = int((x - x0) / (x1 - x0) * (width - 1))
        row = int((y - y0) / (y1 - y0) * (height - 1))
        canvas[height - 1 - row][col] = "*"
    lines = [title] if title else []
    lines.append(f"{y1:10.4g} +" + "-" * width + "+")
    for row in canvas:
        lines.append(f"{'':10} |" + "".join(row) + "|")
    lines.append(f"{y0:10.4g} +" + "-" * width + "+")
    lines.append(f"{'':12}{x0:<10.4g}{'':{max(0, width - 20)}}{x1:>10.4g}")
    return "\n".join(lines)
