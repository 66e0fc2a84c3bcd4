"""Terminal rendering of the paper's figures (no plotting dependencies).

The benchmarks print rows; for human inspection these helpers render the
underlying distributions as compact ASCII charts — CDFs, bar charts, and
throughput timelines — so `python -m repro.experiments fig9 --plot` tells
the same story the paper's figures do.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: Glyphs from empty to full, used for bar fills.
_BLOCKS = " ▏▎▍▌▋▊▉█"


def _fill(width_cells: float) -> str:
    """A horizontal bar of fractional cell width."""
    full = int(width_cells)
    frac = width_cells - full
    partial = _BLOCKS[int(frac * (len(_BLOCKS) - 1))] if frac > 0 else ""
    return "█" * full + partial


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bar chart, one row per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return "(no data)"
    peak = max(max(values), 1e-12)
    label_width = max(len(l) for l in labels)
    rows = []
    for label, value in zip(labels, values, strict=True):
        bar = _fill(value / peak * width)
        rows.append(f"{label:>{label_width}} |{bar:<{width}} {value:.1f}{unit}")
    return "\n".join(rows)


def stacked_shares(
    labels: Sequence[str],
    shares: Sequence[Sequence[float]],
    legend: Sequence[str],
    width: int = 48,
) -> str:
    """Stacked 100 % bars (the paper's Figure 9 style).

    ``shares[i]`` are the per-level fractions for ``labels[i]`` and must
    sum to ~1.  Levels are drawn with distinct fill characters.
    """
    fills = "░▒▓█"
    if any(abs(sum(row) - 1.0) > 0.05 for row in shares):
        raise ValueError("each share row must sum to ~1")
    label_width = max(len(l) for l in labels)
    rows = [
        " " * label_width
        + "  "
        + "  ".join(f"{fills[i % len(fills)]}={name}" for i, name in enumerate(legend))
    ]
    for label, row in zip(labels, shares, strict=True):
        cells = []
        for i, share in enumerate(row):
            cells.append(fills[i % len(fills)] * int(round(share * width)))
        bar = "".join(cells)[:width].ljust(width)
        rows.append(f"{label:>{label_width}} |{bar}|")
    return "\n".join(rows)


def cdf_plot(
    curves: dict[str, Iterable[float]],
    width: int = 60,
    height: int = 12,
    x_label: str = "Mbps",
) -> str:
    """Multiple empirical CDFs on one ASCII canvas.

    Each curve gets a distinct marker; the y axis is cumulative
    probability 0..1, the x axis spans the pooled data range.
    """
    markers = "*o+x#@%&"
    data = {name: np.sort(np.asarray(list(v), float)) for name, v in curves.items()}
    data = {name: v for name, v in data.items() if v.size}
    if not data:
        return "(no data)"
    x_max = max(v[-1] for v in data.values())
    x_max = max(x_max, 1e-9)
    canvas = [[" "] * width for _ in range(height)]
    for idx, values in enumerate(data.values()):
        marker = markers[idx % len(markers)]
        for col in range(width):
            x = (col + 0.5) / width * x_max
            p = float(np.searchsorted(values, x, side="right")) / values.size
            row = height - 1 - int(min(p, 0.999) * height)
            if canvas[row][col] == " ":
                canvas[row][col] = marker
    lines = []
    for i, row in enumerate(canvas):
        y = 1.0 - i / height
        lines.append(f"{y:4.1f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      0{' ' * (width - 12)}{x_max:,.0f} {x_label}")
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(data)
    )
    lines.append("      " + legend)
    return "\n".join(lines)


def timeline(
    series: dict[str, Sequence[float]],
    width: int = 72,
    height: int = 10,
    y_label: str = "Mbps",
) -> str:
    """Overlaid per-second throughput timelines (the Figure 11 style)."""
    markers = "*o+x#"
    arrays = {k: np.asarray(v, float) for k, v in series.items() if len(v)}
    if not arrays:
        return "(no data)"
    peak = max(float(v.max()) for v in arrays.values())
    peak = max(peak, 1e-9)
    length = max(len(v) for v in arrays.values())
    canvas = [[" "] * width for _ in range(height)]
    for idx, values in enumerate(arrays.values()):
        marker = markers[idx % len(markers)]
        for col in range(width):
            pos = int(col / width * length)
            if pos >= len(values):
                continue
            row = height - 1 - int(min(values[pos] / peak, 0.999) * height)
            if canvas[row][col] == " ":
                canvas[row][col] = marker
    lines = [f"{peak:7.0f} {y_label}"]
    for row in canvas:
        lines.append("        |" + "".join(row))
    lines.append("        +" + "-" * width + f"> {length} s")
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(arrays)
    )
    lines.append("         " + legend)
    return "\n".join(lines)
