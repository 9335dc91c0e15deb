"""Direct SVG emission for the three chart shapes the workbench needs:
metric-vs-rate sweep lines (solid = calibrated arm, dashed = early stop),
learning curves (raw + smoothed), and reliability diagrams.

Charts are a fixed 800x600 viewBox with axes, tick labels and a legend.
Every data series is exactly one polyline; axes, grid and markers use
line elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pipeline import ARM_BCE, ARM_CAPE, CAPE_PHASE

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT = 80, 170
MARGIN_TOP, MARGIN_BOTTOM = 60, 70
PLOT_LEFT, PLOT_RIGHT = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
PLOT_TOP, PLOT_BOTTOM = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]
    color: str = PALETTE[0]
    dashed: bool = False
    raw: bool = False  # faint and thin, and left out of the legend


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 5
    return [lo + i * step for i in range(6)]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 100 or abs(v) < 0.001:
        return f"{v:.2e}"
    return f"{v:.3g}"


def _line(x1, y1, x2, y2, stroke: str, width, dash: str = "") -> str:
    """A line element; float coordinates are written with two decimals."""
    c = [f"{v:.2f}" if isinstance(v, float) else v for v in (x1, y1, x2, y2)]
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{c[0]}" y1="{c[1]}" x2="{c[2]}" y2="{c[3]}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
    )


def _text(x, y, body: str, size: int, anchor: str = "", extra: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
        f'font-family="sans-serif"{extra}>{_escape(body)}</text>'
    )


def moving_average(values: list[float]) -> list[float]:
    """Centered 3-point moving average; the two ends average over two points."""
    segments = (values[max(0, i - 1) : i + 2] for i in range(len(values)))
    return [sum(seg) / len(seg) for seg in segments]


def _chart(title, x_label, y_label, series: list[Series], box=None, marks=lambda px, py: ()):
    """An 800x600 SVG: the frame, then `marks(px, py)`, one polyline per
    series and the legend. The frame is `box` = (x_lo, x_hi, y_lo, y_hi), or
    else the series' span with y padded by 5% and a zero-width range widened
    by 0.5 each way."""
    if box is None:
        xs = [x for s in series for x in s.xs]
        ys = [y for s in series for y in s.ys]
        if not xs:
            raise ValueError("nothing to plot")
        x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        box = x_lo, x_hi, y_lo - pad, y_hi + pad
    x_lo, x_hi, y_lo, y_hi = box

    def px(x: float) -> float:
        return PLOT_LEFT + (x - x_lo) / (x_hi - x_lo) * (PLOT_RIGHT - PLOT_LEFT)

    def py(y: float) -> float:
        return PLOT_BOTTOM - (y - y_lo) / (y_hi - y_lo) * (PLOT_BOTTOM - PLOT_TOP)

    el = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(WIDTH / 2, 30, title, 18, "middle"),
    ]
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        el.append(_line(PLOT_LEFT, y, PLOT_RIGHT, y, "#e0e0e0", 1))
        el.append(_text(PLOT_LEFT - 8, f"{y + 4:.2f}", _fmt_tick(t), 12, "end"))
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        el.append(_line(x, PLOT_BOTTOM, x, PLOT_BOTTOM + 6, "#000000", 1))
        el.append(_text(f"{x:.2f}", PLOT_BOTTOM + 22, _fmt_tick(t), 12, "middle"))
    mid_y = (PLOT_TOP + PLOT_BOTTOM) / 2
    el += [
        _line(PLOT_LEFT, PLOT_BOTTOM, PLOT_RIGHT, PLOT_BOTTOM, "#000000", 1.5),
        _line(PLOT_LEFT, PLOT_TOP, PLOT_LEFT, PLOT_BOTTOM, "#000000", 1.5),
        _text((PLOT_LEFT + PLOT_RIGHT) / 2, HEIGHT - 20, x_label, 14, "middle"),
        _text(24, mid_y, y_label, 14, "middle", f' transform="rotate(-90 24 {mid_y})"'),
        *marks(px, py),
    ]

    for s in series:
        if len(s.xs) != len(s.ys):
            raise ValueError(f"series {s.label!r} has mismatched x/y lengths")
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        width, opacity = (1.0, 0.25) if s.raw else (2.0, 1.0)
        dash = ' stroke-dasharray="7,5"' if s.dashed else ""
        el.append(
            f'<polyline fill="none" stroke="{s.color}" stroke-width="{width}" '
            f'stroke-opacity="{opacity}" points="{pts}"{dash}/>'
        )

    lx, legend_y = PLOT_RIGHT + 14, PLOT_TOP + 10
    for s in series:
        if not s.raw:
            dash = "7,5" if s.dashed else ""
            el.append(_line(lx, legend_y, lx + 26, legend_y, s.color, 2.0, dash))
            el.append(_text(lx + 32, legend_y + 4, s.label, 12))
            legend_y += 20

    el.append("</svg>")
    return "\n".join(el) + "\n"


def sweep_chart(rows: list[dict], metric: str, title: str, y_label: str) -> str:
    """Metric vs event rate: solid lines for the calibrated arm, dashed for
    the early-stopped arm, one pair per dataset size."""
    sizes = sorted({row["n"] for row in rows})
    series = []
    for i, n in enumerate(sizes):
        color = PALETTE[i % len(PALETTE)]
        for arm, dashed in ((ARM_CAPE, False), (ARM_BCE, True)):
            per_rate: dict[float, list[float]] = {}
            for row in rows:
                if row["n"] != n or row["arm"] != arm or row[metric] is None:
                    continue
                per_rate.setdefault(row["rho"], []).append(row[metric])
            if not per_rate:
                continue
            xs = sorted(per_rate)
            ys = [sum(per_rate[x]) / len(per_rate[x]) for x in xs]
            label = f"n={n} {'CaPE' if arm == ARM_CAPE else 'early stop'}"
            series.append(Series(label=label, xs=xs, ys=ys, color=color, dashed=dashed))
    return _chart(title, "event rate", y_label, series)


def learning_curve_chart(records, title: str) -> str:
    """Per-epoch metric curves, raw at low opacity plus smoothed, with a
    vertical marker where the calibrated phase begins."""
    epochs = [r.epoch for r in records]
    metrics = [
        ("train loss", [r.train_loss for r in records]),
        ("val loss", [r.val_loss for r in records]),
        ("brier", [r.brier for r in records]),
    ]
    if all(r.kl_true is not None for r in records):
        metrics.append(("kl", [r.kl_true for r in records]))
    series = []
    for i, (name, values) in enumerate(metrics):
        color = PALETTE[i % len(PALETTE)]
        series.append(Series(f"{name} (raw)", epochs, values, color, raw=True))
        series.append(Series(name, epochs, moving_average(values), color))
    cape_epochs = [r.epoch for r in records if r.phase == CAPE_PHASE]

    def cape_start(px, py):
        if not cape_epochs:
            return []
        x = px(min(cape_epochs))
        return [
            _line(x, PLOT_TOP, x, PLOT_BOTTOM, "#555555", 1, "2,3"),
            _text(f"{x + 4:.2f}", PLOT_TOP + 14, "CaPE start", 11, extra=' fill="#555555"'),
        ]

    return _chart(title, "epoch", "value", series, marks=cape_start)


def reliability_chart(rows: list[dict], title: str) -> str:
    """Reliability diagram: per-bin (mean prediction, empirical frequency)
    points against the diagonal of perfect calibration."""

    def diagonal_and_points(px, py):
        return [_line(px(0.0), py(0.0), px(1.0), py(1.0), "#888888", 1, "4,4")] + [
            f'<circle cx="{px(row["prob_pred"]):.2f}" cy="{py(row["prob_true"]):.2f}" '
            f'r="4" fill="{PALETTE[0]}"/>'
            for row in rows
        ]

    return _chart(
        title, "mean predicted probability", "empirical frequency", [],
        box=(0.0, 1.0, 0.0, 1.0), marks=diagonal_and_points,
    )
