"""Distribution summaries of model scores grouped by integer gold level.

The density curve is a Gaussian KDE with Silverman's rule-of-thumb
bandwidth, evaluated on a fixed grid over [1, 4] and renormalized to unit
trapezoid integral so edge-heavy groups do not leak mass outside the score
range. Rendering is a small standalone SVG with no plotting dependency, so
output bytes are fully deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SCORE_MAX, SCORE_MIN, STAR_LEVELS

GRID_POINTS = 101

_INTEGER_EPS = 1e-9


@dataclass(frozen=True)
class ViolinGroup:
    """Summary of one integer gold level's model scores.

    ``density`` is None for constant groups, which render as a line marker.
    """

    level: int
    count: int
    median: float
    q1: float
    q3: float
    low: float
    high: float
    grid: tuple[float, ...]
    density: tuple[float, ...] | None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("empty violin group")
        if not (self.low <= self.q1 <= self.median <= self.q3 <= self.high):
            raise ValueError("order statistics out of order")
        if self.density is not None and any(d < 0 for d in self.density):
            raise ValueError("density must be non-negative")


@dataclass(frozen=True)
class ViolinSummary:
    """Violin groups keyed by gold level, plus how many articles were dropped."""

    groups: dict[int, ViolinGroup]
    discarded_non_integer: int


def silverman_bandwidth(values) -> float:
    """Silverman's rule of thumb: 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Falls back to the standard deviation when the IQR is zero; returns 0
    for constant data, which callers treat as degenerate.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 1:
        raise ValueError("bandwidth of empty data")
    sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
    if sd == 0.0:
        return 0.0
    iqr = float(np.quantile(x, 0.75) - np.quantile(x, 0.25))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def trapezoid_integral(y, x) -> float:
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


def _kde_curve(values: np.ndarray, grid: np.ndarray) -> np.ndarray | None:
    h = silverman_bandwidth(values)
    if h == 0.0:
        return None
    z = (grid[:, None] - values[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(values) * h * np.sqrt(2 * np.pi))
    mass = trapezoid_integral(density, grid)
    return density / mass


def violin_summary(scores: dict[str, float], gold_scores: dict[str, float]) -> ViolinSummary:
    """Group model scores by integer gold level and summarize each group.

    Articles whose gold score is not an integer in {1, 2, 3, 4} are
    discarded and counted. Quartiles use linear interpolation between
    order statistics.
    """
    grid = np.linspace(SCORE_MIN, SCORE_MAX, GRID_POINTS)
    grouped: dict[int, list[float]] = {}
    discarded = 0
    for art_id, gold in gold_scores.items():
        if art_id not in scores:
            continue
        level = round(gold)
        if abs(gold - level) > _INTEGER_EPS or level not in STAR_LEVELS:
            discarded += 1
            continue
        grouped.setdefault(int(level), []).append(scores[art_id])
    if not grouped:
        raise ValueError("no articles with integer gold scores")
    groups: dict[int, ViolinGroup] = {}
    for level in sorted(grouped):
        data = np.asarray(grouped[level], dtype=float)
        q1, med, q3 = np.quantile(data, [0.25, 0.5, 0.75])
        density = _kde_curve(data, grid)
        groups[level] = ViolinGroup(
            level=level,
            count=len(data),
            median=float(med),
            q1=float(q1),
            q3=float(q3),
            low=float(data.min()),
            high=float(data.max()),
            grid=tuple(float(g) for g in grid),
            density=None if density is None else tuple(float(d) for d in density),
        )
    return ViolinSummary(groups=groups, discarded_non_integer=discarded)


# --- SVG rendering -------------------------------------------------------

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 46.0
_MARGIN_BOTTOM = 54.0
_SLOT_WIDTH = 130.0
_PLOT_HEIGHT = 300.0
_HALF_WIDTH = 52.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def emit_violin_svg(summary: ViolinSummary, title: str = "Model scores by gold level") -> str:
    """Render a ViolinSummary as a standalone SVG document string.

    One violin per gold level: mirrored density outline, a median line and
    a min-max whisker. Constant groups render as a horizontal line marker.
    """
    levels = sorted(summary.groups)
    width = _MARGIN_LEFT + _SLOT_WIDTH * len(levels) + _MARGIN_RIGHT
    height = _MARGIN_TOP + _PLOT_HEIGHT + _MARGIN_BOTTOM

    def y_of(score: float) -> float:
        frac = (score - SCORE_MIN) / (SCORE_MAX - SCORE_MIN)
        return _MARGIN_TOP + _PLOT_HEIGHT * (1.0 - frac)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    parts.append(f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>')
    parts.append(
        f'<text x="{_fmt(width / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
    )
    # y axis with one tick per score level
    axis_x = _MARGIN_LEFT - 12.0
    parts.append(
        f'<line x1="{_fmt(axis_x)}" y1="{_fmt(y_of(SCORE_MAX))}" '
        f'x2="{_fmt(axis_x)}" y2="{_fmt(y_of(SCORE_MIN))}" stroke="black"/>'
    )
    for tick in STAR_LEVELS:
        ty = y_of(float(tick))
        parts.append(
            f'<line x1="{_fmt(axis_x - 4)}" y1="{_fmt(ty)}" x2="{_fmt(axis_x)}" '
            f'y2="{_fmt(ty)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(axis_x - 8)}" y="{_fmt(ty + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick}</text>'
        )
    parts.append(
        f'<text x="16" y="{_fmt(_MARGIN_TOP + _PLOT_HEIGHT / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" transform="rotate(-90 16 '
        f'{_fmt(_MARGIN_TOP + _PLOT_HEIGHT / 2)})">model score</text>'
    )
    max_density = max(
        (max(g.density) for g in summary.groups.values() if g.density is not None),
        default=1.0,
    )
    for slot, level in enumerate(levels):
        group = summary.groups[level]
        cx = _MARGIN_LEFT + _SLOT_WIDTH * (slot + 0.5)
        if group.density is None:
            y = y_of(group.median)
            parts.append(
                f'<line x1="{_fmt(cx - _HALF_WIDTH / 2)}" y1="{_fmt(y)}" '
                f'x2="{_fmt(cx + _HALF_WIDTH / 2)}" y2="{_fmt(y)}" '
                f'stroke="black" stroke-width="2"/>'
            )
        else:
            right = [
                (cx + _HALF_WIDTH * d / max_density, y_of(g))
                for g, d in zip(group.grid, group.density)
            ]
            left = [
                (cx - _HALF_WIDTH * d / max_density, y_of(g))
                for g, d in zip(reversed(group.grid), reversed(group.density))
            ]
            points = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in right + left)
            parts.append(
                f'<polygon points="{points}" fill="#9ecae9" stroke="#31708f" '
                f'stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(y_of(group.low))}" '
                f'x2="{_fmt(cx)}" y2="{_fmt(y_of(group.high))}" stroke="black"/>'
            )
            parts.append(
                f'<line x1="{_fmt(cx - _HALF_WIDTH * 0.6)}" y1="{_fmt(y_of(group.median))}" '
                f'x2="{_fmt(cx + _HALF_WIDTH * 0.6)}" y2="{_fmt(y_of(group.median))}" '
                f'stroke="black" stroke-width="2"/>'
            )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(_MARGIN_TOP + _PLOT_HEIGHT + 22)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f'{level}* (n={group.count})</text>'
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + _SLOT_WIDTH * len(levels) / 2)}" '
        f'y="{_fmt(height - 14)}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">gold level</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
