"""Weak-type exponent formulas and the exponent region map.

For a Hoelder pair (p1, p2) with 1/p = 1/p1 + 1/p2 the weak-type
exponent is alpha = min(beta, gamma) with

  beta  = 1/p + max( min(1/p1', (1/p1') p2'/p), min(1/p2', (1/p2') p1'/p) )
  gamma = max( 1, p1'/p, p2'/p )

where gamma is the sharp strong-type exponent.  The region map samples
the open triangle {(1/p1, 1/p2) : both in (0,1), sum < 1} on a uniform
grid offset by half a step, so every sampled tuple satisfies the strict
hypotheses; in particular the two sufficient conditions for alpha < 1
(p at least (3+sqrt 5)/2, or min(p1,p2) > 4) can be checked exactly on
the sample.

One derivation, _exponents, gives beta, gamma, alpha and the two flags
to both entry points: alpha(P) at one tuple and region_map over the
sample.  Its p' is measure._conjugate, the program's only one.
region_svg renders the region table and returns the document; this module
writes no file (serialize.write_region_svg does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .measure import ExponentTuple, _conjugate

#: p at or above this makes the weak-type exponent drop below 1.
P_THRESHOLD = (3.0 + math.sqrt(5.0)) / 2.0


def _exponents(p1, p2, p) -> dict:
    """beta, gamma, alpha and the two flags, for scalars or arrays alike."""
    c1, c2 = _conjugate(p1), _conjugate(p2)
    r1 = 1.0 / c1
    r2 = 1.0 / c2
    b = 1.0 / p + np.maximum(
        np.minimum(r1, r1 * c2 / p), np.minimum(r2, r2 * c1 / p)
    )
    g = np.maximum(1.0, np.maximum(c1 / p, c2 / p))
    a = np.minimum(b, g)
    return dict(
        beta=b, gamma=g, alpha=a, weak_strictly_better=a < g, alpha_lt_1=a < 1.0
    )


@dataclass(frozen=True)
class ExponentReport:
    p1: float
    p2: float
    p: float
    beta: float
    gamma: float
    alpha: float
    weak_strictly_better: bool
    alpha_lt_1: bool


def alpha(P: ExponentTuple) -> ExponentReport:
    """The exponents at P, as Python floats and bools (json.dumps takes them)."""
    derived = _exponents(P.p1, P.p2, P.p)
    return ExponentReport(
        p1=P.p1, p2=P.p2, p=P.p, **{k: v.item() for k, v in derived.items()}
    )


@dataclass
class RegionTable:
    resolution: int
    i: np.ndarray  # grid indices, kept for rendering
    j: np.ndarray
    inv_p1: np.ndarray
    inv_p2: np.ndarray
    p: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    weak_strictly_better: np.ndarray
    alpha_lt_1: np.ndarray
    p_ge_golden: np.ndarray
    min_gt_4: np.ndarray

    def __len__(self):
        return self.inv_p1.size


#: Column order of the region table and its CSV rendering.
REGION_COLUMNS = tuple(
    f.name for f in fields(RegionTable) if f.name not in ("resolution", "i", "j")
)


def region_map(resolution: int) -> RegionTable:
    """Exponent table over the half-step-offset grid inside the triangle.

    The membership test i + j + 1 < resolution is integer-exact, so no
    float rounding can admit a boundary point with p = 1.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    idx = np.arange(resolution)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    keep = (ii + jj + 1) < resolution
    i = ii[keep].astype(np.int64)
    j = jj[keep].astype(np.int64)
    x = (i + 0.5) / resolution
    y = (j + 0.5) / resolution
    p1 = 1.0 / x
    p2 = 1.0 / y
    p = 1.0 / (x + y)
    return RegionTable(
        resolution=resolution,
        i=i,
        j=j,
        inv_p1=x,
        inv_p2=y,
        p=p,
        **_exponents(p1, p2, p),
        p_ge_golden=p >= P_THRESHOLD,
        min_gt_4=np.minimum(p1, p2) > 4.0,
    )


# ---------------------------------------------------------------------------
# deterministic SVG rendering

_SVG_PLOT = 480
_SVG_ML, _SVG_MT, _SVG_MR, _SVG_MB = 56, 16, 16, 48
_FILL_WEAK = "#b8cfe8"  # weak-type exponent strictly below strong-type
_FILL_LT1 = "#2f6db3"  # weak-type exponent below 1


def _line(x1, y1, x2, y2, stroke: str = "#000000", extra: str = "") -> str:
    """One <line> of region_svg; coordinates are written as given."""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="1"{extra}/>'
    )


def _text(x, y, size: int, anchor: str, label: str, extra: str = "") -> str:
    """One <text> of region_svg; coordinates are written as given."""
    return (
        f'<text x="{x}" y="{y}" font-size="{size}" '
        f'text-anchor="{anchor}" font-family="sans-serif"{extra}>{label}</text>'
    )


def region_svg(table: RegionTable) -> str:
    """Render the region table as a standalone SVG; byte-deterministic.

    Cells where the weak-type exponent beats the strong-type one are
    shaded light; cells where it drops below 1 are shaded dark.  An empty
    table yields the axes-only document.
    """
    res = table.resolution
    width = _SVG_ML + _SVG_PLOT + _SVG_MR
    height = _SVG_MT + _SVG_PLOT + _SVG_MB

    def px(frac: float) -> str:
        return f"{frac:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    cell = _SVG_PLOT / res if res else 0.0
    for kind, fill in ((False, _FILL_WEAK), (True, _FILL_LT1)):
        mask = table.alpha_lt_1 if kind else (
            table.weak_strictly_better & ~table.alpha_lt_1
        )
        for i, j in zip(table.i[mask], table.j[mask]):
            x = _SVG_ML + i * cell
            y = _SVG_MT + _SVG_PLOT - (j + 1) * cell
            parts.append(
                f'<rect x="{px(x)}" y="{px(y)}" width="{px(cell)}" '
                f'height="{px(cell)}" fill="{fill}"/>'
            )
    ax = _SVG_ML
    ay = _SVG_MT + _SVG_PLOT
    # frame, diagonal 1/p1 + 1/p2 = 1, ticks
    parts.append(_line(ax, ay, ax + _SVG_PLOT, ay))
    parts.append(_line(ax, ay, ax, _SVG_MT))
    parts.append(_line(ax, _SVG_MT, ax + _SVG_PLOT, ay, "#888888", ' stroke-dasharray="4,3"'))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = px(ax + frac * _SVG_PLOT)
        ty = ay - frac * _SVG_PLOT
        label = f"{frac:g}"
        parts.append(_line(tx, ay, tx, ay + 5))
        parts.append(_text(tx, ay + 18, 11, "middle", label))
        parts.append(_line(ax - 5, px(ty), ax, px(ty)))
        parts.append(_text(ax - 8, px(ty + 4), 11, "end", label))
    mid = f"{_SVG_MT + _SVG_PLOT / 2:.1f}"
    parts.append(_text(f"{ax + _SVG_PLOT / 2:.1f}", ay + 36, 13, "middle", "1/p1"))
    parts.append(_text(16, mid, 13, "middle", "1/p2", f' transform="rotate(-90 16 {mid})"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
