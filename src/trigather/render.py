"""Deterministic text and SVG views of configurations and traces.

The screen mapping places node (a, b) at column ``2a + b`` and row ``-b``,
which is exactly the x-element/row layout of the label scheme, so adjacent
rows of the triangular grid interleave like brick courses.  Both emitters
are pure functions of their inputs: identical traces give byte-identical
output.
"""

from __future__ import annotations

from .config import Configuration
from .engine import Trace

_SQRT3_HALF = 0.8660254037844386

# Bounding margin of empty lattice nodes drawn around the robots.
_MARGIN = 1
# SVG user units between adjacent lattice nodes.
_SCALE = 40.0


def _bounds(cfg: Configuration) -> tuple[int, int, int, int]:
    a_lo = min(a for a, _ in cfg) - _MARGIN
    a_hi = max(a for a, _ in cfg) + _MARGIN
    b_lo = min(b for _, b in cfg) - _MARGIN
    b_hi = max(b for _, b in cfg) + _MARGIN
    return a_lo, a_hi, b_lo, b_hi


def ascii_diagram(cfg: Configuration) -> str:
    """Robots as ``*`` and empty lattice nodes as ``.`` on interleaved rows."""
    a_lo, a_hi, b_lo, b_hi = _bounds(cfg)
    col_lo = 2 * a_lo + b_lo
    col_hi = 2 * a_hi + b_hi
    rows = []
    for b in range(b_hi, b_lo - 1, -1):
        row = [" "] * (col_hi - col_lo + 1)
        for a in range(a_lo, a_hi + 1):
            col = 2 * a + b - col_lo
            if 0 <= col < len(row):
                row[col] = "*" if (a, b) in cfg else "."
        rows.append("".join(row).rstrip())
    return "\n".join(rows)


def ascii_trace(trace: Trace) -> str:
    """The initial configuration and every recorded step as text diagrams."""
    blocks = [f"step 0 (initial)\n{ascii_diagram(trace.initial)}"]
    for i, s in enumerate(trace.steps, start=1):
        flag = "" if s.connected else "  [disconnected]"
        blocks.append(f"step {i}{flag}\n{ascii_diagram(s.robots)}")
    blocks.append(f"outcome: {trace.outcome.token()} after {len(trace.steps)} steps")
    return "\n\n".join(blocks) + "\n"


def svg_diagram(cfg: Configuration) -> str:
    """One SVG image: lattice nodes as outlines, robots as filled discs."""
    a_lo, a_hi, b_lo, b_hi = _bounds(cfg)

    def xy(a: int, b: int) -> tuple[float, float]:
        return ((a + b / 2.0) * _SCALE, -(b * _SQRT3_HALF) * _SCALE)

    corners = [xy(a, b) for a in (a_lo, a_hi) for b in (b_lo, b_hi)]
    pad = 0.6 * _SCALE
    min_x = min(x for x, _ in corners) - pad
    max_x = max(x for x, _ in corners) + pad
    min_y = min(y for _, y in corners) - pad
    max_y = max(y for _, y in corners) + pad

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{min_x:.2f} {min_y:.2f} '
        f'{max_x - min_x:.2f} {max_y - min_y:.2f}">',
        f'<rect x="{min_x:.2f}" y="{min_y:.2f}" width="{max_x - min_x:.2f}" '
        f'height="{max_y - min_y:.2f}" fill="white"/>',
    ]
    for b in range(b_hi, b_lo - 1, -1):
        for a in range(a_lo, a_hi + 1):
            x, y = xy(a, b)
            if (a, b) in cfg:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{0.34 * _SCALE:.2f}" '
                             'fill="black"/>')
            else:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{0.10 * _SCALE:.2f}" '
                             'fill="none" stroke="gray" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_trace(trace: Trace) -> list[str]:
    """One SVG document per configuration: initial first, then each step."""
    return [svg_diagram(trace.initial)] + [svg_diagram(s.robots) for s in trace.steps]
