"""Coordinate conventions for the infinite triangular grid.

- A node is a ``TriCoord``: an ``(a, b)`` pair of integers counting unit
  steps along the E axis (``a``) and the NE axis (``b``).  Every integer
  pair is a node; each node has six neighbors (E, NE, NW, W, SW, SE).
- The origin ``(0, 0)`` is an implementation frame only.  Robots never
  observe absolute coordinates; everything a decision function sees is
  expressed in ``Label`` space.
- A ``Label`` is the robot-relative node name ``(x_elem, y_elem)`` used by
  the movement rules.  For a target at relative offset ``(da, db)``::

      x_elem = 2*da + db        y_elem = db

  The map is a bijection and ``x_elem + y_elem`` is always even.  The
  x-element orders nodes left to right (it is twice the horizontal
  Euclidean coordinate), so labels differ from lattice distance: label
  (2, 0) is the E *neighbor* of (0, 0).
"""

from __future__ import annotations

from enum import Enum

TriCoord = tuple[int, int]
Label = tuple[int, int]


class Direction(Enum):
    """One of the six unit moves, valued as its (da, db) axial offset."""

    E = (1, 0)
    NE = (0, 1)
    NW = (-1, 1)
    W = (-1, 0)
    SW = (0, -1)
    SE = (1, -1)


# Canonical direction order; bit i of a range-1 view mask is DIRECTIONS[i].
DIRECTIONS: tuple[Direction, ...] = tuple(Direction)


def neighbor(c: TriCoord, d: Direction) -> TriCoord:
    """The adjacent node one step from ``c`` in direction ``d``."""
    da, db = d.value
    return (c[0] + da, c[1] + db)


def neighbors(c: TriCoord) -> tuple[TriCoord, ...]:
    """All six adjacent nodes of ``c``, in canonical direction order."""
    a, b = c
    return (
        (a + 1, b),
        (a, b + 1),
        (a - 1, b + 1),
        (a - 1, b),
        (a, b - 1),
        (a + 1, b - 1),
    )


def distance(u: TriCoord, v: TriCoord) -> int:
    """Graph distance between two nodes (length of a shortest path)."""
    da = v[0] - u[0]
    db = v[1] - u[1]
    return (abs(da) + abs(db) + abs(da + db)) // 2


def label_of(origin: TriCoord, target: TriCoord) -> Label:
    """The label of ``target`` in the frame of a robot at ``origin``."""
    da = target[0] - origin[0]
    db = target[1] - origin[1]
    return (2 * da + db, db)


def coord_of_label(origin: TriCoord, label: Label) -> TriCoord:
    """Inverse of :func:`label_of`.

    Raises ``ValueError`` when the label's elements have odd sum, which
    no grid node carries.
    """
    x, y = label
    if (x + y) % 2:
        raise ValueError(f"invalid label {label!r}: x_elem + y_elem must be even")
    da = (x - y) // 2
    return (origin[0] + da, origin[1] + y)


def _labels_at(dist: int) -> tuple[Label, ...]:
    ring = [
        label_of((0, 0), (da, db))
        for da in range(-dist, dist + 1)
        for db in range(-dist, dist + 1)
        if distance((0, 0), (da, db)) == dist
    ]
    return tuple(sorted(ring))


# The 6 labels at distance 1 and the 12 at distance 2; together these are
# the full domain a range-2 view can mention (excluding self at (0,0)).
RANGE1_LABELS: tuple[Label, ...] = tuple(label_of((0, 0), d.value) for d in DIRECTIONS)
RANGE2_LABELS: tuple[Label, ...] = _labels_at(2)

LABEL_OFFSET: dict[Label, TriCoord] = {
    lbl: coord_of_label((0, 0), lbl) for lbl in RANGE1_LABELS + RANGE2_LABELS
}
