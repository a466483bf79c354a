"""Coordinate system: neighbors, distance, and the label bijection."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from trigather.grid import (
    DIRECTIONS,
    Direction,
    RANGE1_LABELS,
    RANGE2_LABELS,
    coord_of_label,
    distance,
    label_of,
    neighbor,
    neighbors,
)

coords = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def bfs_distance(u, v):
    """Independent oracle: breadth-first search over the neighbor relation."""
    if u == v:
        return 0
    seen = {u}
    queue = deque([(u, 0)])
    while queue:
        node, d = queue.popleft()
        for nb in neighbors(node):
            if nb == v:
                return d + 1
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, d + 1))
    raise AssertionError("grid is connected; unreachable")


def test_neighbor_unit_steps():
    assert neighbor((0, 0), Direction.E) == (1, 0)
    assert neighbor((0, 0), Direction.SE) == (1, -1)
    assert neighbor((2, -1), Direction.NW) == (1, 0)


def test_six_neighbors_distinct_and_adjacent():
    for c in [(0, 0), (3, -2), (-5, 7)]:
        ring = neighbors(c)
        assert len(set(ring)) == 6
        assert all(distance(c, nb) == 1 for nb in ring)
        assert ring == tuple(neighbor(c, d) for d in DIRECTIONS)


def test_distance_basics():
    assert distance((0, 0), (0, 0)) == 0
    assert distance((0, 0), (1, 0)) == 1
    assert distance((0, 0), (1, 1)) == 2
    assert distance((0, 0), (1, 1)) == bfs_distance((0, 0), (1, 1))


def test_distance_matches_bfs_in_window():
    for da in range(-4, 5):
        for db in range(-4, 5):
            assert distance((0, 0), (da, db)) == bfs_distance((0, 0), (da, db))


@given(coords, coords, coords)
def test_distance_is_a_metric(u, v, w):
    assert distance(u, v) == distance(v, u)
    assert (distance(u, v) == 0) == (u == v)
    assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_label_of_neighbors():
    assert label_of((0, 0), (1, 0)) == (2, 0)
    assert label_of((0, 0), (0, 1)) == (1, 1)
    assert label_of((0, 0), (2, 0)) == (4, 0)


def test_label_sets_by_distance():
    ring1 = {label_of((0, 0), t) for t in neighbors((0, 0))}
    assert ring1 == set(RANGE1_LABELS)
    assert set(RANGE1_LABELS) == {(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)}
    ring2 = {
        label_of((0, 0), (da, db))
        for da in range(-2, 3)
        for db in range(-2, 3)
        if distance((0, 0), (da, db)) == 2
    }
    assert ring2 == set(RANGE2_LABELS)
    assert set(RANGE2_LABELS) == {
        (4, 0), (3, 1), (2, 2), (0, 2), (-2, 2), (-3, 1),
        (-4, 0), (-3, -1), (-2, -2), (0, -2), (2, -2), (3, -1),
    }
    assert len(RANGE1_LABELS) == 6
    assert len(RANGE2_LABELS) == 12


def test_label_parity_invariant():
    for da in range(-5, 6):
        for db in range(-5, 6):
            x, y = label_of((0, 0), (da, db))
            assert (x + y) % 2 == 0


def test_coord_of_label_inverts():
    assert coord_of_label((0, 0), (2, 0)) == (1, 0)
    assert coord_of_label((0, 0), (-1, -1)) == (0, -1)
    assert coord_of_label((3, -2), (0, 0)) == (3, -2)


def test_coord_of_label_rejects_odd_parity():
    with pytest.raises(ValueError):
        coord_of_label((0, 0), (1, 0))
    with pytest.raises(ValueError):
        coord_of_label((2, 2), (0, 3))


@given(coords, coords)
def test_label_round_trip(origin, target):
    assert coord_of_label(origin, label_of(origin, target)) == target
