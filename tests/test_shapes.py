"""The packed shape graph against the coordinate reference: masks and one step."""

import random

import pytest

from trigather import engine
from trigather.config import MAX_ENUMERATION_SIZE, canonicalize, enumerate_connected
from trigather.engine import CollisionKind, observe
from trigather.grid import DIRECTIONS
from trigather.shapes import _REACH, ShapeGraph


@pytest.fixture(scope="module")
def graphs():
    return {n: ShapeGraph(n) for n in range(1, MAX_ENUMERATION_SIZE + 1)}


@pytest.mark.parametrize("n", range(1, 8))
def test_shapes_unpack_to_the_enumeration(graphs, n):
    graph = graphs[n]
    shapes = enumerate_connected(n)
    assert [graph.shape(idx) for idx in range(len(graph))] == shapes
    assert all(graph.index[keys] == idx for idx, keys in enumerate(graph.keys))


@pytest.mark.parametrize("n", range(1, MAX_ENUMERATION_SIZE + 1))
def test_masks_equal_observe_at_both_ranges(graphs, n):
    graph = graphs[n]
    # every 5th of the 16689 8-robot shapes, to keep the test short
    for idx in range(0, len(graph), 5 if n == MAX_ENUMERATION_SIZE else 1):
        cfg = graph.shape(idx)
        for visibility in (1, 2):
            expected = [observe(cfg, robot, visibility).mask for robot in sorted(cfg)]
            assert graph.masks(idx, visibility) == expected


def test_key_offsets_within_the_largest_shapes_index_the_mask_table(graphs):
    # a negative index would wrap round the table silently
    offsets = {
        other - key
        for keys in graphs[MAX_ENUMERATION_SIZE].keys
        for key in keys
        for other in keys
    }
    assert -_REACH <= min(offsets) and max(offsets) <= _REACH


@pytest.mark.parametrize("n", range(1, 8))
def test_step_equals_settle_on_random_moves(graphs, n):
    graph = graphs[n]
    index = {cfg: idx for idx, cfg in enumerate(enumerate_connected(n))}
    rng = random.Random(n)
    kinds = set()
    for idx in range(len(graph)):
        cfg = graph.shape(idx)
        for _ in range(8):
            # mostly stays, so that successors are often connected
            moves = tuple(rng.choice(DIRECTIONS) if rng.random() < 0.3 else None for _ in cfg)
            result = engine.settle(cfg, moves)
            # step gives the index of settle's successor if it is enumerated, else None
            if isinstance(result, engine.Outcome):
                expected = None
                kinds.add(result.token())
            else:
                expected = nxt = index.get(canonicalize(result))
                kinds.add("disconnected" if nxt is None else "connected")
            assert graph.step(idx, moves) == expected
    if n >= 4:
        assert {
            "connected",
            "disconnected",
            "livelock:1",
            f"collision:{CollisionKind.SWAP}",
            f"collision:{CollisionKind.MOVE_ONTO_STATIONARY}",
            f"collision:{CollisionKind.SAME_TARGET}",
        } <= kinds
