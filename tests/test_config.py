"""Configurations: predicates, canonical form, enumeration, file payload."""

from itertools import combinations

import pytest

from oracles import check_fixed_polyhexes, union_find_connected
from trigather.config import (
    KEY_STRIDE,
    MAX_ENUMERATION_SIZE,
    canonicalize,
    config_from_json,
    config_to_json,
    enumerate_connected,
    enumerate_keys,
    gathered_hexagon,
    is_connected,
    is_gathered,
    key_of,
    make_configuration,
    node_of,
    translate,
    unpack,
)
from trigather.grid import neighbors

SE_LINE = frozenset((k, -k) for k in range(7))


def test_make_configuration_rejects_bad_input():
    with pytest.raises(ValueError):
        make_configuration([])
    with pytest.raises(ValueError):
        make_configuration([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        make_configuration([(0.5, 1)])


def test_make_configuration_rejects_bool_coordinates():
    with pytest.raises(ValueError):
        make_configuration([(True, 0)])


def test_is_connected():
    assert is_connected(frozenset({(0, 0)}))
    assert is_connected(SE_LINE)
    assert not is_connected(frozenset({(0, 0), (2, 0)}))
    with pytest.raises(ValueError, match="empty"):
        is_connected(frozenset())


def test_is_connected_matches_union_find_on_disc_subsets():
    disc2 = [
        (da, db)
        for da in range(-2, 3)
        for db in range(-2, 3)
        if max(abs(da), abs(db), abs(da + db)) <= 2
    ]
    assert len(disc2) == 19
    verdicts = []
    for size in range(1, 6):
        for cells in combinations(disc2, size):
            expected = union_find_connected(cells)
            assert is_connected(frozenset(cells)) == expected, cells
            verdicts.append(expected)
    assert len(verdicts) == 16663
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_is_gathered():
    assert is_gathered(gathered_hexagon())
    assert is_gathered(translate(gathered_hexagon(), (4, -7)))
    assert not is_gathered(SE_LINE)
    ring_only = frozenset(neighbors((0, 0)))
    assert not is_gathered(ring_only)


def test_gathered_iff_canonical_hexagon():
    hexes = [c for c in enumerate_connected(7) if is_gathered(c)]
    assert hexes == [canonicalize(gathered_hexagon())]


def test_canonicalize():
    assert canonicalize(frozenset({(5, 5)})) == frozenset({(0, 0)})
    assert canonicalize(frozenset({(1, 0), (2, 0)})) == frozenset({(0, 0), (1, 0)})
    with pytest.raises(ValueError, match="empty"):
        canonicalize(frozenset())
    for cfg in enumerate_connected(4)[::7]:
        moved = translate(cfg, (-3, 9))
        assert canonicalize(moved) == cfg
        assert canonicalize(canonicalize(moved)) == canonicalize(moved)


def test_enumerate_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_connected(0)
    with pytest.raises(ValueError):
        enumerate_connected(9)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_is_every_fixed_polyhex_once_in_order(n):
    check_fixed_polyhexes(n, enumerate_connected(n))


def test_keys_pack_nodes_in_order_within_the_enumeration_bound():
    # A connected n-shape spans at most n - 1 along b and one step adds at
    # most 2, so |b| stays below KEY_STRIDE // 2 for every node and offset of
    # every enumerated shape and of its successors.
    assert MAX_ENUMERATION_SIZE + 1 < KEY_STRIDE // 2
    span = range(-(MAX_ENUMERATION_SIZE + 1), MAX_ENUMERATION_SIZE + 2)
    nodes = [(a, b) for a in span for b in span]
    keys = [key_of(node) for node in nodes]
    assert [node_of(k) for k in keys] == nodes
    assert sorted(keys) == [k for _, k in sorted(zip(nodes, keys))]
    for u, ku in zip(nodes[::7], keys[::7]):
        for v, kv in zip(nodes, keys):
            assert node_of(kv - ku) == (v[0] - u[0], v[1] - u[1])


def test_enumerated_keys_are_canonical_and_unpack_to_shared_nodes():
    for n in range(1, 8):
        shapes = enumerate_keys(n)
        assert shapes == sorted(shapes)
        for keys in shapes:
            assert keys[0] == 0 and list(keys) == sorted(set(keys))
            assert all(abs(b) < n for _, b in unpack(keys))
    nodes = {id(node) for keys in enumerate_keys(5) for node in unpack(keys)}
    assert len(nodes) == len({node for keys in enumerate_keys(5) for node in unpack(keys)})


def test_config_json_round_trip():
    cfg = frozenset({(2, -1), (3, -1), (2, 0)})
    text = config_to_json(cfg)
    again = config_from_json(text)
    assert again == canonicalize(cfg)
    assert config_to_json(again) == config_to_json(cfg)
    # keys other than "robots" are ignored
    assert config_from_json('{"robots": [[0, 0], [1, 0]], "extra": 1}') == {(0, 0), (1, 0)}


def test_config_json_rejects_duplicates_and_malformed():
    with pytest.raises(ValueError):
        config_from_json('{"robots": [[0, 0], [0, 0]]}')
    with pytest.raises(ValueError):
        config_from_json('{"robots": [[0, 0], [1]]}')
    with pytest.raises(ValueError):
        config_from_json('{"robots": "nope"}')
    with pytest.raises(ValueError):
        config_from_json('[1, 2]')
    with pytest.raises(ValueError):
        config_from_json('not json')
    with pytest.raises(ValueError):
        config_from_json('{"robots": [[0.5, 0], [1, 0]]}')
    with pytest.raises(ValueError, match="not valid JSON"):
        config_from_json('{"robots": ' + "[" * 5000 + "]" * 5000 + "}")


def test_config_json_rejects_bool_coordinates():
    with pytest.raises(ValueError):
        config_from_json('{"robots": [[true, 0], [false, 0]]}')
