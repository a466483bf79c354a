"""Range-1 rule tables: format, constraints, and replay on the given tables and starts."""

import hashlib
import pathlib
import random
from itertools import combinations

import pytest

from rule_tables import ALL_STAY, E, NE, NW, SE, SW, W, from_moves, mask_of
from trigather import engine, range1
from trigather.config import enumerate_connected, is_connected
from trigather.engine import OutcomeKind, View, observe, trace_to_lines
from trigather.grid import (
    DIRECTIONS,
    RANGE2_LABELS,
    distance,
    label_of,
    neighbor,
)
from trigather.range1 import (
    ACTIONS,
    BUILTIN_CONFIGS,
    TABLE_SIZE,
    RuleTable,
    check_table,
    constrained_actions,
    table_from_text,
    table_to_decision,
    table_to_text,
)


def dirs_of_mask(mask):
    """The neighbor directions a range-1 mask names; inverse of ``mask_of``."""
    return frozenset(d for i, d in enumerate(DIRECTIONS) if mask & (1 << i))


ROOT = pathlib.Path(__file__).resolve().parent.parent

SE_ONLY = from_moves({frozenset({SE}): SW})
PROOF_SEED = from_moves({frozenset({SE}): SW, frozenset({NE}): NW})


def test_mask_bit_order():
    assert mask_of([E]) == 0b000001
    assert mask_of([NE]) == 0b000010
    assert mask_of([NW]) == 0b000100
    assert mask_of([W]) == 0b001000
    assert mask_of([SW]) == 0b010000
    assert mask_of([SE]) == 0b100000
    assert dirs_of_mask(0b100001) == frozenset({E, SE})


def test_table_validation():
    with pytest.raises(ValueError):
        RuleTable((None,) * 63)
    with pytest.raises(ValueError):
        RuleTable((E,) + (None,) * 63)  # all-empty view must stay


def test_table_freezes_its_actions():
    source = [None] * 64
    table = RuleTable(source)
    source[1] = E
    assert table == ALL_STAY
    assert hash(table) == hash(ALL_STAY)
    assert table.actions == (None,) * 64


def test_all_stay_table():
    decide = table_to_decision(ALL_STAY)
    assert decide(View(1, frozenset({(2, 0), (-2, 0)}))) is None


def test_table_reads_only_neighbor_labels():
    decide = table_to_decision(SE_ONLY)
    # same range-1 content, extra range-2 labels must not matter
    assert decide(View(1, frozenset({(1, -1)}))) is SW
    assert decide(View(2, frozenset({(1, -1), (4, 0), (-2, 2)}))) is SW
    assert decide(View(2, frozenset({(4, 0)}))) is None


def test_text_format_round_trip():
    table = PROOF_SEED
    text = table_to_text(table)
    assert len(text.splitlines()) == 64
    assert text.splitlines()[0] == "000000 stay"
    assert table_from_text(text) == table


def test_text_format_rejects_malformed():
    good = table_to_text(ALL_STAY).splitlines()
    with pytest.raises(ValueError):
        table_from_text("\n".join(good[:-1]))  # missing a line
    with pytest.raises(ValueError):
        table_from_text("\n".join(reversed(good)))  # wrong order
    bad = good[:]
    bad[3] = "000011 sideways"
    with pytest.raises(ValueError):
        table_from_text("\n".join(bad))
    bad = good[:]
    bad[0] = "000000 E"
    with pytest.raises(ValueError):
        table_from_text("\n".join(bad))
    for line in ("000000", "000000 stay extra"):
        with pytest.raises(ValueError, match="bad rule line"):
            table_from_text("\n".join([line, *good[1:]]))
    for mask in ("00000", "0000000", "00000x"):
        with pytest.raises(ValueError, match="bad bitmask"):
            table_from_text("\n".join([f"{mask} stay", *good[1:]]))


def test_table_rejects_actions_that_are_not_moves():
    with pytest.raises(ValueError, match="mask 000001"):
        RuleTable((None,) + ("E",) * 63)
    with pytest.raises(ValueError, match="mask 100000"):
        from_moves({frozenset({SE}): "SW"})
    with pytest.raises(ValueError, match="mask 000010"):
        from_moves({frozenset({NE}): 1})


def test_constrained_actions():
    assert constrained_actions(0) == (None,)
    flanks = {E: (NE, SE), SE: (E, SW), SW: (SE, W), W: (SW, NW), NW: (W, NE), NE: (NW, E)}
    for d, pair in flanks.items():
        assert constrained_actions(mask_of([d])) == (None,) + pair
    for d in (E, NE, NW):
        assert constrained_actions(mask_of([d, DIRECTIONS[DIRECTIONS.index(d) + 3]])) == (None,)
    bisectors = {(E, SW): SE, (SE, W): SW, (SW, NW): W, (W, NE): NW, (NW, E): NE, (NE, SE): E}
    for pair, bisector in bisectors.items():
        assert constrained_actions(mask_of(pair)) == (None, bisector)
    # a 60-degree pair is unconstrained
    assert constrained_actions(mask_of([E, NE])) == ACTIONS
    for mask in (-1, 64):
        with pytest.raises(ValueError, match="out of range"):
            constrained_actions(mask)


def test_constraint_is_adjacency_on_every_mask():
    """Constrained views allow exactly the moves keeping every neighbor adjacent."""
    for mask in range(64):
        seen = [neighbor((0, 0), d) for d in dirs_of_mask(mask)]
        allowed = constrained_actions(mask)
        adjacent_pair = any(distance(u, v) == 1 for u in seen for v in seen)
        assert (allowed == ACTIONS) == (len(seen) >= 3 or adjacent_pair), mask
        if allowed == ACTIONS or not seen:
            continue
        assert allowed[0] is None and None not in allowed[1:]
        for d in DIRECTIONS:
            keeps = all(distance(neighbor((0, 0), d), s) == 1 for s in seen)
            assert (d in allowed) == keeps, (mask, d)


def test_constrained_action_order_pinned():
    """Seeded table draws depend on each tuple's order."""
    names = [
        tuple("stay" if a is None else a.name for a in constrained_actions(m)) for m in range(64)
    ]
    digest = hashlib.sha256(repr(names).encode()).hexdigest()
    assert digest == "8dac6a488edb389da4739f9f5631a43474a9c5bf3e4319736a5ac102f8ab0b06"


def test_builtin_configs_are_connected():
    for lib in BUILTIN_CONFIGS.values():
        assert is_connected(lib.robots)
        assert lib.provenance


def _sees(cfg, robot):
    return dirs_of_mask(observe(cfg, robot, 1).mask)


@pytest.mark.parametrize(
    "name,pair", [("fig5a-diagonal", {SE, NW}), ("fig5b-diagonal", {NE, SW})]
)
def test_fig5_provenance_interior_sees_the_pair_and_endpoints_one_of_it(name, pair):
    cfg = BUILTIN_CONFIGS[name].robots
    line = sorted(cfg)
    for robot in line[1:-1]:
        assert _sees(cfg, robot) == pair
    for robot in (line[0], line[-1]):
        seen = _sees(cfg, robot)
        assert len(seen) == 1 and seen < pair


# Each prop1 witness as its provenance states it: robot -> (neighbors it sees, its move).
PROP1_WITNESSES = {
    "prop1a-geometry": {(0, 0): ({SE}, SW), (1, -2): ({NE}, NW)},
    "prop1b-geometry": {(0, 0): ({SE}, SW), (1, -1): ({NW, SW}, W)},
    "prop1c-geometry": {(0, 0): ({SE}, SW), (0, -2): ({E}, NE)},
    "prop1d-geometry": {(0, 0): ({NW, E}, NE), (0, 2): ({SE}, SW)},
}


def test_prop1a_and_prop1b_share_one_robot_set_but_witness_different_pairs():
    # a witness is a robot set plus the pair that collides; keyed by robot set alone,
    # a witness library would lose one of these two
    assert BUILTIN_CONFIGS["prop1a-geometry"].robots == BUILTIN_CONFIGS["prop1b-geometry"].robots
    assert PROP1_WITNESSES["prop1a-geometry"].keys() != PROP1_WITNESSES["prop1b-geometry"].keys()


@pytest.mark.parametrize("name", sorted(PROP1_WITNESSES))
def test_prop1_provenance_is_a_minimal_same_target_witness(name):
    cfg = BUILTIN_CONFIGS[name].robots
    witness = PROP1_WITNESSES[name]
    for robot, (seen, _) in witness.items():
        assert _sees(cfg, robot) == seen
    table = from_moves({frozenset(seen): move for seen, move in witness.values()})
    verdict = check_table(table, cfg)
    assert verdict.outcome.kind == OutcomeKind.COLLISION
    assert verdict.outcome.collision.kind == engine.CollisionKind.SAME_TARGET
    assert verdict.trace.steps == ()
    assert dict(verdict.outcome.collision.participants) == {
        robot: move for robot, (_, move) in witness.items()
    }
    for size in range(1, len(cfg)):
        for subset in map(frozenset, combinations(sorted(cfg), size)):
            if is_connected(subset):
                assert check_table(table, subset).outcome.kind != OutcomeKind.COLLISION, subset


def test_fig5_diagonals():
    fig5a = BUILTIN_CONFIGS["fig5a-diagonal"].robots
    assert fig5a == frozenset((k, -k) for k in range(7))
    fig5b = BUILTIN_CONFIGS["fig5b-diagonal"].robots
    assert fig5b == frozenset((0, k) for k in range(7))


def test_check_seed_move_alone_on_diagonal():
    # regression value frozen from the first verified run: the endpoint
    # slides southwest once, then everything is quiescent short of gathering
    verdict = check_table(SE_ONLY, BUILTIN_CONFIGS["fig5a-diagonal"].robots)
    assert verdict.outcome.kind == OutcomeKind.LIVELOCK
    assert verdict.outcome.cycle_length == 1
    assert len(verdict.trace.steps) == 1


def test_check_table_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        check_table(ALL_STAY, frozenset({(0, 0), (2, 0)}))


@pytest.mark.parametrize(
    "doc", [(ROOT / "README.md").read_text(), range1.__doc__], ids=["README.md", "range1"]
)
def test_docs_state_the_range1_failure_set(doc):
    text = " ".join(doc.split())
    assert (
        "run fails when it collides, disconnects the robots, revisits a configuration,"
        " or runs out of its step budget" in text
    )
    assert "no exhaustive check of all range-1 tables exists yet" in text


def test_table_lookup_matches_mask_on_all_patterns():
    rng = random.Random(64)
    table = RuleTable((None,) + tuple(rng.choice(ACTIONS) for _ in range(63)))
    decide = table_to_decision(table)
    for mask in range(64):
        dirs = dirs_of_mask(mask)
        occupied = frozenset(label_of((0, 0), neighbor((0, 0), d)) for d in dirs)
        expected = table.actions[mask_of(dirs)]
        assert decide(View(1, occupied)) is expected
        for _ in range(4):
            far = frozenset(rng.sample(RANGE2_LABELS, rng.randint(1, len(RANGE2_LABELS))))
            assert decide(View(2, occupied | far)) is expected
        assert decide(View(2, occupied)) is expected


# The trace lines of the seed-1 table replayed on every seven-robot start.
SEED1_REPLAY_SHA256 = "65063514c440b23820cdb3d4fbe98d856e6dde8064154ff2c9a6657ca27d1a66"


def test_replay_shares_equal_nodes_and_collisions():
    rng = random.Random(1)
    table = RuleTable(tuple(rng.choice(constrained_actions(m)) for m in range(TABLE_SIZE)))
    traces = [check_table(table, cfg).trace for cfg in enumerate_connected(7)]
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(("\n".join(trace_to_lines(trace, "range1:seed-1")) + "\n").encode())
    assert digest.hexdigest() == SEED1_REPLAY_SHA256
    nodes = [r for trace in traces for step in trace.steps for r in step.robots]
    assert len(set(map(id, nodes))) == len(set(nodes))
    collisions = [t.outcome for t in traces if t.outcome.kind == OutcomeKind.COLLISION]
    assert len(set(map(id, collisions))) == len(set(collisions))
    # Enough of both repeat that sharing is what the counts show.
    assert len(nodes) > 10 * len(set(nodes)) and len(collisions) > 5 * len(set(collisions))
