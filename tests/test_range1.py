"""Range-1 rule tables: format, constraints, and replay on the given tables and starts."""

import hashlib
import pathlib
import random
from itertools import combinations

import pytest

from trigather import engine, range1
from trigather.config import canonicalize, is_connected
from trigather.engine import OutcomeKind, View, observe
from trigather.grid import (
    DIRECTIONS,
    RANGE2_LABELS,
    Direction,
    distance,
    label_of,
    neighbor,
    neighbors,
    opposite,
)
from trigather.range1 import (
    ACTIONS,
    BUILTIN_CONFIGS,
    RuleTable,
    check_table,
    constrained_actions,
    dirs_of_mask,
    mask_of,
    satisfies_constraints,
    table_from_text,
    table_to_decision,
    table_to_text,
)

E, NE, NW, W, SW, SE = (
    Direction.E, Direction.NE, Direction.NW, Direction.W, Direction.SW, Direction.SE,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

SE_ONLY = RuleTable.from_moves({frozenset({SE}): SW})
PROOF_SEED = RuleTable.from_moves({frozenset({SE}): SW, frozenset({NE}): NW})


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
        RuleTable((Direction.E,) + (None,) * 63)  # all-empty view must stay


def test_table_freezes_its_actions():
    source = [None] * 64
    table = RuleTable(source)
    source[1] = Direction.E
    assert table == RuleTable.all_stay()
    assert hash(table) == hash(RuleTable.all_stay())
    assert table.actions == (None,) * 64


def test_all_stay_table():
    decide = table_to_decision(RuleTable.all_stay())
    assert decide(View(1, frozenset({(2, 0), (-2, 0)}))) is None


def test_table_reads_only_neighbor_labels():
    decide = table_to_decision(SE_ONLY)
    # same range-1 content, extra range-2 labels must not matter
    assert decide(View(1, frozenset({(1, -1)}))) is SW
    assert decide(View(2, frozenset({(1, -1), (4, 0), (-2, 2)}))) is SW
    assert decide(View(2, frozenset({(4, 0)}))) is None


def test_opposite_pair_view_stays_under_constraints():
    table = RuleTable.all_stay()
    decide = table_to_decision(table)
    assert decide(View(1, frozenset({(2, 0), (-2, 0)}))) is None
    assert satisfies_constraints(table)


def test_text_format_round_trip():
    table = PROOF_SEED
    text = table_to_text(table)
    assert len(text.splitlines()) == 64
    assert text.splitlines()[0] == "000000 stay"
    assert table_from_text(text) == table


def test_text_format_rejects_malformed():
    good = table_to_text(RuleTable.all_stay()).splitlines()
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


def test_table_rejects_actions_that_are_not_moves():
    with pytest.raises(ValueError, match="mask 000001"):
        RuleTable((None,) + ("E",) * 63)
    with pytest.raises(ValueError, match="mask 100000"):
        RuleTable.from_moves({frozenset({SE}): "SW"})
    with pytest.raises(ValueError, match="mask 000010"):
        RuleTable.from_moves({frozenset({NE}): 1})


def test_constrained_actions():
    assert constrained_actions(0) == (None,)
    flanks = {E: (NE, SE), SE: (E, SW), SW: (SE, W), W: (SW, NW), NW: (W, NE), NE: (NW, E)}
    for d, pair in flanks.items():
        assert constrained_actions(mask_of([d])) == (None,) + pair
    for d in (E, NE, NW):
        assert constrained_actions(mask_of([d, opposite(d)])) == (None,)
    bisectors = {(E, SW): SE, (SE, W): SW, (SW, NW): W, (W, NE): NW, (NW, E): NE, (NE, SE): E}
    for pair, bisector in bisectors.items():
        assert constrained_actions(mask_of(pair)) == (None, bisector)
    # a 60-degree pair is unconstrained
    assert constrained_actions(mask_of([E, NE])) == ACTIONS
    for mask in (-1, 64):
        with pytest.raises(ValueError, match="out of range"):
            constrained_actions(mask)


def test_single_neighbor_flanks_keep_neighbor_adjacent():
    for d in DIRECTIONS:
        stay, *flanks = constrained_actions(mask_of([d]))
        assert stay is None and len(flanks) == 2
        anchor = neighbor((0, 0), d)
        for f in flanks:
            assert neighbor((0, 0), f) in neighbors(anchor)


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
    table = RuleTable.from_moves({frozenset(seen): move for seen, move in witness.values()})
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


def test_check_all_stay_on_diagonal_is_livelock_1():
    verdict = check_table(RuleTable.all_stay(), BUILTIN_CONFIGS["fig5a-diagonal"].robots)
    assert verdict.outcome.kind == OutcomeKind.LIVELOCK
    assert verdict.outcome.cycle_length == 1


def test_check_proof_seed_collides_on_prop1a():
    verdict = check_table(PROOF_SEED, BUILTIN_CONFIGS["prop1a-geometry"].robots)
    assert verdict.outcome.kind == OutcomeKind.COLLISION
    assert verdict.outcome.collision.kind == engine.CollisionKind.SAME_TARGET


@pytest.mark.parametrize(
    "name,moves",
    [
        ("prop1b-geometry", {frozenset({SE}): SW, frozenset({NW, SW}): W}),
        ("prop1c-geometry", {frozenset({SE}): SW, frozenset({E}): NE}),
        ("prop1d-geometry", {frozenset({SE}): SW, frozenset({NW, E}): NE}),
    ],
)
def test_check_prohibited_companions_collide(name, moves):
    verdict = check_table(RuleTable.from_moves(moves), BUILTIN_CONFIGS[name].robots)
    assert verdict.outcome.kind == OutcomeKind.COLLISION
    assert verdict.outcome.collision.kind == engine.CollisionKind.SAME_TARGET


def test_check_seed_move_alone_on_diagonal():
    # regression value frozen from the first verified run: the endpoint
    # slides southwest once, then everything is quiescent short of gathering
    verdict = check_table(SE_ONLY, BUILTIN_CONFIGS["fig5a-diagonal"].robots)
    assert verdict.outcome.kind == OutcomeKind.LIVELOCK
    assert verdict.outcome.cycle_length == 1
    assert len(verdict.trace.steps) == 1


def test_check_table_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        check_table(RuleTable.all_stay(), frozenset({(0, 0), (2, 0)}))


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


def random_connected(rng, n):
    cells = [(0, 0)]
    while len(cells) < n:
        seed = rng.choice(cells)
        nb = rng.choice(neighbors(seed))
        if nb not in cells:
            cells.append(nb)
    return frozenset(cells)


def random_constrained_table(rng):
    return RuleTable(tuple(rng.choice(constrained_actions(m)) for m in range(64)))


def test_fuzz_opposite_pair_robots_never_move():
    """The opposite-pair constraint holds end to end through the engine."""
    rng = random.Random(0xC0FFEE)
    opposite_masks = {
        frozenset({E, W}), frozenset({NE, SW}), frozenset({NW, SE}),
    }
    checked = 0
    for _ in range(1000):
        cfg = random_connected(rng, rng.randint(2, 7))
        table = random_constrained_table(rng)
        assert satisfies_constraints(table)
        decide = table_to_decision(table)
        for robot in cfg:
            view = observe(cfg, robot, 1)
            dirs = frozenset(
                d for d in DIRECTIONS if neighbor(robot, d) in cfg
            )
            if dirs in opposite_masks:
                assert decide(view) is None
                checked += 1
    assert checked > 100  # the fuzz actually exercised opposite-pair views
