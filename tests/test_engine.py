"""FSYNC execution: views, collisions, runs, trace serialization."""

import pytest

from trigather import engine
from trigather.config import canonicalize, enumerate_connected, gathered_hexagon, translate
from trigather.engine import (
    CollisionKind,
    Outcome,
    OutcomeKind,
    View,
    compute_decisions,
    observe,
    run,
    settle,
    trace_to_lines,
)
from trigather.gather2 import decide_move
from trigather.grid import Direction, distance, label_of, neighbor
from trigather.range1 import BUILTIN_CONFIGS, RuleTable, mask_of, table_to_decision

E, NE, NW, W, SW, SE = (
    Direction.E, Direction.NE, Direction.NW, Direction.W, Direction.SW, Direction.SE,
)

SE_LINE = frozenset((k, -k) for k in range(7))


def all_stay(view):
    return None


def table(moves):
    return table_to_decision(RuleTable.from_moves(moves))


def test_view_validation():
    with pytest.raises(ValueError):
        View(3, frozenset())
    for visibility in (True, 1.0):
        with pytest.raises(ValueError, match="must be 1 or 2"):
            View(visibility, frozenset())
    with pytest.raises(ValueError):
        View(1, frozenset({(4, 0)}))  # a range-2 label in a range-1 view
    v = View(1, frozenset({(2, 0)}))
    assert (2, 0) in v.occupied and (-2, 0) not in v.occupied


def test_view_built_from_a_set_is_frozen_and_decides_alike():
    loose = View(2, {(2, 0), (3, 1)})
    exact = View(2, frozenset({(2, 0), (3, 1)}))
    assert type(loose.occupied) is frozenset
    assert loose == exact and hash(loose) == hash(exact) and loose.mask == exact.mask
    assert decide_move(loose) is decide_move(exact)


def test_observe_single_neighbor():
    v = observe(frozenset({(0, 0), (1, 0)}), (0, 0), 1)
    assert v.occupied == {(2, 0)}


def test_observe_requires_membership():
    with pytest.raises(ValueError):
        observe(frozenset({(0, 0)}), (5, 5), 1)


def test_observe_rejects_bad_visibility():
    with pytest.raises(ValueError):
        observe(frozenset({(0, 0)}), (0, 0), 3)
    with pytest.raises(ValueError):
        observe(frozenset({(0, 0)}), (0, 0), 0)
    for visibility in (True, 1.0):
        with pytest.raises(ValueError, match="must be 1 or 2"):
            observe(frozenset({(0, 0)}), (0, 0), visibility)


def test_observe_matches_labelled_reference_and_interns_views():
    interned = {}
    for cfg in enumerate_connected(7):
        for robot in cfg:
            for visibility in (1, 2):
                view = observe(cfg, robot, visibility)
                expected = frozenset(
                    label_of(robot, other)
                    for other in cfg
                    if other != robot and distance(robot, other) <= visibility
                )
                assert view.visibility == visibility
                assert view.occupied == expected
                assert interned.setdefault((visibility, expected), view) is view
                assert engine._VIEWS[visibility][view.mask] is view
                assert View(visibility, view.occupied).mask == view.mask
                near = [d for d in Direction if neighbor(robot, d) in cfg]
                assert view.mask & 0b111111 == mask_of(near)
    assert len([v for v, _ in interned if v == 1]) == 63  # all but the empty view


def test_view_of_returns_the_view_observe_interns():
    hexa = gathered_hexagon()
    for visibility in (1, 2):
        view = observe(hexa, (0, 0), visibility)
        assert engine.view_of(view.mask, visibility) is view
    assert engine.view_of(0b101, 1).occupied == {(2, 0), (-1, 1)}
    with pytest.raises(ValueError, match="outside visibility range 1"):
        engine.view_of(1 << 6, 1)
    with pytest.raises(ValueError, match="must be 1 or 2"):
        engine.view_of(0, 3)


def test_observe_gathered_center():
    hexa = gathered_hexagon()
    v = observe(hexa, (0, 0), 2)
    assert v.occupied == {(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)}


def test_observe_two_ring_layout():
    cfg = frozenset({(0, 0), (1, 0), (0, -1), (0, 1), (2, 0), (1, 1)})
    near = observe(cfg, (0, 0), 1)
    assert near.occupied == {(2, 0), (-1, -1), (1, 1)}
    far = observe(cfg, (0, 0), 2)
    assert far.occupied == {(2, 0), (-1, -1), (1, 1), (4, 0), (3, 1)}


def test_step_swap_collision():
    cfg = frozenset({(0, 0), (1, 0)})
    out = settle(cfg, compute_decisions(cfg, table({frozenset({E}): E, frozenset({W}): W}), 1))
    assert out.kind == OutcomeKind.COLLISION
    assert out.collision.kind == CollisionKind.SWAP
    assert out.collision.participants == (((0, 0), E), ((1, 0), W))


def test_step_move_onto_stationary():
    cfg = frozenset({(0, 0), (1, 0)})
    out = settle(cfg, compute_decisions(cfg, table({frozenset({E}): E}), 1))
    assert out.kind == OutcomeKind.COLLISION
    assert out.collision.kind == CollisionKind.MOVE_ONTO_STATIONARY
    assert out.collision.participants == (((0, 0), E), ((1, 0), None))


def test_step_same_target():
    cfg = frozenset({(0, 0), (1, -1), (1, -2)})
    out = settle(cfg, compute_decisions(cfg, table({frozenset({SE}): SW, frozenset({NE}): NW}), 1))
    assert out.kind == OutcomeKind.COLLISION
    assert out.collision.kind == CollisionKind.SAME_TARGET
    assert out.collision.participants == (((0, 0), SW), ((1, -2), NW))


def test_step_vacate_and_enter_is_legal():
    cfg = frozenset({(0, 0), (1, 0)})
    out = settle(cfg, compute_decisions(cfg, table({frozenset({E}): E, frozenset({W}): E}), 1))
    assert out == frozenset({(1, 0), (2, 0)})


def test_step_all_stay_line_is_livelock_1():
    out = settle(SE_LINE, compute_decisions(SE_LINE, all_stay, 1))
    assert out == Outcome(OutcomeKind.LIVELOCK, cycle_length=1)


def test_run_gathered_hexagon_zero_steps():
    tr = run(gathered_hexagon(), decide_move, 2)
    assert tr.outcome.kind == OutcomeKind.GATHERED
    assert tr.steps == ()


def test_run_all_stay_line_is_livelock_1():
    tr = run(SE_LINE, all_stay, 1)
    assert tr.outcome.kind == OutcomeKind.LIVELOCK
    assert tr.outcome.cycle_length == 1
    assert tr.steps == ()


def test_run_se_line_gathers_in_17_steps():
    # regression value frozen from the first verified run
    tr = run(SE_LINE, decide_move, 2)
    assert tr.outcome.kind == OutcomeKind.GATHERED
    assert len(tr.steps) == 17
    assert tr.min_connected


def test_gathered_outcome_implies_quiescent_gathered_final():
    from trigather.config import is_gathered

    tr = run(SE_LINE, decide_move, 2)
    assert is_gathered(tr.final)
    assert settle(tr.final, compute_decisions(tr.final, decide_move, 2)) == Outcome(
        OutcomeKind.GATHERED
    )


def test_run_rejects_disconnected_start():
    with pytest.raises(ValueError):
        run(frozenset({(0, 0), (3, 3)}), all_stay, 1)


def test_run_step_limit():
    # cap the budget below the known 17-step gathering time
    tr = run(SE_LINE, decide_move, 2, max_steps=5)
    assert tr.outcome.kind == OutcomeKind.STEP_LIMIT
    assert len(tr.steps) == 5
    with pytest.raises(ValueError, match="max_steps must be positive"):
        run(SE_LINE, decide_move, 2, max_steps=0)


def test_run_detects_translation_livelock():
    # the whole pair shifts northeast each step: canonical form repeats at once
    shift = table({frozenset({E}): NE, frozenset({W}): NE})
    tr = run(frozenset({(0, 0), (1, 0)}), shift, 1, max_steps=25)
    assert tr.outcome.kind == OutcomeKind.LIVELOCK
    assert tr.outcome.cycle_length == 1
    assert len(tr.steps) == 1


def test_run_determinism():
    a = run(SE_LINE, decide_move, 2)
    b = run(SE_LINE, decide_move, 2)
    assert a == b


def test_run_translation_equivariance():
    offset = (11, -4)
    a = run(SE_LINE, decide_move, 2)
    b = run(translate(SE_LINE, offset), decide_move, 2)
    assert a.outcome == b.outcome
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert translate(sa.robots, offset) == sb.robots
        assert sa.decisions == sb.decisions
        assert sa.connected == sb.connected


def test_run_disconnection_is_terminal():
    # lone mover walks away from its partner: disconnected after one step
    leave = table({frozenset({W}): E})
    tr = run(frozenset({(0, 0), (1, 0)}), leave, 1)
    assert tr.outcome.kind == OutcomeKind.DISCONNECTED
    assert not tr.steps[-1].connected
    assert not tr.min_connected


def test_livelock_cycle_resimulates():
    # all stay: one more cycle of the final configuration is the same livelock
    tr = run(SE_LINE, all_stay, 1)
    assert settle(tr.final, compute_decisions(tr.final, all_stay, 1)) == tr.outcome
    # the pair drifts northeast: cycle_length more cycles repeat its shape
    shift = table({frozenset({E}): NE, frozenset({W}): NE})
    tr = run(frozenset({(0, 0), (1, 0)}), shift, 1)
    state = tr.final
    for _ in range(tr.outcome.cycle_length):
        state = settle(state, compute_decisions(state, shift, 1))
    assert canonicalize(state) == canonicalize(tr.final) and state != tr.final


# Exact trace bytes: key order, separators and field names are the format.
GOLDEN_TRACES = {
    "gathered": (
        gathered_hexagon(), decide_move, 2, "gather2-v1",
        ['{"algorithm":"gather2-v1","range":2,'
         '"robots":[[-1,0],[-1,1],[0,-1],[0,0],[0,1],[1,-1],[1,0]],"type":"header"}',
         '{"outcome":"gathered","steps":0,"type":"trailer"}'],
    ),
    "step": (
        frozenset({(0, 0), (1, 0)}), table({frozenset({W}): E}), 1, "range1:leave",
        ['{"algorithm":"range1:leave","range":1,"robots":[[0,0],[1,0]],"type":"header"}',
         '{"connected":false,"decisions":["stay","E"],"index":1,'
         '"robots":[[0,0],[2,0]],"type":"step"}',
         '{"outcome":"disconnected","steps":1,"type":"trailer"}'],
    ),
    "collision": (
        BUILTIN_CONFIGS["prop1a-geometry"].robots,
        table({frozenset({SE}): SW, frozenset({NE}): NW}), 1, "range1:test",
        ['{"algorithm":"range1:test","range":1,"robots":[[0,0],[1,-2],[1,-1]],"type":"header"}',
         '{"collision":{"kind":"same-target","participants":[[[0,0],"SW"],[[1,-2],"NW"]]},'
         '"outcome":"collision","steps":0,"type":"trailer"}'],
    ),
    "livelock": (
        SE_LINE, all_stay, 1, "all-stay",
        ['{"algorithm":"all-stay","range":1,'
         '"robots":[[0,0],[1,-1],[2,-2],[3,-3],[4,-4],[5,-5],[6,-6]],"type":"header"}',
         '{"cycle_length":1,"outcome":"livelock","steps":0,"type":"trailer"}'],
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRACES))
def test_trace_to_lines_golden(case):
    cfg, decide, visibility, algorithm, expected = GOLDEN_TRACES[case]
    assert trace_to_lines(run(cfg, decide, visibility), algorithm) == expected


def test_decisions_are_in_sorted_robot_order():
    cfg = translate(SE_LINE, (3, -5))
    decisions = engine.compute_decisions(cfg, decide_move, 2)
    assert list(decisions) == sorted(cfg)
    assert run(cfg, decide_move, 2).steps[0].decisions == tuple(decisions.values())
