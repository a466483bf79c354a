"""FSYNC execution: views, collisions, runs, trace serialization."""

import importlib.util
import random
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from rule_tables import E, NE, NW, SE, SW, W, mask_of, stay, table
from trigather import engine
from trigather.config import canonicalize, enumerate_connected, gathered_hexagon, translate
from trigather.engine import (
    CollisionKind,
    CollisionReport,
    Outcome,
    OutcomeKind,
    TraceStep,
    View,
    compute_decisions,
    observe,
    run,
    settle,
    trace_to_lines,
)
from trigather.gather2 import decide_move
from trigather.grid import DIRECTIONS, Direction, distance, label_of, neighbor
from trigather.range1 import BUILTIN_CONFIGS

SE_LINE = frozenset((k, -k) for k in range(7))


def _load_reference():
    """The benchmark's reference simulator, which imports nothing from trigather."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def test_view_validation():
    with pytest.raises(ValueError):
        View(3, frozenset())
    for visibility in (True, 1.0):
        with pytest.raises(ValueError, match="must be 1 or 2"):
            View(visibility, frozenset())
    with pytest.raises(ValueError):
        View(1, frozenset({(4, 0)}))  # a range-2 label in a range-1 view
    with pytest.raises(ValueError, match="outside visibility range 2"):
        View(2, frozenset({(6, 0)}))  # three steps away
    v = View(1, frozenset({(2, 0)}))
    assert (2, 0) in v.occupied and (-2, 0) not in v.occupied


def test_view_built_from_a_set_is_frozen_and_decides_alike():
    loose = View(2, {(2, 0), (3, 1)})
    exact = View(2, frozenset({(2, 0), (3, 1)}))
    assert type(loose.occupied) is frozenset and loose.occupied == {(2, 0), (3, 1)}
    assert loose == exact and hash(loose) == hash(exact) and loose.mask == exact.mask
    assert decide_move(loose) is decide_move(exact)
    interned = engine.view_of(exact.mask, 2)
    assert interned == exact and hash(interned) == hash(exact)
    assert exact != View(1, {(2, 0)}) and exact != View(2, {(2, 0)})
    for attr, value in (("mask", 0), ("visibility", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(exact, attr, value)
    # On Python 3.11 a frozen slots dataclass raises TypeError for a name
    # that is not a field: its __setattr__ calls super() with the class it
    # had before slots were added.
    with pytest.raises((AttributeError, TypeError)):
        exact.occupied = frozenset()
    assert exact.occupied == {(2, 0), (3, 1)}


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
                occupied = view.occupied
                assert occupied == expected
                assert interned.setdefault((visibility, expected), view) is view
                assert engine._VIEWS[visibility][view.mask] is view
                assert View(visibility, occupied).mask == view.mask
                near = [d for d in Direction if neighbor(robot, d) in cfg]
                assert view.mask & 0b111111 == mask_of(near)
    assert len([v for v, _ in interned if v == 1]) == 63  # all but the empty view


def test_view_of_returns_the_view_observe_interns():
    hexa = gathered_hexagon()
    for visibility in (1, 2):
        view = observe(hexa, (0, 0), visibility)
        assert engine.view_of(view.mask, visibility) == view  # equal, but not interned
    assert engine.view_of(0b101, 1).occupied == {(2, 0), (-1, 1)}
    with pytest.raises(ValueError, match="outside visibility range 1"):
        engine.view_of(1 << 6, 1)
    with pytest.raises(ValueError, match="must be 1 or 2"):
        engine.view_of(0, 3)


def test_run_se_line_gathers_in_17_steps():
    # regression value frozen from the first verified run
    tr = run(SE_LINE, decide_move, 2)
    assert tr.outcome.kind == OutcomeKind.GATHERED
    assert len(tr.steps) == 17
    assert all(s.connected for s in tr.steps)


def test_gathered_outcome_implies_quiescent_gathered_final():
    from trigather.config import is_gathered

    final = run(SE_LINE, decide_move, 2).steps[-1].robots
    assert is_gathered(final)
    assert settle(final, compute_decisions(final, decide_move, 2)) == Outcome(
        OutcomeKind.GATHERED
    )


def test_run_rejects_disconnected_start():
    with pytest.raises(ValueError):
        run(frozenset({(0, 0), (3, 3)}), stay, 1)


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


def _stream(*cycles):
    """``cycles``, then a failure: ``record`` draws no cycle past the one that ends the run."""
    yield from cycles
    raise AssertionError("record drew a cycle after the one that ends the run")


PAIR = frozenset({(0, 0), (1, 0)})
_NE_PAIR = TraceStep((), frozenset({(0, 0), (0, 1)}), True)
_NW_PAIR = TraceStep((), frozenset({(0, 0), (-1, 1)}), True)
_PAIR_AGAIN = TraceStep((), translate(PAIR, (3, 3)), True)
_SPLIT = TraceStep((), frozenset({(0, 0), (2, 0)}), False)
_SWAP = Outcome(
    OutcomeKind.COLLISION,
    collision=CollisionReport(CollisionKind.SWAP, (((0, 0), E), ((1, 0), W))),
)
_LIVELOCK_2 = Outcome(OutcomeKind.LIVELOCK, cycle_length=2)
# case -> (cycles, max_steps, outcome); every recorded cycle is a step of the trace
RECORD_CASES = {
    "collision-payload": ((_NE_PAIR, _SWAP), 5, _SWAP),
    "disconnected-step-kept": ((_NE_PAIR, _SPLIT), 5, Outcome(OutcomeKind.DISCONNECTED)),
    "livelock-on-a-translate": ((_NE_PAIR, _PAIR_AGAIN), 5, _LIVELOCK_2),
    "livelock-on-the-last-step": ((_NE_PAIR, _PAIR_AGAIN), 2, _LIVELOCK_2),
    "step-limit": ((_NE_PAIR, _NW_PAIR), 2, Outcome(OutcomeKind.STEP_LIMIT)),
    "no-steps-allowed": ((), 0, ValueError),
}


@pytest.mark.parametrize("case", RECORD_CASES)
def test_record_ends_each_stream_by_the_documented_rule(case):
    cycles, max_steps, outcome = RECORD_CASES[case]
    if outcome is ValueError:  # raised before the first cycle is drawn
        with pytest.raises(ValueError, match="max_steps must be positive"):
            engine.record(PAIR, 1, _stream(*cycles), max_steps)
        return
    trace = engine.record(PAIR, 1, _stream(*cycles), max_steps)
    assert trace.outcome == outcome
    assert trace.steps == tuple(c for c in cycles if isinstance(c, TraceStep))
    assert (trace.initial, trace.visibility) == (PAIR, 1)


def test_livelock_cycle_resimulates():
    # all stay: one more cycle of the final configuration is the same livelock
    tr = run(SE_LINE, stay, 1)
    assert tr.steps == ()  # the start is the final configuration
    assert settle(tr.initial, compute_decisions(tr.initial, stay, 1)) == tr.outcome
    # the pair drifts northeast: cycle_length more cycles repeat its shape
    shift = table({frozenset({E}): NE, frozenset({W}): NE})
    tr = run(frozenset({(0, 0), (1, 0)}), shift, 1)
    final = state = tr.steps[-1].robots
    for _ in range(tr.outcome.cycle_length):
        state = settle(state, compute_decisions(state, shift, 1))
    assert canonicalize(state) == canonicalize(final) and state != final


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
        SE_LINE, stay, 1, "all-stay",
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


def _reference_settle(cfg, moves):
    """``settle``'s result as the reference states it: an outcome token with
    named participants, or ``("ok", successor)``."""
    named = {r: None if m is None else m.name for r, m in moves.items()}
    if all(m is None for m in named.values()):
        return ("gathered" if reference.is_hexagon(cfg) else "livelock:1",)
    result = reference.fsync_step(cfg, named)
    if result[0] == "collision":
        return (f"collision:{result[1]}", result[2])
    return result


def _engine_settle(cfg, moves):
    result = settle(cfg, moves)
    if not isinstance(result, Outcome):
        return ("ok", result)
    if result.collision is None:
        return (result.token(),)
    named = tuple((r, None if m is None else m.name) for r, m in result.collision.participants)
    return (result.token(), named)


def test_settle_matches_the_reference_move_phase():
    # Every connected shape up to 6 robots and a sample of the 7-robot ones,
    # each with all-stay and seeded random moves (a robot stays with
    # probability 1/2, else moves in a random direction), against the
    # benchmark reference: collision kind, participants in order, successor,
    # and the all-stay rule.
    rng = random.Random(0x5E771E)
    shapes = [s for n in range(1, 7) for s in enumerate_connected(n)]
    shapes += rng.sample(enumerate_connected(7), 400) + [gathered_hexagon()]
    kinds = set()
    vacate_and_enter = 0
    for cfg in shapes:
        order = sorted(cfg)
        draws = [dict.fromkeys(order)]
        draws += [{r: rng.choice((None, rng.choice(DIRECTIONS))) for r in order} for _ in range(4)]
        for moves in draws:
            got = _engine_settle(cfg, moves)
            assert got == _reference_settle(cfg, moves), (sorted(cfg), moves)
            kinds.add(got[0])
            if got[0] == "ok" and any(
                m is not None and neighbor(r, m) in cfg for r, m in moves.items()
            ):
                vacate_and_enter += 1
    assert kinds == {
        "ok", "gathered", "livelock:1",
        "collision:swap", "collision:move-onto-stationary", "collision:same-target",
    }
    assert vacate_and_enter > 0

    # One cycle holding a same-target pair, first in scan order, and a swap:
    # swaps are checked first, so the swap is reported.
    cfg = frozenset({(0, 0), (1, 0), (2, 0), (3, 0)})
    moves = {(0, 0): NE, (1, 0): NW, (2, 0): E, (3, 0): W}
    expected = ("collision:swap", (((2, 0), "E"), ((3, 0), "W")))
    assert _engine_settle(cfg, moves) == _reference_settle(cfg, moves) == expected


def test_successors_are_sized_for_their_robots_and_bare_outcomes_shared():
    successor = settle(SE_LINE, compute_decisions(SE_LINE, decide_move, 2))
    assert type(successor) is frozenset and len(successor) == 7
    assert sys.getsizeof(successor) == sys.getsizeof(frozenset(dict.fromkeys(successor)))
    # Outcomes without a payload are one shared immutable value per kind.
    ne_line = BUILTIN_CONFIGS["fig5b-diagonal"].robots
    assert settle(SE_LINE, dict.fromkeys(SE_LINE)) is settle(ne_line, dict.fromkeys(ne_line))
    capped = (run(cfg, decide_move, 2, max_steps=1).outcome for cfg in (SE_LINE, ne_line))
    assert next(capped) is next(capped)


def test_equal_collisions_and_moved_onto_nodes_are_shared():
    # Two starts whose first cycle ends on one collision: the robot at the
    # origin sees only its E neighbor, moves E, and its neighbor stays.
    onto_east = table({frozenset({E}): E})
    pair, line = frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (1, 0), (2, 0)})
    first, second = (run(cfg, onto_east, 1).outcome for cfg in (pair, line))
    assert first == second == Outcome(
        OutcomeKind.COLLISION,
        CollisionReport(CollisionKind.MOVE_ONTO_STATIONARY, (((0, 0), E), ((1, 0), None))),
    )
    assert first is second
    # Robots moving onto one coordinate from two configurations land on one tuple.
    (west,) = settle(frozenset({(3, 0)}), {(3, 0): W})
    (east,) = settle(frozenset({(1, 0)}), {(1, 0): E})
    assert west == east == (2, 0) and west is east
