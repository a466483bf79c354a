"""Acceptance suite: one test per criterion, exact tolerances, pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
one-line PASS summaries as they complete).
"""

import hashlib
import random
import time

import pytest

from oracles import count_connected_anchored
from trigather import engine
from trigather.cli import main, summary_csv_rows
from trigather.config import (
    enumerate_connected,
    gathered_hexagon,
    translate,
)
from trigather.engine import (
    CollisionKind,
    Outcome,
    OutcomeKind,
    compute_decisions,
    observe,
    settle,
)
from trigather.gather2 import decide_move, dump_guards
from trigather.grid import DIRECTIONS, Direction, neighbor
from trigather.range1 import (
    BUILTIN_CONFIGS,
    RuleTable,
    check_table,
    constrained_actions,
    table_to_decision,
)
from trigather.verify import verify_sweep

# frozen regression constants, derived from the first verified runs
MAX_STEPS_OBSERVED = 19
DEFAULT_STEP_BUDGET = engine.DEFAULT_MAX_STEPS  # 500
DUMP_SHA256 = "62baf1f1b67870888927c1606b8947d386dfecaf1282efd6e85947ee7a852152"
SUMMARY_CSV_SHA256 = "802c95b0a00b62e0114fcedb5a70df54866b18317df0f584da3d0da7d28f0dd5"


def report(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def sweep():
    started = time.perf_counter()
    summary, failure_traces = verify_sweep(7, "gather2-v1", max_steps=DEFAULT_STEP_BUDGET)
    summary_time = time.perf_counter() - started
    return summary, failure_traces, summary_time


def test_criterion_1_enumeration_count(capsys):
    started = time.perf_counter()
    assert main(["enumerate", "--n", "7"]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert out == "n=7 count=3652\n"
    with capsys.disabled():
        report(1, f"n=7 count=3652 in {elapsed:.1f}s")


def test_criterion_2_enumeration_oracle():
    started = time.perf_counter()
    counts = {}
    for n in range(1, 7):
        got = len(enumerate_connected(n))
        expected = count_connected_anchored(n)
        assert got == expected, f"n={n}: enumeration {got} != oracle {expected}"
        counts[n] = got
    elapsed = time.perf_counter() - started
    report(2, f"n=1..6 counts {counts} match brute-force oracle in {elapsed:.0f}s")


def test_criterion_3_exhaustive_gathering(sweep):
    summary, failure_traces, elapsed = sweep
    assert summary.total == 3652
    assert summary.gathered == 3652
    assert summary.failures == ()
    assert failure_traces == []
    assert all(r.min_connected for r in summary.results)
    assert all(r.outcome.kind == OutcomeKind.GATHERED for r in summary.results)
    report(3, f"3652/3652 gathered, connectivity held at every step, {elapsed:.1f}s")


def test_summary_csv_bytes_pinned(sweep):
    """Per-start outcomes and step counts, not only their aggregates, are frozen."""
    summary, _, _ = sweep
    text = "\n".join(summary_csv_rows(summary)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_CSV_SHA256


def test_criterion_4_quiescence_fixed_point():
    hexa = gathered_hexagon()
    out = settle(hexa, compute_decisions(hexa, decide_move, 2))
    assert out == Outcome(OutcomeKind.GATHERED)
    for robot in hexa:
        assert decide_move(observe(hexa, robot, 2)) is None
    report(4, "every robot stays on the gathered configuration: one cycle settles as gathered")


def test_criterion_5_step_bound(sweep):
    summary, _, _ = sweep
    assert summary.max_steps_observed == MAX_STEPS_OBSERVED
    assert MAX_STEPS_OBSERVED * 5 <= DEFAULT_STEP_BUDGET
    report(
        5,
        f"max steps {summary.max_steps_observed} over 3652 runs; "
        f"default budget {DEFAULT_STEP_BUDGET} exceeds it {DEFAULT_STEP_BUDGET // MAX_STEPS_OBSERVED}x",
    )


def test_criterion_6_determinism_and_equivariance():
    rng = random.Random(20260808)
    shapes = enumerate_connected(7)
    sample = rng.sample(shapes, 100)
    for cfg in sample:
        first = engine.run(cfg, decide_move, 2)
        second = engine.run(cfg, decide_move, 2)
        assert first == second
        offset = (rng.randint(-40, 40), rng.randint(-40, 40))
        moved = engine.run(translate(cfg, offset), decide_move, 2)
        assert moved.outcome == first.outcome
        assert len(moved.steps) == len(first.steps)
        for a, b in zip(first.steps, moved.steps):
            assert translate(a.robots, offset) == b.robots
            assert a.decisions == b.decisions
    report(6, "100 sampled runs identical on re-run and under random translation")


def test_criterion_7_collision_semantics():
    def table(moves):
        return table_to_decision(RuleTable.from_moves(moves))

    E, W, NE, NW, SW, SE = (
        Direction.E, Direction.W, Direction.NE, Direction.NW, Direction.SW, Direction.SE,
    )
    pair = frozenset({(0, 0), (1, 0)})

    decide = table({frozenset({E}): E, frozenset({W}): W})
    swap = settle(pair, compute_decisions(pair, decide, 1))
    assert swap.kind == OutcomeKind.COLLISION and swap.collision.kind == CollisionKind.SWAP
    assert swap.collision.participants == (((0, 0), E), ((1, 0), W))

    onto = settle(pair, compute_decisions(pair, table({frozenset({E}): E}), 1))
    assert onto.kind == OutcomeKind.COLLISION
    assert onto.collision.kind == CollisionKind.MOVE_ONTO_STATIONARY
    assert onto.collision.participants == (((0, 0), E), ((1, 0), None))

    trio = frozenset({(0, 0), (1, -1), (1, -2)})
    decide = table({frozenset({SE}): SW, frozenset({NE}): NW})
    same = settle(trio, compute_decisions(trio, decide, 1))
    assert same.kind == OutcomeKind.COLLISION and same.collision.kind == CollisionKind.SAME_TARGET
    assert same.collision.participants == (((0, 0), SW), ((1, -2), NW))

    decide = table({frozenset({E}): E, frozenset({W}): E})
    legal = settle(pair, compute_decisions(pair, decide, 1))
    assert legal == frozenset({(1, 0), (2, 0)})
    report(7, "swap, move-onto-stationary, same-target detected; vacate-and-enter legal")


def test_criterion_8_range1_replay():
    all_stay = check_table(RuleTable.all_stay(), BUILTIN_CONFIGS["fig5a-diagonal"].robots)
    assert all_stay.outcome.kind == OutcomeKind.LIVELOCK
    assert all_stay.outcome.cycle_length == 1

    seed = RuleTable.from_moves(
        {frozenset({Direction.SE}): Direction.SW, frozenset({Direction.NE}): Direction.NW}
    )
    prop1a = check_table(seed, BUILTIN_CONFIGS["prop1a-geometry"].robots)
    assert prop1a.outcome.kind == OutcomeKind.COLLISION
    assert prop1a.outcome.collision.kind == CollisionKind.SAME_TARGET

    rng = random.Random(0x51AC)
    opposite_views = (
        frozenset({Direction.E, Direction.W}),
        frozenset({Direction.NE, Direction.SW}),
        frozenset({Direction.NW, Direction.SE}),
    )
    exercised = 0
    for _ in range(1000):
        cells = [(0, 0)]
        while len(cells) < rng.randint(2, 7):
            nb = rng.choice(list(neighbor(rng.choice(cells), d) for d in DIRECTIONS))
            if nb not in cells:
                cells.append(nb)
        cfg = frozenset(cells)
        table = RuleTable(tuple(rng.choice(constrained_actions(m)) for m in range(64)))
        decide = table_to_decision(table)
        for robot in cfg:
            dirs = frozenset(d for d in DIRECTIONS if neighbor(robot, d) in cfg)
            if dirs in opposite_views:
                assert decide(observe(cfg, robot, 1)) is None
                exercised += 1
    assert exercised > 100
    report(8, f"frozen verdicts reproduced; {exercised} opposite-pair views never moved")


def test_criterion_9_guard_table_fidelity(capsys):
    dump = dump_guards()
    assert hashlib.sha256(dump.encode()).hexdigest() == DUMP_SHA256
    assert main(["dump-guards"]) == 0
    assert capsys.readouterr().out == dump
    import pathlib

    notes = pathlib.Path(__file__).resolve().parent.parent / "docs" / "transcription-notes.md"
    text = notes.read_text()
    start = text.index("```\n") + 4
    end = text.index("\n```", start)
    assert text[start:end] + "\n" == dump
    assert "line 25" in dump  # the contradictory-conjunct resolution is annotated
    with capsys.disabled():
        report(9, "dump-guards matches the transcription notes; checksum pinned")
