"""Exhaustive verification: one algorithm over every connected start of size n."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from . import engine, gather2
from .shapes import ShapeGraph


# algorithm id -> (decision function, visibility range)
ALGORITHMS: dict[str, tuple[engine.DecisionFunction, int]] = {
    gather2.ALGORITHM_ID: (gather2.decide_move, 2),
    gather2.ALGORITHM_ID_VERBATIM: (gather2.decide_verbatim, 2),
}


@dataclass(frozen=True)
class ConfigResult:
    config_id: int
    outcome: engine.Outcome
    steps: int

    @property
    def min_connected(self) -> bool:
        """Connectivity held after every step: a run ends at its first disconnected one."""
        return self.outcome.kind != engine.OutcomeKind.DISCONNECTED

    @property
    def gathered(self) -> bool:
        return self.outcome.kind == engine.OutcomeKind.GATHERED


@dataclass(frozen=True)
class VerificationSummary:
    """The per-start results of one sweep; every aggregate is read off them."""

    algorithm: str
    n: int
    results: tuple[ConfigResult, ...]
    wall_time: float

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def gathered(self) -> int:
        return sum(r.gathered for r in self.results)

    @property
    def failures(self) -> tuple[ConfigResult, ...]:
        return tuple(r for r in self.results if not r.gathered)

    @property
    def max_steps_observed(self) -> int:
        return max((r.steps for r in self.results), default=0)

    @property
    def outcome_counts(self) -> dict[str, int]:
        return dict(Counter(r.outcome.token() for r in self.results))


# A shape's moves, the tuple engine.settle takes, and the index of its next
# shape, ShapeGraph.step's: None when the cycle reaches no enumerated shape.
_Row = tuple[tuple[engine.Move, ...], int | None]
# The outcome of a quiescent gathered shape, which every start reaching one ends on.
_GATHERED = engine.Outcome(engine.OutcomeKind.GATHERED)


def _cycles(graph: ShapeGraph, rows: list[_Row], at: int):
    """The cycles of the run from shape ``at``: each row's moves, settled in turn.

    A step is connected exactly when its row names a next shape;
    :func:`engine.record` draws no cycle after a disconnected one.
    """
    cfg = graph.shape(at)
    while True:
        moves, at = rows[at]
        result = engine.settle(cfg, moves)
        if isinstance(result, engine.Outcome):
            yield result
            return
        yield engine.TraceStep(moves, result, at is not None)
        cfg = result


def verify_sweep(
    n: int,
    algorithm: str,
    max_steps: int = engine.DEFAULT_MAX_STEPS,
) -> tuple[VerificationSummary, list[tuple[int, list[str]]]]:
    """Run an algorithm over every enumerated configuration of size n.

    Valid because decisions depend only on the robot-relative view and every
    connected successor of an n-shape is an enumerated n-shape.  The sweep
    steps each packed shape of a :class:`ShapeGraph` once into a successor
    table, and decides once per distinct view mask: the algorithm sees each
    distinct view once, as :func:`engine.view_of` builds it.  That
    ``{mask: move}`` table is the only decision memo in the program; the
    decision functions themselves cache nothing.
    A shape's row holds its moves, the tuple :meth:`ShapeGraph.step` and
    :func:`engine.settle` both take, and the index of its next shape, which
    ``step`` returns.  A step that reaches no enumerated shape is settled,
    once per shape, to find the quiescent gathered shapes: steps-to-gather
    is a shape's depth below one.  Every other start fails: the table gives
    each of its cycles' moves and next shape, :func:`engine.settle` gives
    every successor from that start, and :func:`engine.record`, which ends
    every run of ``engine.run`` too, decides where its trace ends.
    :func:`engine.run` stays the reference for the cycles: the differential
    tests compare every result and trace line against one run per start.
    Results are in canonical enumeration order.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    decide, visibility = ALGORITHMS[algorithm]
    started = time.perf_counter()
    graph = ShapeGraph(n)
    moves: dict[int, engine.Move] = {}  # one decision per distinct view mask
    rows: list[_Row] = []
    distinct: dict = {}  # shared decision tuples: about 200 distinct among 3652 at n=7
    predecessors: list[list[int]] = [[] for _ in range(len(graph))]
    queue: list[int] = []  # quiescent gathered shapes, then breadth-first
    for idx in range(len(graph)):
        masks = graph.masks(idx, visibility)
        for mask in masks:
            if mask not in moves:
                moves[mask] = decide(engine.view_of(mask, visibility))
        decisions = tuple([moves[mask] for mask in masks])
        decisions = distinct.setdefault(decisions, decisions)
        nxt = graph.step(idx, decisions)
        if nxt is not None:
            predecessors[nxt].append(idx)
        elif engine.settle(graph.shape(idx), decisions) == _GATHERED:
            queue.append(idx)
        rows.append((decisions, nxt))

    # Breadth-first over reverse edges.  Each shape has one successor, so
    # each is reached at most once, and cycles are never reached.
    depth = dict.fromkeys(queue, 0)
    for idx in queue:
        for prev in predecessors[idx]:
            depth[prev] = depth[idx] + 1
            queue.append(prev)

    results = []
    failure_traces = []
    for idx in range(len(graph)):
        if depth.get(idx, max_steps) < max_steps:
            results.append(ConfigResult(idx, _GATHERED, depth[idx]))
            continue
        cycles = _cycles(graph, rows, idx)
        trace = engine.record(graph.shape(idx), visibility, cycles, max_steps)
        results.append(ConfigResult(idx, trace.outcome, len(trace.steps)))
        failure_traces.append((idx, engine.trace_to_lines(trace, algorithm)))
    summary = VerificationSummary(algorithm, n, tuple(results), time.perf_counter() - started)
    return summary, failure_traces
