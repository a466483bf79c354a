"""Exhaustive verification: one algorithm over every connected start of size n."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from . import config as configs
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


# A shape's decisions in sorted robot order, and ShapeGraph.step's successor.
_Row = tuple[tuple[engine.Move, ...], tuple[int, int, int] | None]
# The outcome of a quiescent gathered shape, which every start reaching one ends on.
_GATHERED = engine.Outcome(engine.OutcomeKind.GATHERED)


def _settle(cfg: configs.Configuration, decisions: tuple[engine.Move, ...]):
    """:func:`engine.settle` on decisions in sorted robot order."""
    return engine.settle(cfg, dict(zip(sorted(cfg), decisions)))


def _cycles(graph: ShapeGraph, rows: list[_Row], at: int):
    """The cycles of the run from shape ``at``, read off the table in its frame.

    The last, which reaches no enumerated shape, is settled in that frame.
    """
    cfg = graph.shape(at)
    oa = ob = 0
    while True:
        decisions, edge = rows[at]
        if edge is None:
            result = _settle(cfg, decisions)
            if isinstance(result, engine.Outcome):
                yield result
            else:  # collision-free, yet no enumerated shape: disconnected
                yield engine.TraceStep(decisions, result, False)
            return
        at, da, db = edge
        oa, ob = oa + da, ob + db
        cfg = configs.translate(graph.shape(at), (oa, ob))
        yield engine.TraceStep(decisions, cfg, True)


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
    A step that reaches no enumerated shape is left to :func:`engine.settle`,
    once per shape to find the quiescent gathered shapes: steps-to-gather is
    a shape's depth below one.  Every other start fails: its cycles are read
    off the table from that start, its last cycle is settled again in the
    start's frame, and :func:`engine.record`, which ends every run of
    ``engine.run`` too, decides where its trace ends.  :func:`engine.run`
    stays the reference for the cycles: the differential tests compare every
    result and trace line against one run per start.  Results are in
    canonical enumeration order.
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
        edge = graph.step(idx, decisions)
        if edge is not None:
            predecessors[edge[0]].append(idx)
        elif _settle(graph.shape(idx), decisions) == _GATHERED:
            queue.append(idx)
        rows.append((decisions, edge))

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
